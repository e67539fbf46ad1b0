"""Property tests of the span-marking kernels behind the coefficient,
geometric, rank-covering and Hamming sweeps, of the batched elimination
behind the cutting-set test, and of RREF canonicity over F_q and
F_{q^m}, on random small systems, codes and matrices.

q = 2 and q = 4 (a non-prime base) combine multiples tables by XOR;
q = 3 takes the base-p digit-array path.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from ranksat import (BudgetExceeded, QSystem, associated_code, covering,
                     fqlinalg, hamming_covering_radius,
                     is_linear_cutting_blocking_set, is_minimal_rank_code,
                     linear_set, make_tower, rank_covering_radius,
                     random_system, saturation_radius,
                     saturation_radius_geometric)
from ranksat.covering import (_coverage_through_level, _geometric_layers,
                              _rank_layers)
from ranksat.linalg import ext_matmul, rank_weight
from ranksat.qsystem import PointIndexer, SystemError_, random_code

from oracles import (affine_rank_layers, affine_saturation_radius,
                     brute_cutting, brute_hamming_covering_radius,
                     brute_is_minimal, brute_min_coefficient_rank,
                     brute_rank_covering_radius, degenerate_code)

TOWERS = {qm: make_tower(*qm) for qm in [(2, 2), (2, 3), (3, 2), (4, 2)]}

# (q, m), k, n with a valid [n, k] system and at most 4096 oracle vectors
SYSTEMS = [(qm, k, n) for qm in TOWERS for k in (1, 2, 3)
           for n in range(k, qm[1] * k + 1)
           if TOWERS[qm].order ** n <= 4096]

# (q, m), k, N with at most 4096 (word, codeword) oracle pairs
CODES = [(qm, k, N) for qm in TOWERS for N in range(1, 5)
         for k in range(1, N + 1) if TOWERS[qm].order ** (N + k) <= 4096]

# (q, m), k, n with at most 2^17 (hyperplane, vector of U) oracle pairs
CUTTING = [(qm, k, n) for qm in TOWERS for k in (1, 2, 3)
           for n in range(k, qm[1] * k + 1)
           if PointIndexer(TOWERS[qm], k).total * qm[0] ** n <= 1 << 17]

# (field, order): the base fields F_2, F_3, F_4 and the towers over them
FIELDS = ([(TOWERS[qm].base, qm[0]) for qm in [(2, 2), (3, 2), (4, 2)]]
          + [(TOWERS[qm], TOWERS[qm].order) for qm in [(2, 2), (3, 2), (4, 2)]])

SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


def _index(target, Q):
    idx = 0
    for x in target:
        idx = idx * Q + int(x)
    return idx


@PROPERTY
@given(st.sampled_from(SYSTEMS), SEEDS)
def test_coefficient_sweep_matches_oracle(case, seed):
    qm, k, n = case
    tower = TOWERS[qm]
    Q = tower.order
    sysm = random_system(tower, k, n, random.Random(seed))
    G = sysm.generator
    least = brute_min_coefficient_rank(G, tower)
    rho, cert = saturation_radius(sysm)
    assert rho == least.max()
    for w in range(rho + 1):
        covered = _coverage_through_level(G, tower, w, 1 << 26)
        assert np.array_equal(covered, least <= w)
    # every nonzero target has a witness of its least coefficient rank
    assert len(cert.witnesses) == Q ** k - 1
    for target, lam in cert.witnesses.items():
        lam = np.array(lam, dtype=np.int64)
        got = ext_matmul(G, lam[:, None], tower).ravel()
        assert tuple(got.tolist()) == target
        assert rank_weight(lam, tower) == least[_index(target, Q)]
    if rho > 0:
        assert least[_index(cert.tightness, Q)] == rho
    assert cert.verify(sysm)


def _system(tower, k, n, nonscattered, rng):
    """A random [n, k] system; when `nonscattered` (and n > k) its last
    column is c times its first for a c outside F_q, so their point has
    weight >= 2 and some B = G M^T has F_{q^m}-rank below dim M."""
    while True:
        sysm = random_system(tower, k, n, rng)
        if not nonscattered or n == k:
            return sysm
        G = sysm.generator.copy()
        G[:, -1] = tower.mul_arr(rng.randrange(tower.base.q, tower.order),
                                 G[:, 0])
        try:
            return QSystem(tower, G)
        except SystemError_:
            continue


def _outcome(call):
    """repr of the result, or of the refusal's message, completed level
    and coverage, so that a float and a numpy float differ."""
    try:
        return repr(call())
    except BudgetExceeded as exc:
        return repr((str(exc), exc.completed_level, exc.coverage))


@PROPERTY
@given(st.sampled_from(SYSTEMS), st.booleans(), st.sampled_from([5, 1 << 16]),
       SEEDS)
def test_projective_sweep_matches_affine_oracle(case, nonscattered, chunk,
                                                seed):
    # a chunk of 5 marks splits levels and batches into many chunks, so
    # witnesses and the early stop cross chunk boundaries
    qm, k, n = case
    tower = TOWERS[qm]
    rng = random.Random(seed)
    sysm = _system(tower, k, n, nonscattered, rng)
    G = sysm.generator
    with mock.patch.object(covering, "_MARK_CHUNK", chunk):
        rho, cert = saturation_radius(sysm)
    expected_rho, expected = affine_saturation_radius(sysm)
    assert rho == expected_rho
    assert cert.to_json() == expected.to_json()
    levels = [c.copy() for _, c in affine_rank_layers(G, tower, 1 << 26)]
    assert len(levels) == rho + 1
    for w, covered in enumerate(levels):
        assert np.array_equal(_coverage_through_level(G, tower, w, 1 << 26),
                              covered)
    dual = associated_code(sysm).dual()
    for w, _ in affine_rank_layers(dual.parity_check, tower, 1 << 26):
        pass
    assert rank_covering_radius(dual) == w
    # a budget anywhere from below Q^k to past the whole sweep refuses at
    # the same level with the same coverage, or passes in both
    work = 1 + sum(fqlinalg.count_subspaces(n, j, tower.base.q)
                   * tower.order ** j for j in range(1, rho + 1))
    budget = rng.randint(1, work + 1)
    assert (_outcome(lambda: saturation_radius(sysm, budget)[0])
            == _outcome(lambda: affine_saturation_radius(sysm, budget)[0]))


def _invertible(size, field, order, rng):
    while True:
        M = np.array([[rng.randrange(order) for _ in range(size)]
                      for _ in range(size)], dtype=np.int64)
        if fqlinalg.rank(M, field) == size:
            return M


@PROPERTY
@given(st.sampled_from(SYSTEMS), st.booleans(), SEEDS)
def test_equivalent_systems_keep_radius_and_coverage(case, nonscattered,
                                                     seed):
    # A G B for A in GL(k, q^m) and B in GL(n, q) (whose F_q entries are
    # their own codes in F_{q^m}) spans the image of U under an
    # automorphism of F_{q^m}^k, which permutes the points
    qm, k, n = case
    tower = TOWERS[qm]
    rng = random.Random(seed)
    sysm = _system(tower, k, n, nonscattered, rng)
    A = _invertible(k, tower, tower.order, rng)
    B = _invertible(n, tower.base, tower.base.q, rng)
    image = QSystem(tower, ext_matmul(ext_matmul(A, sysm.generator, tower),
                                      B, tower))

    def counts(s):
        return [int(c.sum()) for _, c in _rank_layers(s.generator, tower,
                                                      1 << 26)]

    assert counts(image) == counts(sysm)
    assert saturation_radius(image)[0] == saturation_radius(sysm)[0]
    assert (linear_set(image).weight_multiset()
            == linear_set(sysm).weight_multiset())


@PROPERTY
@given(st.sampled_from(SYSTEMS), SEEDS)
def test_geometric_sweep_matches_oracle(case, seed):
    # a point is in the span of w points of L_U iff its vectors are
    # G lambda^T with wt_rk(lambda) <= w
    qm, k, n = case
    tower = TOWERS[qm]
    sysm = random_system(tower, k, n, random.Random(seed))
    least = brute_min_coefficient_rank(sysm.generator, tower)
    indexer = PointIndexer(tower, k)
    reps = indexer.decode(np.arange(indexer.total))
    point_least = least[[_index(v, tower.order) for v in reps]]
    levels = [covered.copy() for _, covered in _geometric_layers(sysm, 1 << 26)]
    assert len(levels) - 1 == least.max() == saturation_radius_geometric(sysm)
    for w, covered in enumerate(levels):
        assert np.array_equal(covered, point_least <= w)


@PROPERTY
@given(st.sampled_from([c for c in SYSTEMS
                        if TOWERS[c[0]].order ** (2 * c[2] - c[1]) <= 4096]),
       SEEDS)
def test_dual_rank_covering_radius_matches_oracle(case, seed):
    qm, k, n = case
    tower = TOWERS[qm]
    sysm = random_system(tower, k, n, random.Random(seed))
    dual = associated_code(sysm).dual()
    rho = rank_covering_radius(dual)
    assert rho == brute_rank_covering_radius(dual)
    assert rho == saturation_radius(sysm)[0]


@PROPERTY
@given(st.sampled_from(CODES), SEEDS)
def test_hamming_covering_radius_matches_oracle(case, seed):
    qm, k, N = case
    tower = TOWERS[qm]
    gen = random_code(tower, k, N, random.Random(seed)).generator
    assert (hamming_covering_radius(gen, tower)
            == brute_hamming_covering_radius(gen, tower))


@PROPERTY
@given(st.sampled_from(CUTTING), st.integers(0, 2), SEEDS)
def test_cutting_test_matches_oracles(case, extra, seed):
    # U is a cutting blocking set iff its associated code is minimal, and
    # a code whose columns span U over F_q with extra F_q-dependent
    # columns is minimal iff U is cutting
    qm, k, n = case
    rng = random.Random(seed)
    sysm = random_system(TOWERS[qm], k, n, rng)
    code = degenerate_code(sysm, extra, rng)
    cutting = is_linear_cutting_blocking_set(sysm)
    assert cutting == brute_cutting(sysm)
    assert cutting == is_minimal_rank_code(code) == brute_is_minimal(code)


@PROPERTY
@given(st.sampled_from(sorted(TOWERS)), st.integers(1, 6), st.integers(1, 5),
       st.integers(1, 5), SEEDS)
def test_echelon_matches_rref_per_block(qm, b, r, c, seed):
    tower = TOWERS[qm]
    rng = np.random.default_rng(seed)
    for field, order in ((tower.base, tower.base.q), (tower, tower.order)):
        # sparse blocks, so that pivots often sit below the next free row
        M = rng.integers(0, order, (b, r, c)) * (rng.random((b, r, c)) < 0.5)
        R, pivot_col, ranks = fqlinalg.echelon(M, field)
        for s in range(b):
            ref, pivots = fqlinalg.rref(M[s], field)
            assert ranks[s] == len(pivots) == fqlinalg.rank(M[s], field)
            assert np.array_equal(R[s, :ranks[s]], ref)
            assert not R[s, ranks[s]:].any()
            assert pivot_col[s].tolist() == pivots + [c] * (r - ranks[s])


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 5), SEEDS)
def test_rref_is_canonical(fq, r, c, seed):
    field, Q = fq
    rng = np.random.default_rng(seed)
    M = rng.integers(0, Q, (r, c)) * (rng.random((r, c)) < 0.6)
    R, pivots = fqlinalg.rref(M, field)
    # A = P L U is invertible: L unit lower, U upper with a nonzero diagonal
    L = np.tril(rng.integers(0, Q, (r, r)), -1) + np.eye(r, dtype=np.int64)
    U = np.triu(rng.integers(0, Q, (r, r)), 1) + np.diag(rng.integers(1, Q, r))
    A = ext_matmul(L, U, field)[rng.permutation(r)]
    R2, pivots2 = fqlinalg.rref(ext_matmul(A, M, field), field)
    assert pivots2 == pivots
    assert np.array_equal(R2, R)
    # the row space, enumerated, has Q^rank elements
    coeffs = np.indices((Q,) * r).reshape(r, -1).T
    span = ext_matmul(coeffs, M, field)
    assert len(np.unique(span, axis=0)) == Q ** len(pivots)
    K = fqlinalg.kernel(M, field)
    assert K.shape == (c - len(pivots), c)
    assert not ext_matmul(M, K.T, field).any()
    assert np.array_equal(fqlinalg.rref(K, field)[0], K)
