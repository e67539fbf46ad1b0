"""Property tests of the span-marking kernels behind the coefficient,
geometric, rank-covering and Hamming sweeps, of the batched elimination
behind the cutting-set test, and of RREF canonicity over F_q and
F_{q^m}, on random small systems, codes and matrices.

q = 2 and q = 4 (a non-prime base) add packed vectors by XOR in the
geometric sweep's line marking and in the affine oracles' multiples
tables; q = 3 (and q = 5 for the Hamming sweep) takes their base-p
digit path.
"""

import random
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksat import (BudgetExceeded, QSystem, associated_code, covering,
                     fqlinalg, gaussian_binomial, hamming_covering_radius,
                     is_linear_cutting_blocking_set, is_minimal_rank_code,
                     linear_set, make_tower, rank_covering_radius,
                     random_system, saturation_radius,
                     saturation_radius_geometric)
from ranksat.constructions import (construct_identity_block,
                                   construct_subgeometry)
from ranksat.covering import (_geometric_layers, _rank_layers,
                              geometric_certificate)
from ranksat.linalg import ext_matmul
from ranksat.qsystem import PointIndexer, SystemError_, random_code

from oracles import (affine_coverage, affine_hamming_covering_radius,
                     affine_rank_layers, affine_saturation_radius,
                     all_pairs_geometric_layers, brute_cutting,
                     brute_hamming_covering_radius, brute_is_minimal,
                     brute_min_coefficient_rank, brute_rank_covering_radius,
                     coverage_through_level, degenerate_code,
                     echelon_cutting, mu_digit_flat_points, span_rank_cutting)

TOWERS = {qm: make_tower(*qm) for qm in [(2, 2), (2, 3), (3, 2), (4, 2)]}

# (q, m), k, n with a valid [n, k] system and at most 4096 oracle vectors
SYSTEMS = [(qm, k, n) for qm in TOWERS for k in (1, 2, 3)
           for n in range(k, qm[1] * k + 1)
           if TOWERS[qm].order ** n <= 4096]

# (q, m), k, N with at most 4096 (word, codeword) oracle pairs
CODES = [(qm, k, N) for qm in TOWERS for N in range(1, 5)
         for k in range(1, N + 1) if TOWERS[qm].order ** (N + k) <= 4096]

# parity-check matrices: of the dual of a system's code (the system's
# generator), and of a random [N, k] code.  DEEP holds systems of radius 3
# ([3, 3] over F_8/F_2, [4, 3] and [5, 4] over F_16/F_2), whose level 3
# has flats of rank below 3 when they are nonscattered; they are drawn as
# often as the rest together
PARITY = [("dual", c) for c in SYSTEMS] + [("code", c) for c in CODES]
F16 = make_tower(2, 4)
DEEP = [("dual", c) for c in [((2, 3), 3, 3), ((2, 4), 3, 4), ((2, 4), 4, 5)]]

# (q, m), k, N with at most 2^12 syndromes, over the towers and F_3, F_5
HAMMING = [(qm, k, N) for qm in [*TOWERS, (3, 1), (5, 1)]
           for N in range(1, 7) for k in range(1, N + 1)
           if qm[0] ** (qm[1] * (N - k)) <= 1 << 12]

# (q, m), k, n with at most 2^17 (hyperplane, vector of U) oracle pairs
CUTTING = [(qm, k, n) for qm in TOWERS for k in (1, 2, 3)
           for n in range(k, qm[1] * k + 1)
           if PointIndexer(TOWERS[qm], k).total * qm[0] ** n <= 1 << 17]

# (field, order): the base fields F_2, F_3, F_4 and the towers over them
FIELDS = ([(TOWERS[qm].base, qm[0]) for qm in [(2, 2), (3, 2), (4, 2)]]
          + [(TOWERS[qm], TOWERS[qm].order) for qm in [(2, 2), (3, 2), (4, 2)]])

# F_2, F_7 (m = 1), F_4/F_2, F_9/F_3, F_16/F_4 (e > 1), F_27 and F_256
KERNEL_TOWERS = [make_tower(*qm) for qm in [(2, 1), (7, 1), (2, 2), (3, 2),
                                            (4, 2), (3, 3), (2, 8)]]

# planes and 3-spaces over F_4/F_2, F_9/F_3, F_16/F_4 and F_27/F_3 with at
# most 1,000 points and 3^7 vectors of U, for level 2's subline filter
SUBLINE_TOWERS = {qm: make_tower(*qm)
                  for qm in [(2, 2), (3, 2), (4, 2), (3, 3)]}
SUBLINE = [(qm, k, n) for qm, tower in SUBLINE_TOWERS.items() for k in (3, 4)
           for n in range(k, qm[1] * k + 1)
           if PointIndexer(tower, k).total <= 1000 and qm[0] ** n <= 3 ** 7]

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
        covered = coverage_through_level(G, tower, w, 1 << 26)
        assert np.array_equal(covered, least <= w)
    if rho > 0:
        assert least[_index(cert.tightness, Q)] == rho
    assert cert.verify(sysm)


@PROPERTY
@given(st.sampled_from(SYSTEMS), st.booleans(), SEEDS)
def test_certificates_verify_only_their_radius(case, nonscattered, seed):
    # both routes' certificates verify, and with rho read as any other
    # value from -1 to rho + 1 and the same tightness target, neither does:
    # the replay must cover every point at rho and miss the target below
    qm, k, n = case
    sysm = _system(TOWERS[qm], k, n, nonscattered, random.Random(seed))
    for route in (saturation_radius, geometric_certificate):
        rho, cert = route(sysm)
        assert cert.verify(sysm)
        for other in range(-1, rho + 2):
            cert.rho = other
            assert cert.verify(sysm) is (other == rho)


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
    # the flats of a level and the early stop cross chunk boundaries
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
        assert np.array_equal(coverage_through_level(G, tower, w, 1 << 26),
                              covered)
    dual = associated_code(sysm).dual()
    for w, _ in affine_rank_layers(dual.parity_check, tower, 1 << 26):
        pass
    assert rank_covering_radius(dual) == w
    # a budget anywhere from below Q^k to past the whole sweep refuses at
    # the same level with the same coverage, or passes in both
    work = 1 + sum(gaussian_binomial(n, j, tower.base.q)
                   * tower.order ** j for j in range(1, rho + 1))
    budget = rng.randint(1, work + 1)
    assert (_outcome(lambda: saturation_radius(sysm, budget)[0])
            == _outcome(lambda: affine_saturation_radius(sysm, budget)[0]))


def _parity_check(case, nonscattered, rng):
    """(tower, H) for a PARITY or DEEP case."""
    kind, (qm, k, n) = case
    tower = F16 if qm == (2, 4) else TOWERS[qm]
    if kind == "dual":
        return tower, associated_code(_system(tower, k, n, nonscattered,
                                              rng)).dual().parity_check
    return tower, random_code(tower, k, n, rng).parity_check


@PROPERTY
@given(st.one_of(st.sampled_from(DEEP), st.sampled_from(PARITY)),
       st.booleans(), st.sampled_from([5, 1 << 16]), SEEDS)
def test_rank_level_matches_affine_oracle(case, nonscattered, chunk, seed):
    # the rank level marks the flats of B = H M^T, the oracle every
    # gamma M; a chunk of 5 marks puts the flats of a level, and repeats
    # of one flat, into different chunks
    rng = random.Random(seed)
    tower, H = _parity_check(case, nonscattered, rng)
    r = H.shape[0]
    expected = [c.copy() for _, c in affine_rank_layers(H, tower, 1 << 26)]
    with mock.patch.object(covering, "_MARK_CHUNK", chunk):
        got = [affine_coverage(c, tower, r)
               for _, c in _rank_layers(H, tower, 1 << 26)]
        assert len(got) == len(expected)
        for covered, oracle in zip(got, expected):
            assert np.array_equal(covered, oracle)
        work = 1 + sum(gaussian_binomial(H.shape[1], j, tower.base.q)
                       * tower.order ** j for j in range(1, len(got)))
        budget = rng.randint(1, work + 1)
        assert (_outcome(lambda: [w for w, _ in _rank_layers(H, tower,
                                                             budget)])
                == _outcome(lambda: [w for w, _ in affine_rank_layers(
                    H, tower, budget)]))


@PROPERTY
@given(st.one_of(st.sampled_from(DEEP), st.sampled_from(PARITY)),
       st.booleans(), st.sampled_from([5, 1 << 16]), SEEDS)
def test_rank_level_marks_column_spans(case, nonscattered, per, seed):
    # every M a level keeps has B = H M^T of F_{q^m}-rank w, and its row
    # of marks holds each point of the column span of B once: the points
    # of B gamma for all gamma != 0, canonicalized
    tower, H = _parity_check(case, nonscattered, random.Random(seed))
    Q, (r, n) = tower.order, H.shape
    points = PointIndexer(tower, r)
    for w in range(1, min(n, tower.m) + 1 if r else 1):
        grid = np.indices((Q,) * w).reshape(w, -1)
        for Ms, marks in covering._subspace_level(H, points, w, per)[2]:
            B = ext_matmul(H, Ms.transpose(0, 2, 1), tower)
            assert marks.shape == (len(Ms), (Q ** w - 1) // (Q - 1))
            _, idx, keep = points.canonicalize(
                ext_matmul(B, grid, tower).transpose(0, 2, 1).reshape(-1, r))
            span = np.zeros((len(Ms), points.total), dtype=bool)
            span[np.flatnonzero(keep) // Q ** w, idx] = True
            flat = np.zeros_like(span)
            flat[np.arange(len(Ms))[:, None], marks] = True
            assert np.array_equal(flat, span)
            assert (flat.sum(axis=1) == marks.shape[1]).all()


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


def _same_levels(sysm):
    got = [covered.copy() for _, covered in _geometric_layers(sysm, 1 << 26)]
    want = list(all_pairs_geometric_layers(sysm))
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


@PROPERTY
@given(st.sampled_from(SUBLINE), st.booleans(), SEEDS)
def test_subline_filter_keeps_geometric_levels(case, nonscattered, seed):
    # level 2 computes one pair of weight-1 points per F_q-subline of L_U,
    # or a pair with a heavier point: every level's bitmap is the one of
    # the sweep over all pairs, for scattered and nonscattered systems
    qm, k, n = case
    sysm = _system(SUBLINE_TOWERS[qm], k, n, nonscattered, random.Random(seed))
    assert _same_levels(sysm)


@pytest.mark.parametrize("sysm", [
    construct_identity_block(make_tower(3, 2), 3, 2),
    construct_identity_block(make_tower(4, 2), 3, 1),
    construct_identity_block(make_tower(3, 3), 3, 2),
    construct_identity_block(make_tower(2, 3), 4, 2),
    construct_identity_block(make_tower(2, 6), 3, 2),
    construct_identity_block(make_tower(3, 2), 4, 2),
    construct_subgeometry(make_tower(2, 4), 2, 2, 1)], ids=repr)
def test_subline_filter_keeps_levels_with_heavier_points(sysm):
    # their points of weight > 1 (m in a block, t in a subgeometry) lie on
    # sublines whose pairs of weight-1 points are all dropped
    assert max(linear_set(sysm).weights) > 1
    assert _same_levels(sysm)


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
@given(st.sampled_from(HAMMING), st.sampled_from([5, 1 << 16]), SEEDS)
def test_hamming_sweep_matches_affine_oracle(case, chunk, seed):
    # the projective sweep over supports gives the affine sweep's radius,
    # and a budget from 1 to past the sweep refuses alike in both
    qm, k, N = case
    tower = make_tower(*qm)
    rng = random.Random(seed)
    gen = random_code(tower, k, N, rng).generator
    Q = tower.order
    rho = affine_hamming_covering_radius(gen, tower)
    work = 1 + sum(comb(N, w) * (Q - 1) ** w for w in range(1, rho + 1))
    budget = rng.randint(1, 2 * work)
    with mock.patch.object(covering, "_MARK_CHUNK", chunk):
        assert hamming_covering_radius(gen, tower) == rho
        got = _outcome(lambda: hamming_covering_radius(gen, tower, budget))
    assert got == _outcome(
        lambda: affine_hamming_covering_radius(gen, tower, budget))


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
    assert cutting == brute_cutting(sysm) == echelon_cutting(sysm)
    assert cutting == span_rank_cutting(sysm)
    assert cutting == is_minimal_rank_code(code) == brute_is_minimal(code)
    with mock.patch.object(covering, "_CUT_CHUNK", 1):
        assert is_linear_cutting_blocking_set(sysm) == cutting


# (q, m), k with at most 757 hyperplanes (PG(2, 27)); n runs through
# k .. m k, so that cutting and non-cutting systems both occur
CUT_ORACLE = [((2, 4), 2), ((2, 4), 3), ((4, 2), 3), ((3, 3), 2),
              ((3, 3), 3), ((5, 2), 2), ((5, 2), 3)]


@PROPERTY
@given(st.sampled_from(CUT_ORACLE), st.data(), SEEDS)
def test_cutting_test_matches_echelon_oracle(case, data, seed):
    """The verdict of the support-syndrome cutting test equals those of
    the F_q-span rank test it replaced and of the digit-matrix `echelon`
    pipeline before that, on random systems too large for the
    brute-force oracle, whole and one hyperplane per chunk."""
    (q, m), k = case
    n = data.draw(st.integers(k, m * k))
    sysm = random_system(make_tower(q, m), k, n, random.Random(seed))
    cutting = is_linear_cutting_blocking_set(sysm)
    assert cutting == echelon_cutting(sysm) == span_rank_cutting(sysm)
    with mock.patch.object(covering, "_CUT_CHUNK", 1):
        assert is_linear_cutting_blocking_set(sysm) == cutting


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("tower", KERNEL_TOWERS,
                         ids=lambda t: f"F{t.order}/F{t.base.q}")
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 1), st.integers(0, 3), SEEDS)
def test_flat_points_match_mu_digit_oracle(tower, w, extra, b, seed):
    # b RREF bases of w-flats of PG(k-1, Q), half their free entries zero
    Q, k = tower.order, w + extra
    indexer = PointIndexer(tower, k)
    rng = np.random.default_rng(seed)
    R = rng.integers(0, Q, (b, w, k)) * (rng.random((b, w, k)) < 0.5)
    pivots = np.zeros((b, w), dtype=np.int64)
    for s in range(b):
        pivots[s] = np.sort(rng.choice(k, w, replace=False))
        for i, j in enumerate(pivots[s]):
            R[s, i, :j] = R[s, :, j] = 0
            R[s, i, j] = 1
    got = np.sort(covering._flat_points(R, pivots, indexer), axis=1)
    assert got.shape == (b, (Q ** w - 1) // (Q - 1))
    assert (np.diff(got, axis=1) > 0).all()
    assert np.array_equal(got, np.sort(mu_digit_flat_points(R, pivots,
                                                            indexer), axis=1))
    # the window kernel lists the nonzero multiples, zero rows included
    V = rng.integers(0, Q, (b, k)) * (rng.random((b, k)) < 0.7)
    cone = tower.mul_arr(np.arange(1, Q)[:, None], V[:, None]) @ indexer.qpow
    assert np.array_equal(np.sort(indexer.multiples(V), axis=1),
                          np.sort(cone, axis=1))


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
