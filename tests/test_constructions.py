import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksat import (Decomposition, QSystem, associated_code,
                     construct_identity_block, construct_rho1,
                     construct_subgeometry,
                     cutting_system_6_3, cutting_system_8_4, decompose,
                     direct_sum, f_sum, gabidulin, is_nondegenerate,
                     lift_system, linear_set, make_tower, min_rank_distance,
                     plotkin_sum, random_system, saturation_radius,
                     saturation_radius_geometric, weight_spectrum)
from ranksat import fqlinalg
from ranksat.gftower import expand
from ranksat.linalg import ext_matmul
from ranksat.qsystem import SystemError_

from oracles import (brute_min_terms, brute_saturation_radius,
                     decompose_by_solves, digit_matrix_decompose,
                     parity_contains, rank_membership)


# ------------------------------------------------------------------ rho1

def test_rho1_dimension_and_radius(tower4, tower9):
    for t, k in ((tower4, 2), (tower4, 3), (tower9, 2)):
        v = np.zeros(k, dtype=np.int64)
        v[k - 1] = 1
        sysm = construct_rho1(t, k, v, v)
        assert sysm.n == t.m * (k - 1) + 1
        assert saturation_radius(sysm)[0] == 1


def test_rho1_rejects_orthogonal_vprime(tower4):
    with pytest.raises(SystemError_, match="hyperplane"):
        construct_rho1(tower4, 2, [0, 1], [1, 0])


# -------------------------------------------------------- identity block

def test_identity_block_edge_rho_equals_k(tower4):
    sysm = construct_identity_block(tower4, 2, 2)
    assert np.array_equal(sysm.generator, np.eye(2, dtype=np.int64))
    assert saturation_radius(sysm)[0] == 2


def test_identity_block_dimension_formula(tower9):
    for k, rho in ((2, 1), (3, 2), (4, 2)):
        sysm = construct_identity_block(tower9, k, rho)
        assert sysm.n == tower9.m * (k - rho) + rho
        assert is_nondegenerate(associated_code(sysm))


def test_identity_block_radius_exact(tower4):
    sysm = construct_identity_block(tower4, 3, 2)
    assert saturation_radius(sysm)[0] == 2
    assert brute_saturation_radius(sysm) == 2


def test_identity_block_range_check(tower4):
    with pytest.raises(SystemError_):
        construct_identity_block(tower4, 2, 3)


# ----------------------------------------------------------- subgeometry

def test_subgeometry_dims_and_radius(tower16):
    sysm = construct_subgeometry(tower16, 2, 2, 1)
    assert (sysm.n, sysm.k) == (5, 4)
    assert saturation_radius_geometric(sysm) == 3


def test_subgeometry_h0_is_identity_case(tower16):
    sysm = construct_subgeometry(tower16, 2, 2, 0)
    assert (sysm.n, sysm.k) == (3, 3)
    assert np.array_equal(sysm.generator, np.eye(3, dtype=np.int64))


def test_subgeometry_requires_matching_degree(tower4):
    with pytest.raises(SystemError_, match="r\\*t"):
        construct_subgeometry(tower4, 2, 2, 1)


def test_subgeometry_parameter_validation(tower16):
    with pytest.raises(SystemError_):
        construct_subgeometry(tower16, 1, 4, 1)
    with pytest.raises(SystemError_):
        construct_subgeometry(tower16, 2, 2, -1)


# ------------------------------------------------------------- decompose

def test_decompose_member_single_term(tower16):
    sysm = construct_subgeometry(tower16, 2, 2, 1)
    emb = tower16.subfield(2)
    v = np.array([1, 0, 1, int(emb.embed_table[2])], dtype=np.int64)
    dec = decompose(sysm, v)
    assert dec.terms == 1 and dec.lams == [1]
    assert np.array_equal(dec.vectors[0], v)


def test_decompose_zero_target(tower16):
    sysm = construct_subgeometry(tower16, 2, 2, 1)
    dec = decompose(sysm, np.zeros(4, dtype=np.int64))
    assert dec.terms == 0


def test_decompose_tightness_needs_all_terms(tower16):
    t = tower16
    sysm = construct_subgeometry(t, 2, 2, 1)
    gammas = [1, t.alpha, t.pow(t.alpha, 3)]       # F_2-independent
    v = np.array(gammas + [0], dtype=np.int64)
    dec = decompose(sysm, v)
    assert dec.terms == 3
    assert brute_min_terms(sysm, v, 3) == 3


def test_decompose_random_targets(tower16, rng):
    for (r, t, h) in ((2, 2, 1), (2, 2, 2)):
        sysm = construct_subgeometry(tower16, r, t, h)
        s = (r - 1) * t + 1
        for _ in range(200):
            v = np.array([tower16.random_element(rng)
                          for _ in range(sysm.k)], dtype=np.int64)
            dec = decompose(sysm, v)
            assert dec.terms <= s
            assert dec.verify(sysm)


def test_decompose_identity_block(tower4, rng):
    sysm = construct_identity_block(tower4, 3, 2)
    for _ in range(200):
        v = np.array([tower4.random_element(rng) for _ in range(3)],
                     dtype=np.int64)
        dec = decompose(sysm, v)
        assert dec.terms <= 2
        assert dec.verify(sysm)


def test_decompose_forced_degenerate_branches(tower16):
    """Targets with vanishing projections on each stage of the
    elimination, including the compound case where the first complement
    coordinate lives only in the bottom block."""
    t = tower16
    sysm = construct_subgeometry(t, 2, 2, 1)
    emb = t.subfield(2)
    omega = int(emb.embed_table[2])                  # generator of F_4
    cb = t.complement_basis(2)
    b1, b2 = cb.betas
    adversarial = [
        np.array([0, 0, 0, b1], dtype=np.int64),     # beta_1 only in bottom
        np.array([1, omega, 0, 0], dtype=np.int64),  # all projections vanish
        np.array([1, omega, t.pow(t.alpha, 3),
                  t.add(t.pow(t.alpha, 3), t.pow(t.alpha, 2))],
                 dtype=np.int64),                    # compound degenerate
        np.array([0, 0, 0, t.alpha], dtype=np.int64),
        np.array([omega, 0, 0, 0], dtype=np.int64),
    ]
    for v in adversarial:
        dec = decompose(sysm, v)
        assert dec.terms <= 3
        assert dec.verify(sysm)
        assert brute_min_terms(sysm, v, 3) is not None


def test_decompose_with_explicit_bases(tower16, rng):
    sysm = construct_subgeometry(tower16, 2, 2, 2)
    for _ in range(3):
        cb = tower16.random_complement_basis(2, rng)
        for _ in range(50):
            v = np.array([tower16.random_element(rng)
                          for _ in range(sysm.k)], dtype=np.int64)
            dec = decompose(sysm, v, basis=cb)
            assert dec.terms <= 3
            assert dec.verify(sysm)


def test_decompose_rejects_unstructured_system(tower4):
    sysm = QSystem(tower4, np.eye(2, dtype=np.int64))
    with pytest.raises(SystemError_, match="box"):
        decompose(sysm, np.array([1, 0], dtype=np.int64))


# an int64 cast would read the float and bool targets as the codes
# [1, 2, 0, 3, 0] and 0/1
@pytest.mark.parametrize("v", [[-1, 0, 0, 0, 0], [0, 0, 0, 0, -3],
                               [16, 0, 0, 0, 0], [0, 0, 0, 0, 16],
                               [1.7, 2.2, 0, 3.9, 0],
                               [True, False, True, True, False]],
                         ids=["negative-top", "negative-bottom",
                              "top-outside-field", "bottom-outside-field",
                              "float", "bool"])
def test_decompose_rejects_codes_outside_field(tower16, v):
    sysm = construct_subgeometry(tower16, 2, 2, 2)
    with pytest.raises(SystemError_, match=r"codes must lie in 0\.\.15"):
        decompose(sysm, np.asarray(v))


def _shift_first_nonzero(u, by):
    u = np.array(u, dtype=np.int64)
    u[np.flatnonzero(u)[0]] += by
    return u


def _replace_vector(dec, u):
    return Decomposition(dec.target, dec.lams, [u] + dec.vectors[1:])


def _rescale_first_term(dec, Q):
    """lambda_0 c^-1 and c u_0 for the least c outside F_2 with c u_0
    outside U (by the rank oracle) in the F_16 test system: the sum is
    unchanged, but one term is not in U."""
    t = make_tower(2, 4, [1, 1, 0, 0, 1])
    sysm = construct_subgeometry(t, 2, 2, 2)
    assert Q == t.order
    u = np.asarray(dec.vectors[0])
    c = next(c for c in range(t.base.q, Q)
             if not rank_membership(sysm, [t.mul_arr(c, u)]))
    bad = Decomposition(dec.target,
                        [t.mul(dec.lams[0], t.inv(c))] + dec.lams[1:],
                        [t.mul_arr(c, u)] + dec.vectors[1:])
    assert np.array_equal(bad.reconstruct(t), dec.target)
    return bad


# each takes a well-formed decomposition and the field order Q
MALFORMED = {
    "lambda-without-vector":
        lambda d, Q: Decomposition(d.target, d.lams + [9], d.vectors),
    "lambda-outside-field":
        lambda d, Q: Decomposition(d.target, [Q + 1] + d.lams[1:], d.vectors),
    "negative-lambda":
        lambda d, Q: Decomposition(d.target, [d.lams[0] - Q] + d.lams[1:],
                                   d.vectors),
    "non-integer-lambda":
        lambda d, Q: Decomposition(d.target, [float(d.lams[0])] + d.lams[1:],
                                   d.vectors),
    "short-vector": lambda d, Q: _replace_vector(d, d.vectors[0][:3]),
    "negative-entry":
        lambda d, Q: _replace_vector(d, _shift_first_nonzero(d.vectors[0],
                                                             -Q)),
    "entry-outside-field":
        lambda d, Q: _replace_vector(d, np.full_like(d.vectors[0], Q)),
    "short-target":
        lambda d, Q: Decomposition(d.target[:3], d.lams, d.vectors),
    "float-target":
        lambda d, Q: Decomposition(d.target.astype(np.float64), d.lams,
                                   d.vectors),
    "target-outside-field":
        lambda d, Q: Decomposition(np.full_like(d.target, Q), d.lams,
                                   d.vectors),
    # an extra term True * 0 leaves the sum, and 0 is in U
    "bool-lambda":
        lambda d, Q: Decomposition(d.target, d.lams + [True],
                                   d.vectors + [np.zeros_like(d.target)]),
    "rescaled-term": _rescale_first_term,
}


@pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED.keys())
def test_decomposition_verify_rejects_malformed(tower16, malform):
    t = tower16
    sysm = construct_subgeometry(t, 2, 2, 2)
    v = np.array([1, t.alpha, t.pow(t.alpha, 3), t.alpha, 0], dtype=np.int64)
    dec = decompose(sysm, v)
    assert dec.terms == 3 and dec.verify(sysm)
    assert malform(dec, t.order).verify(sysm) is False


# (construction, q, m, parameters): subgeometry (r, t, h) and identity
# block (k, rho) systems over base fields F_2, F_3, F_4 and F_5
BOX_SYSTEMS = ([("subgeometry", q, m, rth)
                for q, m, rth in [(2, 4, (2, 2, 1)), (2, 4, (2, 2, 2)),
                                  (3, 4, (2, 2, 1)), (4, 4, (2, 2, 1)),
                                  (5, 4, (2, 2, 1)), (2, 6, (3, 2, 1)),
                                  (2, 6, (2, 3, 1))]]
               + [("identity", q, m, krho)
                  for q, m, krho in [(2, 3, (3, 2)), (3, 2, (3, 2)),
                                     (4, 2, (3, 2)), (5, 2, (3, 2)),
                                     (2, 4, (4, 3))]])
BOX_TOWERS = {(q, m): make_tower(q, m) for _, q, m, _ in BOX_SYSTEMS}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(BOX_SYSTEMS), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_decompose_matches_oracle(box, seed, with_basis):
    """`decompose` gives the same terms as one solve per coordinate, and
    the same Decomposition, lams (Python ints) and int64 vectors alike,
    as its digit-matrix eliminations before the F_q-span kernel.  Zeroed
    top prefixes leave fewer independent top values than s, so the
    module extension runs; every third target has F_q-dependent top
    values and its bottom in the subfield."""
    kind, q, m, params = box
    tower = BOX_TOWERS[(q, m)]
    construct = (construct_subgeometry if kind == "subgeometry"
                 else construct_identity_block)
    sysm = construct(tower, *params)
    s, t, _ = sysm.meta["box"]
    embed = tower.subfield(t).embed_table
    rng = random.Random(seed)
    basis = tower.random_complement_basis(t, rng) if with_basis else None
    for i in range(12):
        v = np.array([tower.random_element(rng) for _ in range(sysm.k)],
                     dtype=np.int64)
        if i % 3 == 1:
            x = tower.random_element(rng)
            v[:s] = [tower.mul(rng.randrange(q), x) for _ in range(s)]
            v[s:] = embed[[rng.randrange(q ** t) for _ in range(sysm.k - s)]]
        v[:rng.randrange(s + 1)] = 0
        dec = decompose(sysm, v, basis)
        ref = decompose_by_solves(sysm, v, basis)
        assert dec.lams == ref.lams and dec.terms == ref.terms
        assert len(dec.vectors) == len(ref.vectors)
        assert all(np.array_equal(a, b)
                   for a, b in zip(dec.vectors, ref.vectors))
        assert dec.verify(sysm) is True and ref.verify(sysm) is True
        old = digit_matrix_decompose(sysm, v, basis)
        assert [(type(x), x) for x in dec.lams] == [(type(x), x)
                                                    for x in old.lams]
        assert [(a.dtype, a.shape, a.tolist()) for a in dec.vectors] == [
            (a.dtype, a.shape, a.tolist()) for a in old.vectors]
        assert np.array_equal(dec.target, old.target)
        assert dec.target.dtype == old.target.dtype


# random non-box systems over F_2, F_3, F_4 and F_9 bases, k in 1..3
MEMBER_TOWERS = [BOX_TOWERS[(2, 4)], BOX_TOWERS[(3, 2)],
                 BOX_TOWERS[(4, 2)], make_tower(9, 2)]
# (tower, k): random [n, 4] systems over F_81/F_3, whose syndromes of
# 16 - n base-3 digits span two or three blocks of 5, and [n, 3] systems
# over F_289/F_17 (p > 16: one digit per block, sums mod 17; n = 6 has
# an empty parity check)
WIDE_MEMBER_SYSTEMS = [(make_tower(3, 4), 4), (make_tower(17, 2), 3)]


def _membership_system(system, rng):
    if isinstance(system, tuple) and len(system) == 4:
        kind, q, m, params = system
        construct = (construct_subgeometry if kind == "subgeometry"
                     else construct_identity_block)
        return construct(BOX_TOWERS[(q, m)], *params)
    tower, k = (system if isinstance(system, tuple)
                else (system, rng.randrange(1, 4)))
    return random_system(tower, k, rng.randrange(k, 2 * k + 1), rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(BOX_SYSTEMS), st.sampled_from(MEMBER_TOWERS),
                 st.sampled_from(WIDE_MEMBER_SYSTEMS)),
       st.integers(0, 2 ** 32 - 1))
def test_membership_matches_rank_oracle(system, seed):
    """`QSystem.contains` (U's syndrome tables) agrees with the parity
    product it replaced and with the rank of the expanded [G | u], on
    members of U, on members scaled by some c in F_{q^m} and on random
    vectors."""
    rng = random.Random(seed)
    sysm = _membership_system(system, rng)
    tower = sysm.tower
    coeffs = np.array([[rng.randrange(tower.base.q) for _ in range(sysm.n)]
                       for _ in range(8)], dtype=np.int64)
    members = ext_matmul(coeffs, sysm.generator.T, tower)
    scaled = tower.mul_arr(np.array([[tower.random_element(rng)]
                                     for _ in range(8)]), members)
    randoms = np.array([[tower.random_element(rng) for _ in range(sysm.k)]
                        for _ in range(8)], dtype=np.int64)
    V = np.vstack([members, scaled, randoms])
    expect = [rank_membership(sysm, [u]) for u in V]
    assert all(expect[:8])
    assert sysm.contains(V).tolist() == expect
    assert parity_contains(sysm, V).tolist() == expect
    assert [not sysm.syndrome(u) for u in V.tolist()] == expect
    assert sysm.contains(V[:0]).shape == (0,)


def test_verify_runs_no_elimination_once_warm(tower16, monkeypatch):
    sysm = construct_subgeometry(tower16, 2, 2, 2)
    rng = random.Random(5)
    decs = [decompose(sysm, [tower16.random_element(rng) for _ in range(5)])
            for _ in range(20)]
    bad = _rescale_first_term(decs[0], tower16.order)
    assert decs[0].verify(sysm)     # builds the syndrome tables

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran an elimination or an array op")

    for owner, name in ((fqlinalg, "rref"), (fqlinalg, "kernel"),
                        (tower16, "mul_arr"), (tower16, "add_arr")):
        monkeypatch.setattr(owner, name, refuse)
    assert all(dec.verify(sysm) for dec in decs)
    assert bad.verify(sysm) is False


# ------------------------------------------------------------------ sums

def test_direct_sum_radius_can_drop(tower16):
    t = tower16
    u1 = QSystem(t, np.eye(2, dtype=np.int64))
    u2 = QSystem(t, np.array([[1, t.alpha, t.pow(t.alpha, 5)]],
                             dtype=np.int64))
    assert saturation_radius(u1)[0] == 2
    assert saturation_radius(u2)[0] == 1
    s = direct_sum(u1, u2)
    assert (s.n, s.k) == (5, 3)
    assert saturation_radius(s)[0] == 2        # strictly below 2 + 1


def test_f_sum_zero_dimensional_summand(tower4):
    u1 = QSystem(tower4, np.array([[1, tower4.alpha]], dtype=np.int64))
    empty = QSystem(tower4, np.zeros((0, 0), dtype=np.int64))
    s = direct_sum(u1, empty)
    assert np.array_equal(s.generator, u1.generator)


def test_f_sum_radius_bounded_by_sum(tower4, rng):
    u1 = construct_identity_block(tower4, 2, 1)
    u2 = QSystem(tower4, np.eye(1, dtype=np.int64))
    r1 = saturation_radius(u1)[0]
    r2 = saturation_radius(u2)[0]
    for f in (None, np.array([[tower4.random_element(rng)]
                              for _ in range(u1.n)], dtype=np.int64)):
        s = f_sum(u1, u2, f)
        assert (s.n, s.k) == (u1.n + u2.n, u1.k + u2.k)
        assert saturation_radius(s)[0] <= r1 + r2


def test_plotkin_sum_requires_equal_lengths(tower4):
    u1 = construct_identity_block(tower4, 2, 1)
    u2 = QSystem(tower4, np.eye(1, dtype=np.int64))
    with pytest.raises(SystemError_, match="n1 = n2"):
        plotkin_sum(u1, u2)
    same = plotkin_sum(u2, QSystem(tower4, np.eye(1, dtype=np.int64)))
    assert (same.n, same.k) == (2, 2)


def test_f_sum_tower_mismatch(tower4, tower9):
    u1 = QSystem(tower4, np.eye(1, dtype=np.int64))
    u2 = QSystem(tower9, np.eye(1, dtype=np.int64))
    with pytest.raises(SystemError_, match="tower"):
        direct_sum(u1, u2)


# ------------------------------------------------------------- gabidulin

def test_gabidulin_square_boundary(tower16):
    code = gabidulin(tower16, 2, 2, 1)
    assert code.k == code.n == 2


def test_gabidulin_parameters(tower16):
    code = gabidulin(tower16, 4, 2, 1)
    assert min_rank_distance(code) == 3
    assert weight_spectrum(code.dual()) == weight_spectrum(
        gabidulin(tower16, 4, 2, 1).dual())


def test_gabidulin_rejections(tower16):
    with pytest.raises(SystemError_, match="gcd"):
        gabidulin(tower16, 4, 2, 2)
    with pytest.raises(SystemError_, match="independent"):
        gabidulin(tower16, 2, 1, 1, alpha_vector=[1, 1])
    with pytest.raises(SystemError_):
        gabidulin(tower16, 5, 2, 1)


# -------------------------------------------------------- golden systems

def test_golden_6_3_entries(tower16):
    t = tower16
    sysm = cutting_system_6_3(t)
    lam = t.alpha
    assert sysm.generator[0, 0] == t.pow(lam, 4)
    assert sysm.generator[1, 4] == 0
    assert sysm.generator[2, 5] == t.pow(lam, 3)
    assert (sysm.n, sysm.k) == (6, 3)


def test_golden_6_3_rejects_wrong_modulus():
    other = make_tower(2, 4, [1, 0, 0, 1, 1])      # x^4 + x^3 + 1
    with pytest.raises(SystemError_, match="modulus"):
        cutting_system_6_3(other)


def test_8_4_membership_example(tower16):
    sysm = cutting_system_8_4(tower16)
    assert (sysm.n, sysm.k) == (8, 4)
    cols = np.concatenate(
        [expand(sysm.generator[:, j], tower16).reshape(-1)[:, None]
         for j in range(8)], axis=1)
    target = expand(np.array([1, 0, 1, 1]), tower16).reshape(-1)
    assert fqlinalg.solve(cols, target, tower16.base) is not None


def test_8_4_wrong_degree_rejected(tower4):
    with pytest.raises(SystemError_, match="m="):
        cutting_system_8_4(tower4)


def test_all_constructions_nondegenerate_with_advertised_dims(tower16,
                                                              tower9):
    built = [
        (construct_rho1(tower9, 2, [0, 1], [0, 1]), 3, 2),
        (construct_identity_block(tower16, 3, 2), 4 + 2, 3),
        (construct_subgeometry(tower16, 2, 2, 2), 7, 5),
        (cutting_system_6_3(tower16), 6, 3),
        (cutting_system_8_4(tower16), 8, 4),
    ]
    for sysm, n, k in built:
        assert (sysm.n, sysm.k) == (n, k)
        assert is_nondegenerate(associated_code(sysm))


# --------------------------------------------- cutting-to-saturating lift

def test_cutting_pipeline_radius(tower16, tower256):
    lifted = lift_system(cutting_system_6_3(tower16), tower256)
    assert (lifted.n, lifted.k) == (6, 3)
    assert saturation_radius_geometric(lifted) == 2


def test_lift_preserves_linear_set_size(tower16, tower256):
    small = cutting_system_6_3(tower16)
    lifted = lift_system(small, tower256)
    assert len(linear_set(lifted)) == len(linear_set(small))
