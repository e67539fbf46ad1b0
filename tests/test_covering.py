import json

import numpy as np
import pytest

from ranksat import (BudgetExceeded, QSystem, RankCode,
                     associated_code, check_bound_consistency,
                     construct_identity_block, construct_rho1,
                     cutting_system_6_3, cutting_system_8_4, gabidulin,
                     hamming_covering_radius, is_linear_cutting_blocking_set,
                     is_maximal, is_minimal_rank_code, linear_set, make_tower,
                     min_rank_distance, puncture_nonscattered,
                     rank_covering_radius, random_system, saturation_radius,
                     saturation_radius_geometric, projective_hamming_code)
from ranksat.covering import SaturationCertificate
from ranksat.qsystem import SystemError_, random_code

from oracles import (brute_cutting, brute_hamming_covering_radius,
                     brute_is_maximal, brute_is_minimal,
                     brute_rank_covering_radius, brute_saturation_radius,
                     coverage_through_level, degenerate_code)


# ----------------------------------------------------------------- radii

def test_full_space_radius_zero(tower4):
    code = RankCode(tower4, np.eye(3, dtype=np.int64))
    assert rank_covering_radius(code) == 0


def test_zero_code_radius(tower4):
    code = RankCode(tower4, np.zeros((0, 3), dtype=np.int64))
    # farthest vector from 0 has full rank min(n, m) = 2
    assert rank_covering_radius(code) == 2


def test_gabidulin_covering_radius(tower16):
    for k in (1, 2, 3):
        code = gabidulin(tower16, 4, k, 1)
        assert rank_covering_radius(code) == 4 - k


def test_radius_against_oracle_random(tower4, rng):
    for _ in range(8):
        code = random_code(tower4, rng.choice([1, 2]), rng.choice([2, 3]),
                           rng)
        assert rank_covering_radius(code) == brute_rank_covering_radius(code)


def test_budget_refusal_reports_progress(tower16):
    code = gabidulin(tower16, 4, 1, 1)
    with pytest.raises(BudgetExceeded) as err:
        rank_covering_radius(code, budget=5000)
    assert err.value.completed_level is not None
    assert err.value.coverage is not None


# ------------------------------------------------------------ saturation

def test_rho1_system_saturates_at_one(tower4):
    sysm = construct_rho1(tower4, 2, [0, 1], [0, 1])
    rho, cert = saturation_radius(sysm)
    assert rho == 1
    assert cert.verify(sysm)


def test_full_base_system_saturates_at_k(tower4):
    sysm = QSystem(tower4, np.eye(2, dtype=np.int64))
    rho, _ = saturation_radius(sysm)
    assert rho == 2


def test_rho1_linear_set_is_whole_plane(tower4):
    sysm = construct_rho1(tower4, 2, [0, 1], [0, 1])
    ls = linear_set(sysm)
    assert len(ls) == (tower4.order ** 2 - 1) // (tower4.order - 1)
    assert saturation_radius_geometric(sysm) == 1


def test_identity_block_dual_covering_radius(tower4):
    # the [4,3] block system at q=2, m=2: the dual of its associated
    # code has rank covering radius 2, matching the saturation radius
    sysm = construct_identity_block(tower4, 3, 2)
    assert rank_covering_radius(associated_code(sysm).dual()) == 2


def test_characterizations_agree_with_oracle(tower4, rng):
    for _ in range(10):
        k = rng.choice([2, 3])
        n = rng.choice([3, 4, 5])
        if not k <= n <= tower4.m * k:
            continue
        sysm = random_system(tower4, k, n, rng)
        r_coeff, cert = saturation_radius(sysm)
        r_geo = saturation_radius_geometric(sysm)
        r_dual = rank_covering_radius(associated_code(sysm).dual())
        assert r_coeff == r_geo == r_dual == brute_saturation_radius(sysm)
        assert cert.verify(sysm)


def test_characterizations_agree_nonprime_base(rng):
    # q = 4 exercises the packed-subdigit base field
    tower = make_tower(4, 2)
    for _ in range(5):
        sysm = random_system(tower, 2, rng.choice([2, 3]), rng)
        r_coeff, _ = saturation_radius(sysm)
        r_geo = saturation_radius_geometric(sysm)
        r_dual = rank_covering_radius(associated_code(sysm).dual())
        assert r_coeff == r_geo == r_dual


def test_certificate_round_trip(tower4):
    sysm = construct_identity_block(tower4, 2, 1)
    rho, cert = saturation_radius(sysm)
    replayed = SaturationCertificate.from_json(cert.to_json(), tower4)
    assert replayed.rho == rho
    assert replayed.verify(sysm)


def test_tampered_certificate_fails(tower4):
    sysm = construct_identity_block(tower4, 2, 1)
    _, cert = saturation_radius(sysm)
    data = cert.to_json()
    assert data["witnesses"]
    data["witnesses"][0]["lambda"][0] ^= 1
    bad = SaturationCertificate.from_json(data, tower4)
    assert not bad.verify(sysm)


@pytest.mark.parametrize("edit", [
    lambda d: d["witnesses"][0].update(
        {"lambda": [x + 0.5 for x in d["witnesses"][0]["lambda"]]}),
    lambda d: d["witnesses"][0].update(
        target=[float(x) for x in d["witnesses"][0]["target"]]),
    lambda d: d.update(tightness=[float(x) for x in d["tightness"]]),
    lambda d: d.update(rho=1.0),
    lambda d: d.update(k=True),
    lambda d: d.update(n="3")],
    ids=["lambda-half", "target-float", "tightness-float", "rho-float",
         "k-bool", "n-str"])
def test_certificate_json_accepts_only_integers(tower4, edit):
    # int() would truncate a witness lambda + 0.5 back to one that
    # verifies, so non-integers must be refused when read
    sysm = construct_identity_block(tower4, 2, 1)
    _, cert = saturation_radius(sysm)
    data = json.loads(json.dumps(cert.to_json()))
    assert SaturationCertificate.from_json(data, tower4).verify(sysm)
    edit(data)
    with pytest.raises(ValueError, match="must be integers"):
        SaturationCertificate.from_json(data, tower4)


@pytest.mark.parametrize("reshape", [lambda lam: lam + (1,),
                                     lambda lam: lam[:-1]],
                         ids=["padded", "short"])
def test_wrong_length_witnesses_fail(tower4, reshape):
    # a trailing entry beyond n must not be ignored, and a short lambda
    # must not raise
    sysm = construct_identity_block(tower4, 3, 2)
    _, cert = saturation_radius(sysm)
    assert cert.witnesses and cert.verify(sysm)
    cert.witnesses = {t: reshape(tuple(lam))
                      for t, lam in cert.witnesses.items()}
    assert not cert.verify(sysm)


def test_forged_certificate_fails(tower16, tower256):
    # no witnesses and a tightness target missed at level 0 do not make
    # radius 1: the lifted [6,3] set has radius 2, so level 1 leaves
    # targets uncovered
    from ranksat import lift_system
    from ranksat.covering import system_hash
    lifted = lift_system(cutting_system_6_3(tower16), tower256)
    forged = SaturationCertificate(1, 3, 6, tower256, {}, (0, 0, 1),
                                   system_hash(lifted))
    assert not forged.verify(lifted)


@pytest.mark.parametrize("field, value", [("system_hash", "0" * 16),
                                          ("k", 3), ("n", 4)])
def test_certificate_for_another_system_fails(tower4, field, value):
    sysm = construct_identity_block(tower4, 2, 1)
    _, cert = saturation_radius(sysm)
    assert cert.verify(sysm)
    setattr(cert, field, value)
    assert not cert.verify(sysm)


@pytest.mark.parametrize("tightness", [(0, 6, 0), (0, -2, 0), (64, 0, 0),
                                       (1, 2), (1, 2, 0, 0)],
                         ids=["aliased-code", "negative-code", "code-past-Q^k",
                              "short", "long"])
def test_forged_tightness_fails(tower4, tightness):
    # (0, 6, 0) and (0, -2, 0) pack to the index of a missed target, so a
    # check that reads them as digits would accept them
    sysm = construct_identity_block(tower4, 3, 2)
    _, cert = saturation_radius(sysm)
    assert cert.tightness == (1, 2, 0) and cert.verify(sysm)
    cert.tightness = tightness
    assert cert.verify(sysm) is False


def test_zero_tightness_fails(tower4):
    # the zero target is reached at level 0, so it proves no lower bound
    sysm = construct_identity_block(tower4, 3, 2)
    _, cert = saturation_radius(sysm)
    cert.tightness = (0, 0, 0)
    assert cert.verify(sysm) is False


def test_certificate_without_tightness_fails(tower4):
    # rho = 3 with full coverage but no tightness target claims a lower
    # bound it does not prove: the [4,3] identity block has radius 2
    from ranksat.covering import system_hash
    sysm = construct_identity_block(tower4, 3, 2)
    cert = SaturationCertificate(3, 3, 4, tower4, {}, None, system_hash(sysm))
    assert not cert.verify(sysm)


def test_geometric_sweep_refuses_above_hard_cap(monkeypatch):
    # [9,4]/F_64 block: 449 points of L_U cover 449 of the 266,305 points
    # of PG(3, 64); level 2 would pair 449 x 449 points with 63 scalars
    from ranksat import covering
    monkeypatch.setattr(covering, "_WORK_HARD_CAP", 1 << 20)
    sysm = construct_identity_block(make_tower(2, 6), 4, 3)
    with pytest.raises(BudgetExceeded, match=r"level-2 span sweep too large "
                       r"\(449 x 449 x 63 candidates\)") as exc:
        saturation_radius_geometric(sysm)
    assert exc.value.completed_level == 1
    assert exc.value.coverage == 449 / 266305


def test_geometric_sweep_bounds_pair_batches(monkeypatch):
    # [6,4]/F_27 block: its level-3 frontier has 8,424 points, so even one
    # linear-set point per chunk pairs far more than 64 at level 3
    from ranksat import covering
    sysm = construct_identity_block(make_tower(3, 3), 4, 3)

    def levels():
        return [(w, covered.copy())
                for w, covered in covering._geometric_layers(sysm, 1 << 26)]

    expected = levels()
    sizes = []
    line_bases = covering._line_bases

    def spy(a, u, tower):
        sizes.append(a.shape[0])
        return line_bases(a, u, tower)

    monkeypatch.setattr(covering, "_FRONTIER_CHUNK", 64)
    monkeypatch.setattr(covering, "_line_bases", spy)
    bounded = levels()
    # L_U, then the frontier of 8,424 points, then all of PG(3, 27)
    assert [int(c.sum()) for _, c in expected] == [0, 352, 8_776, 20_440]
    assert max(sizes) == 64
    assert [w for w, _ in bounded] == [w for w, _ in expected] == [0, 1, 2, 3]
    assert all(np.array_equal(c, e) for (_, c), (_, e) in zip(bounded,
                                                              expected))


def test_basis_change_invariance(tower4, rng):
    from ranksat import fqlinalg
    from ranksat.linalg import ext_matmul
    sysm = construct_identity_block(tower4, 3, 2)
    n = sysm.n
    for _ in range(3):
        while True:
            A = np.array([[rng.randrange(2) for _ in range(n)]
                          for _ in range(n)], dtype=np.int64)
            if fqlinalg.rank(A, tower4.base) == n:
                break
        moved = QSystem(tower4, ext_matmul(sysm.generator, A, tower4))
        assert saturation_radius(moved)[0] == 2


def test_glk_invariance(tower4, rng):
    from ranksat.linalg import ext_matmul, ext_rank
    sysm = random_system(tower4, 2, 3, rng)
    base, _ = saturation_radius(sysm)
    for _ in range(3):
        while True:
            phi = np.array([[tower4.random_element(rng) for _ in range(2)]
                            for _ in range(2)], dtype=np.int64)
            if ext_rank(phi, tower4) == 2:
                break
        moved = QSystem(tower4, ext_matmul(phi, sysm.generator, tower4))
        assert saturation_radius(moved)[0] == base


# --------------------------------------------------------------- Hamming

def test_repetition_code_covering_radius():
    t = make_tower(2, 1)
    gen = np.array([[1, 1, 1]], dtype=np.int64)
    assert hamming_covering_radius(gen, t) == 1


def test_length_one_full_code_covering_radius(tower4):
    gen = np.array([[1]], dtype=np.int64)
    assert hamming_covering_radius(gen, tower4) == 0


def test_hamming_radius_against_oracle(tower4, rng):
    gen = np.array([[1, tower4.alpha, 1]], dtype=np.int64)
    assert (hamming_covering_radius(gen, tower4)
            == brute_hamming_covering_radius(gen, tower4))


def test_projective_code_bridge(tower4, rng):
    # rho_rk(C-dual) equals rho_H of the dual projective Hamming code
    for _ in range(5):
        sysm = random_system(tower4, 2, 3, rng)
        GH = projective_hamming_code(sysm)
        dual_gen = RankCode(tower4, GH.A).parity_check
        lhs = rank_covering_radius(associated_code(sysm).dual())
        rhs = hamming_covering_radius(dual_gen, tower4)
        assert lhs == rhs


# ------------------------------------------------------------- maximality

def test_gabidulin_is_maximal(tower16):
    assert is_maximal(gabidulin(tower16, 4, 2, 1))


def test_non_maximal_line(tower4):
    code = RankCode(tower4, np.array([[1, 0]], dtype=np.int64))
    assert min_rank_distance(code) == 1
    assert not is_maximal(code)


def test_maximality_against_supercode_oracle(tower4, rng):
    for _ in range(6):
        code = random_code(tower4, 1, rng.choice([2, 3]), rng)
        assert is_maximal(code) == brute_is_maximal(code)


# ---------------------------------------------------- bound consistency

def test_bound_consistency_random_codes(tower4, tower16, rng):
    for t, kmax, nmax in ((tower4, 2, 4), (tower16, 2, 3)):
        for _ in range(10):
            k = rng.randint(1, kmax)
            n = rng.randint(k, nmax)
            code = random_code(t, k, n, rng)
            report = check_bound_consistency(code)
            assert report["rho_dual"] <= report["s_rk"]


def test_bound_consistency_gabidulin_chain(tower16):
    for k in (1, 2, 3):
        sub = gabidulin(tower16, 4, k, 1)
        sup = gabidulin(tower16, 4, k + 1, 1)
        report = check_bound_consistency(sub, supercode=sup)
        # the chain pins the radius exactly: rho = d(supercode) = n - k
        assert report["rho"] == report["d_rk_supercode"] == 4 - k


def test_trivial_codes_exempt(tower4):
    check_bound_consistency(RankCode(tower4, np.eye(2, dtype=np.int64)))
    check_bound_consistency(RankCode(tower4,
                                     np.zeros((0, 2), dtype=np.int64)))


# ------------------------------------------ cutting sets / minimal codes

def test_golden_cutting_set(tower16):
    assert is_linear_cutting_blocking_set(cutting_system_6_3(tower16))


def test_identity_system_not_cutting(tower4):
    sysm = QSystem(tower4, np.eye(2, dtype=np.int64))
    assert not is_linear_cutting_blocking_set(sysm)
    assert not brute_cutting(sysm)


def test_cutting_against_oracle_random(tower4, rng):
    for _ in range(6):
        sysm = random_system(tower4, 2, rng.choice([3, 4]), rng)
        assert is_linear_cutting_blocking_set(sysm) == brute_cutting(sysm)


def test_single_coordinate_system_is_cutting(tower4):
    # k = 1: the only hyperplane is {0}, spanned by the empty set
    sysm = QSystem(tower4, [[1, 2]])
    assert is_linear_cutting_blocking_set(sysm)
    assert brute_cutting(sysm)
    assert is_minimal_rank_code(associated_code(sysm))


def test_cutting_refuses_above_budget(tower16):
    sysm = cutting_system_6_3(tower16)
    total = (16 ** 3 - 1) // 15
    with pytest.raises(BudgetExceeded,
                       match=f"^{total} hyperplanes exceed budget {total - 1}$"):
        is_linear_cutting_blocking_set(sysm, budget=total - 1)
    assert is_linear_cutting_blocking_set(sysm, budget=total)


def test_cutting_chunks_stay_within_their_bound(monkeypatch, tower16):
    """Every array that the cutting test makes or passes per chunk of
    hyperplanes (the normals, h G, the kernel's and `echelon`'s inputs
    and outputs, and each tower op inside them) holds at most _CUT_CHUNK
    entries: at the default bound on the [8,4] system, whose chunks fill
    it, and at a bound of 64 on the [6,3]."""
    sizes = []

    def spy(f):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            sizes.extend(a.size for a in (*args, *kwargs.values(), *(
                out if isinstance(out, tuple) else (out,)))
                if isinstance(a, np.ndarray))
            return out
        return wrapped

    from ranksat import covering, fqlinalg
    from ranksat.qsystem import PointIndexer
    for name in ("mul_arr", "sub_arr", "add_arr", "neg_arr", "inv_arr"):
        monkeypatch.setattr(tower16, name, spy(getattr(tower16, name)))
    for owner, name in ((covering, "ext_matmul"), (PointIndexer, "decode"),
                        (fqlinalg, "fq_basis_batch"), (fqlinalg, "echelon")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    for sysm, chunk in ((cutting_system_8_4(tower16), covering._CUT_CHUNK),
                        (cutting_system_6_3(tower16), 64)):
        monkeypatch.setattr(covering, "_CUT_CHUNK", chunk)
        sizes.clear()
        assert is_linear_cutting_blocking_set(sysm)
        assert chunk // 2 < max(sizes) <= chunk


def test_8_4_system_is_cutting_at_q2(tower16):
    assert is_linear_cutting_blocking_set(cutting_system_8_4(tower16))


def test_8_4_system_is_not_cutting_at_q4():
    # the construction cuts for q = 2^h with h odd; at q = 4 the
    # hyperplane with normal (1, 0, 36, 2) (element codes) meets U in a
    # 4-dimensional F_q-space that does not span it
    tower = make_tower(4, 4)
    assert not is_linear_cutting_blocking_set(cutting_system_8_4(tower))


def test_8_4_code_distance_at_least_two(tower16):
    code = associated_code(cutting_system_8_4(tower16))
    assert min_rank_distance(code) >= 2


def test_8_4_system_radius_meets_dual_distance_bound(tower16):
    # exhaustive sweep gives d_rk = 3, so rho <= min(n,m) - d + 1 = 2;
    # the span sweep measures exactly 2
    sysm = cutting_system_8_4(tower16)
    d = min_rank_distance(associated_code(sysm))
    assert d == 3
    rho = saturation_radius_geometric(sysm)
    assert rho == 2
    assert rho <= min(sysm.n, tower16.m) - d + 1


def test_golden_code_is_minimal(tower16):
    assert is_minimal_rank_code(associated_code(cutting_system_6_3(tower16)))


def test_full_base_code_is_not_minimal(tower4):
    # the [2,2] code contains (1, alpha), whose support is all of F_2^2
    # and swallows the support of e_1 without proportionality; this
    # matches the cutting test on the associated system U = F_q^2
    code = RankCode(tower4, np.eye(2, dtype=np.int64))
    assert not is_minimal_rank_code(code)


def test_equal_support_pair_not_minimal(tower4):
    t = tower4
    G = np.array([[1, t.alpha], [t.alpha, 1]], dtype=np.int64)
    code = RankCode(t, G)
    assert not is_minimal_rank_code(code)


def test_minimality_matches_cutting(tower4, rng):
    # codes with F_q-dependent columns included (extra > 0)
    for extra in (0, 0, 1, 1, 1, 2, 2, 2):
        sysm = random_system(tower4, 2, rng.choice([3, 4]), rng)
        code = degenerate_code(sysm, extra, rng)
        assert (is_minimal_rank_code(code) == brute_is_minimal(code)
                == brute_cutting(sysm))


# -------------------------------------------------------------- puncture

def test_puncture_weight_two_toy(tower4):
    t = tower4
    sysm = QSystem(t, np.array([[1, t.alpha, 0], [0, 0, 1]], dtype=np.int64))
    out = puncture_nonscattered(sysm, verify_budget=1 << 20)
    assert (out.n, out.k) == (sysm.n - 1, sysm.k)


def test_puncture_radius_growth_bounded(tower4, rng):
    for _ in range(5):
        sysm = random_system(tower4, 2, 4, rng)
        ls = linear_set(sysm)
        from ranksat import is_scattered
        if is_scattered(ls):
            continue
        rho_old, _ = saturation_radius(sysm)
        out = puncture_nonscattered(sysm)
        rho_new, _ = saturation_radius(out)
        assert rho_new <= rho_old + 1


def test_puncture_check_raises_when_the_radius_grows(monkeypatch, tower4):
    """With verify_budget, a punctured radius above the old one plus 1
    raises ConsistencyError (here a faked radius of the new system)."""
    from ranksat import covering
    t = tower4
    sysm = QSystem(t, np.array([[1, t.alpha, 0], [0, 0, 1]], dtype=np.int64))
    radius = covering.saturation_radius

    def inflated(s, budget):
        rho, cert = radius(s, budget)
        return (rho + 2 if s is not sysm else rho), cert

    monkeypatch.setattr(covering, "saturation_radius", inflated)
    with pytest.raises(covering.ConsistencyError, match="puncturing bound"):
        puncture_nonscattered(sysm, verify_budget=1 << 20)
    assert puncture_nonscattered(sysm).n == sysm.n - 1


def test_puncture_rejects_scattered(tower16):
    with pytest.raises(SystemError_, match="scattered"):
        puncture_nonscattered(cutting_system_6_3(tower16))


def test_gabidulin_system_saturates_at_k(tower16):
    # the system associated with any generalized Gabidulin code is
    # rank-k-saturating
    from ranksat import associated_system
    for k in (1, 2, 3):
        code = gabidulin(tower16, 4, k, 1)
        sysm = associated_system(code)
        rho, _ = saturation_radius(sysm)
        assert rho == k
        assert saturation_radius_geometric(sysm) == k


def test_lifted_cutting_set_coefficient_sweep(tower16, tower256):
    # same radius through the coefficient sweep on the 2^24-target
    # space; certificates above the witness cap carry only tightness
    from ranksat import lift_system
    lifted = lift_system(cutting_system_6_3(tower16), tower256)
    rho, cert = saturation_radius(lifted)
    assert rho == 2
    assert cert.witnesses == {}
    assert cert.verify(lifted)


# ------------------------------------------------------ sweep soundness

def test_coverage_monotone_and_complete_at_rho(tower4):
    sysm = construct_identity_block(tower4, 3, 2)
    fractions = []
    for w in range(0, 3):
        cov = coverage_through_level(sysm.generator, tower4, w, 1 << 26)
        fractions.append(float(cov.sum()) / cov.size)
    assert fractions == sorted(fractions)
    assert fractions[1] < 1.0
    assert fractions[2] == 1.0        # complete exactly at w = rho = 2
