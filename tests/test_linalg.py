from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksat import (BudgetExceeded, FieldError, RankCode, gabidulin, linalg,
                     make_tower, min_rank_distance, rank_weight,
                     weight_spectrum)
from ranksat.linalg import ext_matmul, ext_rref, rank_weight_batch
from ranksat import fqlinalg

from oracles import digit_rank_weight, echelon_rank_weight_batch


def test_rank_weight_zero(tower16):
    assert rank_weight([0, 0, 0], tower16) == 0


def test_rank_weight_independent_triple(tower16):
    t = tower16
    a = t.alpha
    a5 = t.pow(a, 5)
    # 1, a, a^5 = a^2 + a span a 3-dimensional F_2-space: their 8 XOR
    # combinations are pairwise distinct
    spans = set()
    for c in range(8):
        acc = 0
        for i, r in enumerate([1, a, a5]):
            if (c >> i) & 1:
                acc ^= r
        spans.add(acc)
    assert len(spans) == 8
    assert rank_weight([1, a, a5], t) == 3


def test_rank_weight_proportional_coordinates(tower16):
    t = tower16
    c = t.pow(t.alpha, 7)
    v = [c, c, t.mul(1, c)]          # lambda, mu in F_q = F_2
    assert rank_weight(v, t) == 1


def test_rank_weight_batch_matches_scalar(tower16, tower9, rng):
    for t in (tower16, tower9, make_tower(4, 3)):
        V = np.array([[t.random_element(rng) for _ in range(5)]
                      for _ in range(100)])
        batch = rank_weight_batch(V, t)
        for i in range(100):
            assert int(batch[i]) == rank_weight(V[i], t)


# F_9/F_3 (the small-call case), F_16/F_2, F_25/F_5, F_64/F_4, F_3^5
RANK_TOWERS = [make_tower(q, m) for q, m in [(3, 2), (2, 4), (5, 2), (4, 3),
                                             (3, 5)]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(RANK_TOWERS), st.integers(0, 30), st.integers(0, 7),
       st.integers(0, 2 ** 32 - 1))
def test_rank_weights_match_digit_rank_oracles(tower, N, n, seed):
    """`rank_weight` and `rank_weight_batch`, on the greedy F_q-basis
    kernel, give the ranks of the digit matrices that `rref` and the
    batched `echelon` over F_q gave before it; the batch also in chunks
    of 8 entries."""
    rng = np.random.default_rng(seed)
    V = rng.integers(0, tower.order, (N, n)) * (rng.random((N, n)) < 0.7)
    want = echelon_rank_weight_batch(V, tower)
    got = rank_weight_batch(V, tower)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    with mock.patch.object(linalg, "_RANK_CHUNK", 8):
        assert rank_weight_batch(V, tower).tolist() == want.tolist()
    assert ([rank_weight(v, tower) for v in V]
            == [digit_rank_weight(v, tower) for v in V] == want.tolist())


def test_rank_weight_rejects_codes_outside_the_field(tower16):
    with pytest.raises(FieldError, match="outside"):
        rank_weight([1, 16], tower16)
    with pytest.raises(FieldError, match="outside"):
        rank_weight([-1, 0], tower16)


def test_rank_weight_bounded_by_hamming_and_m(tower16, rng):
    t = tower16
    for _ in range(200):
        v = np.array([t.random_element(rng) for _ in range(6)])
        w = rank_weight(v, t)
        assert w <= min(int(np.count_nonzero(v)), t.m)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_min_rank_distance_gabidulin(tower16, k):
    code = gabidulin(tower16, 4, k, 1)
    assert min_rank_distance(code) == 4 - k + 1


def test_min_rank_distance_full_space(tower4):
    code = RankCode(tower4, np.eye(3, dtype=np.int64))
    assert min_rank_distance(code) == 1


def test_min_rank_distance_budget_refusal(tower16):
    code = gabidulin(tower16, 4, 3, 1)
    with pytest.raises(BudgetExceeded):
        min_rank_distance(code, budget=100)


def test_dual_of_standard_form(tower16):
    t = tower16
    A = np.array([[t.alpha, 3], [7, 9]], dtype=np.int64)
    G = np.concatenate([np.eye(2, dtype=np.int64), A], axis=1)
    code = RankCode(t, G)
    H_expected = np.concatenate([t.neg_arr(A).T, np.eye(2, dtype=np.int64)],
                                axis=1)
    got, _ = ext_rref(code.parity_check, t)
    want, _ = ext_rref(H_expected, t)
    assert np.array_equal(got, want)


def test_dual_is_involutive_and_complementary(tower4, rng):
    from ranksat.qsystem import random_code
    for _ in range(5):
        code = random_code(tower4, 2, 4, rng)
        dd = code.dual().dual()
        a, _ = ext_rref(code.generator, tower4)
        b, _ = ext_rref(dd.generator, tower4)
        assert np.array_equal(a, b)
        assert code.k + code.dual().k == code.n


def test_dual_of_full_space_is_zero_code(tower4):
    code = RankCode(tower4, np.eye(2, dtype=np.int64))
    assert code.dual().k == 0


def test_gabidulin_dual_is_mrd(tower16):
    # the [4,2] dual must again have minimum distance k + 1 = 3
    code = gabidulin(tower16, 4, 2, 1)
    assert min_rank_distance(code.dual()) == 3


def test_weight_spectrum_zero_code(tower4):
    code = RankCode(tower4, np.zeros((0, 3), dtype=np.int64))
    assert weight_spectrum(code) == set()


def test_weight_spectrum_mrd(tower16):
    code = gabidulin(tower16, 4, 2, 1)
    spec = weight_spectrum(code)
    assert spec <= {3, 4}
    assert len(spec) <= 2


def test_weight_spectrum_one_dimensional_full_rank(tower16):
    t = tower16
    v = np.array([1, t.alpha, t.pow(t.alpha, 2), t.pow(t.alpha, 3)])
    code = RankCode(t, v.reshape(1, -1))
    # multiplication by any nonzero scalar is F_q-invertible, so every
    # nonzero codeword keeps full rank
    assert weight_spectrum(code) == {4}


def test_rank_weight_glnq_invariance(tower16, rng):
    t = tower16
    n = 4
    v = np.array([t.random_element(rng) for _ in range(n)])
    for _ in range(20):
        while True:
            A = np.array([[rng.randrange(2) for _ in range(n)]
                          for _ in range(n)], dtype=np.int64)
            if fqlinalg.rank(A, t.base) == n:
                break
        vA = ext_matmul(v.reshape(1, -1), A, t).ravel()
        assert rank_weight(vA, t) == rank_weight(v, t)


def test_rank_weight_of_ug_formula(tower4):
    """wt_rk(u G) = n - dim(U meet <u>-perp) for every row vector u."""
    from itertools import product
    from ranksat import QSystem, expand
    t = tower4
    G = np.array([[1, 0, t.alpha], [0, 1, 1]], dtype=np.int64)
    sysm = QSystem(t, G)
    for u in product(range(t.order), repeat=2):
        ua = np.array(u, dtype=np.int64)
        if not ua.any():
            continue
        uG = ext_matmul(ua.reshape(1, -1), G, t).ravel()
        # dim of U meet <u>-perp on coefficient space
        constraints = expand(uG, t).T
        ker = fqlinalg.kernel(constraints, t.base)
        assert rank_weight(uG, t) == sysm.n - ker.shape[0]
