import numpy as np
import pytest

from ranksat import (BudgetExceeded, FieldError, QSystem, RankCode,
                     associated_code, associated_system, gabidulin,
                     is_nondegenerate, is_scattered, linear_set,
                     projective_hamming_code, random_system,
                     weight_spectrum)
from ranksat.constructions import construct_identity_block, cutting_system_6_3
from ranksat.gftower import expand
from ranksat.linalg import ext_matmul
from ranksat.qsystem import PointIndexer, SystemError_, expanded_columns


def test_expanded_columns_expands_each_column(tower9, rng):
    G = np.array([[tower9.random_element(rng) for _ in range(5)]
                  for _ in range(3)], dtype=np.int64)
    E = expanded_columns(G, tower9)
    assert E.shape == (6, 5)
    for j in range(5):
        assert np.array_equal(E[:, j], expand(G[:, j], tower9).reshape(-1))
    assert expanded_columns(G[:, :0], tower9).shape == (6, 0)
    for bad in (9, -1):
        with pytest.raises(FieldError, match="outside"):
            expanded_columns(np.array([[0, bad]]), tower9)


def test_single_column_system(tower16):
    sysm = QSystem(tower16, np.array([[1]], dtype=np.int64))
    ls = linear_set(sysm)
    assert len(ls) == 1
    assert ls.weights.tolist() == [1]
    assert is_scattered(ls)


def test_weight_two_point(tower16):
    # U = <1, lambda> with lambda outside F_2: one point of weight 2
    sysm = QSystem(tower16, np.array([[1, tower16.alpha]], dtype=np.int64))
    ls = linear_set(sysm)
    assert len(ls) == 1
    assert ls.weights.tolist() == [2]
    assert not is_scattered(ls)


def test_golden_cutting_set_is_scattered(tower16):
    ls = linear_set(cutting_system_6_3(tower16))
    assert len(ls) == 63
    assert is_scattered(ls)
    assert ls.max_size() == 63


def test_partition_identity_random(tower4, rng):
    q = tower4.base.q
    for _ in range(10):
        sysm = random_system(tower4, 2, rng.choice([2, 3, 4]), rng)
        ls = linear_set(sysm)
        assert int(np.sum(q ** ls.weights - 1)) == q ** sysm.n - 1
        assert len(ls) <= ls.max_size()
        assert is_scattered(ls) == (len(ls) == ls.max_size())


def test_nondegenerate_examples(tower4):
    t = tower4
    G = np.concatenate([np.eye(2, dtype=np.int64),
                        t.alpha * np.eye(2, dtype=np.int64)], axis=1)
    assert is_nondegenerate(RankCode(t, G))
    # two equal columns: the column span has F_q-dimension 2 < n = 3
    G2 = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert not is_nondegenerate(RankCode(t, G2))


def test_identity_block_generator_is_nondegenerate(tower4):
    sysm = construct_identity_block(tower4, 3, 2)
    assert is_nondegenerate(associated_code(sysm))


def test_degenerate_code_rejected_with_dimension(tower4):
    G2 = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    with pytest.raises(SystemError_, match="dimension 2"):
        associated_system(RankCode(tower4, G2))


def test_association_round_trip(tower4):
    sysm = construct_identity_block(tower4, 3, 2)
    back = associated_system(associated_code(sysm))
    assert np.array_equal(back.generator, sysm.generator)


def test_round_trip_preserves_spectrum(tower4, rng):
    for _ in range(5):
        sysm = random_system(tower4, 2, 3, rng)
        c1 = associated_code(sysm)
        c2 = associated_code(associated_system(c1))
        assert weight_spectrum(c1) == weight_spectrum(c2)


def test_gabidulin_association(tower16):
    code = gabidulin(tower16, 4, 2, 1)
    sysm = associated_system(code)
    assert (sysm.n, sysm.k) == (4, 2)


def test_identity_generator_points(tower4):
    # U = <e_1, e_2>_{F_2} has three nonzero vectors on three distinct
    # points (e_1, e_2, e_1 + e_2), a scattered linear set
    sysm = QSystem(tower4, np.eye(2, dtype=np.int64))
    ls = linear_set(sysm)
    assert len(ls) == 3
    assert is_scattered(ls)


def test_projective_hamming_code_single_point(tower16):
    sysm = QSystem(tower16, np.array([[1]], dtype=np.int64))
    assert projective_hamming_code(sysm).A.shape == (1, 1)


def test_projective_hamming_code_lengths(tower16):
    sysm = cutting_system_6_3(tower16)
    GH = projective_hamming_code(sysm)
    assert GH.A.shape == (3, 63)
    # no two columns proportional
    indexer = PointIndexer(tower16, 3)
    _, idx, _ = indexer.canonicalize(GH.A.T)
    assert len(set(idx.tolist())) == 63


def test_projective_hamming_code_shorter_when_not_scattered(tower16):
    sysm = QSystem(tower16, np.array([[1, tower16.alpha, 0],
                                      [0, 0, 1]], dtype=np.int64))
    ls = linear_set(sysm)
    GH = projective_hamming_code(sysm)
    assert GH.A.shape[1] == len(ls) < ls.max_size()


def test_equivalence_invariance_of_weights(tower4, rng):
    from ranksat.linalg import ext_rank
    for _ in range(5):
        sysm = random_system(tower4, 2, 3, rng)
        while True:
            phi = np.array([[tower4.random_element(rng) for _ in range(2)]
                            for _ in range(2)], dtype=np.int64)
            if ext_rank(phi, tower4) == 2:
                break
        moved = QSystem(tower4, ext_matmul(phi, sysm.generator, tower4))
        assert (linear_set(moved).weight_multiset()
                == linear_set(sysm).weight_multiset())


def test_spanning_validation():
    from ranksat import make_tower
    t = make_tower(2, 2)
    with pytest.raises(SystemError_, match="span"):
        QSystem(t, np.array([[1, t.alpha], [0, 0]], dtype=np.int64))


def test_column_independence_validation(tower4):
    with pytest.raises(SystemError_, match="F_q-dependent"):
        QSystem(tower4, np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64))


def test_linear_set_budget_refusal(tower16):
    sysm = cutting_system_6_3(tower16)
    with pytest.raises(BudgetExceeded):
        linear_set(sysm, budget=10)


def test_point_indexer_bijective(tower4):
    indexer = PointIndexer(tower4, 3)
    reps = indexer.decode(np.arange(indexer.total))
    _, idx, _ = indexer.canonicalize(reps)
    assert np.array_equal(idx, np.arange(indexer.total))
    assert indexer.total == (tower4.order ** 3 - 1) // (tower4.order - 1)


def test_generator_is_a_read_only_copy(tower16):
    G = np.array([[1, tower16.alpha, 0], [0, 1, tower16.alpha]],
                 dtype=np.int64)
    sysm = QSystem(tower16, G)
    with pytest.raises(ValueError):
        sysm.generator[0, 0] = 0
    G[0, 0] = 0                     # the caller's array stays writable
    assert sysm.generator[0, 0] == 1
    assert sysm.contains(sysm.generator.T).all()
