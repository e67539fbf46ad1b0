import numpy as np

from ranksat import fqlinalg, gaussian_binomial
from ranksat.gftower import SmallField
from ranksat.linalg import ext_matmul

from oracles import brute_subspace_count

F2 = SmallField(2)
F3 = SmallField(3)


def test_rref_canonical_for_equal_spaces():
    a = np.array([[1, 0, 1], [0, 1, 1]])
    b = np.array([[1, 1, 0], [0, 1, 1]])        # same row space over F_2
    ra, _ = fqlinalg.rref(a, F2)
    rb, _ = fqlinalg.rref(b, F2)
    assert np.array_equal(ra, rb)


def test_rref_f3_pivot_normalization():
    R, piv = fqlinalg.rref(np.array([[2, 1], [1, 1]]), F3)
    assert piv == [0, 1]
    assert np.array_equal(R, np.eye(2))
    # a proportional pair collapses to one row
    _, piv = fqlinalg.rref(np.array([[2, 1], [1, 2]]), F3)
    assert piv == [0]


def test_kernel_annihilates():
    M = np.array([[1, 0, 1, 1], [0, 1, 1, 0]])
    K = fqlinalg.kernel(M, F2)
    assert K.shape == (2, 4)
    assert not ext_matmul(M, K.T, F2).any()


def test_inverse_and_matmul():
    M = np.array([[1, 2], [1, 1]])
    Minv = fqlinalg.inv(M, F3)
    assert np.array_equal(ext_matmul(M, Minv, F3), np.eye(2))
    assert fqlinalg.inv(np.array([[1, 2], [2, 1]]), F3) is None  # singular


def test_solve():
    M = np.array([[1, 1, 0], [0, 1, 1]])
    b = np.array([1, 0])
    x = fqlinalg.solve(M, b, F2)
    assert np.array_equal(ext_matmul(M, x[:, None], F2)[:, 0], b)
    assert fqlinalg.solve(np.array([[1, 1], [1, 1]]),
                          np.array([0, 1]), F2) is None


def test_subspace_enumeration_counts_match_formula():
    for (n, w, f) in [(4, 2, F2), (4, 1, F2), (3, 2, F3), (4, 3, F2)]:
        total = sum(b.shape[0] for _, b in fqlinalg.rref_subspaces(n, w, f))
        assert total == gaussian_binomial(n, w, f.q)


def test_subspace_enumeration_is_duplicate_free():
    seen = set()
    for _, batch in fqlinalg.rref_subspaces(4, 2, F2):
        for M in batch:
            key = M.tobytes()
            assert key not in seen
            seen.add(key)
    assert len(seen) == 35


def test_gaussian_binomial_against_brute_span_count():
    # independent oracle: count distinct spans of independent pairs
    assert brute_subspace_count(4, 2, 2, F2) == 35
    assert gaussian_binomial(4, 2, 2) == 35


def test_all_vectors():
    V = fqlinalg.all_vectors(3, F3)
    assert V.shape == (27, 3)
    assert len({tuple(r) for r in V}) == 27
