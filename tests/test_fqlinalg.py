import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksat import (construct_subgeometry, decompose, fqlinalg,
                     gaussian_binomial, make_tower)
from ranksat.gftower import SmallField
from ranksat.linalg import _combinations, ext_matmul, fq_span_vectors

from oracles import brute_subspace_count, numpy_rref, pivot_batch_subspaces

F2 = SmallField(2)
F3 = SmallField(3)

# base fields, prime and not, and towers of both characteristics
RREF_FIELDS = {**{f"F{q}": SmallField(q) for q in (2, 3, 4, 5, 9, 16)},
               **{f"F{q}^{m}": make_tower(q, m)
                  for q, m in [(2, 2), (3, 3), (2, 8), (5, 2)]}}
MATRIX_KINDS = ["random", "sparse", "zero", "duplicate-rows", "reduced"]


def _matrix(field, rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, len(field.elements()), (rows, cols))
    if kind == "sparse":            # zero columns and non-pivot columns
        M *= rng.random((rows, cols)) < 0.3
    elif kind == "zero":
        M[:] = 0
    elif kind == "duplicate-rows" and rows:
        M = M[rng.integers(0, rows, rows)]
    elif kind == "reduced":         # already in RREF, padded with zeros
        R, _ = numpy_rref(M, field)
        M = np.zeros_like(M)
        M[:len(R)] = R
    return M


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(RREF_FIELDS)), st.integers(0, 6),
       st.integers(0, 10), st.sampled_from(MATRIX_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_rref_matches_numpy_oracle(name, rows, cols, kind, seed):
    """The elimination on Python rows gives the same R and pivots as the
    per-pivot numpy loop it replaced, and so do the functions built on
    it: kernel and solve, run once more with the oracle as rref."""
    field = RREF_FIELDS[name]
    M = _matrix(field, rows, cols, kind, seed)
    R, pivots = fqlinalg.rref(M, field)
    R_ref, pivots_ref = numpy_rref(M, field)
    assert pivots == pivots_ref
    assert R.dtype == np.int64 and R.shape == (len(pivots), cols)
    assert np.array_equal(R, R_ref)
    b = np.random.default_rng(seed + 1).integers(
        0, len(field.elements()), rows)
    got = [fqlinalg.kernel(M, field), fqlinalg.solve(M, b, field)]
    with mock.patch.object(fqlinalg, "rref", numpy_rref):
        want = [fqlinalg.kernel(M, field), fqlinalg.solve(M, b, field)]
    for x, y in zip(got, want):
        assert (x is None and y is None) or np.array_equal(x, y)


def _refuse(*args, **kwargs):
    raise AssertionError("refused call")


def test_rref_needs_no_array_op(monkeypatch):
    for op in ("mul_arr", "sub_arr", "inv_arr"):
        monkeypatch.setattr(SmallField, op, _refuse)
    R, pivots = fqlinalg.rref(np.array([[2, 1, 0], [1, 2, 1]]), SmallField(3))
    assert pivots == [0, 2]
    assert R.tolist() == [[1, 2, 0], [0, 0, 1]]


# towers over q = 2, 3, 4, 5 and 9, with m = 1 among them
SPAN_TOWERS = {f"F{q}^{m}": make_tower(q, m)
               for q, m in [(2, 1), (2, 4), (2, 8), (3, 3), (4, 2), (5, 2),
                            (9, 2)]}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SPAN_TOWERS)), st.integers(1, 4),
       st.integers(0, 9), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_fq_basis_matches_rref_rows_on_digits(name, b, n, span, seed):
    """The kernel's pivots are the pivot columns of the RREF of the digit
    matrix whose column j holds the digits of code j, and its packed
    coordinates are that RREF's columns, digit i from row i, in the
    scalar form and in each row of the batched form, whose pivot i is
    the first column with coordinates q^i.  The codes are drawn
    from the F_q-span of `span` random elements (all of F_{q^m} when it
    is 0), so that many depend on the ones before, and a third are 0."""
    tower = SPAN_TOWERS[name]
    q, m = tower.base.q, tower.m
    rng = np.random.default_rng(seed)
    if span:
        gens = rng.integers(0, tower.order, (span, 1))
        X = ext_matmul(rng.integers(0, q, (b, n, span)), gens, tower)[..., 0]
    else:
        X = rng.integers(0, tower.order, (b, n))
    X = X * (rng.random((b, n)) >= 1 / 3)
    coords, rank = fqlinalg.fq_basis_batch(X, tower)
    assert coords.shape == (b, n) and rank.shape == (b,)
    for s in range(b):
        R = tower.digit_table()[X[s]].T.astype(np.int64).reshape(m, n).tolist()
        ref = fqlinalg.rref_rows(R, tower.base)
        packed = [sum(R[i][j] * q ** i for i in range(len(ref)))
                  for j in range(n)]
        assert fqlinalg.fq_basis(X[s].tolist(), tower) == (ref, packed)
        assert rank[s] == len(ref)
        assert [coords[s].tolist().index(q ** i)
                for i in range(rank[s])] == ref
        assert coords[s].tolist() == packed


# towers over q = 2, 3 and 9, and their base fields
RANK_TOWERS = {f"F{q ** m}/F{q}": make_tower(q, m)
               for q, m in [(2, 2), (2, 4), (3, 3), (9, 2)]}


@pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0), (1, 1), (5, 2),
                                  (2, 5), (4, 4), (6, 3)])
@pytest.mark.parametrize("name", sorted(RANK_TOWERS))
def test_rank_batch_matches_rank_per_block(name, r, c):
    """The forward-only batched elimination gives `rank` of each block,
    and `echelon`, which runs on it, gives `rref` of each block (its
    rows, then zero rows, with pivot column c), over the tower and over
    its base field, on seeded stacks of random, sparse, partly zero,
    repeated-row and low-rank blocks, and of shapes with r = 0, c = 0,
    r > c and r < c."""
    tower = RANK_TOWERS[name]
    rng = np.random.default_rng([tower.order, r, c])
    for field in (tower, tower.base):
        Q = len(field.elements())
        blocks = [rng.integers(0, Q, (r, c)) for _ in range(12)]
        blocks[1] *= rng.random((r, c)) < 0.3                   # sparse
        blocks[2][rng.random(r) < 0.5] = 0                      # zero rows
        blocks[3] = blocks[3][rng.integers(0, r, r)] if r else blocks[3]
        blocks[4][:] = 0
        blocks[5] = ext_matmul(rng.integers(0, Q, (r, 1)),      # rank <= 1
                               rng.integers(0, Q, (1, c)), field)
        blocks[6] = ext_matmul(rng.integers(0, Q, (r, 2)),      # rank <= 2
                               rng.integers(0, Q, (2, c)), field)
        M = np.array(blocks, dtype=np.int64).reshape(12, r, c)
        got = fqlinalg.rank_batch(M, field)
        assert got.shape == (12,)
        assert got.tolist() == [fqlinalg.rank(B, field) for B in M]
        # the blocks are independent: a stack of one gives the same rank
        assert [fqlinalg.rank_batch(B[None], field)[0] for B in M] == \
            got.tolist()
        R, pivot_col, ranks = fqlinalg.echelon(M, field)
        assert R.shape == (12, r, c) and pivot_col.shape == (12, r)
        assert ranks.tolist() == got.tolist()
        for s, B in enumerate(M):
            ref, pivots = fqlinalg.rref(B, field)
            assert np.array_equal(R[s, :len(pivots)], ref)
            assert not R[s, len(pivots):].any()
            assert pivot_col[s].tolist() == pivots + [c] * (r - len(pivots))


def test_decompose_runs_no_rref_after_warm_up(monkeypatch):
    """decompose eliminates on the codes themselves (`fqlinalg.fq_basis`),
    with no digit matrix; only the first calls, which build the system's
    constants and the parity check of `verify`, may reach `rref` or
    `rref_rows`."""
    tower = make_tower(2, 4)
    sysm = construct_subgeometry(tower, 2, 2, 2)
    rng = random.Random(5)
    targets = [np.array([tower.random_element(rng) for _ in range(sysm.k)])
               for _ in range(30)]
    assert decompose(sysm, targets[0]).verify(sysm)
    monkeypatch.setattr(fqlinalg, "rref", _refuse)
    monkeypatch.setattr(fqlinalg, "rref_rows", _refuse)
    for v in targets:
        assert decompose(sysm, v).verify(sysm)


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


def test_solve():
    M = np.array([[1, 1, 0], [0, 1, 1]])
    b = np.array([1, 0])
    x = fqlinalg.solve(M, b, F2)
    assert np.array_equal(ext_matmul(M, x[:, None], F2)[:, 0], b)
    assert fqlinalg.solve(np.array([[1, 1], [1, 1]]),
                          np.array([0, 1]), F2) is None


PERS = [1, 5, 257, 1 << 16]


@pytest.mark.parametrize("per", PERS)
def test_subspace_enumeration_counts_match_formula(per):
    for (n, w, f) in [(4, 2, F2), (4, 1, F2), (3, 2, F3), (4, 3, F2)]:
        total = sum(b.shape[0]
                    for _, b in fqlinalg.rref_subspaces(n, w, f, per))
        assert total == gaussian_binomial(n, w, f.q)


@pytest.mark.parametrize("per", PERS)
def test_subspace_enumeration_is_duplicate_free(per):
    seen = set()
    for _, batch in fqlinalg.rref_subspaces(4, 2, F2, per):
        for M in batch:
            key = M.tobytes()
            assert key not in seen
            seen.add(key)
    assert len(seen) == 35


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 6), st.sampled_from(PERS),
       st.data())
def test_subspace_stacks_match_pivot_batches(q, n, per, data):
    """The bounded stacks, concatenated, are the pivot batches of the
    reference enumerator in the same order; every stack but the last
    holds exactly `per` bases, and each start counts the bases before."""
    w = data.draw(st.integers(0, n))
    field = SmallField(q)
    stacks = list(fqlinalg.rref_subspaces(n, w, field, per))
    sizes = [len(stack) for _, stack in stacks]
    assert [start for start, _ in stacks] == [sum(sizes[:i])
                                              for i in range(len(sizes))]
    assert all(size == per for size in sizes[:-1]) and 1 <= sizes[-1] <= per
    assert all(stack.dtype == np.int16 for _, stack in stacks)
    expected = np.concatenate([b for _, b in pivot_batch_subspaces(n, w,
                                                                   field)])
    assert np.array_equal(np.concatenate([s for _, s in stacks]), expected)


def test_subspace_stacks_are_bounded_before_the_first_pivot_batch_ends():
    """The first pivot set of the 2-dimensional subspaces of F_4^8 has
    4^12 bases; the first stack holds just `per` of them."""
    start, stack = next(fqlinalg.rref_subspaces(8, 2, SmallField(4), 257))
    assert start == 0 and stack.shape == (257, 2, 8)


def test_gaussian_binomial_against_brute_span_count():
    # independent oracle: count distinct spans of independent pairs
    assert brute_subspace_count(4, 2, 2, F2) == 35
    assert gaussian_binomial(4, 2, 2) == 35


def test_all_vectors():
    """The span enumerator lists F_q^n in code order (row c holds the
    base-q digits of c, first coordinate least significant), over a
    SmallField and over a tower's F_q-span."""
    V = _combinations(np.eye(3, dtype=np.int64), np.arange(3), F3)
    assert V.shape == (27, 3)
    assert len({tuple(r) for r in V}) == 27
    assert np.array_equal(V @ 3 ** np.arange(3), np.arange(27))
    W = fq_span_vectors(np.eye(4, dtype=np.int64), make_tower(4, 4))
    assert np.array_equal(W @ 4 ** np.arange(4), np.arange(256))
