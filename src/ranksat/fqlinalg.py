"""Dense linear algebra over a finite field: the base field F_q or the
extension F_{q^m}.

Matrices are numpy integer arrays of element codes.  A SmallField and a
FieldTower both provide scalar ops (`mul`, `sub`, `inv` on Python ints)
and array ops (`mul_arr`, `sub_arr`, `inv_arr`, `neg_arr`), so every
function that takes a `field` works over F_q and over F_{q^m} alike.
Reduced row echelon form is the canonical representative of a row
space: equal subspaces produce equal arrays.

There is one elimination per input shape.  `rref_rows` reduces one
matrix held as Python lists of ints, through the scalar ops: on the
small matrices its callers reduce, a dozen numpy calls per pivot cost
more than the arithmetic.  `rref` wraps it for arrays, and `rank`,
`kernel`, `inv` and `solve` run on `rref`; `decompose` keeps its three
eliminations per target in lists and calls `rref_rows` directly.
`echelon` reduces a stack of matrices at once through the array ops.
`Decomposition.verify` makes no elimination: `QSystem.contains` tests
membership in U by one product with a parity check that `kernel` builds
once per system.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .gftower import SmallField


def rref_rows(R, field) -> list[int]:
    """Reduce R, a list of distinct row lists of Python ints, to reduced
    row echelon form in place, with its zero rows deleted; returns the
    pivot columns.  The field is reached only through its scalar `mul`,
    `sub` and `inv`, and each pivot row clears its column in the other
    rows at its nonzero entries only."""
    mul, sub, inv = field.mul, field.sub, field.inv
    pivots = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        if r == len(R):
            break
        for p in range(r, len(R)):
            if R[p][c]:
                break
        else:
            continue
        row = R[p]
        if row[c] != 1:
            x = inv(row[c])
            row = [mul(x, y) for y in row]
        R[p], R[r] = R[r], row
        terms = [(j, y) for j, y in enumerate(row) if y]
        for i, Ri in enumerate(R):
            f = Ri[c]
            if f and i != r:
                for j, y in terms:
                    Ri[j] = sub(Ri[j], mul(f, y))
        pivots.append(c)
    del R[len(pivots):]
    return pivots


def rref(M, field):
    """Reduced row echelon form.

    Returns (R, pivot_cols).  R has leading ones, zeros above and below
    each pivot, and zero rows removed, so it is canonical for the row
    space.  R is an int64 array of shape (rank, cols).
    """
    M = np.atleast_2d(np.asarray(M, dtype=np.int64))
    R = M.tolist()
    pivots = rref_rows(R, field)
    return np.array(R, dtype=np.int64).reshape(len(pivots), M.shape[1]), pivots


def echelon(M, field):
    """Batched RREF of the r x c blocks of M (b, r, c): (R, pivot_col,
    rank), where R[s] holds its rank[s] pivot rows, then zero rows, and
    pivot_col[s, i] is c for a zero row i."""
    R = np.array(M, dtype=np.int64)
    b, r, c = R.shape
    blocks, rows = np.arange(b), np.arange(r)
    rank = np.zeros(b, dtype=np.int64)
    pivot_col = np.full((b, r), c, dtype=np.int64)
    for j in range(c):
        if (rank == r).all():
            break
        live = (R[:, :, j] != 0) & (rows >= rank[:, None])
        has = live.any(axis=1)
        top = np.minimum(rank, r - 1)
        piv = np.where(has, np.argmax(live, axis=1), top)
        R[blocks, top], R[blocks, piv] = R[blocks, piv], R[blocks, top]
        # rows from rank on are zero left of column j
        row = field.mul_arr(field.inv_arr(R[blocks, top, j])[:, None],
                            R[blocks, top, j:])
        f = np.where(has[:, None], R[:, :, j], 0)
        f[blocks, top] = 0
        R[:, :, j:] = field.sub_arr(R[:, :, j:],
                                    field.mul_arr(f[:, :, None], row[:, None]))
        R[blocks[has], top[has], j:] = row[has]
        pivot_col[blocks[has], top[has]] = j
        rank += has
    return R, pivot_col, rank


def rank(M, field) -> int:
    return len(rref(M, field)[1])


def kernel(M, field) -> np.ndarray:
    """Canonical basis (RREF rows) of {x : M x = 0}, x a column vector."""
    M = np.atleast_2d(M)
    cols = M.shape[1]
    R, pivots = rref(M, field)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    if not free.size:
        return basis
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = field.neg_arr(R[:, free].T)
    return rref(basis, field)[0]


def inv(M, field):
    """Inverse of a square matrix, or None if singular."""
    M = np.atleast_2d(M)
    n = M.shape[0]
    R, pivots = rref(np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1),
                     field)
    if pivots != list(range(n)):
        return None
    return R[:, n:]


def solve(M, b, field):
    """One solution x of M x = b (column convention), or None."""
    M = np.atleast_2d(M)
    cols = M.shape[1]
    R, pivots = rref(np.column_stack([M, b]), field)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = R[:, cols]
    return x


def all_vectors(n: int, field: SmallField) -> np.ndarray:
    """(q^n, n) array of all coordinate vectors, code order ascending."""
    q = field.q
    total = q ** n
    out = np.zeros((total, n), dtype=np.int16)
    r = np.arange(total)
    for i in range(n):
        out[:, i] = (r // (q ** i)) % q
    return out


def rref_subspaces(n: int, w: int, field: SmallField):
    """Yield all w-dimensional subspaces of F_q^n, one RREF basis each.

    Yields (pivot_cols, batch) where batch has shape (count, w, n) and
    collects every RREF matrix with that pivot set.  The total number of
    matrices over all batches is the Gaussian binomial [n choose w]_q.
    """
    q = field.q
    if w == 0:
        yield (), np.zeros((1, 0, n), dtype=np.int16)
        return
    if w > n:
        return
    for pivots in combinations(range(n), w):
        free_slots = []
        for r in range(w):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_slots.append((r, c))
        nf = len(free_slots)
        count = q ** nf
        batch = np.zeros((count, w, n), dtype=np.int16)
        for r in range(w):
            batch[:, r, pivots[r]] = 1
        vals = np.arange(count)
        for s, (r, c) in enumerate(free_slots):
            batch[:, r, c] = (vals // (q ** s)) % q
        yield pivots, batch
