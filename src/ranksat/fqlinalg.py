"""Dense linear algebra over a finite field: the base field F_q or the
extension F_{q^m}.

Matrices are numpy integer arrays of element codes.  Row operations go
through the field's array ops (`mul_arr`, `sub_arr`, `inv_arr`,
`neg_arr`), which a SmallField and a FieldTower both provide, so every
function that takes a `field` works over F_q and over F_{q^m} alike.
Reduced row echelon form is the canonical representative of a row
space: equal subspaces produce equal arrays.

`rref` eliminates one matrix and `echelon` a stack of them.  Both are
kept: on a single small matrix the stacked form costs several times the
plain loop, and callers such as `decompose` (two calls per target outside
U, plus two per module extension) reduce one small matrix at a time.
`Decomposition.verify` makes none: `QSystem.contains` tests membership
in U by one product with a parity check that `kernel` builds once per
system.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .gftower import SmallField


def rref(M, field):
    """Reduced row echelon form.

    Returns (R, pivot_cols).  R has leading ones, zeros above and below
    each pivot, and zero rows removed, so it is canonical for the row
    space.
    """
    R = np.atleast_2d(np.array(M, dtype=np.int64))
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        row = (R[p].copy() if R[p, c] == 1
               else field.mul_arr(field.inv_arr(R[p, c]), R[p]))
        R[p] = R[r]
        R[r] = row
        # clear column c in every other row with one array op
        f = R[:, c].copy()
        f[r] = 0
        if np.count_nonzero(f):
            R[:] = field.sub_arr(R, field.mul_arr(f[:, None], row))
        pivots.append(c)
        r += 1
    return R[:r], pivots


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
