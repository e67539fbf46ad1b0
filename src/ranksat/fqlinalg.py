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

`rref_subspaces` is the one enumerator of F_q-subspaces: the rank sweep
and the exhaustive search read its stacks of at most `per` RREF bases,
and `gaussian_binomial` counts them.
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


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of F_q^a (exact big integer).

    Returns 0 when b > a or b < 0, by convention.
    """
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for j in range(b):
        num *= q ** (a - j) - 1
        den *= q ** (j + 1) - 1
    assert num % den == 0
    return num // den


def rref_subspaces(n: int, w: int, field: SmallField, per: int):
    """Yield all w-dimensional subspaces of F_q^n, one RREF basis each.

    Yields (start, stack): stack has shape (count, w, n), int16, and holds
    `per` bases (the last stack may hold fewer), and start is the index
    of its first basis.  The order is the pivot sets in `combinations`
    order, then within one the free entries read as a base-q number,
    first free slot least significant.  Bases are built in blocks of at
    most `per`, so no pivot set is built whole; a stack is copied only
    when it spans blocks.  There are gaussian_binomial(n, w, q) bases.
    """
    if per < 1:
        raise ValueError(f"need per >= 1, got {per}")
    q, top = field.q, 0
    while q ** (top + 1) <= per:
        top += 1
    held, size, start = [], 0, 0
    for pivots in combinations(range(n), w):
        free = [(r, c) for r in range(w) for c in range(pivots[r] + 1, n)
                if c not in pivots]
        # blocks of q^j <= per bases: the low j free slots run through
        # F_q^j (the table `low`), the others hold the digits of block t
        j = min(top, len(free))
        low = np.zeros((q ** j, w, n), dtype=np.int16)
        for r, c in enumerate(pivots):
            low[:, r, c] = 1
        vals = np.arange(q ** j)
        for s, (r, c) in enumerate(free[:j]):
            low[:, r, c] = vals // q ** s % q
        for t in range(q ** (len(free) - j)):
            b = low.copy() if j < len(free) else low
            for s, (r, c) in enumerate(free[j:]):
                b[:, r, c] = t // q ** s % q
            while len(b):
                held.append(b[:per - size])
                size, b = size + len(held[-1]), b[len(held[-1]):]
                if size == per:
                    yield start, (np.concatenate(held) if len(held) > 1
                                  else held[0])
                    held, size, start = [], 0, start + per
    if held:
        yield start, np.concatenate(held) if len(held) > 1 else held[0]
