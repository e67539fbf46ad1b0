"""Dense linear algebra over a finite field: the base field F_q or the
extension F_{q^m}.

Matrices are numpy integer arrays of element codes.  A SmallField and a
FieldTower both provide scalar ops (`mul`, `sub`, `inv` on Python ints)
and array ops (`mul_arr`, `sub_arr`, `inv_arr`, `neg_arr`), so every
function that takes a `field` works over F_q and over F_{q^m} alike; it
reaches the field through them alone, and imports nothing from the
package.  Reduced row echelon form is canonical for a row space.

Two eliminations serve matrices, one per input shape.  `rref_rows`
reduces one matrix held as Python lists of ints, through the scalar ops:
on the small matrices its callers reduce, a dozen numpy calls per pivot
cost more than the arithmetic.  `rref` wraps it for arrays, and `rank`,
`kernel` and `solve` run on `rref`.  A stack of matrices is reduced at
once, through the array ops, by one forward elimination on the rows,
with no swaps and no clearing above pivots.  `rank_batch` returns only
its ranks, which the cutting-set test reads; `echelon` sorts its pivot
rows and clears above each pivot, to RREF, for the rank sweep at
w >= 2.

A third elimination serves F_{q^m} elements read as vectors over F_q:
`fq_basis` finds the greedy F_q-basis of a list of codes, and the
F_q-coordinates of every code on it, by reducing each code against the
basis found so far, with no digit matrix; `fq_basis_batch` does the same
for each row of an array.  `decompose`, the cutting-set test and the
rank weights run on them.  `Decomposition.verify`
makes no elimination: `QSystem.syndrome` reads membership in U from
lookup tables built once per system from the parity check `kernel` finds.

`rref_subspaces` is the one enumerator of F_q-subspaces: the rank sweep
and the exhaustive search read its stacks of at most `per` RREF bases,
and `gaussian_binomial` counts them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


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


def fq_basis(codes, tower) -> tuple[list[int], list[int]]:
    """The greedy F_q-basis of the F_{q^m} elements `codes`, Python ints
    taken in order: (pivots, coords), pivots the indices of the codes
    outside the F_q-span of the codes before them, and coords[j] the
    F_q-coordinates of codes[j] on the codes at pivots, packed base q
    (digit i on codes[pivots[i]]).  These are the pivot columns and the
    columns of the RREF of the digit matrix whose column j holds the
    digits of codes[j]; coords at pivot i is q^i.

    No digit matrix is built: each code is reduced against the basis
    found so far by sub(x, mul(d, b)), d the digit of x at b's leading
    digit l (x >> e l & (q - 1) when q = 2^e, else x // q^l % q),
    through the tower's scalar ops, and the packed coordinates are
    updated by the same two ops."""
    q, mul, sub, inv = tower.base.q, tower.mul, tower.sub, tower.inv
    # digit l is read at `at`, the shift e l when q = 2^e, else q^l
    e, mask = (tower.base.e if tower.base.p == 2 else 0), q - 1
    # (at, b, -coords of b): b has digit 1 at l, and 0 at the leading
    # digits of the rows before it
    basis, pivots, coords = [], [], []
    for j, x in enumerate(codes):
        c = 0
        for at, b, nc in basis:
            if (d := x >> at & mask if e else x // at % q) == 1:
                x, c = sub(x, b), sub(c, nc)
            elif d:
                x, c = sub(x, mul(d, b)), sub(c, mul(d, nc))
        if x:
            if e:       # the lowest set bit lies in the leading digit
                at = ((x & -x).bit_length() - 1) // e * e
                d = x >> at & mask
            else:
                at = 1
                while not (d := x // at % q):
                    at *= q
            unit = q ** len(pivots)
            nc = sub(c, unit)
            if d != 1:
                d = inv(d)
                x, nc = mul(d, x), mul(d, nc)
            basis.append((at, x, nc))
            pivots.append(j)
            c = unit
        coords.append(c)
    return pivots, coords


def fq_basis_batch(X, tower):
    """`fq_basis` of each row of X, a (b, n) array of F_{q^m} codes:
    (coords, rank), coords (b, n) the packed coordinates (pivot i of a
    row is its first column whose coordinates are q^i) and rank (b,) the
    size of each basis.  One step of the elimination runs on a column
    of X at once, through the tower's array ops; no array holds more
    than n entries per row, and digits are read by shift and mask when
    q = 2^e."""
    X = np.atleast_2d(np.asarray(X, dtype=np.int64))
    (b, n), q = X.shape, tower.base.q
    e = tower.base.e if tower.base.p == 2 else 0
    top = min(n, tower.m)
    qpow = q ** np.arange(tower.m)
    # leading digit (read at the shift e l when q = 2^e, else at q^l),
    # row and minus coordinates of each basis slot; an empty slot is
    # zero, so a reduction by it does nothing.  A new row leads at its
    # highest digit, found by one sorted search
    lead = np.ones((b, top), dtype=np.int64)
    B = np.zeros((b, top), dtype=np.int64)
    NC = np.zeros((b, top), dtype=np.int64)
    coords = np.zeros((b, n), dtype=np.int64)
    rank = np.zeros(b, dtype=np.int64)
    for j in range(n):
        x, c = X[:, j], np.zeros(b, dtype=np.int64)
        for i in range(rank.max(initial=0)):
            d = (x >> lead[:, i] & (q - 1) if e
                 else x // lead[:, i] % q)
            x = tower.sub_arr(x, tower.mul_arr(d, B[:, i]))
            c = tower.sub_arr(c, tower.mul_arr(d, NC[:, i]))
        coords[:, j] = c
        new = np.flatnonzero(x)
        if new.size:
            x, c, r = x[new], c[new], rank[new]
            l = np.searchsorted(qpow, x, "right") - 1
            at = l * e if e else qpow[l]
            d = tower.inv_arr(x >> at if e else x // at)
            lead[new, r], coords[new, j] = at, qpow[r]
            B[new, r] = tower.mul_arr(d, x)
            NC[new, r] = tower.mul_arr(d, tower.sub_arr(c, qpow[r]))
            rank[new] += 1
    return coords, rank


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


def _forward(M, field):
    """The forward elimination of each r x c block of M (b, r, c), on its
    rows: (P, col, rank).  Row i is reduced by the pivot rows before it,
    and if it is left nonzero it becomes pivot row P[:, i], scaled to 1
    at its first nonzero column col[:, i]; else P[:, i] is zero.  No row
    is swapped and no entry above a pivot is cleared."""
    M = np.asarray(M, dtype=np.int64)
    b, r, c = M.shape
    blocks = np.arange(b)
    rank = np.zeros(b, dtype=np.int64)
    # a zero slot makes a reduction by it do nothing; a pivot row is zero
    # at the pivot columns before it
    P = np.zeros((b, r, c), dtype=np.int64)
    col = np.zeros((b, r), dtype=np.int64)
    for i in range(r):
        if (rank == min(r, c)).all():   # also when c = 0
            break
        x = M[:, i]
        for s in range(i):
            f = x[blocks, col[:, s]]
            x = field.sub_arr(x, field.mul_arr(f[:, None], P[:, s]))
        nonzero = x != 0
        col[:, i] = np.argmax(nonzero, axis=1)
        P[:, i] = field.mul_arr(
            field.inv_arr(x[blocks, col[:, i]])[:, None], x)
        rank += nonzero[blocks, col[:, i]]
    return P, col, rank


def echelon(M, field):
    """Batched RREF of the r x c blocks of M (b, r, c): (R, pivot_col,
    rank), where R[s] holds its rank[s] pivot rows, then zero rows, and
    pivot_col[s, i] is c for a zero row i.  The pivot rows of the forward
    elimination, stably sorted by pivot column, are a row echelon form
    with leading ones; then pivot row i clears its column in the rows
    above it."""
    P, col, rank = _forward(M, field)
    b, r, c = P.shape
    order = np.argsort(np.where(P.any(axis=2), col, c), axis=1,
                       kind="stable")
    R = np.take_along_axis(P, order[:, :, None], axis=1)
    col = np.take_along_axis(col, order, axis=1)
    blocks = np.arange(b)
    for i in range(1, min(r, c)):   # a zero row i clears nothing
        f = R[blocks, :i, col[:, i]]
        R[:, :i] = field.sub_arr(R[:, :i],
                                 field.mul_arr(f[:, :, None], R[:, None, i]))
    return R, np.where(R.any(axis=2), col, c), rank


def rank_batch(M, field):
    """Rank of each r x c block of M (b, r, c), read off the forward
    elimination of `echelon`, with no echelon form kept."""
    return _forward(M, field)[2]


def rank(M, field) -> int:
    return len(rref(M, field)[1])


def kernel(M, field) -> np.ndarray:
    """Canonical basis (RREF rows) of {x : M x = 0}, x a column vector."""
    M = np.atleast_2d(M)
    cols = M.shape[1]
    R, pivots = rref(M, field)
    free = sorted(set(range(cols)).difference(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    if not free:
        return basis
    basis[range(len(free)), free] = 1
    basis[:, pivots] = field.neg_arr(R[:, free].T)
    return rref(basis, field)[0]


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
    if num % den:
        raise RuntimeError(f"[{a} {b}]_{q} is not an integer (unreachable)")
    return num // den


def rref_subspaces(n: int, w: int, field, per: int):
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
