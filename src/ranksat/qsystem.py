"""q-systems, linear sets, point weights and the projective code bridge.

A system is an n-dimensional F_q-subspace U of F_{q^m}^k spanning the
whole space over F_{q^m}; its generator matrix holds an F_q-basis of U
as columns.  Projective points are canonicalized by scaling the first
nonzero coordinate to 1 and are indexed densely so coverage sweeps can
mark them in flat bitmaps.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import fqlinalg
from .gftower import FieldTower, SmallField, _block_tables, expand
from .linalg import (DEFAULT_BUDGET, MatrixExt, RankCode, as_matrix,
                     fq_span_vectors)


class SystemError_(ValueError):
    pass


def expanded_columns(G, tower: FieldTower) -> np.ndarray:
    """(km x n) F_q-matrix whose column j expands column j of G."""
    G = np.atleast_2d(np.asarray(G, dtype=np.int64))
    k, n = G.shape
    digits = expand(G, tower).reshape(k, n, tower.m)
    return digits.transpose(0, 2, 1).reshape(k * tower.m, n)


class QSystem:
    """An [n, k]_{q^m/q} system with validated generator matrix.

    `generator` is a read-only copy of the caller's matrix, so the
    syndrome tables of U over F_p that `syndrome` builds on its first
    call and keeps cannot go stale.
    """

    def __init__(self, tower: FieldTower, generator):
        G = np.array(as_matrix(tower, generator))
        k, n = G.shape
        if n > tower.m * k:
            raise SystemError_(f"n={n} exceeds mk={tower.m * k}")
        if k:
            span_dim = fqlinalg.rank(G, tower)
            if span_dim != k:
                raise SystemError_(
                    f"columns span a {span_dim}-dimensional subspace of "
                    f"F_(q^m)^{k}; the system must span (got a degenerate set)")
        if n and fqlinalg.rank(expanded_columns(G, tower), tower.base) != n:
            raise SystemError_("generator columns are F_q-dependent")
        G.flags.writeable = False
        self.tower = tower
        self._generator = G
        self.k = k
        self.n = n
        self.meta: dict = {}
        self._tables = None

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def _syndrome_tables(self) -> tuple[int, list[list[list[int]]]]:
        """(P, tables): tables[j][i][x] is the packed syndrome of the
        vector whose only nonzero base-p digits are the value x of block i
        of coordinate j, for the blocks of P = p^b of `_block_tables(p)`,
        lowest first.

        The rows of H (one `fqlinalg.kernel`) span the annihilator of U
        in F_p^(kme), with digit l of coordinate j at column j m e + l;
        U's F_p-span is spanned by c g_j, c = p^i the F_p-basis codes of
        F_q (i < e) and g_j the generator columns.  A syndrome H d packs
        its entries base p, entry l at p^l, as a Python int of any
        length."""
        t = self.tower
        p, me = t.base.p, t.m * t.base.e
        P = _block_tables(p)[0]
        c = p ** np.arange(t.base.e)
        span = t.mul_arr(c[:, None, None], self.generator.T)
        digits = (span.reshape(c.size * self.n, self.k, 1)
                  // p ** np.arange(me) % p)
        H = fqlinalg.kernel(digits.reshape(c.size * self.n, self.k * me),
                            SmallField(p))
        pack = np.array([p ** l for l in range(len(H))], dtype=object)
        b = 1                                   # digits per block, P = p^b
        while p ** (b + 1) <= P:
            b += 1
        tables = []
        for j in range(self.k):
            blocks = []
            for lo in range(j * me, (j + 1) * me, b):
                w = min(b, (j + 1) * me - lo)
                D = np.arange(p ** w)[:, None] // p ** np.arange(w) % p
                S = D @ H[:, lo:lo + w].T % p
                blocks.append((S.astype(object) @ pack).tolist())
            tables.append(blocks)
        return P, tables

    def syndrome(self, row) -> int:
        """The packed F_p-syndrome of one row of codes in 0..Q-1 (Python
        ints), zero iff the row lies in U: the sum, digit-wise mod p (XOR
        when p = 2), of one table lookup per nonzero block of base-p
        digits.  The tables are built on the first call and kept."""
        if self._tables is None:
            self._tables = self._syndrome_tables()
        (P, tables), add, s = self._tables, self.tower.add, 0
        for x, blocks in zip(row, tables):
            for table in blocks:
                if not x:
                    break
                s = add(s, table[x % P])
                x //= P
        return s

    def contains(self, V) -> np.ndarray:
        """Membership in U of each row of V (codes, read by `as_codes`): a
        zero `syndrome`, one per row, on the rows as Python ints."""
        V = self.tower.as_codes(V)
        rows = V.reshape(prod(V.shape[:-1]), self.k).tolist()
        return np.array([not self.syndrome(r) for r in rows],
                        dtype=bool).reshape(V.shape[:-1])

    def vectors(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """All q^n elements of U as a (q^n, k) array: row i is sum_j d_j(i)
        g_j, d_j(i) base-q digit j of i (digit 0 goes with column 0), so a
        row's position gives its F_q-coordinates on the columns g_j."""
        return fq_span_vectors(self.generator, self.tower, budget)

    def __repr__(self):
        return (f"QSystem([{self.n},{self.k}] over q^m="
                f"{self.tower.order})")


# ----------------------------------------------------------------------
# Projective point canonicalization / dense indexing
# ----------------------------------------------------------------------

class PointIndexer:
    """Dense index of PG(k-1, Q): canonical reps scale the first nonzero
    coordinate j to 1, and have index off[j] + (packed base Q)."""

    def __init__(self, tower: FieldTower, k: int):
        Q = tower.order
        self.tower = tower
        self.k = k
        self.Q = Q
        self.qpow = np.array([Q ** (k - 1 - i) for i in range(k)],
                             dtype=np.int64)
        self.base = np.concatenate([[0], np.cumsum(self.qpow)])
        self.off = self.base[:-1] - self.qpow
        self.total = int(self.base[k])     # (Q^k - 1)/(Q - 1)

    def canonicalize(self, V: np.ndarray):
        """Canonical reps and indices for the nonzero rows of V.

        Returns (W, idx, keep_mask); rows of V that are zero are dropped.
        """
        V = np.atleast_2d(np.asarray(V, dtype=np.int64))
        keep = V.any(axis=1)
        V = V[keep]
        if V.shape[0] == 0:
            return (np.zeros((0, self.k), dtype=np.int64),
                    np.zeros(0, dtype=np.int64), keep)
        j = np.argmax(V != 0, axis=1)
        piv = V[np.arange(V.shape[0]), j]
        t = self.tower
        W = t._exp[t._log[V] + t._log[t._inv_table[piv]][:, None]]
        idx = W @ self.qpow + self.off[j]
        return W, idx, keep

    def multiples(self, V) -> np.ndarray:
        """Packed codes (b, Q-1) of the nonzero multiples g^e v, e < Q-1, of
        the rows v of V (b, k): Horner over the windows of exp from log v_j."""
        win, logs = self.tower._windows, self.tower._log[V]
        out = win[logs[:, 0]]
        for j in range(1, self.k):
            out *= self.Q
            out += win[logs[:, j]]
        return out

    def index_of(self, v) -> int:
        """The index of the point of v, read through `tower.as_codes`:
        ValueError unless v is k codes, not all zero."""
        v = self.tower.as_codes(v)
        if v.shape != (self.k,) or not v.any():
            raise ValueError(f"a point has {self.k} codes, not all zero")
        return int(self.canonicalize(v[None, :])[1][0])

    def decode(self, idx) -> np.ndarray:
        """Canonical representative vectors for an index array."""
        idx = np.asarray(idx, dtype=np.int64).ravel()
        j = np.searchsorted(self.base, idx, side="right") - 1
        tail = idx - self.off[j]
        return tail[:, None] // self.qpow % self.Q


class LinearSet:
    """The linear set L_U: canonical projective points with weights.

    Points are sorted lexicographically by coordinate tuple; the
    partition identity sum_P (q^{w(P)} - 1) = q^n - 1 is verified at
    construction.
    """

    def __init__(self, tower: FieldTower, k: int, n: int,
                 points: np.ndarray, weights: np.ndarray):
        self.tower = tower
        self.k = k
        self.n = n
        order = np.lexsort(points.T[::-1])
        self.points = points[order]
        self.weights = np.asarray(weights, dtype=np.int64)[order]
        q = tower.base.q
        lhs = int(np.sum(q ** self.weights - 1))
        if lhs != q ** n - 1:
            raise SystemError_(
                "point weights do not partition the nonzero vectors "
                f"({lhs} != {q ** n - 1})")

    def __len__(self):
        return self.points.shape[0]

    def weight_multiset(self):
        return tuple(sorted(int(w) for w in self.weights))

    def to_json(self) -> list[dict]:
        dig = self.tower.digit_table()
        return [{"point": [list(map(int, dig[int(c)])) for c in row],
                 "weight": int(w)}
                for row, w in zip(self.points, self.weights)]


def linear_set(sys: QSystem, budget: int = DEFAULT_BUDGET) -> LinearSet:
    """Enumerate L_U with per-point weights (one O(q^n) sweep)."""
    tower = sys.tower
    q = tower.base.q
    vecs = sys.vectors(budget)
    indexer = PointIndexer(tower, sys.k)
    _, idx, _ = indexer.canonicalize(vecs)
    uniq, counts = np.unique(idx, return_counts=True)
    # the fibre over a point of weight w has exactly q^w - 1 vectors
    weights = np.rint(np.log(counts + 1) / np.log(q)).astype(np.int64)
    if (q ** weights - 1 != counts).any():
        raise SystemError_("point fibre size is not q^w - 1")
    points = indexer.decode(uniq)
    return LinearSet(tower, sys.k, sys.n, points, weights)


def is_scattered(ls: LinearSet) -> bool:
    """True iff every point weight is 1 (maximal linear set size)."""
    return bool(np.all(ls.weights == 1))


def is_nondegenerate(code: RankCode) -> bool:
    """True iff the F_q-span of the generator columns has dimension n."""
    if code.n == 0:
        return True
    cols = expanded_columns(code.generator, code.tower)
    return fqlinalg.rank(cols, code.tower.base) == code.n


def associated_system(code: RankCode) -> QSystem:
    """System whose U is the F_q-span of the generator columns."""
    if not is_nondegenerate(code):
        cols = expanded_columns(code.generator, code.tower)
        d = fqlinalg.rank(cols, code.tower.base)
        raise SystemError_(
            f"code is degenerate: column span has F_q-dimension {d} < {code.n}")
    return QSystem(code.tower, code.generator)


def associated_code(sys: QSystem) -> RankCode:
    """Code generated by the rows of the system's generator matrix."""
    return RankCode(sys.tower, sys.generator)


def projective_hamming_code(sys: QSystem, budget: int = DEFAULT_BUDGET
                            ) -> MatrixExt:
    """Generator of the projective code whose columns are the points of
    L_U in canonical order (length |L_U|)."""
    ls = linear_set(sys, budget)
    return MatrixExt(sys.tower, ls.points.T.copy())


def random_system(tower: FieldTower, k: int, n: int, rng) -> QSystem:
    """Uniformly sampled valid [n, k] system (rejection sampling)."""
    while True:
        G = np.array([[tower.random_element(rng) for _ in range(n)]
                      for _ in range(k)], dtype=np.int64)
        try:
            return QSystem(tower, G)
        except SystemError_:
            continue


def random_code(tower: FieldTower, k: int, n: int, rng) -> RankCode:
    while True:
        G = np.array([[tower.random_element(rng) for _ in range(n)]
                      for _ in range(k)], dtype=np.int64)
        try:
            return RankCode(tower, G)
        except ValueError:
            continue


def lift_system(sys: QSystem, big: FieldTower) -> QSystem:
    """Reinterpret the system over an extension F_{q^M}, M a multiple of m.

    Entries are carried through the canonical subfield embedding; this is
    the reading of a cutting blocking set in F_{q^m}^k as a system over
    the larger field.
    """
    tower = sys.tower
    if big.base.q != tower.base.q or big.m % tower.m != 0:
        raise SystemError_("target field is not an extension of the source")
    emb = big.subfield(tower.m, list(tower.modulus))
    table = emb.embed_table
    G = table[sys.generator]
    return QSystem(big, G)
