"""Matrices, rank weights and rank-metric codes over F_{q^m}.

Entries are packed element codes (see gftower); matrices are numpy
int64 arrays.  Exhaustive codeword sweeps take an explicit budget and
refuse beyond it rather than sampling.
"""

from __future__ import annotations

import numpy as np

from . import fqlinalg
from .gftower import FieldError, FieldTower

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """An exhaustive sweep would exceed the declared budget."""

    def __init__(self, message: str, completed_level: int | None = None,
                 coverage: float | None = None):
        super().__init__(message)
        self.completed_level = completed_level
        self.coverage = coverage


class MatrixExt:
    """A rows x cols matrix over the extension field of `tower`."""

    def __init__(self, tower: FieldTower, entries):
        A = np.asarray(entries, dtype=np.int64)
        if A.ndim != 2:
            raise ValueError("matrix entries must be 2-dimensional")
        if A.size and (A.min() < 0 or A.max() >= tower.order):
            raise ValueError("entry outside the extension field")
        self.tower = tower
        self.A = A
        self.rows, self.cols = A.shape

    def __eq__(self, other):
        return (isinstance(other, MatrixExt) and self.tower == other.tower
                and self.A.shape == other.A.shape
                and bool(np.all(self.A == other.A)))

    def __repr__(self):
        return f"MatrixExt({self.rows}x{self.cols} over q^m={self.tower.order})"


def as_matrix(tower: FieldTower, entries) -> np.ndarray:
    if isinstance(entries, MatrixExt):
        return entries.A
    return MatrixExt(tower, entries).A


# ----------------------------------------------------------------------
# Matrix products over F_{q^m}
# ----------------------------------------------------------------------

# The benchmark's tracer (`perfbench/tracer.py` TARGETS) and
# `workloads.gl_image` name these two; the package calls fqlinalg, which
# row-reduces over either field.
def ext_rref(A, tower: FieldTower):
    return fqlinalg.rref(A, tower)


def ext_rank(A, tower: FieldTower) -> int:
    return fqlinalg.rank(A, tower)


def ext_matmul(A, B, tower: FieldTower) -> np.ndarray:
    """A @ B over F_{q^m}, stacks broadcasting as in np.matmul (small
    matrices; loops over the inner axis)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                   + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for i in range(A.shape[-1]):
        # outer contribution A[..., :, i] * B[..., i, :]
        contrib = tower.mul_arr(A[..., :, i, None], B[..., i, None, :])
        out = tower.add_arr(out, contrib) if i else contrib
    return out


# ----------------------------------------------------------------------
# Rank weights
# ----------------------------------------------------------------------

def rank_weight(v, tower: FieldTower) -> int:
    """F_q-dimension of the span of the coordinates of v."""
    v = np.asarray(v, dtype=np.int64).ravel()
    if v.size and (v.min() < 0 or v.max() >= tower.order):
        raise FieldError("entry outside the extension field")
    return len(fqlinalg.fq_basis(v.tolist(), tower)[0])


# Entries N * n per batched elimination; bounds its intermediates.
_RANK_CHUNK = 1 << 16


def rank_weight_batch(V, tower: FieldTower) -> np.ndarray:
    """Rank weights of each row of V (N x n), as an int array: the sizes
    of the rows' greedy F_q-bases, a chunk of rows at a time."""
    V = np.atleast_2d(np.asarray(V, dtype=np.int64))
    per = max(1, _RANK_CHUNK // max(1, V.shape[1]))
    # an empty V still makes one (empty) chunk
    return np.concatenate([fqlinalg.fq_basis_batch(V[i:i + per], tower)[1]
                           for i in range(0, max(len(V), 1), per)])


# ----------------------------------------------------------------------
# Rank-metric codes
# ----------------------------------------------------------------------

class RankCode:
    """An F_{q^m}-linear [n, k] code given by a full-rank generator matrix."""

    def __init__(self, tower: FieldTower, generator):
        G = as_matrix(tower, generator)
        if G.shape[0] and fqlinalg.rank(G, tower) != G.shape[0]:
            raise ValueError("generator rows are not independent over F_{q^m}")
        self.tower = tower
        self.generator = G
        self.k, self.n = G.shape
        self._parity = None

    @property
    def parity_check(self) -> np.ndarray:
        if self._parity is None:
            H = fqlinalg.kernel(self.generator, self.tower) if self.k else \
                np.eye(self.n, dtype=np.int64)
            self._parity = H
            if self.k and H.shape[0]:
                prod = ext_matmul(self.generator, H.T, self.tower)
                if prod.any():
                    raise RuntimeError(
                        "generator * parity^T != 0 (unreachable)")
        return self._parity

    def dual(self) -> "RankCode":
        """The [n, n-k] dual under the standard inner product."""
        return RankCode(self.tower, self.parity_check)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        total = self.tower.order ** self.k
        if total > budget:
            raise BudgetExceeded(
                f"codeword sweep needs {total} > budget {budget}")
        return span_vectors(self.generator, self.tower)

    def __repr__(self):
        return (f"RankCode([{self.n},{self.k}] over "
                f"q^m={self.tower.order})")


def _combinations(rows, coeffs, tower: FieldTower) -> np.ndarray:
    """sum_i c_i rows[i] for every choice of the c_i in `coeffs`, the
    last row's most significant, built row by row so each level reuses
    the partial sums of the previous one."""
    acc = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        acc = tower.add_arr(tower.mul_arr(coeffs[:, None], row)[:, None], acc)
        acc = acc.reshape(len(coeffs) * acc.shape[1], len(row))
    return acc


def span_vectors(rows, tower: FieldTower) -> np.ndarray:
    """All F_{q^m}-combinations of the given rows ((Q^k, n) array)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    return _combinations(rows, np.arange(tower.order), tower)


def fq_span_vectors(cols, tower: FieldTower, budget: int = DEFAULT_BUDGET
                    ) -> np.ndarray:
    """All F_q-combinations of the given columns ((q^n, k) array)."""
    C = np.atleast_2d(np.asarray(cols, dtype=np.int64))  # k x n, combine cols
    if (size := tower.base.q ** C.shape[1]) > budget:
        raise BudgetExceeded(f"F_q-span sweep needs {size} > budget {budget}")
    return _combinations(C.T, np.arange(tower.base.q), tower)


def min_rank_distance(code: RankCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum rank weight over nonzero codewords (exhaustive)."""
    if code.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    words = code.codewords(budget)
    weights = rank_weight_batch(words, code.tower)
    nz = weights[np.any(words != 0, axis=1)]
    return int(nz.min())


def weight_spectrum(code: RankCode, budget: int = DEFAULT_BUDGET) -> set[int]:
    """Set of rank weights of nonzero codewords; |result| = s_rk(C)."""
    if code.k == 0:
        return set()
    words = code.codewords(budget)
    weights = rank_weight_batch(words, code.tower)
    nz = weights[np.any(words != 0, axis=1)]
    return {int(w) for w in np.unique(nz)}
