"""Covering radii, saturation radii, and the cross-validating oracles.

Three independent routes to the same number:

* `saturation_radius` sweeps coefficient vectors lambda = gamma * M by
  rank layer and marks the ambient targets G lambda^T (the coefficient
  characterization of saturation).
* `saturation_radius_geometric` marks projective points covered by
  F_{q^m}-spans of subsets of the linear set, level by level.
* `rank_covering_radius` runs the same rank-layered sweep against a
  parity-check matrix, so the radius of the dual code of an associated
  code can be compared with both of the above.

All sweeps are exact and refuse (raising BudgetExceeded) instead of
sampling when the declared budget does not cover them.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, islice
from math import comb

import numpy as np

from . import fqlinalg
from .gftower import FieldTower, expand
from .interchange import _is_int
from .linalg import (BudgetExceeded, DEFAULT_BUDGET, RankCode, as_matrix,
                     ext_matmul, min_rank_distance, rank_weight_batch)
from .qsystem import (PointIndexer, QSystem, SystemError_, expanded_columns,
                      linear_set, is_scattered)

WITNESS_CAP = 1 << 12


class ConsistencyError(AssertionError):
    """A covering-radius inequality that must always hold failed; the
    message names the violated inequality."""


# ----------------------------------------------------------------------
# Span marking: one kernel for the rank-layer and Hamming sweeps
# ----------------------------------------------------------------------

# Marks per kernel call; bounds the size of the kernel's intermediates.
_MARK_CHUNK = 1 << 16


def _packing(Q: int, k: int) -> np.ndarray:
    """Place values of a length-k vector's packed index, first entry most
    significant."""
    return Q ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _span_marks(B, tower: FieldTower, first: int = 0) -> np.ndarray:
    """Packed indices of sum_j gamma_j B[:, s, j] for each stacked r x w
    block s of B (shape (r, c, w)) and every gamma in {first..Q-1}^w.

    Returns shape (c, (Q - first)^w); gamma runs in base-(Q - first)
    order, first coordinate most significant.  Each column gets a
    multiples table (the packed index of gamma * B[:, s, j] for every
    gamma); the tables are then combined by broadcasting.  A packed index
    is a base-p number whose digits add mod p under vector addition: XOR
    when p = 2, explicit digit arrays otherwise.
    """
    r, c, w = B.shape
    Q, p = tower.order, tower.base.p
    gammas = np.arange(first, Q, dtype=np.int64)
    table = np.tensordot(_packing(Q, r), tower.mul_arr(B[..., None], gammas),
                         axes=1)
    if p == 2 or w == 1:
        acc = table[:, 0]
        for j in range(1, w):
            acc = (acc[:, :, None] ^ table[:, j, None, :]).reshape(c, -1)
        return acc
    ppow = p ** np.arange(r * tower.m * tower.base.e, dtype=np.int64)
    digits = (table[..., None] // ppow % p).astype(np.min_scalar_type(2 * p))
    acc = digits[:, 0]
    for j in range(1, w):
        acc = ((acc[:, :, None] + digits[:, j, None]) % p).reshape(
            c, -1, ppow.size)
    return acc @ ppow


def _empty_cover(total: int, budget: int) -> np.ndarray:
    if total > budget:
        raise BudgetExceeded(
            f"syndrome space q^(m r) = {total} exceeds budget {budget}",
            completed_level=-1, coverage=0.0)
    covered = np.zeros(total, dtype=bool)
    covered[0] = True
    return covered


def _charge(work: int, level_work: int, budget: int, what: str, w: int,
            covered: np.ndarray) -> int:
    """Add the enumeration of level w to the running work, or refuse."""
    work += level_work
    if work > budget:
        raise BudgetExceeded(
            f"enumeration through {what} {w} needs {work} > budget {budget}",
            completed_level=w - 1,
            coverage=float(covered.sum()) / covered.size)
    return work


# ----------------------------------------------------------------------
# Rank-layered syndrome sweep (shared by covering radius / saturation)
# ----------------------------------------------------------------------

def _rank_layers(H, tower: FieldTower, budget: int,
                 first_touch: dict | None = None):
    """Yield (w, covered) after marking {H x^T : wt_rk(x) <= w} for
    w = 0, 1, ... until every syndrome is covered.

    x runs over gamma * M with M one RREF representative per F_q-row
    space of dimension w and gamma over all of F_{q^m}^w; duplicate
    syndromes are harmless because marking is idempotent.  `covered` is
    one bitmap updated in place.  When `first_touch` is a dict it
    collects, for each syndrome index, the first x = gamma * M that
    reaches it, in enumeration order (subspaces, then gamma).
    """
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    r, n = H.shape
    Q = tower.order
    covered = _empty_cover(Q ** r, budget)
    work = 1
    w = 0
    yield w, covered
    while not covered.all():
        w += 1
        if w > min(n, tower.m):
            raise RuntimeError("sweep failed to terminate (unreachable)")
        work = _charge(work, fqlinalg.count_subspaces(n, w, tower.base.q)
                       * Q ** w, budget, "rank", w, covered)
        per = max(1, _MARK_CHUNK // Q ** w)
        for _, batch in fqlinalg.rref_subspaces(n, w, tower.base):
            for lo in range(0, batch.shape[0], per):
                Ms = batch[lo:lo + per]
                B = ext_matmul(H, Ms.reshape(-1, n).T.astype(np.int64), tower)
                idx = _span_marks(B.reshape(r, -1, w), tower).ravel()
                if first_touch is not None:
                    fresh = np.nonzero(~covered[idx])[0]
                    uniq, upos = np.unique(idx[fresh], return_index=True)
                    pos = fresh[upos]
                    # pos = subspace * Q^w + gamma index; digits of the
                    # latter are gamma's coordinates
                    gammas = pos[:, None] // _packing(Q, w) % Q
                    terms = tower.mul_arr(gammas[:, :, None],
                                          Ms[pos // Q ** w])
                    x = terms[:, 0]
                    for j in range(1, w):
                        x = tower.add_arr(x, terms[:, j])
                    first_touch.update(zip(uniq.tolist(),
                                           map(tuple, x.tolist())))
                covered[idx] = True
        yield w, covered


def rank_covering_radius(code: RankCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact rank-metric covering radius by syndrome sweep."""
    H = code.parity_check
    if H.shape[0] == 0:
        return 0
    for w, _ in _rank_layers(H, code.tower, budget):
        pass
    return w


# ----------------------------------------------------------------------
# Saturation radius (coefficient form) with certificates
# ----------------------------------------------------------------------

class SaturationCertificate:
    """Replayable evidence for a measured saturation radius.

    `witnesses` maps a target vector (tuple of element codes) to the
    coefficient vector lambda with G lambda^T = target and
    wt_rk(lambda) <= rho; `tightness` is a target that no rank-(rho-1)
    coefficient vector reaches, which proves the lower bound (required
    when rho > 0).
    """

    def __init__(self, rho: int, k: int, n: int, tower: FieldTower,
                 witnesses: dict, tightness, system_hash: str = ""):
        self.rho = rho
        self.k = k
        self.n = n
        self.tower = tower
        self.witnesses = witnesses          # tuple(target) -> tuple(lambda)
        self.tightness = tightness          # tuple(target) or None
        self.system_hash = system_hash

    def verify(self, sys: QSystem, budget: int = DEFAULT_BUDGET) -> bool:
        """Check that the certificate belongs to `sys`, re-check every
        stored witness, replay the sweep through level rho and require
        full coverage there, and confirm that the tightness target is
        missed at level rho - 1."""
        G, tower = sys.generator, sys.tower
        if (self.k, self.n, self.system_hash) != (sys.k, sys.n,
                                                  system_hash(sys)):
            return False
        if self.rho > 0 and self.tightness is None:
            return False
        targets, lams = list(self.witnesses), list(self.witnesses.values())
        if (any(len(t) != self.k for t in targets)
                or any(len(lam) != self.n for lam in lams)):
            return False
        lams = np.array(lams, dtype=np.int64).reshape(-1, self.n)
        if lams.size and (lams.min() < 0 or lams.max() >= tower.order):
            return False
        if (rank_weight_batch(lams, tower) > self.rho).any():
            return False
        if not np.array_equal(ext_matmul(G, lams.T, tower).T,
                              np.reshape(targets, (-1, self.k))):
            return False
        t_idx = (None if self.tightness is None else
                 int(np.array(self.tightness, dtype=np.int64)
                     @ _packing(tower.order, self.k)))
        reached = False
        for w, covered in _rank_layers(G, tower, budget):
            if w < self.rho and t_idx is not None:
                reached = bool(covered[t_idx])
            if w == self.rho:
                break
        return covered.all() and not reached

    def to_json(self) -> dict:
        return {
            "system_hash": self.system_hash,
            "rho": self.rho,
            "k": self.k,
            "n": self.n,
            "witnesses": [{"target": list(map(int, t)),
                           "lambda": list(map(int, l))}
                          for t, l in sorted(self.witnesses.items())],
            "tightness": (list(map(int, self.tightness))
                          if self.tightness is not None else None),
        }

    @classmethod
    def from_json(cls, data: dict, tower: FieldTower) -> "SaturationCertificate":
        """Read `to_json` output.  Every number must be an int: a float or
        a bool would be truncated into a different certificate, so any
        other value raises ValueError."""
        def ints(xs, what):
            if not isinstance(xs, (list, tuple)) or not all(map(_is_int, xs)):
                raise ValueError(f"certificate {what} must be integers")
            return tuple(xs)

        rho, k, n = ints([data["rho"], data["k"], data["n"]], "rho, k, n")
        wit = {ints(w["target"], "targets"): ints(w["lambda"], "lambdas")
               for w in data.get("witnesses", [])}
        tight = data.get("tightness")
        return cls(rho, k, n, tower, wit,
                   None if tight is None else ints(tight, "tightness"),
                   data.get("system_hash", ""))


def _coverage_through_level(G, tower: FieldTower, w_max: int, budget: int
                            ) -> np.ndarray:
    """Bitmap of targets reachable with coefficient rank <= w_max."""
    for w, covered in _rank_layers(G, tower, budget):
        if w == w_max:
            break
    return covered


def system_hash(sys: QSystem) -> str:
    payload = json.dumps({"q": sys.tower.base.q, "m": sys.tower.m,
                          "modulus": list(sys.tower.modulus),
                          "generator": sys.generator.tolist()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def saturation_radius(sys: QSystem, budget: int = DEFAULT_BUDGET,
                      witness_cap: int = WITNESS_CAP
                      ) -> tuple[int, SaturationCertificate]:
    """Smallest rho such that every ambient vector is G lambda^T for some
    lambda of rank <= rho, plus a replayable certificate."""
    tower = sys.tower
    Q = tower.order
    first_touch = {} if Q ** sys.k <= witness_cap else None
    tight = None
    for rho, covered in _rank_layers(sys.generator, tower, budget,
                                     first_touch):
        if not covered.all():
            # the first target still missed when level rho + 1 starts
            tight = int(np.argmin(covered))

    def decode(idx) -> list:
        return (np.asarray(idx)[..., None] // _packing(Q, sys.k) % Q).tolist()

    keys = sorted(first_touch or {})
    witnesses = {tuple(t): first_touch[i] for i, t in zip(keys, decode(keys))}
    if tight is not None:
        tight = tuple(decode(tight))
    cert = SaturationCertificate(rho, sys.k, sys.n, tower, witnesses, tight,
                                 system_hash(sys))
    return rho, cert


# ----------------------------------------------------------------------
# Saturation radius (geometric form): span marking over the linear set
# ----------------------------------------------------------------------

_FRONTIER_CHUNK = 1 << 16
_WORK_HARD_CAP = 1 << 33


def _mark_lines(a, u, indexer: PointIndexer, covered: np.ndarray,
                seen: np.ndarray | None = None) -> np.ndarray | None:
    """Mark every point on the line through canonical points a[i] != u[i].

    The RREF basis (R1, R2) of a line puts R1's pivot at 1 and R2's
    entry there at 0, so R2 and every R1 + mu R2 are already canonical:
    their indices follow from packed vectors, with no canonicalize.
    Each distinct line of the call is marked once (when its key fits in
    an int64); when `seen` (the sorted keys of lines marked earlier) is
    given, lines in it are skipped and the updated keys are returned.
    """
    tower, k, total = indexer.tower, indexer.k, indexer.total
    rows = np.arange(a.shape[0])
    ja, ju = np.argmax(a != 0, axis=1), np.argmax(u != 0, axis=1)
    swap = (ju < ja)[:, None]
    top, other = np.where(swap, u, a), np.where(swap, a, u)
    other = np.where((ja == ju)[:, None], tower.sub_arr(other, top), other)
    j1, j2 = np.minimum(ja, ju), np.argmax(other != 0, axis=1)
    R2 = tower.mul_arr(tower.inv_arr(other[rows, j2])[:, None], other)
    R1 = tower.sub_arr(top, tower.mul_arr(top[rows, j2][:, None], R2))
    off = indexer.base[:-1] - indexer.qpow
    r1, i2 = R1 @ indexer.qpow, off[j2] + R2 @ indexer.qpow
    if total ** 2 < 1 << 63:
        # a line's key is (index of R1) * total + (index of R2)
        key, first = np.unique((off[j1] + r1) * total + i2,
                               return_index=True)
        if seen is not None:
            new = (np.searchsorted(seen, key)
                   == np.searchsorted(seen, key, side="right"))
            key, first = key[new], first[new]
            seen = np.sort(np.concatenate([seen, key]), kind="stable")
        r1, i2, j1, R2 = r1[first], i2[first], j1[first], R2[first]
    covered[i2] = True
    p = tower.base.p
    per = max(1, _MARK_CHUNK // indexer.Q)
    for s in range(0, r1.size, per):
        table = _span_marks(R2[s:s + per].T[:, :, None], tower)  # mu R2
        a1 = r1[s:s + per, None]
        if p == 2:
            marks = a1 ^ table
        else:
            # R1 is 0 at R2's pivot j2 >= 1 and mu R2 is 0 left of it, so
            # only the digits of the last k - 2 coordinates add mod p
            # (a // p^i is digit i plus p times the higher digits)
            low = (k - 2) * tower.m * tower.base.e
            marks = (a1 // p ** low + table // p ** low) * p ** low
            for pw in (p ** i for i in range(low)):
                marks += (a1 // pw + table // pw) % p * pw
        covered[off[j1[s:s + per], None] + marks] = True
    return seen


def _geometric_layers(sys: QSystem, budget: int):
    """Yield (w, covered) after marking every point of PG(k-1, q^m) in
    the span of w points of L_U, for w = 0, 1, ... until all are covered.

    Level 1 marks L_U itself, and level w+1 marks every point on a line
    through a point of L_U and a point first covered at level w (which
    is exactly the union of spans of (w+1)-subsets).  `covered` is one
    bitmap over the indices of a PointIndexer, updated in place.
    """
    tower, k = sys.tower, sys.k
    Q, q = tower.order, tower.base.q
    if k == 0:
        yield 0, np.zeros(0, dtype=bool)
        return
    indexer = PointIndexer(tower, k)
    if indexer.total > budget:
        raise BudgetExceeded(
            f"PG(k-1, q^m) has {indexer.total} points > budget {budget}")
    if q ** sys.n > budget:
        raise BudgetExceeded(
            f"linear set sweep needs q^n = {q ** sys.n} > budget {budget}")
    _, idx, _ = indexer.canonicalize(sys.vectors(budget))
    covered = np.zeros(indexer.total, dtype=bool)
    yield 0, covered
    covered[idx] = True
    L = indexer.decode(np.unique(idx))
    ell = L.shape[0]
    yield 1, covered
    frontier = L
    level = 1
    while not covered.all():
        level += 1
        if level > k + 1:
            raise RuntimeError("span sweep failed to terminate (unreachable)")
        f = frontier.shape[0]
        if f * ell * (Q - 1) > _WORK_HARD_CAP:
            raise BudgetExceeded(
                f"level-{level} span sweep too large "
                f"({f} x {ell} x {Q - 1} candidates)",
                completed_level=level - 1,
                coverage=float(covered.sum()) / indexer.total)
        before = covered.copy()
        # u-chunks double up to ~_FRONTIER_CHUNK pairs, so a sweep that
        # finishes early stops early.  At level 2 the frontier is L_U:
        # i > j gives each pair once, and `seen` each line once, as two
        # points of L_U can span it.  Past level 2 the frontier misses L_U.
        seen = np.zeros(0, dtype=np.int64) if level == 2 else None
        lo, per = 0, 1
        while lo < ell and not covered.all():
            hi = min(ell, lo + per)
            pairs = (np.ones((f, hi - lo), dtype=bool) if level > 2 else
                     np.arange(f)[:, None] > np.arange(lo, hi))
            ia, iu = np.nonzero(pairs)
            if ia.size:
                seen = _mark_lines(frontier[ia], L[lo + iu], indexer,
                                   covered, seen)
            lo, per = hi, min(2 * per, max(1, _FRONTIER_CHUNK // f))
        if not covered.all():
            newly = np.nonzero(covered & ~before)[0]
            if newly.size == 0:
                raise RuntimeError(
                    "no progress in span sweep; system does not saturate "
                    "(unreachable for valid systems)")
            frontier = indexer.decode(newly)
        yield level, covered


def saturation_radius_geometric(sys: QSystem,
                                budget: int = DEFAULT_BUDGET) -> int:
    """Smallest rho such that spans of rho points of L_U cover PG(k-1, q^m),
    by span marking (see _geometric_layers)."""
    for level, _ in _geometric_layers(sys, budget):
        pass
    return level


def geometric_certificate(sys: QSystem, budget: int = DEFAULT_BUDGET
                          ) -> tuple[int, SaturationCertificate]:
    """Geometric radius with a certificate holding no witnesses; its
    tightness target is the first point still uncovered at level rho - 1."""
    tight = None
    for rho, covered in _geometric_layers(sys, budget):
        if not covered.all():
            tight = int(np.argmin(covered))
    if tight is not None:
        tight = tuple(PointIndexer(sys.tower, sys.k).decode(tight)[0].tolist())
    return rho, SaturationCertificate(rho, sys.k, sys.n, sys.tower, {}, tight,
                                      system_hash(sys))


# ----------------------------------------------------------------------
# Hamming covering radius (for the projective-code bridge)
# ----------------------------------------------------------------------

def hamming_covering_radius(generator, tower: FieldTower,
                            budget: int = DEFAULT_BUDGET) -> int:
    """Exact Hamming covering radius of the code generated by `generator`,
    by coset-leader syndrome sweep in Hamming-weight layers."""
    Gm = as_matrix(tower, generator)
    H = RankCode(tower, Gm).parity_check
    r, N = H.shape[0], Gm.shape[1]
    if r == 0:
        return 0
    Q = tower.order
    covered = _empty_cover(Q ** r, budget)
    work = 1
    w = 0
    while not covered.all():
        w += 1
        if w > N:
            raise RuntimeError("Hamming sweep failed to terminate")
        work = _charge(work, comb(N, w) * (Q - 1) ** w, budget,
                       "Hamming weight", w, covered)
        supports = combinations(range(N), w)
        per = max(1, _MARK_CHUNK // (Q - 1) ** w)
        while chunk := list(islice(supports, per)):
            covered[_span_marks(H[:, chunk], tower, first=1).ravel()] = True
    return w


# ----------------------------------------------------------------------
# Maximality and bound-consistency oracles
# ----------------------------------------------------------------------

def is_maximal(code: RankCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Supercode criterion: maximal iff rho_rk(C) <= d_rk(C) - 1."""
    d = min_rank_distance(code, budget)
    rho = rank_covering_radius(code, budget)
    return rho <= d - 1


def check_bound_consistency(code: RankCode, budget: int = DEFAULT_BUDGET,
                            supercode: RankCode | None = None) -> dict:
    """Assert the classical covering-radius inequalities for this code.

    Raises ConsistencyError naming the first violated inequality; the
    returned report lists every computed quantity.  Zero and full codes
    are exempt from the diameter inequality.
    """
    from .linalg import weight_spectrum
    tower = code.tower
    n, k, m = code.n, code.k, tower.m
    report: dict = {"n": n, "k": k}
    if 0 < k:
        d = min_rank_distance(code, budget)
        spec = weight_spectrum(code, budget)
        report["d_rk"] = d
        report["s_rk"] = len(spec)
        rho_dual = rank_covering_radius(code.dual(), budget)
        report["rho_dual"] = rho_dual
        if rho_dual > len(spec):
            raise ConsistencyError(
                f"external distance bound violated: rho_rk(C_dual) = "
                f"{rho_dual} > s_rk(C) = {len(spec)}")
        if rho_dual > min(n, m) - d + 1:
            raise ConsistencyError(
                f"dual distance bound violated: rho_rk(C_dual) = {rho_dual} "
                f"> min(n, m) - d + 1 = {min(n, m) - d + 1}")
    rho = rank_covering_radius(code, budget)
    report["rho"] = rho
    if 0 < k < n:
        d = report["d_rk"]
        if not d - 1 < 2 * rho:
            raise ConsistencyError(
                f"diameter bound violated: d - 1 = {d - 1} >= 2 rho = {2 * rho}")
    if supercode is not None:
        d_sup = min_rank_distance(supercode, budget)
        rho_sup = rank_covering_radius(supercode, budget)
        report["d_rk_supercode"] = d_sup
        report["rho_supercode"] = rho_sup
        if rho < d_sup:
            raise ConsistencyError(
                f"supercode distance bound violated: rho_rk(C) = {rho} < "
                f"d_rk(D) = {d_sup}")
        if rho < rho_sup:
            raise ConsistencyError(
                f"monotonicity violated: rho_rk(C) = {rho} < rho_rk(D) = "
                f"{rho_sup}")
    return report


# ----------------------------------------------------------------------
# Cutting blocking sets / minimal codes
# ----------------------------------------------------------------------

_CUT_CHUNK = 1 << 14     # entries b * k * n per chunk of b hyperplanes


def is_linear_cutting_blocking_set(sys: QSystem,
                                   budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the span of H intersect U is H for every hyperplane H.

    Per chunk of normals h, h . (G c) = 0 expands to m F_q-constraints
    C c = 0; the RREF rows of C placed at their pivot rows form an
    idempotent S with kernel ker C, so G (I - S) spans H intersect U,
    whose rank over F_{q^m} must be k - 1.
    """
    tower = sys.tower
    G = sys.generator
    k, n = sys.k, sys.n
    indexer = PointIndexer(tower, k)
    if indexer.total > budget:
        raise BudgetExceeded(
            f"{indexer.total} hyperplanes exceed budget {budget}")
    per = max(1, _CUT_CHUNK // max(1, k * n))
    for start in range(0, indexer.total, per):
        h = indexer.decode(np.arange(start, min(start + per, indexer.total)))
        C = tower.digit_table()[ext_matmul(h, G, tower)].transpose(0, 2, 1)
        R, pivot_col, _ = fqlinalg.echelon(C, tower.base)
        S = np.zeros((len(h), n + 1, n), dtype=np.int64)
        S[np.arange(len(h))[:, None], pivot_col] = R
        I_S = tower.base.sub_arr(np.eye(n, dtype=np.int64), S[:, :n])
        if (fqlinalg.echelon(ext_matmul(G, I_S, tower), tower)[2]
                != k - 1).any():
            return False
    return True


def is_minimal_rank_code(code: RankCode, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff no codeword's rank support contains that of a codeword
    outside its F_{q^m}-multiples, by the cutting test (minimal codes are
    the codes of cutting systems) on the columns at the pivots of G over
    F_q.  G is those columns times an F_q-matrix of full row rank, which
    keeps rank supports and their containments, so a degenerate code is
    minimal iff its nondegenerate part is.  The hyperplane count is
    charged against `budget`."""
    G = code.generator
    _, pivots = fqlinalg.rref(expanded_columns(G, code.tower), code.tower.base)
    return is_linear_cutting_blocking_set(QSystem(code.tower, G[:, pivots]),
                                          budget)


# ----------------------------------------------------------------------
# Puncturing non-scattered systems
# ----------------------------------------------------------------------

def puncture_nonscattered(sys: QSystem, budget: int = DEFAULT_BUDGET,
                          verify_budget: int | None = None) -> QSystem:
    """Drop one basis direction of a repeated projective point.

    Requires a non-scattered linear set; returns the [n-1, k] system
    spanned by a basis u_1 .. u_{n-1} such that the removed vector is an
    F_{q^m}-multiple (lambda not in F_q) of a member of the new system.
    When verify_budget is given, asserts radius(new) <= radius(old) + 1.
    """
    tower = sys.tower
    ls = linear_set(sys, budget)
    if is_scattered(ls):
        raise SystemError_("system is scattered; nothing to puncture")
    heavy = int(np.argmax(ls.weights >= 2))
    point = ls.points[heavy]
    indexer = PointIndexer(tower, sys.k)
    target_idx = indexer.index_of(point)
    vecs = sys.vectors(budget)
    _, idx, keep = indexer.canonicalize(vecs)
    fibre = vecs[np.nonzero(keep)[0][idx == target_idx]]
    u_a = fibre[0]
    u_b = None
    for cand in fibre[1:]:
        # F_q-dependent on u_a iff cand = c u_a with c in F_q
        if not any(np.array_equal(cand, tower.mul_scalar(c, u_a))
                   for c in range(1, tower.base.q)):
            u_b = cand
            break
    assert u_b is not None, "weight >= 2 point must carry independent vectors"
    cols = expanded_columns(sys.generator, tower)
    c_a = fqlinalg.solve(cols, expand(u_a, tower).reshape(-1), tower.base)
    c_b = fqlinalg.solve(cols, expand(u_b, tower).reshape(-1), tower.base)
    # functional vanishing on c_a but not on c_b
    K = fqlinalg.kernel(c_a.reshape(1, -1), tower.base)
    phi = None
    for row in K:
        if ext_matmul(row[None], c_b[:, None], tower.base).any():
            phi = row
            break
    assert phi is not None, "c_b should be independent of c_a"
    K2 = fqlinalg.kernel(phi.reshape(1, -1), tower.base)   # (n-1) x n
    newG = ext_matmul(sys.generator, K2.T.astype(np.int64), tower)
    punctured = QSystem(tower, newG)
    if verify_budget is not None:
        rho_old, _ = saturation_radius(sys, verify_budget)
        rho_new, _ = saturation_radius(punctured, verify_budget)
        assert rho_new <= rho_old + 1, (rho_new, rho_old)
    return punctured
