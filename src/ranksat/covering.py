"""Covering radii, saturation radii, and the cross-validating oracles.

Three independent routes to the same number:

* `saturation_radius` sweeps coefficient vectors lambda = gamma * M by
  rank layer and marks the ambient targets G lambda^T (the coefficient
  characterization of saturation) as points of PG(k-1, q^m), since
  they form a cone; a level ends once every point is covered.
* `saturation_radius_geometric` marks projective points covered by
  F_{q^m}-spans of subsets of the linear set, level by level.
* `rank_covering_radius` runs the same rank-layered sweep against a
  parity-check matrix, so the radius of the dual code of an associated
  code can be compared with both of the above.
* `hamming_covering_radius` runs that sweep in Hamming-weight layers,
  M the selection matrices of the supports, for the projective
  Hamming-metric code bridge.

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
from .gftower import FieldTower, add_digits, expand
from .interchange import _is_int
from .linalg import (BudgetExceeded, DEFAULT_BUDGET, RankCode, as_matrix,
                     ext_matmul, min_rank_distance, rank_weight_batch,
                     weight_spectrum)
from .qsystem import (PointIndexer, QSystem, SystemError_, expanded_columns,
                      linear_set, is_scattered)

WITNESS_CAP = 1 << 12


class ConsistencyError(AssertionError):
    """A covering-radius inequality that must always hold failed; the
    message names the violated inequality."""


# ----------------------------------------------------------------------
# Flat marking, shared by the coefficient and geometric sweeps
# ----------------------------------------------------------------------

# Marks per chunk; bounds the size of the sweeps' intermediates.
_MARK_CHUNK = 1 << 16


def _line_bases(a, u, tower: FieldTower):
    """RREF bases (R, pivots) of lines through canonical points a != u."""
    rows = np.arange(a.shape[0])
    ja, ju = np.argmax(a != 0, axis=1), np.argmax(u != 0, axis=1)
    swap = (ju < ja)[:, None]
    top, other = np.where(swap, u, a), np.where(swap, a, u)
    other = np.where((ja == ju)[:, None], tower.sub_arr(other, top), other)
    j1, j2 = np.minimum(ja, ju), np.argmax(other != 0, axis=1)
    R2 = tower.mul_arr(tower.inv_arr(other[rows, j2])[:, None], other)
    R1 = tower.sub_arr(top, tower.mul_arr(top[rows, j2][:, None], R2))
    return np.stack([R1, R2], axis=1), np.stack([j1, j2], axis=1)


def _distinct_flats(R, pivots, indexer: PointIndexer, seen=None):
    """(first, seen): the ascending first positions of the distinct flats
    of the RREF bases R (b, w, k) (all b if a key, the indices of the
    rows, overflows), less those keyed in `seen`, returned updated."""
    b, w, _ = R.shape
    if indexer.total ** w >= 1 << 63:
        return np.arange(b), seen
    key, first = np.unique((indexer.off[pivots] + R @ indexer.qpow)
                           @ indexer.total ** np.arange(w - 1, -1, -1),
                           return_index=True)
    if seen is not None:
        new = np.searchsorted(seen, key) == np.searchsorted(seen, key, "right")
        key, first = key[new], first[new]
        seen = np.sort(np.concatenate([seen, key]), kind="stable")
    return np.sort(first), seen


def _flat_points(R, pivots, indexer: PointIndexer) -> np.ndarray:
    """The (Q^w - 1)/(Q - 1) point indices of each flat spanned by the
    RREF bases R (b, w, k) with pivot columns `pivots` (b, w): canonical
    R_i + sum_{j > i} mu_j R_j is off[pivot_i] + packed R_i added to the
    span of the rows below, grown by 0 and each row's `multiples`: windows
    of exp, which repeats for indices Q-1..2Q-3 and is 0 from 2(Q-1) to 2S."""
    tower, (b, w, k) = indexer.tower, R.shape
    p, digits = tower.base.p, k * tower.m * tower.base.e
    packed = R @ indexer.qpow
    span, out = None, []    # no rows below: the span is {0}
    for i in range(w - 1, -1, -1):
        row = packed[:, i, None]
        out.append(indexer.off[pivots[:, i], None] + (
            row if span is None else add_digits(row, span, p, digits)))
        if i:
            mults = np.concatenate([np.zeros((b, 1), dtype=np.int64),
                                    indexer.multiples(R[:, i])], axis=1)
            span = mults if span is None else add_digits(
                span[:, None], mults[:, :, None], p, digits).reshape(
                    b, tower.order * span.shape[1])
    return np.concatenate(out, axis=1)


# ----------------------------------------------------------------------
# Syndrome sweep: one loop for the rank and Hamming layers
# ----------------------------------------------------------------------

def _check_space(total: int, budget: int) -> None:
    if total > budget:
        raise BudgetExceeded(
            f"syndrome space q^(m r) = {total} exceeds budget {budget}",
            completed_level=-1, coverage=0.0)


def _charge(work: int, level_work: int, budget: int, what: str, w: int,
            coverage: float) -> int:
    """Add the enumeration of level w to the running work, or refuse."""
    work += level_work
    if work > budget:
        raise BudgetExceeded(
            f"enumeration through {what} {w} needs {work} > budget {budget}",
            completed_level=w - 1, coverage=coverage)
    return work


def _subspace_level(H, points: PointIndexer, w: int, per: int):
    """Level w of the rank sweep, or None past min(n, m): ("rank", its
    charge [n w]_q Q^w, chunks (M, B, marks) over at most `per` RREF
    bases M of the w-dimensional F_q-row spaces), keeping the first M of
    each column span of B = H M^T of rank w, marks its points (one of
    lower rank is B(gamma + c gamma_0), B gamma_0 = 0, reached before)."""
    tower = points.tower
    n = H.shape[1]
    if w > min(n, tower.m):
        return None
    count = fqlinalg.gaussian_binomial(n, w, tower.base.q)

    def chunks():
        for _, Ms in fqlinalg.rref_subspaces(n, w, tower.base, per):
            B = ext_matmul(H, Ms.transpose(0, 2, 1), tower)
            if w == 1:      # the RREF of B^T is its canonical scaling
                _, idx, keep = points.canonicalize(B[:, :, 0])
                yield Ms[keep], B[keep], idx[:, None]
                continue
            if w == 2:      # two distinct points span a line
                full = np.flatnonzero(B.any(axis=1).all(axis=1))
                W, idx, _ = points.canonicalize(
                    B[full].transpose(0, 2, 1).reshape(-1, points.k))
                line = idx[0::2] != idx[1::2]
                full = full[line]
                R, pivots = _line_bases(W[0::2][line], W[1::2][line], tower)
            else:
                R, pivots, rank = fqlinalg.echelon(B.transpose(0, 2, 1),
                                                   tower)
                full = np.flatnonzero(rank == w)
                R, pivots = R[full], pivots[full]
            first = _distinct_flats(R, pivots, points)[0]
            yield (Ms[full[first]], B[full[first]],
                   _flat_points(R[first], pivots[first], points))
    return "rank", count * tower.order ** w, chunks()


def _support_level(H, points: PointIndexer, w: int, per: int):
    """Level w of the Hamming sweep, or None past n: ("Hamming weight",
    its charge C(n, w) (Q-1)^w, chunks (M, B, marks) over at most `per`
    selection matrices M of the w-subsets S, B = H[:, S]), marking B gamma
    for gamma with no zero coordinate, not the flat (1 point over F_2)."""
    n = H.shape[1]
    if w > n:
        return None

    def chunks():
        # the points of PG(w-1, Q) with no zero coordinate
        gammas = 1 + np.indices((1,) + (points.Q - 1,) * (w - 1)).reshape(
            w, -1)
        supports = combinations(range(n), w)
        while chunk := list(islice(supports, per)):
            S = np.array(chunk)
            B = H[:, S].transpose(1, 0, 2)
            V = ext_matmul(B, gammas, points.tower).transpose(0, 2, 1)
            yield (np.eye(n, dtype=np.int64)[S], B,
                   points.canonicalize(V.reshape(-1, points.k))[1])
    return "Hamming weight", comb(n, w) * (points.Q - 1) ** w, chunks()


def _rank_layers(H, tower: FieldTower, budget: int,
                 first_touch: dict | None = None, level=_subspace_level):
    """Yield (w, covered) after marking {H x^T : x = gamma M, M of a
    level <= w} for w = 0, 1, ... until every syndrome is covered.  Level
    w is `level(H, points, w, per)`: its label, its charge and chunks
    (M, B, marks), B = H M^T, M over the RREF bases of the F_q-row spaces
    of dimension w (x over rank weight <= w) or the w-subsets of the
    coordinates (x over Hamming weight <= w).

    H (c x)^T = c H x^T, so `covered` is one bitmap over the points of
    PG(r-1, Q), updated in place; rank level w is the union of the column
    spans (flats) of B.  A level stops once the bitmap is full (its
    charge does not depend on the stop).  When `first_touch` is a dict it
    collects, for each syndrome (a tuple), the first x = gamma * M (M,
    then gamma over F_{q^m}^w) of the rank sweep that reaches it: the
    first M of a chunk whose flat holds a point reaches its multiples, so
    only those M are replayed over all gamma.
    """
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    r = H.shape[0]
    Q = tower.order
    _check_space(Q ** r, budget)
    points = PointIndexer(tower, r)
    covered = np.zeros(points.total, dtype=bool)
    left = points.total
    work = 1
    w = 0
    yield w, covered
    while left:
        w += 1
        per = max(1, _MARK_CHUNK // (Q - 1) ** (w - 1))
        lvl = level(H, points, w, per)
        if lvl is None:
            raise RuntimeError("sweep failed to terminate (unreachable)")
        what, charge, chunks = lvl
        work = _charge(work, charge, budget, what, w,
                       (1 + (Q - 1) * (points.total - left)) / Q ** r)
        fresh = 0      # bounds the points newly covered since `left`
        for Ms, B, marks in chunks:
            new = ~covered[marks]
            if first_touch is not None and new.any():
                uniq, first = np.unique(marks[new], return_index=True)
                subs = np.unique(np.nonzero(new)[0][first])
                # the affine gamma grid, first coordinate most significant
                grid = np.indices((Q,) * w).reshape(w, -1)
                idx = (ext_matmul(B[subs], grid, tower).transpose(0, 2, 1)
                       @ points.qpow).ravel()
                found, pos = np.unique(idx, return_index=True)
                codes = points.multiples(points.decode(uniq)).ravel()
                # pos = subs index * Q^w + gamma's column of the grid
                pos = pos[np.searchsorted(found, codes)]
                x = ext_matmul(grid.T[pos % Q ** w, None],
                               Ms[subs[pos // Q ** w]], tower)[:, 0]
                first_touch.update(zip(
                    map(tuple, (codes[:, None] // points.qpow % Q).tolist()),
                    map(tuple, x.tolist())))
            covered[marks] = True
            fresh += np.count_nonzero(new)
            if fresh >= left:
                left, fresh = points.total - int(np.count_nonzero(covered)), 0
                if not left:
                    break
        left = points.total - int(np.count_nonzero(covered))
        yield w, covered


def rank_covering_radius(code: RankCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact rank-metric covering radius by syndrome sweep."""
    for w, _ in _rank_layers(code.parity_check, code.tower, budget):
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
        tight = [] if self.tightness is None else [self.tightness]
        if (any(len(t) != self.k for t in targets + tight)
                or any(len(lam) != self.n for lam in lams)):
            return False
        lams = np.array(lams, dtype=np.int64).reshape(-1, self.n)
        tight = np.array(tight, dtype=np.int64).reshape(-1, self.k)
        if any(a.size and (a.min() < 0 or a.max() >= tower.order)
               for a in (lams, tight)):
            return False
        if (rank_weight_batch(lams, tower) > self.rho).any():
            return False
        if not np.array_equal(ext_matmul(G, lams.T, tower).T,
                              np.reshape(targets, (-1, self.k))):
            return False
        # a zero tightness has no point: `all` of none is True (reached)
        _, t_idx, _ = PointIndexer(tower, self.k).canonicalize(tight)
        reached = False
        for w, covered in _rank_layers(G, tower, budget):
            if w < self.rho:
                reached = bool(covered[t_idx].all())
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


def system_hash(sys: QSystem) -> str:
    payload = json.dumps({"q": sys.tower.base.q, "m": sys.tower.m,
                          "modulus": list(sys.tower.modulus),
                          "generator": sys.generator.tolist()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def saturation_radius(sys: QSystem, budget: int = DEFAULT_BUDGET
                      ) -> tuple[int, SaturationCertificate]:
    """Smallest rho such that every ambient vector is G lambda^T for some
    lambda of rank <= rho, plus a replayable certificate."""
    tower = sys.tower
    points = PointIndexer(tower, sys.k)
    first_touch = {} if tower.order ** sys.k <= WITNESS_CAP else None
    tight = None
    for rho, covered in _rank_layers(sys.generator, tower, budget,
                                     first_touch):
        # least target missed: blocks (pivots) are in decreasing packed order
        for lo, hi in zip(points.base[-2::-1], points.base[:0:-1]):
            if not covered[lo:hi].all():
                tight = tuple(points.decode(lo + np.argmin(covered[lo:hi]))[0]
                              .tolist())
                break
    cert = SaturationCertificate(rho, sys.k, sys.n, tower, first_touch or {},
                                 tight, system_hash(sys))
    return rho, cert


# ----------------------------------------------------------------------
# Saturation radius (geometric form): span marking over the linear set
# ----------------------------------------------------------------------

_FRONTIER_CHUNK = 1 << 14
_WORK_HARD_CAP = 1 << 33


def _geometric_layers(sys: QSystem, budget: int):
    """Yield (w, covered) after marking every point of PG(k-1, q^m) in
    the span of w points of L_U, for w = 0, 1, ... until all are covered.

    Level 1 marks L_U itself, and level w+1 marks every point on a line
    through a point of L_U and a point first covered at level w (which
    is exactly the union of spans of (w+1)-subsets).  `covered` is one
    bitmap over the indices of a PointIndexer, updated in place.
    """
    tower, k = sys.tower, sys.k
    Q = tower.order
    if k == 0:
        yield 0, np.zeros(0, dtype=bool)
        return
    indexer = PointIndexer(tower, k)
    if indexer.total > budget:
        raise BudgetExceeded(
            f"PG(k-1, q^m) has {indexer.total} points > budget {budget}")
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
        # finishes early stops early; batches of at most _FRONTIER_CHUNK
        # pairs cut them, as one u pairs the whole frontier.  At level 2
        # the frontier is L_U: i > j gives each pair once, and `seen` each
        # line once, as two points of L_U can span it; later it misses L_U.
        seen = np.zeros(0, dtype=np.int64) if level == 2 else None
        lo, per = 0, 1
        while lo < ell and not covered.all():
            hi = min(ell, lo + per)
            pairs = (np.ones((f, hi - lo), dtype=bool) if level > 2 else
                     np.arange(f)[:, None] > np.arange(lo, hi))
            ia, iu = np.nonzero(pairs)
            for c in range(0, ia.size, _FRONTIER_CHUNK):
                a, u = ia[c:c + _FRONTIER_CHUNK], iu[c:c + _FRONTIER_CHUNK]
                R, pivots = _line_bases(frontier[a], L[lo + u], tower)
                first, seen = _distinct_flats(R, pivots, indexer, seen)
                for s in range(0, first.size, max(1, _MARK_CHUNK // Q)):
                    t = first[s:s + max(1, _MARK_CHUNK // Q)]
                    covered[_flat_points(R[t], pivots[t], indexer)] = True
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
    H = RankCode(tower, as_matrix(tower, generator)).parity_check
    for w, _ in _rank_layers(H, tower, budget, level=_support_level):
        pass
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

    Per chunk of normals h, X = h G holds the values h . g_j, and G c lies
    in H iff sum_j c_j X_j = 0 for c in F_q^n.  On the greedy F_q-basis
    X_{p_1}, .., X_{p_r} of X (`fqlinalg.fq_basis_batch`), each X_j =
    sum_i c_ij X_{p_i}, so the vectors g_j - sum_i c_ij g_{p_i} span
    H intersect U (zero at j = p_i), and their rank over F_{q^m} must be
    k - 1.
    """
    tower = sys.tower
    G = sys.generator
    k, n, q = sys.k, sys.n, tower.base.q
    e = tower.base.e if tower.base.p == 2 else 0     # digits by shift
    indexer = PointIndexer(tower, k)
    if indexer.total > budget:
        raise BudgetExceeded(
            f"{indexer.total} hyperplanes exceed budget {budget}")
    # row n is zero: the pivot index of an empty basis slot
    cols = np.concatenate([G.T, np.zeros((1, k), dtype=np.int64)])
    per = max(1, _CUT_CHUNK // max(1, k * n))
    for start in range(0, indexer.total, per):
        h = indexer.decode(np.arange(start, min(start + per, indexer.total)))
        X = ext_matmul(h, G, tower)
        coords, pivots, rank = fqlinalg.fq_basis_batch(X, tower)
        V = np.broadcast_to(G.T, (len(h), n, k))
        for i in range(rank.max()):
            c = (coords >> e * i & (q - 1) if e else coords // q ** i % q)
            V = tower.sub_arr(V, tower.mul_arr(c[:, :, None],
                                               cols[pivots[:, i], None]))
        if (fqlinalg.echelon(V, tower)[2] != k - 1).any():
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
    When verify_budget is given, checks radius(new) <= radius(old) + 1
    and raises ConsistencyError if it fails.
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
    # F_q-dependent on u_a iff cand = c u_a with c in F_q
    u_b = next((cand for cand in fibre[1:]
                if not any(np.array_equal(cand, tower.mul_arr(c, u_a))
                           for c in range(1, tower.base.q))), None)
    if u_b is None:
        raise RuntimeError("a point of weight >= 2 carries no two independent "
                           "vectors (unreachable)")
    cols = expanded_columns(sys.generator, tower)
    c_a = fqlinalg.solve(cols, expand(u_a, tower).reshape(-1), tower.base)
    c_b = fqlinalg.solve(cols, expand(u_b, tower).reshape(-1), tower.base)
    # functional vanishing on c_a but not on c_b
    K = fqlinalg.kernel(c_a.reshape(1, -1), tower.base)
    phi = next((row for row in K if ext_matmul(row[None], c_b[:, None],
                                               tower.base).any()), None)
    if phi is None:
        raise RuntimeError("c_b is dependent on c_a (unreachable)")
    K2 = fqlinalg.kernel(phi.reshape(1, -1), tower.base)   # (n-1) x n
    newG = ext_matmul(sys.generator, K2.T.astype(np.int64), tower)
    punctured = QSystem(tower, newG)
    if verify_budget is not None:
        rho_old, _ = saturation_radius(sys, verify_budget)
        rho_new, _ = saturation_radius(punctured, verify_budget)
        if rho_new > rho_old + 1:
            raise ConsistencyError(
                f"puncturing bound violated: radius {rho_new} after "
                f"puncturing > {rho_old} + 1")
    return punctured
