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
  over the supports of the coordinates, for the projective
  Hamming-metric code bridge.

All sweeps, and the cutting-set test (one rank of support syndromes
C_h H^T per hyperplane), are exact and refuse (raising BudgetExceeded)
instead of sampling when the declared budget does not cover them.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, islice
from math import comb

import numpy as np

from . import fqlinalg
from .gftower import FieldTower, _is_int, add_digits
from .linalg import (BudgetExceeded, DEFAULT_BUDGET, RankCode, _combinations,
                     ext_matmul, min_rank_distance, weight_spectrum)
from .qsystem import (PointIndexer, QSystem, SystemError_, expanded_columns,
                      linear_set, is_scattered)


class ConsistencyError(AssertionError):
    """A covering-radius inequality that must always hold failed; the
    message names the violated inequality."""


# ----------------------------------------------------------------------
# Flat marking, shared by the coefficient and geometric sweeps
# ----------------------------------------------------------------------

# Marks per chunk; bounds the size of the sweeps' intermediates.
_MARK_CHUNK = 1 << 16


def _distinct_flats(rows, total: int):
    """The ascending first positions of the distinct flats whose RREF
    bases have the point indices `rows` (b, w), of PG(k-1, Q) with
    `total` points."""
    w = rows.shape[1]
    if total ** w >= 1 << 63:
        return np.sort(np.unique(rows, axis=0, return_index=True)[1])
    return np.sort(np.unique(rows @ total ** np.arange(w - 1, -1, -1),
                             return_index=True)[1])


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

def _check_space(total: int, budget: int, what="syndrome space q^(m r)"):
    if total > budget:
        raise BudgetExceeded(f"{what} = {total} exceeds budget {budget}",
                             completed_level=-1, coverage=0.0)


def _coverage(covered: np.ndarray, Q: int) -> float:
    """The share of the Q^r targets covered: 1, and Q - 1 per point."""
    return (1 + (Q - 1) * int(covered.sum())) / (1 + (Q - 1) * covered.size)


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
    charge [n w]_q Q^w, chunks (M, marks) over at most `per` RREF bases M
    of the w-dimensional F_q-row spaces).  The column span of B = H M^T
    is read off the RREF of B^T: at w = 1 the canonical scaling of B's
    column, past that `fqlinalg.echelon`.  The first M of each span of
    rank w marks its points (one of lower rank is B(gamma + c gamma_0),
    B gamma_0 = 0, reached before)."""
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
                yield Ms[keep], idx[:, None]
                continue
            R, pivots, rank = fqlinalg.echelon(B.transpose(0, 2, 1), tower)
            full = np.flatnonzero(rank == w)
            R, pivots = R[full], pivots[full]
            first = _distinct_flats(points.off[pivots] + R @ points.qpow,
                                    points.total)
            yield Ms[full[first]], _flat_points(R[first], pivots[first],
                                                points)
    return "rank", count * tower.order ** w, chunks()


def _support_level(H, points: PointIndexer, w: int, per: int):
    """Level w of the Hamming sweep, or None past n: ("Hamming weight",
    its charge C(n, w) (Q-1)^w, chunks (S, marks) over at most `per`
    w-subsets S), marking H[:, S] gamma for gamma with no zero
    coordinate, not the flat (1 point over F_2)."""
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
            yield S, points.canonicalize(V.reshape(-1, points.k))[1]
    return "Hamming weight", comb(n, w) * (points.Q - 1) ** w, chunks()


def _rank_layers(H, tower: FieldTower, budget: int, level=_subspace_level):
    """Yield (w, covered) after marking {H x^T : x = gamma M, M of a
    level <= w} for w = 0, 1, ... until every syndrome is covered.  Level
    w is `level(H, points, w, per)`: its label, its charge and chunks
    (M, marks), M over the RREF bases of the F_q-row spaces of dimension
    w (x over rank weight <= w), or (S, marks) over the w-subsets S of
    the coordinates (x over Hamming weight <= w).

    H (c x)^T = c H x^T, so `covered` is one bitmap over the points of
    PG(r-1, Q), updated in place; rank level w is the union of the column
    spans (flats) of B = H M^T.  A level stops once the bitmap is full
    (its charge does not depend on the stop).
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
        work = _charge(work, charge, budget, what, w, _coverage(covered, Q))
        fresh = 0      # bounds the points newly covered since `left`
        for _, marks in chunks:
            fresh += np.count_nonzero(~covered[marks])
            covered[marks] = True
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

    `tightness` is a target (tuple of element codes) that no
    rank-(rho-1) coefficient vector reaches, which proves the lower bound
    (required when rho > 0); the upper bound is proved by replaying the
    sweep through level rho.  `_certify` builds it for both rank routes.
    """

    def __init__(self, rho: int, k: int, n: int, tightness,
                 system_hash: str = ""):
        self.rho = rho
        self.k = k
        self.n = n
        self.tightness = tightness          # tuple(target) or None
        self.system_hash = system_hash

    def verify(self, sys: QSystem, budget: int = DEFAULT_BUDGET) -> bool:
        """Check that the certificate belongs to `sys`, replay the sweep
        through level rho and require full coverage there, and confirm
        that the tightness target is missed at level rho - 1."""
        if (self.k, self.n, self.system_hash) != (sys.k, sys.n,
                                                  system_hash(sys)):
            return False
        if self.rho < 0 or (self.rho > 0 and self.tightness is None):
            return False
        try:
            tight = (None if self.tightness is None else
                     PointIndexer(sys.tower, self.k).index_of(self.tightness))
        except ValueError:      # not k codes, or the zero vector
            return False
        for w, covered in _rank_layers(sys.generator, sys.tower, budget):
            if w < self.rho and covered[tight]:
                return False    # the target is reached below rho
            if w == self.rho:
                break
        return bool(covered.all())

    def to_json(self) -> dict:
        return {
            "system_hash": self.system_hash,
            "rho": self.rho,
            "k": self.k,
            "n": self.n,
            "tightness": (list(map(int, self.tightness))
                          if self.tightness is not None else None),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SaturationCertificate":
        """Read `to_json` output.  Every number must be an int: a float or
        a bool would be truncated into a different certificate, so any
        other value raises ValueError, as does the `witnesses` key of the
        older format."""
        def ints(xs, what):
            if not isinstance(xs, (list, tuple)) or not all(map(_is_int, xs)):
                raise ValueError(f"certificate {what} must be integers")
            return tuple(xs)

        if "witnesses" in data:
            raise ValueError("certificate field 'witnesses' is no longer "
                             "read; recompute the certificate")
        rho, k, n = ints([data["rho"], data["k"], data["n"]], "rho, k, n")
        tight = data.get("tightness")
        return cls(rho, k, n,
                   None if tight is None else ints(tight, "tightness"),
                   data.get("system_hash", ""))


def system_hash(sys: QSystem) -> str:
    payload = json.dumps({"q": sys.tower.base.q, "m": sys.tower.m,
                          "modulus": list(sys.tower.modulus),
                          "generator": sys.generator.tolist()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _certify(sys: QSystem, layers) -> tuple[int, SaturationCertificate]:
    """Radius and certificate of a sweep: `layers` yields (w, covered), one
    bitmap over PG(k-1, q^m) filled in place until full at rho.  Both rank
    routes mark the same level sets, so one tightness rule serves both."""
    points = PointIndexer(sys.tower, sys.k)
    miss = None
    for rho, covered in layers:
        # least target missed: blocks (pivots) are in decreasing packed order
        for lo, hi in zip(points.base[-2::-1], points.base[:0:-1]):
            if not covered[lo:hi].all():
                miss = lo + int(np.argmin(covered[lo:hi]))
                break
    tight = None if miss is None else tuple(points.decode(miss)[0].tolist())
    return rho, SaturationCertificate(rho, sys.k, sys.n, tight,
                                      system_hash(sys))


def saturation_radius(sys: QSystem, budget: int = DEFAULT_BUDGET
                      ) -> tuple[int, SaturationCertificate]:
    """Smallest rho such that every ambient vector is G lambda^T for some
    lambda of rank <= rho, plus a replayable certificate."""
    return _certify(sys, _rank_layers(sys.generator, sys.tower, budget))


# ----------------------------------------------------------------------
# Saturation radius (geometric form): span marking over the linear set
# ----------------------------------------------------------------------

# Pairs per batch of the geometric sweep: level 2 filters a batch at a
# time, and each distinct line of a batch is marked once.
_FRONTIER_CHUNK = 1 << 14
# Entries per array of one call of the line kernels within a batch:
# `_line_bases` on _LINE_CHUNK // k pairs, the marking of _LINE_CHUNK // Q
# lines.  Marking _MARK_CHUNK // Q lines and computing a batch's bases
# at once, the sweep's traced peak on the [9,4]/F_64 and [6,4]/F_27
# blocks reads 5.38 and 5.80 MiB, against 2.57 and 1.99 MiB here.
_LINE_CHUNK = 1 << 13


def _pair_batches(f: int, ell: int, covered, lower: bool):
    """Batches (a, u) of at most _FRONTIER_CHUNK pairs of positions of a
    frontier of f points and of the ell points of L_U, a > u only if
    `lower`.  The u-chunks double up to ~_FRONTIER_CHUNK pairs, so a sweep
    that finishes early (`covered` full) stops early; the batches cut
    them, as one u pairs the whole frontier."""
    lo, per = 0, 1
    while lo < ell and not covered.all():
        hi = min(ell, lo + per)
        pairs = (np.arange(f)[:, None] > np.arange(lo, hi) if lower else
                 np.ones((f, hi - lo), dtype=bool))
        ia, iu = np.nonzero(pairs)
        for c in range(0, ia.size, _FRONTIER_CHUNK):
            yield ia[c:c + _FRONTIER_CHUNK], lo + iu[c:c + _FRONTIER_CHUNK]
        lo, per = hi, min(2 * per, max(1, _FRONTIER_CHUNK // f))


def _line_bases(a, u, tower: FieldTower):
    """RREF bases (R, pivots) of lines through canonical points a != u.
    Each step rebinds `top` and `other`, so that no replaced array stays
    alive."""
    rows = np.arange(a.shape[0])
    ja, ju = np.argmax(a != 0, axis=1), np.argmax(u != 0, axis=1)
    swap = (ju < ja)[:, None]
    top, other = np.where(swap, u, a), np.where(swap, a, u)
    other = np.where((ja == ju)[:, None], tower.sub_arr(other, top), other)
    j1, j2 = np.minimum(ja, ju), np.argmax(other != 0, axis=1)
    other = tower.mul_arr(tower.inv_arr(other[rows, j2])[:, None], other)
    top = tower.sub_arr(top, tower.mul_arr(top[rows, j2][:, None], other))
    return np.stack([top, other], axis=1), np.stack([j1, j2], axis=1)


def _mark_distinct_lines(covered, X, a, u, L, indexer: PointIndexer):
    """Mark the lines through X[a] and L[u] (canonical rows, distinct
    position by position) by their RREF bases, each distinct line of the
    batch once.  The bases are kept in X's dtype."""
    k = indexer.k
    R = np.empty((a.size, 2, k), dtype=X.dtype)
    pivots = np.empty((a.size, 2), dtype=np.min_scalar_type(k))
    rows = np.empty((a.size, 2), dtype=np.int64)
    per = max(1, _LINE_CHUNK // k)
    for s in range(0, a.size, per):
        t = slice(s, s + per)
        Rt, jt = _line_bases(X[a[t]].astype(np.int64, copy=False),
                             L[u[t]], indexer.tower)
        R[t], pivots[t] = Rt, jt
        rows[t] = indexer.off[jt] + Rt @ indexer.qpow
    first = _distinct_flats(rows, indexer.total)
    per = max(1, _LINE_CHUNK // indexer.Q)
    for s in range(0, first.size, per):
        t = first[s:s + per]
        R64 = R[t].astype(np.int64, copy=False)
        covered[_flat_points(R64, pivots[t], indexer)] = True


def _mark_pair_lines(covered, a, u, L, tables, indexer: PointIndexer):
    """Mark the points of the lines through L[a] and L[u] (a != u
    position by position) other than L[a] and L[u], with no line basis,
    from the `tables` (T, Tm, jL) of the points L (canonical rows):
    T[i, e] = g^e L_i packed (`multiples`), Tm[i, e - 1] = (1 - g^e) L_i
    for e = 1..Q-2, and jL[i] the pivot of L_i.

    With b the point of the smaller pivot j and d the other, a line is
    <d> and the canonical b + nu d, nu in F_Q: b at nu = 0 and
    off[j] + T[b, 0] (+) T[d, e] at nu = g^e.  With equal pivots j it is
    <u - a>, canonicalised, and the canonical (1 - nu) a + nu u: a and u
    at nu = 0, 1 and off[j] + Tm[a, e - 1] (+) T[u, e] at nu = g^e,
    e = 1..Q-2.  (+) is `add_digits`."""
    tower = indexer.tower
    p, digits = tower.base.p, indexer.k * tower.m * tower.base.e
    T, Tm, jL = tables
    eq = jL[a] == jL[u]
    swap = jL[u] < jL[a]
    b, d = np.where(swap, u, a)[~eq], np.where(swap, a, u)[~eq]
    a, u = a[eq], u[eq]
    covered[indexer.canonicalize(tower.sub_arr(L[u], L[a]))[1]] = True
    per = max(1, _LINE_CHUNK // indexer.Q)
    for x, y, X, Y in ((b, d, T[:, :1], T), (a, u, Tm, T[:, 1:])):
        for s in range(0, x.size, per):
            xs, ys = x[s:s + per], y[s:s + per]
            marks = add_digits(X[xs], Y[ys], p, digits)
            marks += indexer.off[jL[xs], None]
            covered[marks] = True


def _mark_subline_pairs(covered, idx, uniq, L, indexer: PointIndexer,
                        n: int):
    """Level 2 of the geometric sweep: mark the line through each pair of
    points of L_U (positions a > u in L, its canonical rows) that the
    subline filter keeps.

    Two points a > u of weight 1 lie on the F_q-subline of the q + 1
    points <x>, x in <x_a, x_u>_{F_q}, and every two of them span one
    line; the other q - 1 are <x_a + y>, y in the fibre F_q^* x_u of u.
    With the heavier points first and the rest by position, the pair is
    kept iff a comes before those q - 1, and a pair with a heavier point
    always: a subline's first pair is kept, so every line is.  Vector i
    of U (of point `idx[i]`, in `uniq`) has the base-p digits of i as
    F_q-coordinates, so x_a + y is one `add_digits` of codes, looked up
    in a q^n-entry table of positions.

    The kept pairs' lines are marked from tables of multiples
    (`_mark_pair_lines`) when the tables, l (2Q - 3) packed codes, hold
    no more entries than the C(l, 2) pairs the level is charged, so the
    budget bounds them.  Otherwise Q is large against l = |L_U|, many
    kept pairs can share a line (for k = 2 all of them do), and the
    lines are marked by their bases, each distinct line of a batch once
    (`_mark_distinct_lines`)."""
    tower, Q = indexer.tower, indexer.Q
    q, ell = tower.base.q, L.shape[0]
    # key[i - 1]: the position of vector i's point, -1 if heavier than 1;
    # fib[u]: the q - 1 vectors (codes i) over u, 0 if u is heavier;
    # low[a]: a, -1 if heavier, so those pairs are kept
    pos = np.searchsorted(uniq, idx)
    size = np.bincount(pos, minlength=ell)
    light = size == q - 1
    key = np.where(light[pos], pos, -1)
    fib = np.argsort(pos, kind="stable")[
        (np.cumsum(size) - size)[:, None] + np.arange(q - 1)] + 1
    fib[~light] = 0
    low = np.where(light, np.arange(ell), -1)
    tables = None
    if 2 * (2 * Q - 3) <= ell - 1:
        T = indexer.multiples(L)
        onem = tower._log[tower.sub_arr(1, tower._exp[1:Q - 1])]
        tables = T, T[:, onem], np.argmax(L != 0, axis=1)
    for a, u in _pair_batches(ell, ell, covered, True):
        rest = key[add_digits(fib[a, :1], fib[u], tower.base.p,
                              n * tower.base.e) - 1]
        keep = low[a] <= rest.min(axis=1)
        a, u = a[keep], u[keep]
        if tables is None:
            _mark_distinct_lines(covered, L, a, u, L, indexer)
        else:
            _mark_pair_lines(covered, a, u, L, tables, indexer)


def _mark_frontier_lines(covered, frontier, L, indexer: PointIndexer):
    """Level w >= 3 of the geometric sweep: mark the line through each
    point of the frontier (point indices) and each point of L_U, every
    distinct line of a batch once.  The frontier is decoded into codes
    of the smallest dtype that holds an element, k bytes a point when
    Q <= 256, no more than its index."""
    k, f = indexer.k, frontier.size
    X = np.empty((f, k), dtype=np.min_scalar_type(indexer.Q - 1))
    per = max(1, _LINE_CHUNK // k)
    for s in range(0, f, per):
        X[s:s + per] = indexer.decode(frontier[s:s + per])
    for a, u in _pair_batches(f, L.shape[0], covered, False):
        _mark_distinct_lines(covered, X, a, u, L, indexer)


def _geometric_layers(sys: QSystem, budget: int):
    """Yield (w, covered) after marking every point of PG(k-1, q^m) in
    the span of w points of L_U, for w = 0, 1, ... until all are covered.

    Level 1 marks L_U itself, and level w+1 marks every point on a line
    through a point of L_U and a point first covered at level w (which
    is exactly the union of spans of (w+1)-subsets).  `covered` is one
    bitmap over the indices of a PointIndexer, updated in place.  Level 1
    is charged the q^n vectors of U, level 2 the C(|L_U|, 2) pairs of its
    points, level w >= 3 the f |L_U| pairs of a frontier of f points with L_U.

    Level 2 (`_mark_subline_pairs`) marks fewer lines than it charges: it
    keeps only the first pair of each F_q-subline of L_U.  While tables
    of the packed multiples of L_U hold no more entries than the level's
    charge, it reads the points of each kept pair's line off them, with
    no line basis; two kept pairs can span one line, which is then marked
    twice and sets the same bits.  Otherwise, and at every level w >= 3
    (`_mark_frontier_lines`), the distinct lines of each batch of pairs
    are marked by their bases.  The frontier, the points first covered
    at level w - 1, is kept as point indices.
    """
    tower, k = sys.tower, sys.k
    Q, q = tower.order, tower.base.q
    if k == 0:
        yield 0, np.zeros(0, dtype=bool)
        return
    indexer = PointIndexer(tower, k)
    _check_space(indexer.total, budget, "point count of PG(k-1, q^m)")
    covered = np.zeros(indexer.total, dtype=bool)
    yield 0, covered
    work = _charge(0, q ** sys.n, budget, "span level", 1,
                   _coverage(covered, Q))
    _, idx, _ = indexer.canonicalize(sys.vectors(budget))
    covered[idx] = True
    frontier = np.unique(idx)
    L = indexer.decode(frontier)
    ell = L.shape[0]
    yield 1, covered
    level = 1
    while not covered.all():
        level += 1
        if level > k + 1:
            raise RuntimeError("span sweep failed to terminate (unreachable)")
        f = frontier.size
        work = _charge(work, ell * (ell - 1) // 2 if level == 2 else f * ell,
                       budget, "span level", level, _coverage(covered, Q))
        before = covered.copy()
        if level == 2:
            _mark_subline_pairs(covered, idx, frontier, L, indexer, sys.n)
        else:
            _mark_frontier_lines(covered, frontier, L, indexer)
        if not covered.all():
            frontier = np.flatnonzero(covered & ~before)
            if frontier.size == 0:
                raise RuntimeError(
                    "no progress in span sweep; system does not saturate "
                    "(unreachable for valid systems)")
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
    """Geometric radius with its certificate, as `saturation_radius`'s."""
    return _certify(sys, _geometric_layers(sys, budget))


# ----------------------------------------------------------------------
# Hamming covering radius (for the projective-code bridge)
# ----------------------------------------------------------------------

def hamming_covering_radius(generator, tower: FieldTower,
                            budget: int = DEFAULT_BUDGET) -> int:
    """Exact Hamming covering radius of the code generated by `generator`,
    by coset-leader syndrome sweep in Hamming-weight layers."""
    H = RankCode(tower, generator).parity_check
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
        spec = weight_spectrum(code, budget)
        d = min(spec)
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

_CUT_CHUNK = 1 << 14     # entries per array of a chunk of normals


def is_linear_cutting_blocking_set(sys: QSystem,
                                   budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the span of H intersect U is H for every hyperplane H: iff
    for each x = h G the codewords supported in supp(x) span one dimension
    (Alfarano, Borello, Neri and Ravagnani, JCTA 192, 2022).  The greedy
    F_q-basis of x (`fqlinalg.fq_basis_batch`) writes x = (x_{p_1}, ..,
    x_{p_r}) C_h, C_h the RREF of supp(x), and those codewords are z C_h
    for z in the left kernel of C_h H^T, H the parity check.  It holds the
    pivot values, none zero, so it is 1-dimensional iff the first r - 1
    rows of C_h H^T are independent: iff `fqlinalg.rank_batch`, a forward
    elimination that keeps no echelon form, gives them rank r - 1.  Each
    row adds one row of each of two tables of F_q-combinations of rows of
    H^T, the first ceil(n/2) and the rest: q^ceil(n/2) <= q^(m(k-1))
    rows, under the hyperplanes if k > 1."""
    tower, G = sys.tower, sys.generator
    k, n, q = sys.k, sys.n, tower.base.q
    e = tower.base.e if tower.base.p == 2 else 0     # digits by shift
    indexer = PointIndexer(tower, k)
    if indexer.total > budget:
        raise BudgetExceeded(
            f"{indexer.total} hyperplanes exceed budget {budget}")
    HT, half = fqlinalg.kernel(G, tower).T, (n + 1) // 2
    lo = _combinations(HT[:half], np.arange(q), tower)
    hi = _combinations(HT[half:], np.arange(q), tower)
    qpow, rows = q ** np.arange(n), min(n, tower.m) - 1    # r - 1 <= rows
    per = max(1, _CUT_CHUNK // max(1, n, rows * (n - k)))
    for start in range(0, indexer.total, per):
        h = indexer.decode(np.arange(start, min(start + per, indexer.total)))
        coords, r = fqlinalg.fq_basis_batch(ext_matmul(h, G, tower), tower)
        # rows of C_h, base q; a row at i >= r - 1 is zero
        at = np.zeros((len(h), r.max() - 1), dtype=np.int64)
        for i in range(r.max() - 1):
            c = coords >> e * i & (q - 1) if e else coords // q ** i % q
            at[:, i] = c @ qpow * (i < r - 1)
        M = tower.add_arr(lo[at % q ** half], hi[at // q ** half])
        if (fqlinalg.rank_batch(M, tower) < r - 1).any():
            return False
    return True


def is_minimal_rank_code(code: RankCode, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff no codeword's rank support contains that of a codeword
    outside its F_{q^m}-multiples: the cutting test on the columns at the
    pivots of G over F_q.  G is those columns times an F_q-matrix of full
    row rank, which keeps rank supports and their containments, so a
    degenerate code is minimal iff its nondegenerate part is."""
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
    vecs, q = sys.vectors(budget), tower.base.q
    _, idx, keep = indexer.canonicalize(vecs)
    fibre = np.nonzero(keep)[0][idx == target_idx]
    u_a = vecs[fibre[0]]
    # F_q-dependent on u_a iff cand = c u_a with c in F_q
    b = next((i for i in fibre[1:]
              if not any(np.array_equal(vecs[i], tower.mul_arr(c, u_a))
                         for c in range(1, q))), None)
    if b is None:
        raise RuntimeError("a point of weight >= 2 carries no two independent "
                           "vectors (unreachable)")
    # vector i of U has the base-q digits of i as its F_q-coordinates
    c_a, c_b = (i // q ** np.arange(sys.n) % q for i in (fibre[0], b))
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
