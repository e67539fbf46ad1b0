"""Bounds and exact values for the minimal dimension s_{q^m/q}(k, rho)
of a rank-rho-saturating system in F_{q^m}^k.

Everything here is exact integer arithmetic.  `exact_values` is a
chain of `if` tests, one per published row: rho = 1, rho = k and
rho = m; k = 3, rho = 2 under the conditions on q and r = m/2 of
`_row_3_2_conditions`; and k = m = 2r, rho = m - 1.  A new row is one
more test there.  The exhaustive search finds s itself, with a least
witness, over the systems F_q^k + W to which every system is equivalent
(`brute_force_witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, ceil

import numpy as np

from . import fqlinalg
from .covering import _MARK_CHUNK, _rank_layers
from .fqlinalg import gaussian_binomial
from .gftower import _factor, _prime_power, make_tower
from .linalg import BudgetExceeded, DEFAULT_BUDGET
from .qsystem import QSystem


@dataclass(frozen=True)
class BoundValue:
    value: int
    provenance: str


def _validate_params(q: int, m: int, k: int, rho: int):
    """A q that is not a prime power raises FieldError, a ValueError."""
    _prime_power(q)
    if k < 1 or m < 1:
        raise ValueError(f"need k, m >= 1, got k={k}, m={m}")
    if not 1 <= rho <= min(k, m):
        raise ValueError(
            f"rho must satisfy 1 <= rho <= min(k, m) = {min(k, m)}, got {rho}")


def lower_bound(q: int, m: int, k: int, rho: int) -> BoundValue:
    """Max of the closed-form lower bound and the subspace-counting bound
    (smallest n with [n rho]_q >= q^{m(k-rho)})."""
    _validate_params(q, m, k, rho)
    if q == 2 and rho == 1:
        case = m * (k - 1) + 1
    elif q == 2:
        case = ceil((m * k - 1) / rho) - m + rho
    else:
        case = ceil(m * k / rho) - m + rho
    target = q ** (m * (k - rho))
    n = rho
    while gaussian_binomial(n, rho, q) < target:
        n += 1
    if case >= n:
        return BoundValue(case, "closed-form")
    return BoundValue(n, "subspace-count")


# ----------------------------------------------------------------------
# Exact values (published condition rows)
# ----------------------------------------------------------------------

def _row_3_2_conditions(q: int, r: int) -> str | None:
    """Conditions under which s_{q^{2r}/q}(3, 2) = r + 2; returns the
    matching clause name or None."""
    if r >= 4 and r % 6 not in (3, 5):
        return "r != 3,5 mod 6, r >= 4"
    if r % 2 == 1:
        # gcd(r, (q^{2s}-q^s+1)!) = 1 means no prime factor of r is
        # <= q^{2s}-q^s+1; required for every s in [1, r] coprime to r
        spf = min(_factor(r), default=r)
        if all(spf > q ** (2 * s) - q ** s + 1
               for s in range(1, r + 1) if gcd(r, s) == 1):
            return "factorial-gcd clause"
    if r == 5:
        p, j = _prime_power(q)
        if p in (2, 3) and gcd(j, 15) == 1:
            return "q = p^(15h+s), p in {2,3}"
        if p == 5 and j % 15 == 1:
            return "q = 5^(15h+1)"
        if q % 2 == 1 and q % 5 in (2, 3):
            return "q odd, q = 2,3 mod 5"
        if p == 2 and j >= 3 and j % 2 == 1:
            return "q = 2^(2h+1), h >= 1"
    return None


def exact_values(q: int, m: int, k: int, rho: int) -> BoundValue | None:
    """Exact value of s_{q^m/q}(k, rho), when a published row or the
    trivial rho = m row applies."""
    _validate_params(q, m, k, rho)
    if rho == 1:
        return BoundValue(m * (k - 1) + 1, "exact: s(k,1) = m(k-1)+1")
    if rho == k:
        return BoundValue(k, "exact: s(k,k) = k")
    if rho == m:
        # every rank weight is <= m, so every spanning system saturates
        return BoundValue(k, "exact: s(k,m) = k")
    if k == 3 and rho == 2 and m % 2 == 0:
        r = m // 2
        clause = _row_3_2_conditions(q, r)
        if clause is not None:
            return BoundValue(r + 2, f"exact: s(3,2) = r+2 [{clause}]")
    if k == m and m % 2 == 0 and m >= 4 and rho == m - 1:
        return BoundValue(m + 1, "exact: s(2r,2r-1) = 2r+1")
    return None


# ----------------------------------------------------------------------
# Upper bounds: closed forms + monotonicity / sum closure
# ----------------------------------------------------------------------

def _closed_upper_candidates(q: int, m: int, k: int, rho: int):
    """All directly constructive upper bounds for one parameter cell."""
    out = [(m * (k - rho) + rho, "identity-block")]
    for t in range(2, m + 1):
        if m % t:
            continue
        r = m // t
        if r >= 2 and rho == (r - 1) * t + 1 and k >= rho:
            h = k - rho
            out.append((t * h + rho, f"subgeometry(r={r},t={t})"))
    if k >= 2 and rho == k - 1 and m % (k - 1) == 0:
        mp = m // (k - 1)
        if mp >= 2:
            out.append((2 * k + mp - 2, f"cutting-chain(m'={mp})"))
    if k == 4 and rho == 3 and m == 9:
        out.append((8, "published 8-dim cutting set (any q)"))
    if k == 4 and rho == 3 and m == 12:
        p, e = _prime_power(q)
        if p == 2 and e % 2 == 1:
            out.append((8, "published 8-dim cutting set (q = 2^odd)"))
    ex = exact_values(q, m, k, rho)
    if ex is not None:
        out.append((ex.value, ex.provenance))
    return out


def upper_bound_table(q: int, m: int, kmax: int, rhomax: int | None = None,
                      ) -> dict[tuple[int, int], BoundValue]:
    """Upper bounds on the grid k <= kmax, rho <= min(k, m, rhomax),
    closed under the monotonicity and sum rules (bounded-depth fixpoint)."""
    if rhomax is None:
        rhomax = min(kmax, m)
    rhomax = min(rhomax, m)
    cells = [(k, rho) for k in range(1, kmax + 1)
             for rho in range(1, min(k, rhomax) + 1)]
    table: dict[tuple[int, int], BoundValue] = {}
    for (k, rho) in cells:
        # constructive provenance wins ties over published citations
        v, prov = min(_closed_upper_candidates(q, m, k, rho),
                      key=lambda vp: (vp[0], vp[1].startswith("exact"),
                                      vp[1].startswith("published")))
        table[(k, rho)] = BoundValue(v, prov)

    def improve(cell, value, prov):
        if value < table[cell].value:
            table[cell] = BoundValue(value, prov)
            return True
        return False

    depth = max(kmax, rhomax)
    for _ in range(depth):
        changed = False
        for (k, rho) in cells:
            cur = table[(k, rho)]
            if rho + 1 <= min(k, rhomax):
                changed |= improve((k, rho + 1), cur.value,
                                   f"monotone-rho from (k={k},rho={rho})")
            if (k + 1, rho) in table:
                changed |= improve((k, rho),
                                   table[(k + 1, rho)].value - 1,
                                   f"shorten from (k={k + 1},rho={rho})")
            if k + 1 <= kmax and rho + 1 <= min(k + 1, rhomax):
                changed |= improve((k + 1, rho + 1), cur.value + 1,
                                   f"extend from (k={k},rho={rho})")
        # sum rule
        for (k1, r1) in cells:
            for (k2, r2) in cells:
                ks, rs = k1 + k2, r1 + r2
                if ks <= kmax and rs <= min(ks, rhomax):
                    changed |= improve(
                        (ks, rs),
                        table[(k1, r1)].value + table[(k2, r2)].value,
                        f"sum (k={k1},rho={r1})+(k={k2},rho={r2})")
        if not changed:
            break
    return table


def upper_bound(q: int, m: int, k: int, rho: int) -> BoundValue:
    """Best upper bound from constructions plus bounded-depth closure."""
    _validate_params(q, m, k, rho)
    kmax = k + max(k, rho)
    table = upper_bound_table(q, m, kmax)
    return table[(k, rho)]


# ----------------------------------------------------------------------
# Table entries and paper-row verification
# ----------------------------------------------------------------------

@dataclass
class BoundsEntry:
    q: int
    m: int
    k: int
    rho: int
    lower: int
    lower_provenance: str
    upper: int
    upper_provenance: str
    exact: int | None
    exact_provenance: str | None

    def validate(self):
        if self.lower > self.upper:
            raise ValueError(
                f"bound sandwich violated at (q={self.q},m={self.m},"
                f"k={self.k},rho={self.rho}): {self.lower} > {self.upper}")
        if self.exact is not None and not (
                self.lower <= self.exact <= self.upper):
            raise ValueError(
                f"exact value outside sandwich at (q={self.q},m={self.m},"
                f"k={self.k},rho={self.rho})")


def bounds_table(q: int, m: int, kmax: int, rhomax: int | None = None
                 ) -> list[BoundsEntry]:
    # validate q, m, kmax and rhomax even when the grid has no cells
    _validate_params(q, m, kmax, 1)
    if rhomax is None:
        rhomax = min(kmax, m)
    if rhomax < 1:
        raise ValueError(f"need rhomax >= 1, got {rhomax}")
    uppers = upper_bound_table(q, m, kmax, rhomax)
    out = []
    for k in range(1, kmax + 1):
        for rho in range(1, min(k, rhomax, m) + 1):
            lo = lower_bound(q, m, k, rho)
            up = uppers[(k, rho)]
            ex = exact_values(q, m, k, rho)
            entry = BoundsEntry(q, m, k, rho, lo.value, lo.provenance,
                                up.value, up.provenance,
                                ex.value if ex else None,
                                ex.provenance if ex else None)
            entry.validate()
            out.append(entry)
    return out


def verify_published_rows(qmax: int = 5, mmax: int = 12, kmax: int = 12
                          ) -> list[str]:
    """Re-derive every published exact row on the grid and check the
    sandwich everywhere; returns a list of discrepancies (empty = pass).
    A (q, m) whose table `bounds_table` refuses (a broken sandwich, or a
    bad kmax) is one diff, and its row checks are not made."""
    diffs: list[str] = []
    qs = [q for q in range(2, qmax + 1) if len(_factor(q)) == 1]
    for q in qs:
        for m in range(1, mmax + 1):
            try:        # it validates every entry
                table = bounds_table(q, m, kmax)
            except ValueError as exc:
                diffs.append(str(exc))
                continue
            for e in table:
                # row-specific identities
                if e.rho == 1 and e.exact != e.m * (e.k - 1) + 1:
                    diffs.append(f"s(k,1) row mismatch at {e}")
                if e.rho == e.k and e.exact != e.k:
                    diffs.append(f"s(k,k) row mismatch at {e}")
                if e.rho == e.m and e.exact != e.k:
                    diffs.append(f"s(k,m) row mismatch at {e}")
                if (e.k == 3 and e.rho == 2 and e.m % 2 == 0
                        and _row_3_2_conditions(q, e.m // 2) is not None
                        and e.exact != e.m // 2 + 2):
                    diffs.append(f"s(3,2) row mismatch at {e}")
                if (e.k == e.m and e.m % 2 == 0 and e.m >= 4
                        and e.rho == e.m - 1 and e.exact != e.m + 1):
                    diffs.append(f"s(2r,2r-1) row mismatch at {e}")
    return diffs


# ----------------------------------------------------------------------
# Exhaustive search
# ----------------------------------------------------------------------

def brute_force_s(q: int, m: int, k: int, rho: int,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Smallest n such that some spanning n-dimensional F_q-subspace of
    F_{q^m}^k has saturation radius <= rho, by exhaustive enumeration of
    the systems F_q^k + W (see `brute_force_witness`)."""
    return brute_force_witness(q, m, k, rho, budget).n


def brute_force_witness(q: int, m: int, k: int, rho: int,
                        budget: int = DEFAULT_BUDGET):
    """First system of least dimension whose saturation radius is <= rho.

    A system U spans F_{q^m}^k, so some F_q-basis of U begins with an
    F_{q^m}-basis of F_{q^m}^k, and an element of GL(k, q^m) sends that
    basis to e_1..e_k.  The saturation radius is invariant under
    GL(k, q^m), so every system is equivalent to U = F_q^k + W with W an
    (n-k)-dimensional subspace of the quotient F_{q^m}^k / F_q^k, which
    is F_q^{(m-1)k} on the digits 1..m-1 of each entry (F_q is the codes
    0..q-1).  Each W is one RREF basis M of `fqlinalg.rref_subspaces`,
    and its system has the generator [I_k | A] with A read from M.

    Scans n = k, k+1, ... and, within each n, those W in enumeration
    order; its `.n` is `brute_force_s`.  Level n is refused when its
    count of W or the syndrome space Q^k that each candidate's sweep
    marks exceeds the budget, or when a candidate's sweep through level
    rho does; every refusal has completed_level n - 1."""
    _validate_params(q, m, k, rho)
    tower = make_tower(q, m)
    space = tower.order ** k
    eye = np.eye(k, dtype=np.int64)
    for n in range(k, m * k + 1):
        count = gaussian_binomial((m - 1) * k, n - k, q)
        if max(count, space) > budget:
            raise BudgetExceeded(
                f"n={n} needs {count} subspaces of the quotient and a "
                f"syndrome space of {space}, budget {budget}; "
                f"search completed up to n={n - 1}", completed_level=n - 1)
        for _, stack in fqlinalg.rref_subspaces((m - 1) * k, n - k,
                                                tower.base, _MARK_CHUNK):
            A = (stack.reshape(len(stack), n - k, k, m - 1).astype(np.int64)
                 @ tower._qpow[1:]).transpose(0, 2, 1)
            for a in A:
                gen = np.hstack([eye, a])
                # the sweep through level rho only: radius <= rho iff
                # that level covers every target
                try:
                    for w, covered in _rank_layers(gen, tower, budget):
                        if w == rho:
                            break
                except BudgetExceeded as exc:
                    raise BudgetExceeded(
                        f"n={n}: a candidate's sweep refused ({exc}); "
                        f"search completed up to n={n - 1}",
                        completed_level=n - 1) from exc
                if covered.all():
                    return QSystem(tower, gen)
    raise RuntimeError("no saturating system found (unreachable)")
