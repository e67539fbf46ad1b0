"""Explicit rank-saturating systems and their constructive decompositions.

The box-shaped systems U = F_q^s x F_{q^t}^h (identity-block and
subgeometry families) come with `decompose`, which writes any ambient
vector as a combination of at most s elements of U.  The two published
cutting-blocking-set systems are reproduced bit-exactly and refuse
towers with a different modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd

import numpy as np

from . import fqlinalg
from .gftower import FieldTower, make_tower
from .linalg import RankCode, ext_matmul, rank_weight
from .qsystem import QSystem, SystemError_


# ----------------------------------------------------------------------
# Basic families
# ----------------------------------------------------------------------

def construct_rho1(tower: FieldTower, k: int, v, v_prime) -> QSystem:
    """The [m(k-1)+1, k] system <v'>_{F_q} + <v>^perp, saturation radius 1."""
    v = np.asarray(v, dtype=np.int64).ravel()
    v_prime = np.asarray(v_prime, dtype=np.int64).ravel()
    if v.shape != (k,) or v_prime.shape != (k,):
        raise SystemError_("v and v' must be ambient vectors of length k")
    if not v.any():
        raise SystemError_("v must be nonzero")
    if not reduce(tower.add_arr, tower.mul_arr(v, v_prime), 0):
        raise SystemError_("v' lies in the hyperplane <v>^perp")
    perp = fqlinalg.kernel(v.reshape(1, -1), tower)   # (k-1) x k basis
    cols = [v_prime]
    for w in perp:
        for l in range(tower.m):
            cols.append(tower.mul_arr(tower.pow(tower.alpha, l), w))
    G = np.stack(cols, axis=1)
    return QSystem(tower, G)


def construct_identity_block(tower: FieldTower, k: int, rho: int) -> QSystem:
    """The [m(k-rho)+rho, k] system F_q^rho x F_{q^m}^{k-rho} with
    saturation radius exactly rho."""
    m = tower.m
    if not 1 <= rho <= min(k, m):
        raise SystemError_(
            f"need 1 <= rho <= min(k, m) = {min(k, m)}, got rho={rho}")
    return _box_system(tower, rho, m, k - rho, tower.alpha)


def construct_subgeometry(tower: FieldTower, r: int, t: int, h: int) -> QSystem:
    """The [th + (r-1)t + 1, h + (r-1)t + 1] system F_q^{(r-1)t+1} x
    F_{q^t}^h over F_{q^rt}, saturation radius exactly (r-1)t + 1."""
    if r < 2 or t < 2:
        raise SystemError_(f"need r, t >= 2, got r={r}, t={t}")
    if h < 0:
        raise SystemError_(f"need h >= 0, got h={h}")
    if tower.m != r * t:
        raise SystemError_(f"tower degree m={tower.m} != r*t = {r * t}")
    emb = tower.subfield(t)
    return _box_system(tower, (r - 1) * t + 1, t, h,
                       int(emb.embed_table[emb.sub_tower.alpha]))


def _box_system(tower: FieldTower, s: int, t: int, h: int,
                beta: int) -> QSystem:
    """The box system F_q^s x F_q(beta)^h, beta of degree t over F_q:
    the generator [I_s | B] with B = [I_h | beta I_h | .. | beta^(t-1)
    I_h] below the identity, and meta["box"] = (s, t, h)."""
    G = np.zeros((s + h, s + t * h), dtype=np.int64)
    G[:s, :s] = np.eye(s, dtype=np.int64)
    for l in range(t):
        G[s:, s + l * h:s + (l + 1) * h] = (tower.pow(beta, l)
                                           * np.eye(h, dtype=np.int64))
    sysm = QSystem(tower, G)
    sysm.meta["box"] = (s, t, h)
    return sysm


# ----------------------------------------------------------------------
# f-sums
# ----------------------------------------------------------------------

def f_sum(sys1: QSystem, sys2: QSystem, f=None) -> QSystem:
    """Block-triangular combination {(u, f(u) + v)}; f is an n1 x n2
    matrix over F_{q^m}, None for the direct sum, "identity" for the
    Plotkin sum (requires n1 = n2)."""
    if sys1.tower != sys2.tower:
        raise SystemError_("summands live over different towers")
    tower = sys1.tower
    n1, n2 = sys1.n, sys2.n
    if isinstance(f, str) and f == "identity":
        if n1 != n2:
            raise SystemError_(
                f"Plotkin sum needs n1 = n2, got {n1} != {n2}")
        F = np.eye(n1, dtype=np.int64)
    elif f is None:
        F = np.zeros((n1, n2), dtype=np.int64)
    else:
        F = np.asarray(f, dtype=np.int64)
        if F.shape != (n1, n2):
            raise SystemError_(f"f must be {n1} x {n2}, got {F.shape}")
    G1, G2 = sys1.generator, sys2.generator
    top = np.concatenate([G1, ext_matmul(G1, F, tower)], axis=1)
    bot = np.concatenate([np.zeros((sys2.k, n1), dtype=np.int64), G2], axis=1)
    return QSystem(tower, np.concatenate([top, bot], axis=0))


def direct_sum(sys1: QSystem, sys2: QSystem) -> QSystem:
    return f_sum(sys1, sys2, None)


def plotkin_sum(sys1: QSystem, sys2: QSystem) -> QSystem:
    return f_sum(sys1, sys2, "identity")


# ----------------------------------------------------------------------
# Gabidulin codes
# ----------------------------------------------------------------------

def gabidulin(tower: FieldTower, n: int, k: int, i: int = 1,
              alpha_vector=None) -> RankCode:
    """Generalized Gabidulin code: rows are q^(i*t)-Frobenius powers of an
    F_q-independent evaluation vector."""
    m = tower.m
    if not k <= n <= m:
        raise SystemError_(f"need k <= n <= m, got k={k}, n={n}, m={m}")
    if gcd(i, m) != 1:
        raise SystemError_(f"need gcd(i, m) = 1, got i={i}, m={m}")
    if alpha_vector is None:
        alpha_vector = [tower.pow(tower.alpha, j) for j in range(n)]
    av = np.asarray(alpha_vector, dtype=np.int64).ravel()
    if rank_weight(av, tower) != n:
        raise SystemError_("evaluation vector is not F_q-independent")
    G = np.array([[tower.frobenius(int(x), (i * t) % m) for x in av]
                  for t in range(k)], dtype=np.int64)
    return RankCode(tower, G)


# ----------------------------------------------------------------------
# Published cutting blocking sets (bit-exact golden matrices)
# ----------------------------------------------------------------------

_GOLDEN_MODULUS_16 = (1, 1, 0, 0, 1)          # x^4 + x + 1


def cutting_system_6_3(tower: FieldTower | None = None) -> QSystem:
    """The scattered [6,3]_{16/2} linear cutting blocking set, given by
    powers of the generator with lambda^4 = lambda + 1."""
    if tower is None:
        tower = make_tower(2, 4, list(_GOLDEN_MODULUS_16))
    if (tower.base.q, tower.m) != (2, 4) or tower.modulus != _GOLDEN_MODULUS_16:
        raise SystemError_(
            "this matrix is defined over F_2[x]/(x^4+x+1); refusing a "
            "different modulus")
    lam = tower.alpha
    P = [tower.pow(lam, e) for e in range(15)]
    G = np.array([
        [P[4], P[10], P[8], P[3], P[9], P[7]],
        [P[14], P[8], P[1], P[8], 0, P[8]],
        [P[10], 0, P[6], P[5], P[11], P[3]],
    ], dtype=np.int64)
    return QSystem(tower, G)


def cutting_system_8_4(tower: FieldTower) -> QSystem:
    """The [8,4]_{q^4/q} system {(x, y, x^q + y^{q^2}, x^{q^2} + y^q +
    y^{q^2})}; a linear cutting blocking set for q = 2^h, h odd."""
    if tower.m != 4:
        raise SystemError_(f"system lives over F_(q^4); tower has m={tower.m}")
    cols = []
    for j in range(4):
        b = tower.pow(tower.alpha, j)
        bq = tower.frobenius(b, 1)
        bq2 = tower.frobenius(b, 2)
        cols.append([b, 0, bq, bq2])
        cols.append([0, b, bq2, tower.add(bq, bq2)])
    G = np.array(cols, dtype=np.int64).T
    return QSystem(tower, G)


# ----------------------------------------------------------------------
# Constructive decomposition for box systems
# ----------------------------------------------------------------------

@dataclass
class Decomposition:
    """v = sum(lams[i] * vectors[i]) with every vector in U."""

    target: np.ndarray
    lams: list[int]
    vectors: list[np.ndarray] = field(default_factory=list)

    @property
    def terms(self) -> int:
        return len(self.lams)

    def reconstruct(self, tower: FieldTower) -> np.ndarray:
        V = np.array(self.vectors, dtype=np.int64).reshape(-1, len(self.target))
        if not len(V):
            return np.zeros_like(self.target)
        scaled = tower.mul_arr(np.array(self.lams, dtype=np.int64)[:, None], V)
        return reduce(tower.add_arr, scaled)

    def verify(self, sysm: QSystem) -> bool:
        """Exact reconstruction plus membership of every u in U, on Python
        ints: the sum of the lams times the vectors through `tower.mul`
        and `tower.add`, and a zero `QSystem.syndrome` for each vector
        (table lookups, not the box shape; no elimination and no array op
        once the tables are built).  False when a lambda lacks its vector
        or is not a field element (a bool is not), or when the target or
        a vector is not in F_{q^m}^k: not an integer array of shape (k,)
        with codes in 0..Q-1."""
        tower, k, Q = sysm.tower, sysm.k, sysm.tower.order
        lams = self.lams
        if (len(lams) != len(self.vectors)
                or not all(isinstance(lam, (int, np.integer))
                           and not isinstance(lam, bool) and 0 <= lam < Q
                           for lam in lams)):
            return False
        rows = []
        for u in (self.target, *self.vectors):
            u = np.asarray(u)
            if u.shape != (k,) or u.dtype.kind not in "iu":
                return False
            rows.append(u.tolist())
        if not all(0 <= x < Q for row in rows for x in row):
            return False
        target, *rows = rows
        mul, add = tower.mul, tower.add
        if target != ([reduce(add, map(mul, lams, col)) for col in zip(*rows)]
                      if rows else [0] * k):
            return False
        return not any(map(sysm.syndrome, rows))


def decompose(sysm: QSystem, v) -> Decomposition:
    """Write v as a combination of at most s elements of a box system
    U = F_q^s x F_{q^t}^h.

    Projection-and-elimination: the greedy F_q-basis of the top
    coordinates (`fqlinalg.fq_basis`) keeps, in increasing index, each
    value that is F_q-independent of the previous ones as a new
    coefficient, and the coordinates of every top value on them are the
    top blocks of the terms; then extend the chosen coefficients until
    the F_{q^t}-module they generate contains every bottom coordinate,
    adding each time the first of the powers 1, alpha, .., alpha^(m-1)
    outside it.  The greedy basis of [module | bottoms] that
    finds every bottom coordinate inside the module also holds their
    F_{q^t}-coordinates.  The input checks, the eliminations and the
    digit reads run on the codes as Python ints, and the arrays of the
    result (int64 vectors of shape (k,); the lams are Python ints) are
    built once, after the last of them.  The constants of the system (the
    subfield's membership list, embedding and basis, the candidates and
    the powers of q) are built on the first call and kept
    in `sysm.meta["decompose"]`.
    """
    if "box" not in sysm.meta:
        raise SystemError_(
            "decompose needs a box-structured system (identity-block or "
            "subgeometry construction)")
    s, t, h = sysm.meta["box"]
    tower, Q = sysm.tower, sysm.tower.order
    q = tower.base.q
    vals = np.asarray(v).ravel().tolist()
    if len(vals) != sysm.k:
        raise SystemError_(f"target must have length {sysm.k}")
    if not all(type(x) is int and 0 <= x < Q for x in vals):  # no float, bool
        raise SystemError_(f"target codes must lie in 0..{Q - 1}, as ints")
    v = np.array(vals, dtype=np.int64)          # the result's own target
    if "decompose" not in sysm.meta:
        emb = tower.subfield(t)
        sysm.meta["decompose"] = (
            emb.member_mask.tolist(), emb.embed_table.tolist(),
            emb.embed_table[emb.sub_tower._qpow].tolist(),
            [tower.pow(tower.alpha, j) for j in range(tower.m)],
            tower._qpow.tolist())
    member, embed, sub_basis, alphas, qpow = sysm.meta["decompose"]
    top, bottom = vals[:s], vals[s:]

    # direct membership: one term suffices
    if max(top) < q and all(member[x] for x in bottom):
        if not any(vals):
            return Decomposition(v, [], [])
        return Decomposition(v, [1], [v.copy()])

    # 1. the greedy basis of the top values is the lams, and top_c =
    # sum_j (digit j of coords[c]) lam_j
    pivots, top_coords = fqlinalg.fq_basis(top, tower)
    gens = [top[c] for c in pivots]
    nu = len(gens)

    # 2. extend until the F_{q^t}-module of the gens holds every bottom
    # value.  Entry j*t + i of A is gens[j] * sub_basis[i]; the first
    # pivot past A in [A | alphas] is the first power of alpha outside
    # the module.
    while True:
        A = [tower.mul(g, b) for g in gens for b in sub_basis]
        c = len(A)
        pivots, coords = fqlinalg.fq_basis(A + bottom, tower)
        if not pivots or pivots[-1] < c:
            break
        found = next((p - c for p in fqlinalg.fq_basis(A + alphas,
                                                       tower)[0] if p >= c),
                     None)
        if found is None:
            raise RuntimeError("module extension stalled (unreachable)")
        gens.append(alphas[found])
    if len(gens) > s:
        raise RuntimeError(f"needed {len(gens)} > {s} coefficients "
                           "(unreachable)")

    # 3. the coordinates of each bottom value on the pivots of A, with
    # the other entries 0; each t-digit block is one subfield code
    sub = [[0] * h for _ in gens]
    for col, x in enumerate(coords[c:]):
        for p in pivots:
            if not x:
                break
            if d := x % q:
                sub[p // t][col] += d * qpow[p % t]
            x //= q

    # 4. assemble terms and drop the vacuous ones
    tops = [[x // qj % q for x in top_coords] for qj in qpow[:nu]]
    rows = [(tops[j] if j < nu else [0] * s) + [embed[a] for a in sub[j]]
            for j in range(len(gens))]
    keep = [j for j, row in enumerate(rows) if gens[j] and any(row)]
    lams, rows = [gens[j] for j in keep], [rows[j] for j in keep]
    # sum lams[j] rows[j] = v, one coordinate at a time in Python ints
    if [reduce(tower.add, map(tower.mul, lams, col), 0)
            for col in zip(*rows)] != top + bottom:
        raise RuntimeError("reconstruction failed (unreachable)")
    return Decomposition(v, lams, list(
        np.array(rows, dtype=np.int64).reshape(-1, sysm.k)))
