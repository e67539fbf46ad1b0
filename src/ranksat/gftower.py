"""Exact arithmetic in field towers F_q <= F_{q^t} <= F_{q^m}.

Elements of F_{q^m} are represented as integers in [0, q^m) packing the
coordinate vector with respect to the polynomial basis 1, alpha, ...,
alpha^(m-1) in base q (digit i = coefficient of alpha^i, itself an
integer code of an F_q element).  Multiplication uses precomputed
log/antilog tables; addition is XOR in characteristic 2 and digit-wise
otherwise.  All hot-path operations have numpy-vectorized variants that
operate on integer arrays of element codes.
"""

from __future__ import annotations

import json

import numpy as np

# Tables are built eagerly; beyond this the sweeps this library exists
# for are infeasible anyway, so we refuse rather than degrade silently.
MAX_TABLE_ORDER = 1 << 22


class FieldError(ValueError):
    pass


def _factor(n: int) -> dict[int, int]:
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def _prime_power(q: int) -> tuple[int, int]:
    """Split q = p^e with p prime, or raise FieldError."""
    if q < 2:
        raise FieldError(f"field order must be >= 2, got {q}")
    fac = _factor(q)
    if len(fac) != 1:
        raise FieldError(f"q={q} is not a prime power")
    (p, e), = fac.items()
    return p, e


# ----------------------------------------------------------------------
# Polynomial helpers over a SmallField (coefficient lists, ascending).
# ----------------------------------------------------------------------

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mulmod(F, a, b, mod):
    """a*b mod `mod` over SmallField F; mod is monic of degree >= 1."""
    deg = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            res[i + j] = F.add(res[i + j], F.mul(ai, bj))
    # reduce
    for i in range(len(res) - 1, deg - 1, -1):
        c = res[i]
        if c == 0:
            continue
        res[i] = 0
        for j in range(deg):
            res[i - deg + j] = F.sub(res[i - deg + j], F.mul(c, mod[j]))
    res = res[:deg]
    return _poly_trim(res)


def _poly_powmod(F, a, n, mod):
    result = [1]
    base = list(a)
    while n > 0:
        if n & 1:
            result = _poly_mulmod(F, result, base, mod)
        base = _poly_mulmod(F, base, base, mod)
        n >>= 1
    return result


def _poly_gcd(F, a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        # a mod b
        inv_lead = F.inv(b[-1])
        r = list(a)
        while len(r) >= len(b) and r:
            if r[-1] == 0:
                r.pop()
                continue
            c = F.mul(r[-1], inv_lead)
            shift = len(r) - len(b)
            for j, bj in enumerate(b):
                r[shift + j] = F.sub(r[shift + j], F.mul(c, bj))
            r = _poly_trim(r)
        a, b = b, r
    return a


def _irreducible_factor_degree(F, f) -> int | None:
    """Smallest degree of an irreducible factor of monic f, if f is
    reducible over SmallField F; None when f is irreducible.

    Standard sweep: gcd(f, x^{q^d} - x) for d = 1 .. deg/2 (d = 1 is
    the root check).
    """
    m = len(f) - 1
    if m == 1:
        return None
    q = F.q
    xq = [0, 1]
    for d in range(1, m // 2 + 1):
        xq = _poly_powmod(F, xq, q, f)
        diff = list(xq) + [0] * max(0, 2 - len(xq))
        diff[1] = F.sub(diff[1], 1)
        g = _poly_gcd(F, diff, f)
        if len(g) - 1 >= 1:
            return d
    return None


class SmallField:
    """The base field F_q, q = p^e <= 1024, with dense op tables.

    Elements are integer codes 0 .. q-1.  For e > 1 the code packs the
    F_p-coordinates of the element in base p; the modulus is the
    lexicographically first irreducible monic polynomial of degree e
    over F_p.
    """

    def __init__(self, q: int):
        p, e = _prime_power(q)
        if q > 1024:
            raise FieldError(f"base field order {q} exceeds supported 1024")
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus_p = (0, 1)  # formal x; unused for prime fields
            add = (np.arange(q)[:, None] + np.arange(q)[None, :]) % q
            mul = (np.arange(q)[:, None] * np.arange(q)[None, :]) % q
        else:
            self.modulus_p = self._first_irreducible_prime(p, e)
            add, mul = self._build_ext_tables(p, e, self.modulus_p)
        self._add = add.astype(np.int16)
        self._mul = mul.astype(np.int16)
        neg = np.zeros(q, dtype=np.int16)
        for a in range(q):
            neg[a] = int(np.where(self._add[a] == 0)[0][0])
        self._neg = neg
        inv = np.zeros(q, dtype=np.int16)
        for a in range(1, q):
            inv[a] = int(np.where(self._mul[a] == 1)[0][0])
        self._inv = inv

    @staticmethod
    def _first_irreducible_prime(p: int, e: int) -> tuple[int, ...]:
        Fp = SmallField(p)
        for code in range(p ** e):
            coeffs = []
            c = code
            for _ in range(e):
                coeffs.append(c % p)
                c //= p
            f = coeffs + [1]
            if e >= 2 and f[0] == 0:
                continue
            if _irreducible_factor_degree(Fp, f) is None:
                return tuple(f)
        raise FieldError("no irreducible polynomial found (unreachable)")

    @staticmethod
    def _build_ext_tables(p: int, e: int, modulus):
        Fp = SmallField(p)
        q = p ** e
        pp = [p ** i for i in range(e)]

        def unpack(a):
            return [(a // pp[i]) % p for i in range(e)]

        def pack(co):
            return sum(int(c) * pp[i] for i, c in enumerate(co[:e]))

        add = np.zeros((q, q), dtype=np.int32)
        mul = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            ua = unpack(a)
            for b in range(q):
                ub = unpack(b)
                add[a, b] = pack([(x + y) % p for x, y in zip(ua, ub)])
                prod = _poly_mulmod(Fp, _poly_trim(ua), _poly_trim(ub), list(modulus))
                mul[a, b] = pack(prod + [0] * e)
        return add, mul

    # scalar ops ---------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self._add[a, self._neg[b]])

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._inv[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # array ops ----------------------------------------------------------
    def add_arr(self, A, B):
        return self._add[A, B]

    def sub_arr(self, A, B):
        return self._add[A, self._neg[B]]

    def neg_arr(self, A):
        return self._neg[A]

    def mul_arr(self, A, B):
        return self._mul[A, B]

    def inv_arr(self, A):
        return self._inv[A]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"SmallField(q={self.q})"


class ComplementBasis:
    """A direct-sum decomposition F_{q^m} = <beta_1..beta_s>_{F_q} + F_{q^t}.

    s = (r-1)t where m = r*t.  Together with an F_q-basis of the embedded
    subfield, the betas form an F_q-basis of F_{q^m}; `decompose` returns
    the beta-coordinates (F_q scalars) and the subfield component (as an
    embedded element of the big field).
    """

    def __init__(self, tower: "FieldTower", t: int, betas: list[int]):
        m, q = tower.m, tower.base.q
        if m % t != 0:
            raise FieldError(f"t={t} does not divide m={m}")
        r = m // t
        if len(betas) != (r - 1) * t:
            raise FieldError(
                f"need {(r - 1) * t} complement elements, got {len(betas)}")
        self.tower = tower
        self.t = t
        self.r = r
        self.betas = list(betas)
        sub = tower.subfield(t)
        self.subfield = sub
        # columns: digits of beta_1..beta_s, then embedded subfield basis
        sub_basis = [int(sub.embed_table[sub.sub_tower.from_digits(
            [0] * i + [1] + [0] * (t - 1 - i))]) for i in range(t)]
        self.sub_basis_embedded = sub_basis
        cols = [tower.digits(b) for b in self.betas] + \
               [tower.digits(s) for s in sub_basis]
        B = np.array(cols, dtype=np.int16).T  # m x m over F_q
        from . import fqlinalg
        Binv = fqlinalg.inv(B, tower.base)
        if Binv is None:
            raise FieldError("complement elements do not complete a basis "
                             "of the extension over F_q")
        self.matrix = B
        self.matrix_inv = Binv

    def coordinates(self, w: int) -> np.ndarray:
        """All m F_q-coordinates of w: betas first, subfield basis last."""
        from .linalg import ext_matmul
        d = self.tower.digit_table()[w]
        return ext_matmul(self.matrix_inv, d[:, None], self.tower.base)[:, 0]

    def decompose(self, w: int) -> tuple[np.ndarray, int]:
        """Return (beta coordinates in F_q, subfield part embedded)."""
        co = self.coordinates(w)
        s = (self.r - 1) * self.t
        sub_part = 0
        for i in range(self.t):
            c = int(co[s + i])
            if c:
                sub_part = self.tower.add(
                    sub_part, self.tower.mul(c, self.sub_basis_embedded[i]))
        return co[:s], sub_part

    def project_beta(self, w: int, j: int) -> int:
        """F_q-coefficient of beta_j (1-based) in the decomposition of w."""
        return int(self.coordinates(w)[j - 1])

    def project_subfield(self, w: int) -> int:
        return self.decompose(w)[1]

    def reconstruct(self, beta_coords, sub_part: int) -> int:
        tw = self.tower
        acc = sub_part
        for j, c in enumerate(beta_coords):
            if c:
                acc = tw.add(acc, tw.mul(int(c), self.betas[j]))
        return acc


def project(w: int, target, basis: ComplementBasis):
    """Component of w in the decomposition defined by `basis`.

    target: 1-based beta index (int) for the F_q-coefficient of that
    beta, or the string "subfield" for the F_{q^t}-component (returned
    as an embedded element of the big field).
    """
    if target == "subfield":
        return basis.project_subfield(w)
    return basis.project_beta(w, int(target))


class SubfieldEmbedding:
    """Embedding of F_{q^t} (its own tower) into F_{q^m}, t | m."""

    def __init__(self, tower: "FieldTower", sub_tower: "FieldTower",
                 embed_table: np.ndarray):
        self.tower = tower
        self.sub_tower = sub_tower
        self.embed_table = embed_table      # code in F_{q^t} -> code in F_{q^m}
        self.t = sub_tower.m
        member = np.zeros(tower.order, dtype=bool)
        member[embed_table] = True
        self.member_mask = member

    def embed(self, a: int) -> int:
        return int(self.embed_table[a])

    def contains(self, w) -> bool:
        return bool(self.member_mask[w])


class FieldTower:
    """F_{q^m} = F_q[alpha]/(modulus), with basis 1, alpha, .., alpha^(m-1).

    modulus is a monic irreducible polynomial of degree m over F_q given
    as a coefficient array (ascending).  `alpha` is the class of x; its
    packed code is q (digits (0, 1, 0, ...)).
    """

    def __init__(self, q: int, m: int, modulus=None):
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        self.base = SmallField(q)
        self.m = m
        self.order = q ** m
        if self.order > MAX_TABLE_ORDER:
            raise FieldError(
                f"q^m = {self.order} exceeds table limit {MAX_TABLE_ORDER}")
        if modulus is None:
            modulus = self._first_irreducible(self.base, m)
        modulus = [int(c) for c in modulus]
        if len(_poly_trim(modulus)) - 1 != m:
            raise FieldError(f"modulus must have degree {m}")
        if modulus[-1] != 1:
            raise FieldError("modulus must be monic")
        d = _irreducible_factor_degree(self.base, modulus)
        if d is not None:
            raise FieldError(
                f"modulus is reducible: it has an irreducible factor of degree {d}")
        self.modulus = tuple(modulus)
        self.alpha = q if m > 1 else self.base.sub(0, modulus[0])
        self._qpow = np.array([q ** i for i in range(m)], dtype=np.int64)
        self._build_tables()
        self._digit_table = None
        self._subfields: dict[int, SubfieldEmbedding] = {}

    # -- construction helpers --------------------------------------------
    @staticmethod
    def _first_irreducible(F: SmallField, m: int):
        """First monic irreducible of degree m over F_q, in ascending order
        of the packed coefficient code (constant term least significant).
        For q=2, m=4 this selects x^4 + x + 1."""
        q = F.q
        for code in range(q ** m):
            coeffs = []
            c = code
            for _ in range(m):
                coeffs.append(c % q)
                c //= q
            f = coeffs + [1]
            if m >= 2 and f[0] == 0:
                continue
            if _irreducible_factor_degree(F, f) is None:
                return f
        raise FieldError("no irreducible polynomial found (unreachable)")

    def _poly_mul_scalar(self, a_digits, b_digits):
        """Schoolbook product of two digit lists, reduced mod modulus."""
        return _poly_mulmod(self.base, _poly_trim(list(a_digits)),
                            _poly_trim(list(b_digits)), list(self.modulus))

    def _mul_schoolbook(self, a: int, b: int) -> int:
        res = self._poly_mul_scalar(self.digits(a), self.digits(b))
        return self.from_digits(res + [0] * self.m)

    def _element_order(self, a: int, order_factors) -> bool:
        """True iff a generates the multiplicative group."""
        n = self.order - 1
        for ell in order_factors:
            if self._pow_schoolbook(a, n // ell) == 1:
                return False
        return True

    def _pow_schoolbook(self, a: int, n: int) -> int:
        result, base = 1, a
        while n > 0:
            if n & 1:
                result = self._mul_schoolbook(result, base)
            base = self._mul_schoolbook(base, base)
            n >>= 1
        return result

    def _build_tables(self):
        Q = self.order
        q = self.base.q
        if Q == 2:
            self.generator = 1
            self._exp = np.array([1, 1], dtype=np.int32)
            self._log = np.array([0, 0], dtype=np.int32)
            self._inv_table = np.array([0, 1], dtype=np.int32)
            return
        order_factors = list(_factor(Q - 1))
        gen = None
        for cand in range(2, Q):
            if self._element_order(cand, order_factors):
                gen = cand
                break
        if gen is None:
            raise FieldError("no primitive element found (unreachable)")
        self.generator = gen
        exp = np.zeros(2 * (Q - 1), dtype=np.int32)
        log = np.zeros(Q, dtype=np.int32)
        if self.base.p == 2 and self.base.e == 1:
            # carry-free packed stepping: multiply by gen = xor of shifts
            modbits = 0
            for i, c in enumerate(self.modulus):
                modbits |= (c & 1) << i
            top = 1 << self.m
            v = 1
            for i in range(Q - 1):
                exp[i] = v
                log[v] = i
                acc = 0
                w = v
                for j in range(self.m):
                    if (gen >> j) & 1:
                        acc ^= w
                    w <<= 1
                    if w & top:
                        w ^= modbits
                v = acc
            if v != 1:
                raise FieldError("table build failed (unreachable)")
        else:
            # generic stepping: digit vector times the m x m matrix of
            # multiplication by gen over F_q
            gen_digits = self.digits(gen)
            cols = []
            for j in range(self.m):
                xj = [0] * j + [1]
                prod = self._poly_mul_scalar(gen_digits, xj)
                cols.append(prod + [0] * (self.m - len(prod)))
            M = np.array(cols, dtype=np.int16).T  # m x m, col j = gen * x^j
            mul_t = self.base._mul
            add_t = self.base._add
            v = np.zeros(self.m, dtype=np.int16)
            v[0] = 1
            for i in range(Q - 1):
                code = int(v @ self._qpow[: self.m])
                exp[i] = code
                log[code] = i
                prods = mul_t[M, v[None, :]]
                acc = prods[:, 0]
                for j in range(1, self.m):
                    acc = add_t[acc, prods[:, j]]
                v = acc.astype(np.int16)
            if int(v @ self._qpow[: self.m]) != 1:
                raise FieldError("table build failed (unreachable)")
        exp[Q - 1:] = exp[: Q - 1]
        self._exp = exp
        self._log = log
        inv_t = np.zeros(Q, dtype=np.int32)
        nz = np.arange(1, Q)
        inv_t[nz] = exp[(Q - 1) - log[nz]]
        self._inv_table = inv_t

    # -- scalar operations -------------------------------------------------
    def digits(self, a: int) -> list[int]:
        q = self.base.q
        return [(a // q ** i) % q for i in range(self.m)]

    def from_digits(self, digs) -> int:
        q = self.base.q
        return int(sum(int(d) * q ** i for i, d in enumerate(digs[: self.m])))

    def add(self, a: int, b: int) -> int:
        if self.base.p == 2:
            return a ^ b
        da, db = self.digits(a), self.digits(b)
        return self.from_digits([self.base.add(x, y) for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.base.p == 2:
            return a
        return self.from_digits([self.base.neg(x) for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n > 0 else 1
        n %= self.order - 1 or 1
        return int(self._exp[(int(self._log[a]) * n) % (self.order - 1)])

    def frobenius(self, a: int, j: int = 1) -> int:
        """a^(q^j)."""
        return self.pow(a, pow(self.base.q, j, self.order - 1) if self.order > 2 else 1)

    def embed_base(self, c: int) -> int:
        """F_q element code -> constant polynomial in F_{q^m} (same code)."""
        return int(c)

    def elements(self):
        return range(self.order)

    def random_element(self, rng) -> int:
        return int(rng.integers(self.order)) if hasattr(rng, "integers") \
            else rng.randrange(self.order)

    # -- vector operations (arrays of packed codes) -------------------------
    def add_arr(self, A, B):
        if self.base.p == 2:
            return np.bitwise_xor(A, B)
        dig = self.digit_table()
        s = self.base._add[dig[A], dig[B]].astype(np.int64)
        return s @ self._qpow

    def neg_arr(self, A):
        if self.base.p == 2:
            return np.asarray(A).copy()
        d = self.base._neg[self.digit_table()[A]].astype(np.int64)
        return d @ self._qpow

    def sub_arr(self, A, B):
        if self.base.p == 2:
            return np.bitwise_xor(A, B)
        dig = self.digit_table()
        return self.base._add[dig[A], self.base._neg[dig[B]]] @ self._qpow

    def mul_arr(self, A, B):
        A = np.asarray(A)
        B = np.asarray(B)
        out = self._exp[self._log[A] + self._log[B]]
        zero = (A == 0) | (B == 0)
        return np.where(zero, 0, out).astype(np.int64)

    def mul_scalar(self, lam: int, A):
        A = np.asarray(A)
        if lam == 0:
            return np.zeros_like(A, dtype=np.int64)
        out = self._exp[self._log[A] + int(self._log[lam])]
        return np.where(A == 0, 0, out).astype(np.int64)

    def inv_arr(self, A):
        return self._inv_table[A].astype(np.int64)

    def frobenius_arr(self, A, j: int = 1):
        if self.order == 2:
            return np.asarray(A).copy()
        e = pow(self.base.q, j, self.order - 1)
        A = np.asarray(A)
        out = self._exp[(self._log[A] * e) % (self.order - 1)]
        return np.where(A == 0, 0, out).astype(np.int64)

    def digit_table(self):
        """(order, m) array: row a = Gamma-coordinates of element a."""
        if self._digit_table is None:
            Q, q = self.order, self.base.q
            dig = np.zeros((Q, self.m), dtype=np.int16)
            rng = np.arange(Q)
            for i in range(self.m):
                dig[:, i] = (rng // (q ** i)) % q
            self._digit_table = dig
        return self._digit_table

    # -- subfields and complement bases -------------------------------------
    def subfield(self, t: int, modulus=None) -> SubfieldEmbedding:
        """Embedding of F_{q^t} into this field, for t | m.

        The subfield tower uses the default (first irreducible) modulus
        unless one is given; the embedding maps its alpha to the smallest
        root of that modulus inside this field, so it is deterministic and
        respects both field operations.
        """
        if self.m % t != 0:
            raise FieldError(f"t={t} does not divide m={self.m}")
        if t in self._subfields and modulus is None:
            return self._subfields[t]
        sub = FieldTower(self.base.q, t, modulus)
        if t == self.m and tuple(sub.modulus) == self.modulus:
            table = np.arange(self.order, dtype=np.int64)
            emb = SubfieldEmbedding(self, sub, table)
            if modulus is None:
                self._subfields[t] = emb
            return emb
        # subfield element set: fixed points of x -> x^{q^t}
        Q = self.order
        qt = self.base.q ** t
        if Q == 2:
            candidates = [0, 1]
        else:
            idx = np.arange(1, Q, dtype=np.int64)
            fro = self.frobenius_arr(idx, t)
            candidates = [0] + sorted(int(x) for x in idx[fro == idx])
        if len(candidates) != qt:
            raise FieldError("subfield extraction failed (unreachable)")
        # smallest root of the subfield modulus among candidates
        root = None
        for c in sorted(candidates):
            acc = 0
            for i, co in enumerate(sub.modulus):
                if co:
                    acc = self.add(acc, self.mul(self.embed_base(co),
                                                 self.pow(c, i)))
            if acc == 0:
                root = c
                break
        if root is None:
            raise FieldError("no root of subfield modulus (unreachable)")
        table = np.zeros(qt, dtype=np.int64)
        for a in range(qt):
            digs = sub.digits(a)
            acc = 0
            for i, d in enumerate(digs):
                if d:
                    acc = self.add(acc, self.mul(self.embed_base(d),
                                                 self.pow(root, i)))
            table[a] = acc
        emb = SubfieldEmbedding(self, sub, table)
        if modulus is None:
            self._subfields[t] = emb
        return emb

    def complement_basis(self, t: int, betas=None) -> ComplementBasis:
        """Complement of the embedded F_{q^t}: default greedily extends an
        F_q-basis of the subfield by powers of alpha."""
        if betas is not None:
            return ComplementBasis(self, t, list(betas))
        from . import fqlinalg
        sub = self.subfield(t)
        rows = [np.array(self.digits(int(sub.embed_table[
            sub.sub_tower.from_digits([0] * i + [1] + [0] * (t - 1 - i))])),
            dtype=np.int16) for i in range(t)]
        basis_rows = list(rows)
        betas = []
        need = self.m - t
        cand = 1
        while len(betas) < need:
            d = np.array(self.digits(cand), dtype=np.int16)
            trial = np.array(basis_rows + [d])
            if fqlinalg.rank(trial, self.base) == len(basis_rows) + 1:
                betas.append(cand)
                basis_rows.append(d)
            cand = self.mul(cand, self.alpha) if self.m > 1 else cand + 1
            if cand == 1:
                raise FieldError("could not extend subfield basis (unreachable)")
        return ComplementBasis(self, t, betas)

    def random_complement_basis(self, t: int, rng) -> ComplementBasis:
        need = self.m - t
        while True:
            betas = [rng.randrange(1, self.order) for _ in range(need)]
            try:
                return ComplementBasis(self, t, betas)
            except FieldError:
                continue

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        return {"q": self.base.q, "m": self.m,
                "modulus_coeffs": list(self.modulus), "gamma": "polynomial"}

    def __repr__(self):
        return f"FieldTower(q={self.base.q}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (isinstance(other, FieldTower) and self.base.q == other.base.q
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.base.q, self.m, self.modulus))


def make_tower(q: int, m: int, modulus=None) -> FieldTower:
    """Build the tower F_q <= F_{q^m}; see FieldTower."""
    return FieldTower(q, m, modulus)


def tower_from_json(data) -> FieldTower:
    if isinstance(data, str):
        data = json.loads(data)
    return make_tower(int(data["q"]), int(data["m"]),
                      data.get("modulus_coeffs"))


def expand(vec, tower: FieldTower) -> np.ndarray:
    """Gamma-coordinate matrix of a vector over F_{q^m}.

    Row i holds the m F_q-coordinates of entry i; the map is F_q-linear
    and injective.
    """
    v = np.asarray(vec, dtype=np.int64).ravel()
    if v.size and (v.min() < 0 or v.max() >= tower.order):
        raise FieldError("entry outside the extension field")
    return tower.digit_table()[v].copy()

def collapse(mat, tower: FieldTower) -> np.ndarray:
    """Inverse of expand: digit rows -> packed element codes."""
    M = np.asarray(mat, dtype=np.int64)
    return M @ tower._qpow
