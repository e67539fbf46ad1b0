"""Exact arithmetic in field towers F_q <= F_{q^t} <= F_{q^m}.

Elements of F_{q^m} are represented as integers in [0, q^m) packing the
coordinate vector with respect to the polynomial basis 1, alpha, ...,
alpha^(m-1) in base q (digit i = coefficient of alpha^i, itself an
integer code of an F_q element, q = p^e), so a code is also a base-p
number of m e digits, added digit-wise mod p by `add_digits`.  All
hot-path operations have numpy-vectorized variants that operate on
integer arrays of element codes.  The scalar ops take and return Python
ints.  In a tower of order up to LIST_TABLE_ORDER (256), `mul`, `inv`
and `div` index Python lists, and for 2 < p <= 16 `add` and `sub` are
one list lookup on codes of one block of digits (every code of F_27,
F_81 and F_243); larger towers read their tables through memoryviews.

Multiplication uses log/exp tables, and one builder makes them for every
field (`FieldTower._build_tables`): it finds the first code g of
multiplicative order q^m - 1 by an order test and fills exp by doubling,
exp[n:2n] = g^n exp[:n], with no map over all codes; subfields are read
off exp.  log(0) is a sentinel that indexes the zero padding of exp, so
the array kernels multiply with one gather and no zero test.  The base
field SmallField(p^e) holds no table: it multiplies mod p when e = 1 and
borrows the ops of the tower F_p <= F_{p^e} when e > 1.

`make_tower` is the one factory for towers: it builds each (q, m,
modulus) once per process and hands every caller the same read-only
object.
"""

from __future__ import annotations

import json
import operator
from functools import cache, lru_cache, partial

import numpy as np

# Tables are built eagerly; beyond this the sweeps this library exists
# for are infeasible anyway, so we refuse rather than degrade silently.
MAX_TABLE_ORDER = 1 << 22

# Fields and digit blocks of order up to this keep their scalar-op tables
# as Python lists, at most 1,021 + 256 + 256 entries per tower and fewer
# than 256^2 per block table; a list copy of a 2^20 tower's tables would
# take ~170 MB, so larger towers read theirs through memoryviews.
LIST_TABLE_ORDER = 256

# Towers `make_tower` keeps alive: more than one `ranksat examples` run or
# one perfbench worker builds, so neither evicts.
TOWER_CACHE_SIZE = 32


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


@cache
def _block_tables(p: int):
    """(P, add, neg) for blocks of base-p digits, P the largest power of p
    up to LIST_TABLE_ORDER (p itself, with no table, when p^2 exceeds it:
    p > 16): add(a, b) = a + b and neg(a) = -a, digit by digit mod p, for
    a, b < P.  Built once."""
    if p * p > LIST_TABLE_ORDER:
        return p, lambda a, b: (a + b) % p, lambda a: -a % p
    x = np.arange(p)
    T = N = np.zeros(1, dtype=np.int64)
    while len(N) * p <= LIST_TABLE_ORDER:     # append a low digit
        T = (T.reshape(len(N), 1, len(N), 1) * p
             + ((x[:, None] + x) % p)[:, None]).ravel()
        N = (N[:, None] * p + (-x % p)).ravel()
    T.flags.writeable = N.flags.writeable = False   # shared by all callers
    return len(N), lambda a, b: T[a * len(N) + b], N.__getitem__


@cache
def _code_ops(p: int):
    """Scalar (add, sub, neg) of integers packing base-p digits, digit by
    digit mod p, on Python ints and with no numpy array: XOR when p = 2.
    For 2 < p <= 16 they read the block table of `_block_tables(p)` as
    row lists, made here, with the first field of characteristic p:
    a + b = rows[a][b] and a - b = rows[a][neg[b]] when a, b < P, and one
    such lookup per block of digits for longer codes.  Above 16 each
    digit is a block, added mod p."""
    if p == 2:
        return operator.xor, operator.xor, operator.pos
    P, block_add, block_neg = _block_tables(p)
    if P == p:      # p > 16: one digit to a block, added mod p
        def blocks(a, b, sign):
            a, b = operator.index(a), operator.index(b)   # no numpy overflow
            out, pw = 0, 1
            while a or b:
                out += (a % p + sign * (b % p)) % p * pw
                a, b, pw = a // p, b // p, pw * p
            return out

        add, sub = partial(blocks, sign=1), partial(blocks, sign=-1)
    else:
        x = np.arange(P)
        rows, neg = block_add(x[:, None], x).tolist(), block_neg(x).tolist()
        same = range(P)

        def blocks(a, b, nb):       # a + nb(b), one lookup per block
            a, b = operator.index(a), operator.index(b)   # no numpy overflow
            out, pw = 0, 1
            while a or b:
                out += rows[a % P][nb[b % P]] * pw
                a, b, pw = a // P, b // P, pw * P
            return out

        # one lookup when both codes fit a block; it does no arithmetic,
        # so narrow numpy scalars index the lists as they are
        def add(a, b):
            return rows[a][b] if a < P and b < P else blocks(a, b, same)

        def sub(a, b):
            return rows[a][neg[b]] if a < P and b < P else blocks(a, b, neg)

    return add, sub, partial(sub, 0)


def _by_blocks(f, p: int, n: int, *X):
    """f applied to each block of base-p digits of the n-digit integer
    arrays X (broadcast), the results packed back into int64."""
    P = _block_tables(p)[0]
    X = [np.asarray(x, dtype=np.int64) for x in X]
    out, pw = 0, 1
    while pw * P < p ** n:      # every block but the top one
        H = [x // P for x in X]
        out = out + f(*(x - h * P for x, h in zip(X, H))) * pw
        X, pw = H, pw * P
    top = f(*X)
    return top if pw == 1 else out + top * pw


def add_digits(A, B, p: int, n: int):
    """Digit-wise sum mod p of integer arrays packing n base-p digits: XOR
    when p = 2, else one table gather (or sum mod p) per block."""
    if p == 2:
        return np.bitwise_xor(A, B)
    return _by_blocks(_block_tables(p)[1], p, n, A, B)


def neg_digits(A, p: int, n: int):
    """Digit-wise negation mod p of an integer array packing n base-p
    digits (a copy of A when p = 2)."""
    return np.array(A) if p == 2 else _by_blocks(_block_tables(p)[2], p, n, A)


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


def _first_irreducible(F, m: int) -> list[int]:
    """First monic irreducible of degree m over SmallField F, in ascending
    order of the packed coefficient code (constant term least
    significant).  For F_2 and m = 4 this selects x^4 + x + 1."""
    q = F.q
    for code in range(q ** m):
        f = [code // q ** i % q for i in range(m)] + [1]
        if (m == 1 or f[0]) and _irreducible_factor_degree(F, f) is None:
            return f
    raise FieldError("no irreducible polynomial found (unreachable)")


class SmallField:
    """The base field F_q, q = p^e <= 1024, with no tables of its own.

    Elements are integer codes 0 .. q-1, packing the e F_p-coordinates of
    an element in base p.  Sums are digit-wise mod p, as in every tower
    (`_code_ops(p)`, `add_digits`, `neg_digits`).  Products are arithmetic
    mod p when e = 1, and the ops of make_tower(p, e), bound in the
    constructor, when e > 1 (modulus: the first irreducible of degree e),
    so that for q <= LIST_TABLE_ORDER they are list lookups too.  Scalar
    ops take and return Python ints; array ops return int64.
    """

    def __init__(self, q: int):
        p, e = _prime_power(q)
        if q > 1024:
            raise FieldError(f"base field order {q} exceeds supported 1024")
        self.q = q
        self.p = p
        self.e = e
        self.add, self.sub, self.neg = _code_ops(p)
        if e > 1:
            t = make_tower(p, e)
            self.mul, self.inv, self.mul_arr, self.inv_arr = (
                t.mul, t.inv, t.mul_arr, t.inv_arr)

    # products mod p (see __init__ for e > 1) ---------------------------
    def mul(self, a: int, b: int) -> int:
        return operator.index(a) * operator.index(b) % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(int(a), -1, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # array ops ----------------------------------------------------------
    def add_arr(self, A, B):
        return add_digits(np.asarray(A, dtype=np.int64), B, self.p, self.e)

    def sub_arr(self, A, B):     # -B is B in characteristic 2
        return self.add_arr(A, B if self.p == 2 else self.neg_arr(B))

    def neg_arr(self, A):
        return neg_digits(np.asarray(A, dtype=np.int64), self.p, self.e)

    def mul_arr(self, A, B):
        return np.asarray(A, dtype=np.int64) * B % self.q

    def inv_arr(self, A):
        # a^(2p-3) is 1/a for a != 0, and 0 for a = 0 (2p - 3 >= 1)
        A, out, n = np.asarray(A, dtype=np.int64), 1, 2 * self.q - 3
        while n:
            if n & 1:
                out = out * A % self.q
            A, n = A * A % self.q, n >> 1
        return out

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"SmallField(q={self.q})"


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
        # kept by the shared tower (`FieldTower.subfield`), so read-only
        embed_table.flags.writeable = member.flags.writeable = False

    def embed(self, a: int) -> int:
        return int(self.embed_table[a])

    def contains(self, w) -> bool:
        return bool(self.member_mask[w])


class FieldTower:
    """F_{q^m} = F_q[alpha]/(modulus), with basis 1, alpha, .., alpha^(m-1).

    modulus is a monic irreducible polynomial of degree m over F_q given
    as a coefficient array (ascending).  `alpha` is the class of x; its
    packed code is q (digits (0, 1, 0, ...)).

    The scalar ops take and return Python ints and build no numpy array:
    `add`, `sub` and `neg` are XOR (and the identity) for p = 2 and list
    lookups per block of base-p digits for 2 < p <= 16 (`_code_ops`);
    `mul` and `inv` read list copies of the log/exp tables when
    Q <= LIST_TABLE_ORDER, and the tables through memoryviews above, so a
    large tower holds no copy.  A code >= Q raises IndexError.

    Build towers with `make_tower`, which shares one object per field
    and process.  The tables (`_exp`, `_log`, `_inv_table`, `_qpow`,
    `digit_table()` and the arrays of the `subfield` embeddings) are
    read-only, so no caller can change what another one reads.
    """

    def __init__(self, q: int, m: int, modulus=None):
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        self.base = SmallField(q)
        self.add, self.sub, self.neg = _code_ops(self.base.p)
        self.m = m
        self.order = q ** m
        if self.order > MAX_TABLE_ORDER:
            raise FieldError(
                f"q^m = {self.order} exceeds table limit {MAX_TABLE_ORDER}")
        if modulus is None:
            modulus = _default_modulus(q, m)
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
        self._qpow.flags.writeable = False
        self._digit_table = None
        self._build_tables()
        self._subfields: dict[tuple, SubfieldEmbedding] = {}

    # -- table construction ----------------------------------------------
    def _primitive_code(self) -> int:
        """The least code g >= 1 of multiplicative order Q - 1: g^((Q-1)/r)
        is not 1 for any prime r | Q - 1.  Each power is a product of the
        squares g^(2^i) of g's digit polynomial mod the modulus, one chain
        shared by every r and grown only as far as an exponent needs."""
        F, Q = self.base, self.order
        exponents = [(Q - 1) // r for r in _factor(Q - 1)]
        modulus = list(self.modulus)

        def power(e):
            result = [1]
            for i in range(e.bit_length()):
                if i == len(chain):
                    chain.append(_poly_mulmod(F, chain[-1], chain[-1],
                                              modulus))
                if e >> i & 1:
                    result = _poly_mulmod(F, result, chain[i], modulus)
            return result

        for g in range(1, Q):
            chain = [_poly_trim(self.digits(g))]
            if all(power(e) != [1] for e in exponents):
                return g
        raise FieldError("no primitive element found (unreachable)")

    def _build_tables(self):
        """Log/exp tables of the generator g = `_primitive_code()`.

        exp is filled by doubling: exp[0] = 1, and exp[n:2n] (cut at Q-1)
        is c exp[:n] for c = g^n, n = 1, 2, 4, ..  Row k of the matrix D of
        c over F_p is the base-p digits of c b_k, b_k = p^j x^i the element
        of code p^k (k = ie + j), so a block's digits times D mod p are its
        products (for p = 2, digits by shift and mask and a XOR of rows),
        and D^2 is the D of c^2.  Chunks of at most Q digits keep every
        array below the size of `_log`; no map over all codes is formed.

        log(0) is the sentinel S = 2(Q-1).  exp repeats for indices Q-1..2Q-3
        and is zero from 2(Q-1) through 2S, so exp[log a + log b] is a b with
        no zero test, and row log v of the view `_windows` is g^e v, e < Q-1.
        The tables are read-only: every holder of the tower shares them.
        """
        Q, F, m = self.order, self.base, self.m
        p, e = F.p, F.e
        self.generator = g = self._primitive_code()
        S = 2 * (Q - 1)
        self._exp = exp = np.zeros(2 * S + 1, dtype=np.int64)
        exp[0] = 1
        xm = [F.neg(a) for a in self.modulus[:-1]]
        rows = [[F.mul(p ** j, d) for d in self.digits(g)] for j in range(e)]
        while len(rows) < m * e:    # row k + e = x row k: shift, reduce
            w = rows[-e]
            rows.append([F.add(lo, F.mul(w[-1], a))
                         for lo, a in zip([0] + w[:-1], xm)])
        shifts = np.arange(m * e)
        ppow = p ** shifts

        def base_p(A):
            A = A[:, None]
            return A >> shifts & 1 if p == 2 else A // ppow % p

        D = base_p(np.array(rows) @ self._qpow)
        chunk = max(1, Q // len(D))
        n = 1
        while n < Q - 1:
            take = min(n, Q - 1 - n)
            for k in range(0, take, chunk):
                end = min(k + chunk, take)
                A = base_p(exp[k:end])
                exp[n + k:n + end] = (
                    np.bitwise_xor.reduce(A * (D @ ppow), axis=1) if p == 2
                    else A @ D % p @ ppow)
            D = D @ D % p
            n *= 2
        exp[Q - 1:S] = exp[:Q - 1]
        self._log = np.full(Q, S, dtype=np.int64)
        self._log[exp[:Q - 1]] = np.arange(Q - 1)
        self._inv_table = np.zeros(Q, dtype=np.int64)    # 1/g^i = g^(Q-1-i)
        self._inv_table[exp[:Q - 1]] = exp[Q - 1:0:-1]
        for table in (exp, self._log, self._inv_table):
            table.flags.writeable = False
        self._windows = np.lib.stride_tricks.sliding_window_view(exp, Q - 1)
        # the scalar ops index Python lists, or memoryviews above
        # LIST_TABLE_ORDER; both return Python ints and no numpy scalar
        self._exp_s, self._log_s, self._inv_s = map(
            np.ndarray.tolist if Q <= LIST_TABLE_ORDER else memoryview,
            (self._exp, self._log, self._inv_table))

    # -- scalar operations -------------------------------------------------
    def digits(self, a: int) -> list[int]:
        q = self.base.q
        return [(a // q ** i) % q for i in range(self.m)]

    def from_digits(self, digs) -> int:
        q = self.base.q
        return int(sum(int(d) * q ** i for i, d in enumerate(digs[: self.m])))

    # add, sub and neg are `_code_ops(p)`, bound in the constructor

    def mul(self, a: int, b: int) -> int:
        # log(0) is the sentinel, so a zero factor reads exp's zero padding
        log = self._log_s
        return self._exp_s[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv_s[a]

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

    def elements(self):
        return range(self.order)

    def random_element(self, rng) -> int:
        return int(rng.integers(self.order)) if hasattr(rng, "integers") \
            else rng.randrange(self.order)

    # -- vector operations (arrays of packed codes) -------------------------
    def add_arr(self, A, B):
        return add_digits(A, B, self.base.p, self.m * self.base.e)

    def neg_arr(self, A):
        return neg_digits(A, self.base.p, self.m * self.base.e)

    def sub_arr(self, A, B):     # -B is B in characteristic 2
        return self.add_arr(A, B if self.base.p == 2 else self.neg_arr(B))

    def mul_arr(self, A, B):
        return self._exp[self._log[A] + self._log[B]]

    # The benchmark's tracer (`perfbench/tracer.py` TARGETS) names this
    # alias; the package calls mul_arr.
    mul_scalar = mul_arr

    def inv_arr(self, A):
        return self._inv_table[A]

    def digit_table(self):
        """(order, m) read-only array: row a = Gamma-coordinates of
        element a, built on first use."""
        if self._digit_table is None:
            Q, q = self.order, self.base.q
            dig = np.zeros((Q, self.m), dtype=np.int16)
            rng = np.arange(Q)
            for i in range(self.m):
                dig[:, i] = (rng // (q ** i)) % q
            dig.flags.writeable = False
            self._digit_table = dig
        return self._digit_table

    # -- subfields -----------------------------------------------------------
    def subfield(self, t: int, modulus=None) -> SubfieldEmbedding:
        """Embedding of F_{q^t} into this field, for t | m, built once per
        sub-field modulus.

        The subfield tower uses the default (first irreducible) modulus
        unless one is given.  Its elements in this field are 0 and the
        powers of g^((Q-1)/(q^t-1)), read off exp; the embedding maps its
        alpha to the smallest root of its modulus among them, so it is
        deterministic and respects both field operations.
        """
        if self.m % t != 0:
            raise FieldError(f"t={t} does not divide m={self.m}")
        sub = make_tower(self.base.q, t, modulus)
        if sub.modulus in self._subfields:
            return self._subfields[sub.modulus]
        Q = self.order
        if sub.modulus == self.modulus:
            table = np.arange(Q, dtype=np.int64)
        else:
            candidates = np.sort(np.concatenate(
                ([0], self._exp[:Q - 1:(Q - 1) // (sub.order - 1)])))
            # the smallest root of the subfield modulus among them, and
            # a -> sum_i a_i root^i over the digits a_i of a, by Horner
            value = np.zeros_like(candidates)
            for c in reversed(sub.modulus):
                value = self.add_arr(self.mul_arr(value, candidates), c)
            roots = candidates[value == 0]
            if not roots.size:
                raise FieldError("no root of subfield modulus (unreachable)")
            table = np.zeros_like(candidates)
            for d in sub.digit_table().T[::-1]:
                table = self.add_arr(self.mul_arr(table, roots[0]), d)
        self._subfields[sub.modulus] = SubfieldEmbedding(self, sub, table)
        return self._subfields[sub.modulus]

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


def _is_int(x) -> bool:
    # bool is an int subclass; floats would be truncated
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def make_tower(q: int, m: int, modulus=None) -> FieldTower:
    """The tower F_q <= F_{q^m} = F_q[x]/(modulus); see FieldTower.

    The one factory for towers.  It keeps the TOWER_CACHE_SIZE most
    recently used ones, keyed on (q, m, modulus) with the modulus as a
    tuple of ints (a list, tuple or array of the same coefficients is one
    key, and None is first resolved to the first irreducible, so it is the
    key of the default modulus too), so a field is built once per process
    and shared.  A q, m or coefficient that is no int (or is a bool), a
    coefficient outside 0..q-1 and a bad modulus raise FieldError on each call.
    """
    coeffs = () if modulus is None else modulus
    if not (_is_int(q) and _is_int(m)
            and isinstance(coeffs, (list, tuple, np.ndarray))
            and all(_is_int(c) and 0 <= c < q for c in coeffs)):
        raise FieldError(f"q = {q!r}, m = {m!r} and modulus = {modulus!r} "
                         "must be integers, the coefficients in 0..q-1")
    q, m = int(q), int(m)
    if modulus is None and m >= 1 and q ** m <= MAX_TABLE_ORDER:
        modulus = _default_modulus(q, m)    # else FieldTower refuses (q, m)
    key = None if modulus is None else tuple(int(c) for c in modulus)
    return _cached_tower(q, m, key)


@cache
def _default_modulus(q: int, m: int) -> tuple[int, ...]:
    return tuple(_first_irreducible(SmallField(q), m))


@lru_cache(maxsize=TOWER_CACHE_SIZE)
def _cached_tower(q: int, m: int, modulus) -> FieldTower:
    return FieldTower(q, m, modulus)


def tower_from_json(data) -> FieldTower:
    if isinstance(data, str):
        data = json.loads(data)
    return make_tower(data["q"], data["m"], data.get("modulus_coeffs"))


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
