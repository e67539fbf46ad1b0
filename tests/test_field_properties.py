"""Property tests of the field tables: the log/exp tables of every tower
and the op tables of every base field agree with schoolbook polynomial
arithmetic, and the table kernels satisfy the field axioms and the
Frobenius identities, for default and random irreducible moduli.  The
scalar ops agree with the array ops.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranksat import FieldError, make_tower
from ranksat.gftower import SmallField, add_digits

from oracles import (digit_table_add, digit_table_neg, digit_table_sub,
                     orbit_walk_tables, schoolbook_mul, schoolbook_pow)

# (q, m) with q^m <= 4096, over prime and non-prime bases
CASES = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in range(1, 13)
         if q ** m <= 4096]

SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _tower(q, m, random_modulus, seed):
    if not random_modulus:
        return make_tower(q, m)
    rng = random.Random(seed)
    while True:
        try:
            return make_tower(q, m, [rng.randrange(q) for _ in range(m)]
                              + [1])
        except FieldError:         # reducible; draw again
            continue


def _primes(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _is_primitive(t, a):
    n = t.order - 1
    return all(schoolbook_pow(t, a, n // ell) != 1 for ell in _primes(n))


@PROPERTY
@given(st.sampled_from(CASES), st.booleans(), SEEDS)
def test_log_tables_match_schoolbook(case, random_modulus, seed):
    t = _tower(*case, random_modulus, seed)
    Q, g = t.order, t.generator
    power = 1
    for i in range(Q - 1):
        assert t._exp[i] == power
        assert t._log[power] == i
        power = schoolbook_mul(t, power, g)
    assert power == 1
    # the generator is the least code of multiplicative order Q - 1
    assert all(not _is_primitive(t, c) for c in range(1, g))
    assert Q == 2 or _is_primitive(t, g)


def _tables_match_orbit_walk(t):
    g, exp, log = orbit_walk_tables(t)
    assert t.generator == g
    assert np.array_equal(t._exp[:t.order - 1], exp)
    assert np.array_equal(t._log, log)


@PROPERTY
@given(st.sampled_from(CASES), st.booleans(), SEEDS)
def test_order_test_finds_the_orbit_walks_generator(case, random_modulus,
                                                    seed):
    """The order test picks the generator the orbit walk picked, so the
    log/exp tables are the walk's."""
    _tables_match_orbit_walk(_tower(*case, random_modulus, seed))


def test_order_test_matches_orbit_walk_on_f257_squared():
    # the walk visits 258 non-primitive orbits before g = 259
    _tables_match_orbit_walk(make_tower(257, 2))


@PROPERTY
@given(st.sampled_from(CASES), st.booleans(), SEEDS)
def test_field_axioms_and_frobenius(case, random_modulus, seed):
    t = _tower(*case, random_modulus, seed)
    Q, q, m = t.order, t.base.q, t.m
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(0, Q, (3, 64))
    a[:2], b[1:3] = 0, 0          # zero operands meet the log sentinel
    ab = t.mul_arr(a, b)
    assert ab.tolist() == [schoolbook_mul(t, int(x), int(y))
                           for x, y in zip(a, b)]
    assert np.array_equal(ab, t.mul_arr(b, a))
    assert np.array_equal(t.mul_arr(ab, c), t.mul_arr(a, t.mul_arr(b, c)))
    assert np.array_equal(t.mul_arr(a, t.add_arr(b, c)),
                          t.add_arr(ab, t.mul_arr(a, c)))
    assert np.array_equal(t.add_arr(a, b), t.add_arr(b, a))
    assert np.array_equal(t.add_arr(t.sub_arr(a, b), b), a)
    assert not t.add_arr(a, t.neg_arr(a)).any()
    assert np.array_equal(t.mul_arr(a, 1), a)
    assert not t.mul_arr(a, 0).any()
    assert np.array_equal(t.mul_scalar(int(c[0]), a), t.mul_arr(a, c[0]))
    nz = a[a != 0]
    assert (t.mul_arr(nz, t.inv_arr(nz)) == 1).all()
    # Frobenius a -> a^q: a ring map of order m fixing exactly F_q
    fa, fb = t.frobenius_arr(a), t.frobenius_arr(b)
    assert fa.tolist() == [schoolbook_pow(t, int(x), q) for x in a]
    assert np.array_equal(t.frobenius_arr(ab), t.mul_arr(fa, fb))
    assert np.array_equal(t.frobenius_arr(t.add_arr(a, b)),
                          t.add_arr(fa, fb))
    assert np.array_equal(t.frobenius_arr(a, m), a)
    assert np.array_equal(fa == a, a < q)


# (q, m) for the block-table addition: one block (3^3, 5^3, 9^2), several
# blocks (3^6, 3^7, 5^4, 7^3, 9^3), one digit to a block and no table
# (17^2, 257^2, 1021^1) and characteristic 2 (4^3)
KERNEL_CASES = [(3, 3), (5, 3), (9, 2), (3, 6), (3, 7), (5, 4), (7, 3),
                (9, 3), (17, 2), (257, 2), (1021, 1), (4, 3)]


@pytest.mark.parametrize("case", KERNEL_CASES,
                         ids=[f"q{q}-m{m}" for q, m in KERNEL_CASES])
@PROPERTY
@given(st.integers(2, 4), SEEDS)
def test_add_kernel_matches_digit_table(case, k, seed):
    t = make_tower(*case)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, t.order, (2, 200))
    a[:20], b[10:30] = 0, 0       # zero operands, alone and paired
    assert np.array_equal(t.add_arr(a, b), digit_table_add(t, a, b))
    assert np.array_equal(t.sub_arr(a, b), digit_table_sub(t, a, b))
    assert np.array_equal(t.neg_arr(a), digit_table_neg(t, a))
    assert np.array_equal(t.add_arr(a[:, None], b[None, :9]),
                          digit_table_add(t, a[:, None], b[None, :9]))
    # packed vectors over k m e base-p digits, as `_flat_points` adds
    # them; like its packed points they fit an int64
    k = min(k, 3) if t.order ** k >= 1 << 63 else k
    u, v = rng.integers(0, t.order, (2, 50, k))
    u[:5] = 0
    qpow = t.order ** np.arange(k - 1, -1, -1)
    assert np.array_equal(
        add_digits(u @ qpow, v @ qpow, t.base.p, k * t.m * t.base.e),
        digit_table_add(t, u, v) @ qpow)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 1021, 4, 8, 9, 16, 25, 27, 32])
def test_small_field_tables_match_schoolbook(q):
    # SmallField(p) computes mod p, and SmallField(p^e) takes its products
    # from FieldTower(p, e) and its sums from add_digits; the reference is
    # Python arithmetic mod p, or F_p-polynomials multiplied mod the same
    # default modulus and added digit by digit.  The array ops are checked
    # on int64 and on int16 codes, all pairs or a seeded sample for q > 64
    F = SmallField(q)
    p, e = F.p, F.e
    if q <= 64:
        x, y = np.divmod(np.arange(q * q), q)
    else:
        x, y = np.random.default_rng(q).integers(0, q, (2, 4000))
        x[:2], y[1:3] = 0, 0      # zero operands, alone and paired

    def digits(a):
        return [a // p ** i % p for i in range(e)]

    def digitwise(f, *codes):
        return sum(f(*d) % p * p ** i
                   for i, d in enumerate(zip(*map(digits, codes))))

    def mul(a, b):
        return a * b % p if e == 1 else schoolbook_mul(make_tower(p, e), a, b)

    pairs = list(zip(x.tolist(), y.tolist()))
    add = [digitwise(int.__add__, a, b) for a, b in pairs]
    sub = [digitwise(int.__sub__, a, b) for a, b in pairs]
    neg = [digitwise(int.__neg__, a) for a, _ in pairs]
    prod = [mul(a, b) for a, b in pairs]
    inv = ({b: pow(b, -1, p) for b in range(1, q)} if e == 1 else
           {b: a for (a, b), c in zip(pairs, prod) if c == 1})
    assert [F.add(a, b) for a, b in pairs] == add
    assert [F.mul(a, b) for a, b in pairs] == prod
    for dtype in (np.int64, np.int16):
        X, Y = x.astype(dtype), y.astype(dtype)
        assert F.add_arr(X, Y).tolist() == add
        assert F.sub_arr(X, Y).tolist() == sub
        assert F.neg_arr(X).tolist() == neg
        assert F.mul_arr(X, Y).tolist() == prod
        assert F.inv_arr(Y).tolist() == [inv.get(b, 0) for b in y.tolist()]
    a = np.arange(q)
    assert (F.add_arr(a, F.neg_arr(a)) == 0).all()
    assert (F.mul_arr(a[1:], F.inv_arr(a[1:])) == 1).all()


# fields for the scalar ops: towers over p = 2, odd p with one block and
# with several blocks of base-p digits (3^6 has two), p > 16 (one digit
# to a block, no table) and non-prime bases; base fields prime and not.
# The boundaries of LIST_TABLE_ORDER: 2^8 is the largest tower on lists,
# 3^5 fills one block, 2^9 reads memoryviews, and 251 is p > 16 on lists
SCALAR_FIELDS = ([("tower", q, m) for q, m in [(2, 5), (3, 3), (3, 6),
                                               (257, 2), (1021, 1), (4, 2),
                                               (9, 2), (2, 8), (3, 5),
                                               (2, 9), (251, 1)]]
                 + [("base", q, 1) for q in (2, 3, 4, 9, 1021, 251)])


def _scalar_field(kind, q, m):
    return make_tower(q, m) if kind == "tower" else SmallField(q)


@pytest.mark.parametrize("case", SCALAR_FIELDS,
                         ids=[f"{k}-q{q}-m{m}" for k, q, m in SCALAR_FIELDS])
@PROPERTY
@given(SEEDS)
def test_scalar_ops_match_array_ops(case, seed):
    """The scalar ops, which `fqlinalg.rref` runs on, return Python ints
    equal to the array ops on the same codes."""
    F = _scalar_field(*case)
    Q = len(F.elements())
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, Q, (2, 40))
    a[:4], b[2:6] = 0, 0
    a[-1], b[-1] = Q - 1, Q - 1
    for x, y in zip(a.tolist(), b.tolist()):
        got = [F.add(x, y), F.sub(x, y), F.neg(x), F.mul(x, y)]
        want = [F.add_arr(x, y), F.sub_arr(x, y), F.neg_arr(x),
                F.mul_arr(x, y)]
        if y:
            got += [F.inv(y), F.div(x, y)]
            want += [F.inv_arr(y), F.mul_arr(x, F.inv_arr(y))]
        assert all(type(g) is int for g in got)
        assert got == [int(w) for w in want]
        # numpy scalars give the same codes, with no int16 overflow
        dt = np.int16 if Q <= 1 << 15 else np.int32
        X, Y = dt(x), dt(y)
        assert [F.add(X, Y), F.sub(X, Y), F.neg(X), F.mul(X, Y)] == got[:4]
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    if case[0] == "tower":      # a code outside the field is refused
        with pytest.raises(IndexError):
            F.mul(Q, 1)
        with pytest.raises(IndexError):
            F.inv(Q)


@pytest.mark.parametrize("q, m", [(3, 5), (2, 8)])
def test_scalar_ops_match_array_ops_on_all_pairs(q, m):
    """Every pair of codes of F_243 (one block of base-3 digits) and F_256
    (the largest tower whose scalar ops index lists): the scalar ops
    return Python ints equal to the array ops."""
    t = make_tower(q, m)
    a, b = np.divmod(np.arange(t.order ** 2), t.order)
    nz = b != 0
    pairs = list(zip(a.tolist(), b.tolist()))
    codes = np.arange(t.order)
    for got, want in [
            ([t.add(x, y) for x, y in pairs], t.add_arr(a, b)),
            ([t.sub(x, y) for x, y in pairs], t.sub_arr(a, b)),
            ([t.mul(x, y) for x, y in pairs], t.mul_arr(a, b)),
            ([t.div(x, y) for x, y in pairs if y],
             t.mul_arr(a[nz], t.inv_arr(b[nz]))),
            ([t.neg(x) for x in codes.tolist()], t.neg_arr(codes)),
            ([t.inv(x) for x in codes[1:].tolist()], t.inv_arr(codes[1:]))]:
        assert all(type(g) is int for g in got)
        assert got == want.tolist()
