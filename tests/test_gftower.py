import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ranksat
from ranksat import FieldError, collapse, expand, make_tower, tower_from_json
from ranksat.gftower import (LIST_TABLE_ORDER, TOWER_CACHE_SIZE, FieldTower,
                             SmallField, _cached_tower)

from oracles import frobenius_arr, schoolbook_mul


def test_default_modulus_is_golden(tower16):
    # first irreducible quartic over F_2 in code order is x^4 + x + 1,
    # so a^4 = a + 1 holds without passing a modulus
    t = make_tower(2, 4)
    assert t.modulus == (1, 1, 0, 0, 1)
    a = t.alpha
    assert t.pow(a, 4) == t.add(a, 1)
    assert t == tower16


def test_degenerate_extension():
    t = make_tower(2, 1)
    assert t.order == 2
    assert t.add(1, 1) == 0
    assert t.mul(1, 1) == 1


def test_modulus_root_check_f3(tower9):
    # x^2 + 1 has no root mod 3, so the tower is accepted
    assert all((c * c + 1) % 3 != 0 for c in range(3))
    assert tower9.order == 9


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError, match="degree 1"):
        make_tower(2, 4, [1, 0, 0, 0, 1])       # x^4 + 1 = (x+1)^4
    with pytest.raises(FieldError, match="degree 2"):
        make_tower(2, 4, [1, 0, 1, 0, 1])       # (x^2 + x + 1)^2


def test_non_prime_power_rejected():
    with pytest.raises(FieldError, match="prime power"):
        make_tower(6, 2)


def test_field_axioms_exhaustive(tower16, tower9):
    for t in (tower16, tower9):
        for a in t.elements():
            for b in t.elements():
                assert t.mul(a, b) == t.mul(b, a)
                assert t.add(a, b) == t.add(b, a)
                assert t.sub(t.add(a, b), b) == a
                if b:
                    assert t.mul(t.div(a, b), b) == a


def test_distributivity_sampled(tower16, rng):
    t = tower16
    for _ in range(500):
        a, b, c = (t.random_element(rng) for _ in range(3))
        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))


def test_expand_zero(tower16):
    assert not expand([0, 0, 0], tower16).any()


def test_expand_basis_vector(tower16):
    assert expand([tower16.alpha], tower16).tolist() == [[0, 1, 0, 0]]


def test_expand_alpha4_reduces(tower16):
    # a^4 = a + 1 -> coordinates (1, 1, 0, 0)
    row = expand([tower16.pow(tower16.alpha, 4)], tower16)
    assert row.tolist() == [[1, 1, 0, 0]]


def test_expand_is_linear(tower16, rng):
    t = tower16
    for _ in range(200):
        a = np.array([t.random_element(rng) for _ in range(3)])
        b = np.array([t.random_element(rng) for _ in range(3)])
        lhs = expand(t.add_arr(a, b), t)
        rhs = (expand(a, t) + expand(b, t)) % 2
        assert np.array_equal(lhs, rhs)


def test_expand_collapse_roundtrip(tower16, tower9, rng):
    for t in (tower16, tower9):
        v = np.array([t.random_element(rng) for _ in range(6)])
        assert np.array_equal(collapse(expand(v, t), t), v)


def test_expand_rejects_foreign_entries(tower4):
    with pytest.raises(FieldError):
        expand([7], tower4)


@pytest.mark.parametrize("q,m", [(2, 4), (2, 8), (3, 3), (4, 2), (2, 16)])
def test_frobenius_fixes_exactly_base_field(q, m):
    t = make_tower(q, m)
    idx = np.arange(t.order, dtype=np.int64)
    fixed = idx[frobenius_arr(t, idx, 1) == idx]
    assert fixed.tolist() == list(range(q))


@pytest.mark.parametrize("q,m", [(2, 6), (3, 3), (4, 2)])
def test_frobenius_is_additive(q, m):
    t = make_tower(q, m)
    idx = np.arange(t.order, dtype=np.int64)
    fa = frobenius_arr(t, idx, 1)
    for b in range(0, t.order, max(1, t.order // 17)):
        s = t.add_arr(idx, b)
        assert np.array_equal(frobenius_arr(t, s, 1),
                              t.add_arr(fa, int(fa[b])))


@pytest.mark.parametrize("q,m,tt", [(2, 4, 2), (2, 8, 4), (3, 4, 2),
                                    (4, 2, 1), (2, 6, 3), (2, 16, 8)])
def test_subfield_embedding_respects_operations(q, m, tt):
    # exhaustive up to subfield order 2^8
    t = make_tower(q, m)
    emb = t.subfield(tt)
    sub = emb.sub_tower
    assert len(set(int(x) for x in emb.embed_table)) == q ** tt
    for a in sub.elements():
        for b in sub.elements():
            assert emb.embed(sub.mul(a, b)) == t.mul(emb.embed(a),
                                                     emb.embed(b))
            assert emb.embed(sub.add(a, b)) == t.add(emb.embed(a),
                                                     emb.embed(b))


def test_subfield_closed_under_operations(tower256):
    emb = tower256.subfield(4)
    members = [int(x) for x in emb.embed_table]
    mem = set(members)
    for a in members[:64]:
        for b in members[:64]:
            assert tower256.add(a, b) in mem
            assert tower256.mul(a, b) in mem


def test_tower_json_roundtrip(tower9):
    from ranksat import tower_from_json
    assert tower_from_json(tower9.to_json()) == tower9


def test_small_field_tables():
    f4 = SmallField(4)
    assert f4.add(2, 3) == 1            # y + (y+1) = 1
    assert f4.mul(2, 2) == 3            # y^2 = y + 1
    f9 = SmallField(9)
    nonzero = [a for a in f9.elements() if a]
    assert sorted(f9.mul(a, f9.inv(a)) for a in nonzero) == [1] * 8


@pytest.mark.parametrize("q,m", [(5, 2), (8, 2), (9, 2)])
def test_exotic_base_towers_consistent(q, m):
    # table arithmetic must agree with schoolbook polynomials and with
    # digit-wise base-field addition, exhaustively
    t = make_tower(q, m)
    base = t.base
    for a in t.elements():
        da = t.digits(a)
        for b in t.elements():
            assert t.mul(a, b) == schoolbook_mul(t, a, b)
            db = t.digits(b)
            s = t.from_digits([base.add(x, y) for x, y in zip(da, db)])
            assert t.add(a, b) == s
    arr = np.arange(t.order, dtype=np.int64)
    rolled = np.roll(arr, t.order // 3)
    assert all(int(t.add_arr(arr, rolled)[i]) == t.add(int(arr[i]),
                                                       int(rolled[i]))
               for i in range(t.order))
    assert all(int(t.mul_arr(arr, rolled)[i]) == t.mul(int(arr[i]),
                                                       int(rolled[i]))
               for i in range(t.order))


@pytest.mark.parametrize("q,m", [(3, 3), (5, 2), (9, 2)])
def test_odd_sub_arr_is_add_of_negation(q, m):
    t = make_tower(q, m)
    A, B = np.meshgrid(np.arange(t.order), np.arange(t.order))
    assert np.array_equal(t.sub_arr(A, B), t.add_arr(A, t.neg_arr(B)))


# -- make_tower: one shared, read-only tower per field and process ------------

def test_make_tower_shares_one_object_per_modulus():
    mod = [1, 1, 0, 0, 1]
    t = make_tower(2, 4, mod)
    assert make_tower(2, 4, tuple(mod)) is t
    assert make_tower(2, 4, np.array(mod)) is t
    assert make_tower(np.int64(2), 4, np.array(mod, dtype=np.int16)) is t
    other = make_tower(2, 4, [1, 0, 0, 1, 1])       # x^4 + x^3 + 1
    assert other is not t and other != t
    assert other.modulus == (1, 0, 0, 1, 1)


def test_default_modulus_is_the_same_cache_entry():
    """None resolves to the first irreducible before the cache, so
    make_tower(q, m) and make_tower(q, m, <that modulus>) are one entry,
    built once, and a subfield's tower is the tower make_tower returns."""
    before = _cached_tower.cache_info()
    t = make_tower(7, 3)
    assert make_tower(7, 3, list(t.modulus)) is t
    after = _cached_tower.cache_info()
    assert after.misses - before.misses <= 1
    sub = make_tower(2, 6).subfield(3).sub_tower
    assert sub is make_tower(2, 3) is make_tower(2, 3, sub.modulus)
    # refusals as before: m < 1 and q^m past the table limit reach
    # FieldTower unresolved, and a bad q fails in SmallField
    with pytest.raises(FieldError, match="extension degree must be >= 1"):
        make_tower(2, 0)
    with pytest.raises(FieldError, match="field order must be >= 2"):
        make_tower(1, 3)
    with pytest.raises(FieldError, match="exceeds table limit"):
        make_tower(1021, 3)


def test_make_tower_caches_no_failure():
    before = _cached_tower.cache_info()
    for _ in range(2):
        with pytest.raises(FieldError, match="reducible"):
            make_tower(2, 4, [1, 0, 0, 0, 1])
    after = _cached_tower.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


@pytest.mark.parametrize("q,m,modulus", [
    (2.7, 4, None), (2, 4.9, None), (True, 4, None), (2, True, None),
    (2, 4, [1, 1.5, 0, 0, 1]), (2, 4, [1, True, 0, 0, 1]), (2, 2, [2, 0, 1]),
    (2, 4, "10011")])
def test_make_tower_refuses_what_it_would_truncate(q, m, modulus):
    # a float, a bool or a string would be read as another field, and a
    # coefficient outside F_q is no polynomial over F_q (coefficients that
    # loop the irreducibility test are in test_interfaces, in a child)
    with pytest.raises(FieldError, match="must be integers"):
        make_tower(q, m, modulus)
    with pytest.raises(FieldError, match="must be integers"):
        tower_from_json({"q": q, "m": m, "modulus_coeffs": modulus})


def test_shared_tables_are_read_only(tower16):
    sub = tower16.subfield(2)
    for table in (tower16._exp, tower16._log, tower16._inv_table,
                  tower16._qpow, tower16.digit_table(), sub.embed_table,
                  sub.member_mask):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    assert tower16.mul(2, 3) == schoolbook_mul(tower16, 2, 3)


def test_large_tower_scalar_ops_copy_no_table():
    """Above LIST_TABLE_ORDER the scalar ops read the tables in place:
    an F_{2^16} tower (3 MB of int64 tables) and one mul and one inv stay
    under 4 MB, where list copies of its tables would add ~11 MB.  The
    build peaks at most 0.75 MiB above its 3 MiB of tables (one map over
    all codes is 0.5 MiB): the doubling pass holds no such map, and the
    inverse table is one scatter of views of exp.  The tower is built
    outside the cache, so it is measured whole."""
    assert 2 ** 16 > LIST_TABLE_ORDER
    tracemalloc.start()
    try:
        t = FieldTower(2, 16)
        assert t.mul(t.inv(3), 3) == 1
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 4 << 20, current
    assert peak <= 3.75 * (1 << 20), peak


def test_subfield_is_one_cache_entry_per_sub_field():
    """subfield(t) and subfield(t, <its default modulus>) are one entry,
    built once; another sub-field modulus is an entry of its own."""
    t = make_tower(2, 8)
    emb = t.subfield(4, [1, 1, 0, 0, 1])
    assert t.subfield(4, (1, 1, 0, 0, 1)) is emb is t.subfield(4)
    other = t.subfield(4, [1, 0, 0, 1, 1])
    assert t.subfield(4, [1, 0, 0, 1, 1]) is other is not emb
    assert other.sub_tower.modulus == (1, 0, 0, 1, 1)


def test_tower_cache_stays_within_its_bound():
    # F_37 = F_37[x]/(x + a) for TOWER_CACHE_SIZE + 5 values of a
    mods = [[a, 1] for a in range(TOWER_CACHE_SIZE + 5)]
    first = make_tower(37, 1, mods[0])
    for mod in mods[1:]:
        make_tower(37, 1, mod)
    info = _cached_tower.cache_info()
    assert info.maxsize == TOWER_CACHE_SIZE
    assert info.currsize == TOWER_CACHE_SIZE
    last = make_tower(37, 1, mods[-1])
    assert make_tower(37, 1, mods[-1]) is last
    evicted = make_tower(37, 1, mods[0])           # least recently used
    assert evicted is not first and evicted == first


def test_field_tower_is_built_only_by_make_tower():
    """`FieldTower(...)` is called in one place in the package, the cached
    factory behind `make_tower`, so no second construction path can hand
    out an unshared tower."""
    calls, factory = [], None
    for path in sorted(Path(ranksat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "FieldTower" in (
                    getattr(f, "id", None), getattr(f, "attr", None)):
                calls.append((path.name, node.lineno))
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "_cached_tower"):
                factory = (path.name, node.lineno, node.end_lineno)
    assert factory is not None and len(calls) == 1
    (name, line), = calls
    assert name == factory[0] and factory[1] <= line <= factory[2], calls


def test_package_imports_only_at_module_level():
    """No function in the package holds an import statement, and
    `fqlinalg` imports nothing from the package, so the modules import
    one another at the top with no cycle to defer."""
    local, cyclic = set(), []
    for path in sorted(Path(ranksat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {(path.name, node.lineno) for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
        if path.name == "fqlinalg.py":
            cyclic = [node.lineno for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and (
                          node.level or node.module.startswith("ranksat"))
                      or isinstance(node, ast.Import) and any(
                          a.name.startswith("ranksat") for a in node.names)]
    assert not local and not cyclic, (sorted(local), cyclic)
