import ast
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ranksat
from ranksat import (FieldError, QSystem, construct_identity_block,
                     cutting_system_6_3, linear_set, make_tower,
                     saturation_radius, tower_from_json)
from ranksat import interchange as io
from ranksat.cli import build_parser, main
from ranksat.covering import SaturationCertificate
from ranksat.qsystem import random_system


def test_field_json_round_trip(tower9):
    doc = tower9.to_json()
    assert doc == {"q": 3, "m": 2, "modulus_coeffs": [1, 0, 1],
                   "gamma": "polynomial"}
    assert tower_from_json(doc) == tower9


def test_matrix_json_round_trip(tower16, rng):
    A = np.array([[tower16.random_element(rng) for _ in range(4)]
                  for _ in range(2)], dtype=np.int64)
    doc = io.matrix_to_json(tower16, A)
    assert doc["rows"] == 2 and doc["cols"] == 4
    t2, B = io.matrix_from_json(json.loads(json.dumps(doc)))
    assert t2 == tower16
    assert np.array_equal(A, B)


def test_matrix_json_shape_mismatch(tower16):
    doc = io.matrix_to_json(tower16, np.eye(2, dtype=np.int64))
    doc["cols"] = 3
    with pytest.raises(ValueError):
        io.matrix_from_json(doc)


# a digit outside F_2, a coordinate vector shorter than m = 4, a bare
# number in place of a vector, bool and float digits; a dict replaces
# header fields instead: a float q, modulus coefficients that are a
# float or lie outside F_2, entries that are a number or hold a row that
# is not a list, a modulus that is no list; a tuple holds a whole
# document: a top-level array
BAD_DIGITS = [[3, 0, 0, 0], [1, 0], 1, [True, False, False, False],
              [1.0, 0, 0, 0], {"modulus": [1, 1.5, 0, 0, 1]}, {"q": 2.7},
              {"modulus": [1, 3, 0, 0, 1]}, {"modulus": [1, -1, 0, 0, 1]},
              {"entries": 5}, {"entries": [7]}, ([1, 2],),
              {"modulus": "10011"}, {"modulus": 19}]


def _one_entry_doc(digits):
    doc = {"q": 2, "m": 4, "modulus": [1, 1, 0, 0, 1], "rows": 1,
           "cols": 1, "entries": [[[1, 0, 0, 0]]]}
    if isinstance(digits, tuple):
        return digits[0]
    if isinstance(digits, dict):
        return doc | digits
    return doc | {"entries": [[digits]]}


@pytest.mark.parametrize("digits", BAD_DIGITS)
def test_matrix_json_rejects_bad_digits(digits):
    with pytest.raises(ValueError):
        io.matrix_from_json(_one_entry_doc(digits))


def test_linear_set_export_sorted(tower16):
    ls = linear_set(cutting_system_6_3(tower16))
    doc = ls.to_json()
    assert len(doc) == 63
    assert all(entry["weight"] == 1 for entry in doc)
    # stable order: lexicographic on the packed coordinate codes
    q = tower16.base.q
    packed = [tuple(sum(d * q ** i for i, d in enumerate(c))
                    for c in entry["point"]) for entry in doc]
    assert packed == sorted(packed)


def test_certificate_json_round_trip(tower4):
    sysm = construct_identity_block(tower4, 2, 1)
    rho, cert = saturation_radius(sysm)
    doc = json.loads(json.dumps(cert.to_json()))
    replay = SaturationCertificate.from_json(doc)
    assert replay.verify(sysm)


# (q, m) for the JSON round trips: prime and non-prime bases, odd and even
JSON_FIELDS = [(2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (9, 1), (7, 1)]


def _via_text(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(JSON_FIELDS), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_json_round_trips(qm, random_modulus, seed):
    rng = random.Random(seed)
    q, m = qm
    tower = make_tower(q, m)
    while random_modulus:
        try:
            tower = make_tower(q, m, [rng.randrange(q) for _ in range(m)]
                               + [1])
            break
        except FieldError:         # reducible; draw again
            continue
    assert tower_from_json(_via_text(tower.to_json())) == tower
    k = rng.randint(1, 2)
    sysm = random_system(tower, k, rng.randint(k, m * k), rng)
    t2, G = io.matrix_from_json(
        _via_text(io.matrix_to_json(tower, sysm.generator)))
    assert t2 == tower and np.array_equal(G, sysm.generator)
    # linear sets are written only: each point reads back from its digits
    ls = linear_set(sysm)
    doc = _via_text(ls.to_json())
    assert [[tower.from_digits(d) for d in e["point"]] for e in doc] == \
        ls.points.tolist()
    assert [e["weight"] for e in doc] == ls.weights.tolist()
    _, cert = saturation_radius(sysm)
    back = SaturationCertificate.from_json(_via_text(cert.to_json()))
    assert (back.rho, back.k, back.n, back.tightness, back.system_hash) == \
        (cert.rho, cert.k, cert.n, cert.tightness, cert.system_hash)
    assert back.to_json() == cert.to_json()


# ------------------------------------------------------------------- CLI

def _write_system(path, sysm):
    with open(path, "w") as fh:
        json.dump(io.matrix_to_json(sysm.tower, sysm.generator), fh)


def test_cli_verify_match(tmp_path, tower4):
    p = tmp_path / "sys.json"
    _write_system(p, construct_identity_block(tower4, 3, 2))
    cert = tmp_path / "out.cert.json"
    code = main(["verify", str(p), "--rho", "2",
                 "--certificate", str(cert)])
    assert code == 0
    data = json.loads(cert.read_text())
    assert data["measured_rho"] == 2 and data["claimed_rho"] == 2


def test_cli_verify_wrong_claim(tmp_path, tower4):
    p = tmp_path / "sys.json"
    _write_system(p, construct_identity_block(tower4, 3, 2))
    assert main(["verify", str(p), "--rho", "1"]) == 1


def test_cli_verify_parse_failure(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["verify", str(p), "--rho", "1"]) == 2


@pytest.mark.parametrize("digits", BAD_DIGITS)
def test_cli_verify_rejects_bad_digits(tmp_path, digits):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_one_entry_doc(digits)))
    assert main(["verify", str(p), "--rho", "1"]) == 2


def test_cli_verify_budget_refusal(tmp_path, tower4):
    p = tmp_path / "sys.json"
    _write_system(p, construct_identity_block(tower4, 3, 2))
    assert main(["verify", str(p), "--rho", "2", "--budget", "10"]) == 3


@pytest.mark.parametrize("budget,level,coverage", [(10, -1, 0.0),
                                                   (30, 1, 0.625)])
def test_cli_verify_geometric_refusal_names_its_level(tmp_path, tower4,
                                                      capsys, budget, level,
                                                      coverage):
    # PG(2, 4) has 21 points; level 1 is the 16 vectors of U and level 2
    # the 78 pairs of its 13 points, 40 of the 64 targets covered by then
    p = tmp_path / "sys.json"
    _write_system(p, construct_identity_block(tower4, 3, 2))
    assert main(["verify", str(p), "--rho", "2", "--method", "geometric",
                 "--budget", str(budget)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[1] == f"largest completed level: {level}, coverage: {coverage}"


def test_cli_verify_unwritable_certificate(tmp_path, tower4, capsys):
    # a certificate that cannot be written is not a claim that fails (1)
    p = tmp_path / "sys.json"
    _write_system(p, construct_identity_block(tower4, 3, 2))
    assert main(["verify", str(p), "--rho", "1", "--certificate",
                 str(tmp_path / "missing" / "c.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (err.startswith("cannot write certificate: ")
            and err.count("\n") == 1)


def test_cli_geometric_certificate_verifies(tmp_path, tower4):
    # both methods write one certificate, byte for byte: on the [3,2]
    # block (radius 1) the first point missed and the least packed target
    # missed differ, so a route with its own tightness rule shows
    for k, rho in [(3, 2), (2, 1)]:
        sysm = construct_identity_block(tower4, k, rho)
        p = tmp_path / f"sys{k}.json"
        _write_system(p, sysm)
        cert, coeff = tmp_path / f"geo{k}.json", tmp_path / f"coeff{k}.json"
        for method, path in [("geometric", cert), ("coefficient", coeff)]:
            assert main(["verify", str(p), "--rho", str(rho), "--method",
                         method, "--certificate", str(path)]) == 0
        data = json.loads(cert.read_text())
        assert data["tightness"] is not None
        assert SaturationCertificate.from_json(data).verify(sysm)
        assert coeff.read_bytes() == cert.read_bytes()


def test_cli_construct_verify_round_trip(tmp_path):
    out = tmp_path / "m.json"
    assert main(["construct", "--family", "identity-block", "--q", "2",
                 "--m", "2", "--k", "3", "--rho", "2",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out), "--rho", "2"]) == 0


def test_cli_construct_example_58_lifted(tmp_path):
    out = tmp_path / "m58.json"
    assert main(["construct", "--family", "example-5.8", "--lift-m", "8",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out), "--rho", "2",
                 "--method", "geometric"]) == 0


def test_cli_construct_fsum(tmp_path):
    left = tmp_path / "a.json"
    right = tmp_path / "b.json"
    t = make_tower(2, 2)
    _write_system(left, QSystem(t, np.eye(2, dtype=np.int64)))
    _write_system(right, QSystem(t, np.eye(1, dtype=np.int64)))
    out = tmp_path / "sum.json"
    assert main(["construct", "--family", "f-sum", "--left", str(left),
                 "--right", str(right), "--out", str(out)]) == 0
    _, A = io.matrix_from_json(json.loads(out.read_text()))
    assert A.shape == (3, 3)


def test_cli_bounds_formats(capsys):
    assert main(["bounds", "--q", "2", "--m", "4", "--kmax", "4",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q,m,k,rho,lower")
    assert main(["bounds", "--q", "2", "--m", "4", "--kmax", "3",
                 "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| q | m |")
    assert main(["bounds", "--q", "2", "--m", "4", "--kmax", "3",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["lower"] <= r["upper"] for r in rows)


def test_cli_bounds_verify_paper(capsys):
    assert main(["bounds", "--verify-paper"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bounds", "--q", "6"], ["bounds", "--q", "1"], ["bounds", "--m", "0"],
    ["bounds", "--rhomax", "0"],
    ["search", "--q", "6", "--k", "2", "--rho", "1"],
    ["search", "--q", "1031", "--m", "1", "--k", "1", "--rho", "1"],
    ["search", "--q", "2", "--m", "30", "--k", "2", "--rho", "1"],
    ["construct", "--family", "identity-block", "--q", "6"],
    ["construct", "--family", "identity-block", "--k", "2", "--rho", "5"],
    ["construct", "--family", "rho1", "--v", "1,x"],
    ["construct", "--family", "f-sum", "--left", "/nonexistent"],
    ["construct", "--family", "f-sum", "--right", "SYS"],
    ["construct", "--family", "f-sum", "--left", "SYS"],
    ["construct", "--family", "example-5.8", "--lift-m", "0"],
    ["construct", "--family", "rho1", "--k", "0"],
    *(["construct", "--family", "rho1", "--q", "2", "--m", "2", "--k", "2",
       *v] for v in (["--v=-1,1", "--v-prime", "1,0"],
                     ["--v=9,1", "--v-prime", "1,0"], ["--v-prime=-1,0"],
                     ["--v-prime=9,1"])),
    ["construct", "--family", "identity-block", "--out",
     "/nonexistent/x.json"]],
    ids=["bounds-q6", "bounds-q1", "bounds-m0", "bounds-rhomax0",
         "search-q6", "search-q1031", "search-q2-m30", "construct-q6",
         "construct-rho5", "construct-bad-v", "construct-missing-left",
         "construct-f-sum-no-left", "construct-f-sum-no-right",
         "construct-lift-m0",
         "construct-k0", "construct-v-negative", "construct-v-Q",
         "construct-v-prime-negative", "construct-v-prime-Q",
         "construct-out-missing-dir"])
def test_cli_rejects_invalid_parameters(capsys, tmp_path, argv):
    if "SYS" in argv:       # a readable system file
        p = tmp_path / "sys.json"
        _write_system(p, QSystem(make_tower(2, 2), np.eye(1, dtype=np.int64)))
        argv = [str(p) if a == "SYS" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,rho,n", [
    (["--q", "2", "--m", "2", "--k", "2", "--rho", "1", "--mode",
      "exhaustive"], 1, 3),
    (["--q", "2", "--m", "2", "--k", "2", "--rho", "2"], 2, 2),
    (["--q", "3", "--m", "2", "--k", "2", "--rho", "1", "--mode",
      "exhaustive"], 1, 3)],
    ids=["q2-rho1", "q2-rho2-default-mode", "perfbench-3-2-2-1"])
def test_cli_search_exhaustive(capsys, argv, rho, n):
    """The last case is the command line of perfbench's `search_job`."""
    assert main(["search"] + argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "exhaustive"
    assert data["n"] == n and data["minimal"] is True
    t, A = io.matrix_from_json(data["matrix"])
    assert A.shape == (2, n)
    assert saturation_radius(QSystem(t, A))[0] <= rho


def test_cli_search_budget_refusal(capsys):
    """n = 5 at (2, 3, 3, 1) needs [6 2]_2 = 651 subspaces > 600."""
    assert main(["search", "--q", "2", "--m", "3", "--k", "3", "--rho", "1",
                 "--budget", "600"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("budget refusal: ") and "651 subspaces" in err


@pytest.mark.parametrize("argv", [
    ["search", "--k", "2", "--rho", "1", "--mode", "random"],
    ["search", "--k", "2", "--rho", "1", "--samples", "5"],
    ["search", "--k", "2", "--rho", "1", "--seed", "1"],
    ["search", "--k", "2", "--rho", "1", "--modulus", "1,1,1"],
    ["search", "--k", "2", "--rho", "1", "--format", "csv"],
    ["verify", "x.json", "--rho", "1", "--format", "csv"],
    ["construct", "--family", "rho1", "--budget", "10"],
    ["bounds", "--budget", "10"],
    ["examples", "--format", "csv"]],
    ids=["search-mode-random", "search-samples", "search-seed",
         "search-modulus", "search-format", "verify-format",
         "construct-budget", "bounds-budget", "examples-format"])
def test_cli_rejects_flags_no_subcommand_reads(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_examples_filter(capsys):
    assert main(["examples", "gabidulin-4-2"]) == 0
    out = capsys.readouterr().out
    assert "PASS gabidulin-4-2" in out


def test_cli_examples_unknown_name(capsys):
    assert main(["examples", "no-such-scenario"]) == 0
    err = capsys.readouterr().err
    assert "warning" in err


def test_cli_examples_full_suite(capsys):
    # empty filter runs every scenario
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    from ranksat.scenarios import SCENARIOS
    assert f"{len(SCENARIOS)}/{len(SCENARIOS)} scenarios passed" in out


def _child(cmd, timeout):
    """Run `cmd` in a child process that imports the package these tests
    import, and fail once it has run `timeout` seconds."""
    src = os.path.dirname(os.path.dirname(ranksat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path))


def test_console_script_entry_point():
    # the installed console script, or the same entry point run as a
    # module when the package is used from a source checkout
    exe = shutil.which("ranksat")
    cmd = [exe] if exe else [sys.executable, "-m", "ranksat.cli"]
    out = _child(cmd + ["examples", "gabidulin-4-2"], 120)
    assert out.returncode == 0
    assert "PASS gabidulin-4-2" in out.stdout


@pytest.mark.parametrize("modulus", ["1,3,1", "1,-1,1"])
def test_cli_construct_refuses_coefficients_outside_fq(modulus):
    # make_tower(2, 2, [1, 3, 1]) looped forever in the irreducibility
    # test, so the call runs in a child with a timeout
    out = _child([sys.executable, "-m", "ranksat.cli", "construct",
                  "--family", "identity-block", "--q", "2", "--m", "2",
                  "--k", "2", "--rho", "1", "--modulus", modulus], 60)
    assert out.returncode == 2 and out.stdout == ""
    assert (out.stderr.startswith("invalid parameters: ")
            and out.stderr.count("\n") == 1)


def test_cli_main_reuses_its_parser(tmp_path, tower4, capsys):
    """One process, three verifies: good, malformed, good again.  The
    parser is built once, and the two good calls print the same line,
    exit the same way and write the same certificate bytes."""
    good, bad = tmp_path / "sys.json", tmp_path / "bad.json"
    _write_system(good, construct_identity_block(tower4, 3, 2))
    bad.write_text(json.dumps(_one_entry_doc([3, 0, 0, 0])))
    cert = tmp_path / "out.cert.json"
    argv = ["verify", str(good), "--rho", "2", "--certificate", str(cert)]
    runs = []
    for args in (argv, ["verify", str(bad), "--rho", "1"], argv):
        code = main(args)
        out = capsys.readouterr().out
        runs.append((code, out, cert.read_bytes()))
    assert [code for code, _, _ in runs] == [0, 2, 0]
    assert runs[0] == runs[2]
    assert build_parser() is build_parser()


def test_package_has_no_assert_statements():
    """`python -O` strips `assert`, so no check in the package may be one:
    every result guard raises explicitly."""
    found = [(path.name, node.lineno)
             for path in sorted(Path(ranksat.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


# the public names deleted because only tests reached them, by module
DELETED = {"gftower": ["ComplementBasis", "project"],
           "linalg": ["SubspaceFq", "rank_support", "dual"],
           "fqlinalg": ["inv"],
           "interchange": ["linear_set_to_json", "spectrum_to_csv"]}


def test_exports_resolve_once_and_omit_deleted_names():
    names = ranksat.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(ranksat, name) for name in names)
    for module, deleted in DELETED.items():
        for name in deleted:
            assert name not in names
            assert not hasattr(getattr(ranksat, module), name), name
    for method in ("complement_basis", "random_complement_basis"):
        assert not hasattr(ranksat.FieldTower, method)
    assert not hasattr(ranksat.LinearSet, "max_size")
