import json

import numpy as np
import pytest

from ranksat import (QSystem, construct_identity_block, cutting_system_6_3,
                     gabidulin, linear_set, make_tower, saturation_radius,
                     tower_from_json, weight_spectrum)
from ranksat import interchange as io
from ranksat.cli import main
from ranksat.covering import SaturationCertificate


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
# header fields instead: a float q, and modulus coefficients that are a
# float or lie outside F_2
BAD_DIGITS = [[3, 0, 0, 0], [1, 0], 1, [True, False, False, False],
              [1.0, 0, 0, 0], {"modulus": [1, 1.5, 0, 0, 1]}, {"q": 2.7},
              {"modulus": [1, 3, 0, 0, 1]}, {"modulus": [1, -1, 0, 0, 1]}]


def _one_entry_doc(digits):
    doc = {"q": 2, "m": 4, "modulus": [1, 1, 0, 0, 1], "rows": 1,
           "cols": 1, "entries": [[[1, 0, 0, 0]]]}
    if isinstance(digits, dict):
        return doc | digits
    return doc | {"entries": [[digits]]}


@pytest.mark.parametrize("digits", BAD_DIGITS)
def test_matrix_json_rejects_bad_digits(digits):
    with pytest.raises(ValueError):
        io.matrix_from_json(_one_entry_doc(digits))


def test_linear_set_export_sorted(tower16):
    ls = linear_set(cutting_system_6_3(tower16))
    doc = io.linear_set_to_json(ls)
    assert len(doc) == 63
    assert all(entry["weight"] == 1 for entry in doc)
    # stable order: lexicographic on the packed coordinate codes
    q = tower16.base.q
    packed = [tuple(sum(d * q ** i for i, d in enumerate(c))
                    for c in entry["point"]) for entry in doc]
    assert packed == sorted(packed)


def test_spectrum_csv(tower16):
    spec = weight_spectrum(gabidulin(tower16, 4, 2, 1))
    text = io.spectrum_to_csv(spec)
    assert text.splitlines()[0] == "rank_weight"
    assert [int(x) for x in text.splitlines()[1:]] == sorted(spec)


def test_certificate_json_round_trip(tower4):
    sysm = construct_identity_block(tower4, 2, 1)
    rho, cert = saturation_radius(sysm)
    doc = json.loads(json.dumps(cert.to_json()))
    replay = SaturationCertificate.from_json(doc, tower4)
    assert replay.verify(sysm)


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


def test_cli_geometric_certificate_verifies(tmp_path, tower4):
    sysm = construct_identity_block(tower4, 3, 2)
    p = tmp_path / "sys.json"
    _write_system(p, sysm)
    cert = tmp_path / "geo.cert.json"
    assert main(["verify", str(p), "--rho", "2", "--method", "geometric",
                 "--certificate", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["tightness"] is not None
    assert SaturationCertificate.from_json(data, tower4).verify(sysm)


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


def test_cli_search_exhaustive(capsys):
    assert main(["search", "--q", "2", "--m", "2", "--k", "2", "--rho", "1",
                 "--mode", "exhaustive"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3 and data["minimal"] is True
    t, A = io.matrix_from_json(data["matrix"])
    assert saturation_radius(QSystem(t, A))[0] <= 1
    assert main(["search", "--q", "2", "--m", "2", "--k", "2",
                 "--rho", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    _, A = io.matrix_from_json(data["matrix"])
    assert A.shape == (2, 2)


def test_cli_search_randomized_witness(capsys):
    assert main(["search", "--q", "2", "--m", "2", "--k", "2", "--rho", "1",
                 "--mode", "random", "--samples", "20", "--seed", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "randomized"
    if data["n"] is not None:
        t, A = io.matrix_from_json(data["matrix"])
        rho, _ = saturation_radius(QSystem(t, A))
        assert rho <= 1


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


def test_console_script_entry_point():
    # the installed console script, or the same entry point run as a
    # module when the package is used from a source checkout
    import shutil
    import subprocess
    import sys
    exe = shutil.which("ranksat")
    cmd = [exe] if exe else [sys.executable, "-m", "ranksat.cli"]
    out = subprocess.run(cmd + ["examples", "gabidulin-4-2"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "PASS gabidulin-4-2" in out.stdout
