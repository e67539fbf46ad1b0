"""Self-tests of the benchmark itself (not of ranksat).

    python3 -m pytest -q perfbench

They take about two minutes: the held-out-seed check runs every workload
cycle twice.  Scratch files go under .bench_build/ in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, coefficient_cells  # noqa: E402
from worker import run_cycles  # noqa: E402

from ranksat import covering, linalg  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


@pytest.fixture()
def workdir(request):
    path = os.path.join(ROOT, ".bench_build", "perfbench", "selftest",
                        request.node.name)
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def traced(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_cycles(jobs, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    return result, tracer.metrics(1)


def job(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def test_lifted_6_3_counts_match_closed_forms(workdir):
    jobs = workloads.build("coeff-sweep", DEFAULT_SEED, workdir)
    result, m = traced([job(jobs, "verify-coefficient-lifted-6-3")])
    assert result["failed"] == 0
    # [6 1]_2 + [6 2]_2 RREF bases, and 1 + 63*256 + 651*256^2 cells
    assert m["fqlinalg.rref_subspaces.matrices"] == 63 + 651 == 714
    assert m["covering.saturation_radius.cells"] == 42_680_065
    assert m["covering.saturation_radius.calls"] == 1
    assert m["covering.saturation_radius.mark_yield"] == 256 ** 3 / 42_680_065
    assert m["cli.main.calls"] == 1
    assert m["interchange.matrix_from_json.calls"] == 1
    assert m["qsystem.PointIndexer.canonicalize.calls"] == 0


def test_mark_yield_matches_formula(workdir):
    jobs = workloads.build("small-exact", DEFAULT_SEED, workdir)
    result, m = traced([job(jobs, "four-route-f4")])
    assert result["failed"] == 0
    targets = cells = 0
    for G, rho in workloads.F4_SYSTEMS:
        k, n = len(G), len(G[0])
        targets += 4 ** k
        cells += coefficient_cells(n, 2, 4, rho)
    assert m["covering.saturation_radius.cells"] == cells
    assert m["covering.saturation_radius.mark_yield"] == targets / cells


def test_tracer_restores_every_binding(workdir):
    before = (covering.ext_matmul, linalg.ext_matmul,
              covering.saturation_radius)
    tracer = Tracer()
    tracer.install()
    assert covering.ext_matmul is linalg.ext_matmul
    assert covering.ext_matmul is not before[0]
    tracer.uninstall()
    assert (covering.ext_matmul, linalg.ext_matmul,
            covering.saturation_radius) == before


def test_tracing_does_not_change_outputs(workdir):
    jobs = workloads.build("small-exact", DEFAULT_SEED, workdir)
    on, _ = traced(jobs)
    off = run_cycles(jobs, cycles=1)
    assert on["failed"] == off["failed"] == 0
    assert (json.dumps(on["outputs"], sort_keys=True)
            == json.dumps(off["outputs"], sort_keys=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_gives_same_answers_and_cells(workload, workdir):
    per_seed = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        path = os.path.join(workdir, str(seed))
        os.makedirs(path)
        jobs = workloads.build(workload, seed, path)
        result, m = traced(jobs)
        assert result["failed"] == 0
        per_seed.append(([o["answer"] for o in result["outputs"]],
                         m["covering.saturation_radius.cells"]))
    assert per_seed[0] == per_seed[1]


def test_seed_changes_inputs(workdir):
    a = workloads.gl_image(workloads.F27_6_3, workloads.tower(workloads.F27),
                           workloads._rng(DEFAULT_SEED, "x"))
    b = workloads.gl_image(workloads.F27_6_3, workloads.tower(workloads.F27),
                           workloads._rng(HELD_OUT_SEED, "x"))
    c = workloads.gl_image(workloads.F27_6_3, workloads.tower(workloads.F27),
                           workloads._rng(DEFAULT_SEED, "x"))
    assert (a != b).any()
    assert (a == c).all()


def test_fails_without_sources(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
