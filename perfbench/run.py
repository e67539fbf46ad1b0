"""Exact-sweep benchmark for ranksat.

    python3 perfbench/run.py --workload {coeff-sweep,span-marking,small-exact}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (perfbench/worker.py).  With --trace 0 it
prints the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run.  Every metric is printed on its own line with its unit, and
the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every job returned its known answer.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("coeff-sweep", "span-marking", "small-exact")
SETUP_SAMPLES = 5        # worker processes whose set-up time is measured
DEADLINE_S = 170.0

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# ROADMAP re-anchor baseline (2 cores, Python 3.11.7, numpy 2.4.6),
# printed next to each measurement so the trajectory starts from it.
BASELINE_S = {"verify-coefficient-lifted-6-3": 9.5,
              "verify-geometric-lifted-6-3": 0.18}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".mark_yield", ".overhead")):
        return "ratio"
    return "count"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ranksat",
                                       "__init__.py")):
        print(f"no ranksat sources under {ROOT}/src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res = worker(args, "trace", deadline)
            metrics = {k: (v, layer_unit(k))
                       for k, v in res["layers"].items()}
            correct = res["failed"] == 0 and res["identical"]
        else:
            setups = [worker(args, "setup", deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            res = worker(args, "measure", deadline)
            setups.append(dict(res))
            for key in ("setup_s", "raw_setup_s", "probe_s"):
                res[key] = statistics.median(s[key] for s in setups)
            res["raw"]["setup_s"] = res["raw_setup_s"]
            metrics = {k: (res[k], u) for k, u in END_TO_END_UNITS.items()}
            correct = res["failed"] == 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    provenance = {"nproc": os.cpu_count(), "cpu": cpu_model(),
                  "python": platform.python_version(),
                  "numpy": res["numpy"], "commit": git_commit()}
    print(f"# workload {args.workload} seed {args.seed} "
          f"cycles {res['cycles']} provenance {json.dumps(provenance)}")
    for kind, t in res.get("kind_p50_s", {}).items():
        base = (f" (ROADMAP baseline {BASELINE_S[kind]} s)"
                if kind in BASELINE_S else "")
        print(f"# job {kind} p50 {t:.4f} s{base}")
    if args.trace:
        print(f"# spans {os.path.relpath(res['spans'], ROOT)}")
    else:
        print(f"# job_p50_s samples {res['attempted']}")
        print(f"# host probe {res['probe_s']:.5f} s "
              f"(scaled times assume {res['probe_ref_s']} s)")
        for name, value in res["raw"].items():
            print(f"# unscaled wall-clock {name} {value}")
        print(f"error_rate {res['failed'] / res['attempted']} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
