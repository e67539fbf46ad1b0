"""One workload in one fresh process: set up, run job cycles, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace}

Prints one JSON object as its last line.  `run.py` starts it; the
process must be fresh so that set-up time includes imports and peak
memory is the workload's own.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import ranksat  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")


def run_job(job, tracer=None, job_id=""):
    """Run one job; returns (seconds, output, ok).  Any exception,
    BudgetExceeded included, makes the job fail."""
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - start, {"error": repr(exc)}, False
    elapsed = time.perf_counter() - start
    return elapsed, out, out["answer"] == job.expected


class HostProbe:
    """Fixed reference work that does not touch ranksat: table gathers on
    64K-element chunks, like the field kernels, and many numpy calls on
    tiny arrays, like the row reductions.  Shared hosts run the same code
    up to twice as slowly for seconds at a time; timing this probe next to
    each job measures that host speed, and `scale` converts a wall time
    into seconds on a host where the probe takes REF_S."""

    REF_S = 0.025
    CHUNK = 1 << 16

    def __init__(self):
        rng = np.random.default_rng(20240817)
        self.exp = rng.integers(0, 255, 1024)
        self.log = rng.integers(0, 511, 256)
        self.a = rng.integers(0, 256, 1 << 19, dtype=np.uint8)
        self.b = rng.integers(0, 256, 1 << 19, dtype=np.uint8)
        self.rows = rng.integers(0, 16, (4, 8)).astype(np.int16)
        self.add = rng.integers(0, 16, (16, 16)).astype(np.int16)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            for lo in range(0, self.a.size, self.CHUNK):
                a = self.a[lo:lo + self.CHUNK]
                b = self.b[lo:lo + self.CHUNK]
                out = self.exp[self.log[a] + self.log[b]]
                np.where((a == 0) | (b == 0), 0, out)
        R = self.rows.copy()
        for i in range(2400):
            np.nonzero(R[:, i & 7])
            R[i & 3] = self.add[R[i & 3], R[(i + 1) & 3]]
        return time.perf_counter() - start

    def scale(self, probe_s: float) -> float:
        return self.REF_S / probe_s


def run_cycles(jobs, seconds=None, cycles=None, tracer=None, probe=None):
    """Run whole cycles over `jobs` until `seconds` have passed (at least
    one cycle) or exactly `cycles` cycles.  Every cycle runs each job kind
    once, so the job mix is the same in every run.  With a probe, each
    job's wall time is also scaled by the mean of the probes just before
    and after it (`scaled`); probe time is not part of `wall`."""
    times, scaled, outputs, failed = [], [], [], 0
    per_kind: dict[str, list[float]] = {j.kind: [] for j in jobs}
    wall = 0.0
    before = probe() if probe else None
    start = time.perf_counter()
    done = 0
    while True:
        for job in jobs:
            dt, out, ok = run_job(job, tracer, f"{done}:{job.kind}")
            wall += dt
            times.append(dt)
            if probe:
                after = probe()
                scaled.append(dt * probe.scale((before + after) / 2))
                before = after
            per_kind[job.kind].append(dt)
            outputs.append(out)
            failed += not ok
            if not ok:
                print(f"FAILED {job.kind}: {json.dumps(out)[:500]}",
                      file=sys.stderr)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return {"cycles": done, "times": times, "scaled": scaled,
            "outputs": outputs, "failed": failed, "wall": wall,
            "per_kind": per_kind}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"],
                    required=True)
    args = ap.parse_args()
    if not os.path.abspath(ranksat.__file__).startswith(SRC + os.sep):
        print(f"ranksat imported from {ranksat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        probe = HostProbe()
        host = statistics.median(probe() for _ in range(3))
        result = {"setup_s": setup_s * probe.scale(host),
                  "raw_setup_s": setup_s, "probe_s": host,
                  "probe_ref_s": probe.REF_S,
                  "numpy": np.__version__}
        if args.mode == "measure":
            result.update(measure(jobs, args.seconds, probe))
        elif args.mode == "trace":
            spans = os.path.join(
                WORK_ROOT, f"spans-{args.workload}-{args.seed}.tsv.gz")
            result.update(trace(jobs, args.seconds, spans))
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(jobs, seconds, probe):
    """End-to-end figures in probe-scaled seconds (see HostProbe), with
    the raw wall-clock figures alongside.  Throughput counts correct jobs
    over the summed job times of the run."""
    r = run_cycles(jobs, seconds=seconds, probe=probe)
    attempted = len(r["times"])
    correct = attempted - r["failed"]
    return {"attempted": attempted, "failed": r["failed"],
            "cycles": r["cycles"],
            "jobs_per_s": correct / sum(r["scaled"]),
            "job_p50_s": statistics.median(r["scaled"]),
            "raw": {"jobs_per_s": correct / r["wall"],
                    "job_p50_s": statistics.median(r["times"])},
            "kind_p50_s": {k: statistics.median(v)
                           for k, v in r["per_kind"].items()}}


def trace(jobs, seconds, spans_path):
    """Traced cycles for half the time, then the same number of cycles
    untraced; outputs must match byte for byte."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(jobs, seconds=seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = run_cycles(jobs, cycles=traced["cycles"])
    identical = (json.dumps(traced["outputs"], sort_keys=True)
                 == json.dumps(plain["outputs"], sort_keys=True))
    if not identical:
        print("traced and untraced job outputs differ", file=sys.stderr)
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(traced["cycles"])
    metrics["trace.overhead"] = sum(traced["times"]) / sum(plain["times"])
    return {"attempted": len(traced["times"]) + len(plain["times"]),
            "failed": traced["failed"] + plain["failed"],
            "cycles": traced["cycles"], "identical": identical,
            "spans": spans_path, "layers": metrics}


if __name__ == "__main__":
    sys.exit(main())
