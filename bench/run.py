"""opident benchmark: seeded, verdict-checked identity checks and recovery.

Run from the repository root:

    python3 bench/run.py --workload converse-n4 --seed 1 --seconds 30 --trace 0

With --trace 0 it starts WORKERS fresh processes of `worker.py` one after
another, each single-threaded for an equal share of --seconds of unit
time, and reports the end-to-end metrics over all their units. Several
processes average out the few percent by which one interpreter's memory
layout makes it faster or slower than the next.

With --trace 1 it runs the first MIN_UNITS units in this process untraced,
rebuilds them cache-cold and runs them again under the layer tracer, and
reports the per-layer metrics; the two passes must agree bitwise on every
verdict and worst residual. The fixed unit count makes traced call counts
repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A unit whose verdict differs from
the expected one, or that raises, is failed, and any failure makes the
exit code 1. Without the opident sources next to it the script exits 1
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import worker

# One BLAS thread: recovery's small solves gain nothing from more, and
# spreading them over cores shared with other processes adds noise.
os.environ.update(
    {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
)
WORKLOADS = ("blackbox-dsl", "converse-n4", "recovery")
WORKER_TIMEOUT_S = 30
INDEX_STRIDE = 10**6  # unit indices of worker k start at k * INDEX_STRIDE


def result(attempted: int, failed: int, metrics: dict, correct: bool = True) -> dict:
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def end_to_end(name: str, seed: int, seconds: float) -> dict | None:
    """Metrics over WORKERS worker processes; None if one of them failed."""
    reports = []
    for k in range(worker.WORKERS):
        args = [name, seed, seconds / worker.WORKERS, k * INDEX_STRIDE]
        done = subprocess.run(
            [sys.executable, str(Path(worker.__file__))] + [str(a) for a in args],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return None
        reports.append(json.loads(done.stdout))
    runs = [unit for report in reports for unit in report["units"]]
    times = [t for t, _ in runs]
    samples = sum(r["samples"] for r in reports)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "samples_per_s": (samples / sum(times), "1/s"),
        "verdict_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "verdict_ms_p90": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in reports) / 1024, "MB"),
    }
    return result(len(runs), sum(not ok for _, ok in runs), metrics)


def traced(name: str, seed: int) -> dict:
    sys.path.insert(0, str(worker.SRC))
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]()

    def run_pass():
        units = (workloads.make_unit(workload, seed, i) for i in range(worker.MIN_UNITS))
        runs = worker.run_units(
            workload,
            units,
            keep=lambda unit, out: (unit, out),
            done=lambda count, busy: count >= worker.MIN_UNITS,
        )
        return sum(t for t, _ in runs), [kept for _, kept in runs]

    plain_s, plain = run_pass()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_s, again = run_pass()
    finally:
        tracer.uninstall()

    plain = [workloads.judge(workload, *pair) for pair in plain]
    again = [workloads.judge(workload, *pair) for pair in again]
    failed = sum(not (a[0] and b[0]) for a, b in zip(plain, again))
    same = repr([fp for _, fp in plain]) == repr([fp for _, fp in again])
    if not same:
        print("bench: traced run differs from untraced run", file=sys.stderr)
    for key, self_s in tracer.top_self_time():
        print(f"  {key:45s} self {self_s:8.4f} s", file=sys.stderr)
    metrics = tracer.metrics(worker.MIN_UNITS * workload.samples, traced_s / plain_s)
    return result(worker.MIN_UNITS, failed, metrics, correct=same)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds)
    except ImportError as exc:
        out = None
        print(f"bench: cannot import opident from {worker.SRC}: {exc}", file=sys.stderr)
    if out is None:
        return 1
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
