"""One measuring process of the benchmark; `run.py` starts several in turn.

    python3 bench/worker.py WORKLOAD SEED SECONDS FIRST_INDEX

Times the import of opident in this fresh interpreter and the generation
of the first MIN_UNITS units (from unit index FIRST_INDEX on), then runs
units back to back for SECONDS of unit time and at least MIN_UNITS /
WORKERS units. Prints one JSON line: setup_s, peak_rss_kb, samples and,
per unit, [seconds at reference speed, verdict as expected].

Unit times are scaled to a reference machine speed. The speed of a shared
machine drifts by tens of percent within seconds, so between batches of
units the worker times a fixed pure-Python loop (`calibrate`) and scales
each batch by REFERENCE_CALIBRATION_S over the mean of the loop times
around it. On a quiet machine where the loop takes REFERENCE_CALIBRATION_S
the reported times equal wall-clock times.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_UNITS = 100  # per run, so that at least 10 units lie beyond p90
WORKERS = 10  # processes per run: each has its own memory layout and speed
CALIBRATE_EVERY_S = 0.1
# Median time of `calibrate` on the 2-core x86-64 VM the benchmark was
# defined on, under CPython 3.11.7.
REFERENCE_CALIBRATION_S = 0.0033


def calibrate() -> float:
    """Seconds taken by a fixed float-and-list loop that uses no opident code."""
    start = time.perf_counter()
    acc = 0.0
    xs = [0.5] * 8
    for i in range(3000):
        for j in range(8):
            acc += xs[j] * i
        xs[i % 8] = acc % 3.0
    return time.perf_counter() - start


def run_units(workload, units, keep, done) -> list:
    """Runs units back to back until done(count, busy seconds) holds.

    Returns (seconds at reference speed, keep(unit, output)) per unit; the
    output is None for a unit that raised. Units are dropped once kept.
    """
    kept, batch, busy = [], [], 0.0
    before = calibrate()
    for unit in units:
        start = time.perf_counter()
        try:
            out = workload.run(unit.inputs)
        except Exception:  # a raising unit is a failed unit
            traceback.print_exc(limit=4)
            out = None
        elapsed = time.perf_counter() - start
        batch.append((elapsed, keep(unit, out)))
        busy += elapsed
        finished = done(len(kept) + len(batch), busy)
        if finished or sum(t for t, _ in batch) >= CALIBRATE_EVERY_S:
            after = calibrate()
            scale = 2 * REFERENCE_CALIBRATION_S / (before + after)
            kept += [(t * scale, k) for t, k in batch]
            batch, before = [], after
        if finished:
            return kept
    raise ValueError("ran out of units")


def main(argv: list[str]) -> int:
    name, seed, seconds, first_index = argv
    seed, seconds, first_index = int(seed), float(seconds), int(first_index)

    # Set-up is timed on the wall clock: the import is mostly file and
    # loader work, which the calibration loop does not track.
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name]()
    first = [workloads.make_unit(workload, seed, first_index + i) for i in range(MIN_UNITS)]
    setup_s = time.perf_counter() - start

    def units():
        for i in itertools.count():
            if i < len(first):
                unit, first[i] = first[i], None
            else:
                unit = workloads.make_unit(workload, seed, first_index + i)
            yield unit

    runs = run_units(
        workload,
        units(),
        keep=lambda unit, out: workloads.judge(workload, unit, out)[0],
        done=lambda count, busy: count * WORKERS >= MIN_UNITS and busy >= seconds,
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "samples": len(runs) * workload.samples,
                "units": runs,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
