"""Bitwise fingerprints of the benchmark's units and of the selftest records.

Run from the repository root:

    python3 tools/fingerprint.py

Prints one line per workload: the SHA-1 of the repr of every unit's
(verdict as expected, fingerprint) for units 0-299 of seeds 1-3, where
the fingerprint holds the unit's verdicts and worst residuals (see
`bench/workloads.py`); one line with the SHA-1 of the `to_json` records
of `suites.selftest()`; and one line, `opaque:`, with the SHA-1 of the
`to_json` of report and gap from `run_check_suite_full` on the black-box
engine: `translate`, a `BlackBoxOp` reading f''' and a `BlackBoxOp` that
applies a random canonical operator, at n = 1..4 for seeds 1-3, 4 tuples
on a 9-point grid. A unit that raises one of the package's errors enters
the hash as its type and message. A refactor that keeps every result
bitwise prints the same lines as its parent commit.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from opident import identities, suites  # noqa: E402
from opident.errors import (  # noqa: E402
    EvalDomainError,
    NumericRangeError,
    RecoveryError,
    StructuralError,
)
from opident.operators import BlackBoxOp, apply, builtin_blackbox  # noqa: E402

ERRORS = (EvalDomainError, NumericRangeError, RecoveryError, StructuralError)
SEEDS = (1, 2, 3)
UNITS = 300


def unit_record(workload, seed: int, index: int):
    unit = workloads.make_unit(workload, seed, index)
    try:
        out = workload.run(unit.inputs)
    except ERRORS as exc:
        return type(exc).__name__, str(exc)
    return workloads.judge(workload, unit, out)


def workload_digest(name: str) -> str:
    workload = workloads.WORKLOADS[name]()
    digest = hashlib.sha1()
    for seed in SEEDS:
        for index in range(UNITS):
            digest.update(repr(unit_record(workload, seed, index)).encode())
    return digest.hexdigest()


def selftest_digest() -> str:
    records = [record.to_json() for record in suites.selftest()]
    return hashlib.sha1(json.dumps(records).encode()).hexdigest()


def opaque_ops(seed: int, n: int) -> list:
    canonical = suites.random_canonical_op(random.Random(seed), n)
    return [
        builtin_blackbox("translate"),
        BlackBoxOp(lambda f, x: f.eval_jet(x, 3)[3], "f -> f'''"),
        BlackBoxOp(lambda f, x: apply(canonical, f, x), "opaque canonical"),
    ]


def opaque_digest() -> str:
    digest = hashlib.sha1()
    for seed in SEEDS:
        for n in range(1, 5):
            cfg = identities.SamplingConfig(seed, 4, identities.default_grid(9))
            for op in opaque_ops(seed, n):
                out = identities.run_check_suite_full(op, n, cfg)
                records = [out.report.to_json(), out.diagonal_gap.to_json()]
                digest.update(json.dumps(records).encode())
    return digest.hexdigest()


def main() -> int:
    for name in workloads.WORKLOADS:
        print(f"{name}: {workload_digest(name)}", flush=True)
    print(f"selftest: {selftest_digest()}", flush=True)
    print(f"opaque: {opaque_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
