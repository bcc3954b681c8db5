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
on a 9-point grid; and one line, `exprs:`, with the SHA-1 of DSL function
evaluations: for each function of a seeded corpus (100 draws of
blackbox-dsl's templates for each of seeds 1-3, and recovery's holdouts),
`fn_from_expr(...).eval_jet` at each of 41 points at order 3 and on the
21-point grid at order 4, in `float.hex` and bytes; then, for each of
`FAILING`, the outcome of the same two reads on a grid that holds its point;
and one line, `local-points:`, with the SHA-1 of every term of
`alternating_subset_terms(op, fs, x)` in `float.hex`, for the three local
builtins, `entropy_op()` and `random_canonical_op` at n = 1..5, on seeded
tuples of m = 2..6 functions from `LOCAL_POOL` at each of `LOCAL_POINTS`.
A unit, evaluation or term list that raises one of the package's errors
enters the hash as its type and message. A refactor that keeps every result bitwise
prints the same lines as its parent commit.
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
from opident import exprs, functions, identities, suites  # noqa: E402
from opident.errors import (  # noqa: E402
    EvalDomainError,
    NumericRangeError,
    RecoveryError,
    StructuralError,
)
from opident.operators import (  # noqa: E402
    BlackBoxOp,
    apply,
    builtin_blackbox,
    entropy_op,
)

ERRORS = (EvalDomainError, NumericRangeError, RecoveryError, StructuralError)
SEEDS = (1, 2, 3)
UNITS = 300
DRAWS = 100  # DSL functions per seed for the exprs: line
# (expression, a point where it fails): each kind of interpreter error, and
# one shape whose constants alone fail it
FAILING = (
    ("ln(x)", -1.0),
    ("ln(x)", 0.0),
    ("1/x", 0.0),
    ("1/(x-x)", 0.5),
    ("abs(x)", 0.0),
    ("x^2.5", -1.0),
    ("x^0.5", 0.0),
    (exprs.Pow(exprs.Var(), -2.0), 0.0),
    ("exp(-x*1e200*1e200)", 0.5),
    ("exp(1000*x)", 1.0),
    ("ln(x^0-x^0)", 0.5),
    (exprs.BinOp("+", exprs.Var(), exprs.Const(float("inf"))), 0.5),
)

# exact zeros at grid points, ±0.0, and 1e200-scale constants whose products
# overflow; a tuple drawn from it often repeats a function (a tie)
LOCAL_POOL = (
    "0",
    "-0",
    "1e200",
    "-1e200",
    "x",
    "x-0.25",
    "x*(x-0.5)",
    "x^2",
    "sin(x)",
    "exp(x)-1",
    "1/(2+x)",
    "ln(2+x)",
)
LOCAL_POINTS = (0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -1.0, 1.0)
LOCAL_TUPLES = 12  # per tuple size m


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


def evaluation(source, x, order: int):
    """fn_from_expr(source).eval_jet(x, order) on a fresh function, in
    float.hex or bytes, or the error's type and message."""
    try:
        jet = functions.fn_from_expr(source).eval_jet(x, order)
    except ERRORS as exc:
        return type(exc).__name__, str(exc)
    return jet.tobytes() if type(x) is tuple else [v.hex() for v in jet]


def exprs_digest() -> str:
    dsl = workloads.BlackboxDsl()
    rngs = [random.Random(f"exprs:{seed}") for seed in SEEDS]
    sources = [dsl._draw(rng) for rng in rngs for _ in range(DRAWS)]
    sources += workloads.Recovery.holdout
    points, grid = identities.default_grid(41), identities.default_grid(21)
    digest = hashlib.sha1()
    for source in sources:
        digest.update(repr([evaluation(source, x, 3) for x in points]).encode())
        digest.update(repr(evaluation(source, grid, 4)).encode())
    for source, x in FAILING:
        failing = (evaluation(source, x, 3), evaluation(source, (0.25, x, -0.75), 4))
        digest.update(repr(failing).encode())
    return digest.hexdigest()


def subset_terms(op, fs, x: float):
    """alternating_subset_terms(op, fs, x) in float.hex, or the error's
    type and message."""
    try:
        terms = identities.alternating_subset_terms(op, fs, x)
    except ERRORS as exc:
        return type(exc).__name__, str(exc)
    return [t.hex() for t in terms]


def local_points_digest() -> str:
    ops = [builtin_blackbox(name) for name in ("square", "third-derivative", "km-entropy")]
    ops += [entropy_op()]
    ops += [suites.random_canonical_op(random.Random(f"local:{n}"), n) for n in range(1, 6)]
    pool = [functions.fn_from_expr(source) for source in LOCAL_POOL]
    rng = random.Random("local-points")
    tuples = [rng.choices(pool, k=m) for m in range(2, 7) for _ in range(LOCAL_TUPLES)]
    digest = hashlib.sha1()
    for op in ops:
        for fs in tuples:
            digest.update(repr([subset_terms(op, fs, x) for x in LOCAL_POINTS]).encode())
    return digest.hexdigest()


def main() -> int:
    for name in workloads.WORKLOADS:
        print(f"{name}: {workload_digest(name)}", flush=True)
    print(f"selftest: {selftest_digest()}", flush=True)
    print(f"opaque: {opaque_digest()}", flush=True)
    print(f"exprs: {exprs_digest()}", flush=True)
    print(f"local-points: {local_points_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
