"""The benchmark's workloads: seeded units of work with expected verdicts.

A unit is one call a user of `check` or `recover` waits for. Its inputs are
generated from a string seed (workload, run seed, unit index), so any unit
can be rebuilt bit for bit with fresh, cache-cold objects. Every unit holds
a check that must FAIL: every tenth unit of converse-n4 and recovery is a
planted violator, and every blackbox-dsl unit checks `square`. A change
that makes everything PASS therefore reads as wrong, never as fast.

Each workload has `make(rng, planted)` (inputs only, before any timing),
`run(inputs)` (the timed library calls) and `verdict(unit, output)`, which
returns (verdict as expected, fingerprint). The fingerprint holds the
verdicts and worst residuals, compared bitwise between traced and untraced
runs.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from opident import exprs, functions, identities, operators, recovery, suites

PLANT_EVERY = 10


class Unit(NamedTuple):
    planted: bool
    inputs: object


def make_unit(workload, seed: int, index: int) -> Unit:
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    planted = index % PLANT_EVERY == PLANT_EVERY - 1
    return Unit(planted, workload.make(rng, planted))


def judge(workload, unit: Unit, out):
    """(verdict as expected, fingerprint); a unit that raised (out is None)
    is not as expected."""
    if out is None:
        return False, None
    return workload.verdict(unit, out)


class ConverseN4:
    """Order-4 identity on one random 5-tuple; planted units are order 5."""

    name = "converse-n4"
    n = 4
    samples = 21  # grid points

    def __init__(self):
        self.grid = identities.default_grid(self.samples)

    def make(self, rng: random.Random, planted: bool):
        op = suites.random_canonical_op(rng, self.n + 1 if planted else self.n)
        cfg = identities.SamplingConfig(
            seed=rng.randrange(2**32), tuples=1, grid=self.grid
        )
        return op, cfg

    def run(self, inputs):
        op, cfg = inputs
        return identities.run_check_suite_full(op, self.n, cfg)

    def verdict(self, unit: Unit, out):
        fingerprint = (
            out.passed,
            out.report.max_abs_residual,
            out.diagonal_gap.max_abs_residual,
        )
        return out.passed != unit.planted, fingerprint


class Recovery:
    """Order-4 recovery on a grid, then holdout validation; planted units
    are the `square` black box, which validation must flag as a misfit."""

    name = "recovery"
    n = 4
    samples = 21  # grid points
    holdout = ("sin(x)", "x^3", "x*exp(x)")
    roundtrip_tol = 1e-6  # |recovered - true| / (1 + |true|)

    def __init__(self):
        self.grid = identities.default_grid(self.samples, -0.8, 0.8)
        self.holdout_trees = [exprs.parse(s) for s in self.holdout]

    def make(self, rng: random.Random, planted: bool):
        if planted:
            op = operators.builtin_blackbox("square")
        else:
            op = suites.random_canonical_op(rng, self.n)
        # fresh holdout functions per unit, so no jet is cached across units
        return op, [functions.fn_from_expr(t) for t in self.holdout_trees]

    def run(self, inputs):
        op, holdout = inputs
        profile = recovery.recover_profile(op, self.n, self.grid)
        return profile, recovery.validate_recovery(op, profile, holdout)

    def verdict(self, unit: Unit, out):
        profile, report = out
        if unit.planted:
            return not report.passed, (report.passed, report.max_abs_residual)
        op = unit.inputs[0]
        worst = 0.0 if not profile.failures else float("inf")
        for x, c_row, d_row in zip(profile.grid, profile.c_rows, profile.d_rows):
            if c_row is None:
                continue
            for i in range(self.n):
                for got, fn in ((c_row[i], op.c[i]), (d_row[i], op.d[i])):
                    true = fn.value_at(x)
                    worst = max(worst, abs(got - true) / (1.0 + abs(true)))
        ok = report.passed and worst <= self.roundtrip_tol
        return ok, (report.passed, report.max_abs_residual, worst)


class BlackboxDsl:
    """One tuple of random DSL functions against three black boxes through
    the per-point subset path; `square` must FAIL in every unit."""

    name = "blackbox-dsl"
    templates = (
        "{a}*sin({b}*x+{c})",
        "ln(x^2+{a})",
        "1/({r}+cos(x))",
        "(x^2+{a})^2.5",
    )
    checks = (("third-derivative", 3, True), ("km-entropy", 1, True), ("square", 1, False))
    points = 41
    samples = points * len(checks)

    def __init__(self):
        self.grid = identities.default_grid(self.points)
        self.ops = [operators.builtin_blackbox(name) for name, _, _ in self.checks]

    def make(self, rng: random.Random, planted: bool):
        size = max(n for _, n, _ in self.checks) + 1
        return [functions.fn_from_expr(exprs.parse(self._draw(rng))) for _ in range(size)]

    def _draw(self, rng: random.Random) -> str:
        # parameters keep every function smooth and in-domain on [-1, 1]
        return rng.choice(self.templates).format(
            a=round(rng.uniform(0.5, 2.0), 3),
            b=round(rng.uniform(0.5, 2.0), 3),
            c=round(rng.uniform(-1.0, 1.0), 3),
            r=round(rng.uniform(1.5, 3.0), 3),
        )

    def run(self, fs):
        reports = []
        for op, (_, n, _) in zip(self.ops, self.checks):
            agg = identities._Aggregator()
            tup = fs[: n + 1]
            for x in self.grid:
                terms = identities.alternating_subset_terms(op, tup, x)
                agg.add(sum(sorted(terms)), max(map(abs, terms)), x, ())
            reports.append(
                agg.report(
                    op.descriptor, n, identities.DEFAULT_TOL_ABS, identities.DEFAULT_TOL_REL
                )
            )
        return reports

    def verdict(self, unit: Unit, out):
        ok = all(r.passed == want for r, (_, _, want) in zip(out, self.checks))
        return ok, tuple((r.passed, r.max_abs_residual) for r in out)


WORKLOADS = {w.name: w for w in (ConverseN4, Recovery, BlackboxDsl)}
