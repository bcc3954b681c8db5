"""Standard verification batteries, shared by the CLI selftest and the
acceptance tests. Each battery checks one claim of the paper, or one
property of the single-operator identity that the claim rests on:

- converse: every canonical operator Σ c_i f^(i) + Σ d_i f·ln|f|^i of
  order n satisfies the order-n alternating-subset identity, and its
  diagonal form agrees with it;
- counterexample: an operator outside the family (f ↦ f²) violates the
  identity, so it does not hold for every operator;
- units and localization: D(±1) = 0 and D(f)(x) depends only on f near
  x, as for every canonical operator;
- recovery: the coefficients c_i, d_i are read back from the operator
  as a black box, which is what identifying the solutions means;
- Fréchet degree: after conjugation by exp the operator has vanishing
  (n+1)-fold differences, the polynomial structure behind the identity;
- annihilation: a linear operator whose derivatives all have order
  ≥ j+1 maps each monomial of degree ≤ j to exactly 0.

Every battery returns ResidualReport records with the uniform schema, so a
run is a flat list of records and "all pass" is the single exit criterion.
Detection-style checks (a violator must be caught) are encoded as records
whose residual is 0.0 when detection succeeded.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from .functions import (
    fn_bump,
    fn_constant,
    fn_from_expr,
    fn_linear_combination,
)
from .identities import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    ResidualReport,
    SamplingConfig,
    _Aggregator,
    alternating_subset_residual,
    bound_ratio,
    check_localization,
    check_poly_annihilation,
    check_units,
    default_grid,
    random_function,
    random_polynomial,
    run_check_suite_full,
)
from .jets import signed_sum
from .multiadd import conjugate_exp, difference_terms, iterated_difference
from .operators import (
    BlackBoxOp,
    CanonicalOp,
    apply,
    builtin_blackbox,
    derivative_op,
    entropy_op,
    linear_op,
)
from .recovery import recover_profile, validate_recovery

E = math.e
WITNESS_VALUE = E * E - 2 * E + 1  # two-fold difference of the exp probe


def random_canonical_op(rng: random.Random, n: int) -> CanonicalOp:
    return CanonicalOp(
        n,
        [random_polynomial(rng, 2) for _ in range(n)],
        [random_polynomial(rng, 2) for _ in range(n)],
    )


def merge_reports(
    name: str, n: int, reports: Sequence[ResidualReport], tol_abs: float, tol_rel: float
) -> ResidualReport:
    """Merge per-run reports by the rule _Aggregator applies to samples: the
    record carries the (residual, scale) pair with the largest bound_ratio
    under the merged tolerances, the first one on ties (one bound_ratio call
    over all pairs), so it passes iff every component pair is within it."""
    samples = sum(r.samples for r in reports)
    if not reports or samples == 0:
        return ResidualReport(name, n, samples, 0.0, 0.0, None, tol_abs, tol_rel)
    pairs = [(r.max_abs_residual, r.max_scale) for r in reports]
    worst = reports[int(np.argmax(bound_ratio(*zip(*pairs), tol_abs, tol_rel)))]
    return ResidualReport(
        name,
        n,
        samples,
        worst.max_abs_residual,
        worst.max_scale,
        worst.worst_case,
        tol_abs,
        tol_rel,
    )


def detection_record(name: str, detected: bool, n: int = 0) -> ResidualReport:
    """Record that passes exactly when a violation was caught."""
    return ResidualReport(
        name, n, 1, 0.0 if detected else 1.0, 0.0, None, 0.0, 0.0
    )


def converse_battery(
    seed: int = 42, ops_per_n: int = 100, tuples_per_op: int = 10
) -> list[ResidualReport]:
    """Random canonical operators must satisfy the subset identity: per
    n = 1..4, ops_per_n operators × tuples_per_op random tuples × the
    21-point default grid. Emits one merged identity record and one merged
    diagonal-consistency record per n."""
    rng = random.Random(seed)
    records = []
    grid = default_grid(21)
    for n in (1, 2, 3, 4):
        identity_reports = []
        gap_reports = []
        for _ in range(ops_per_n):
            op = random_canonical_op(rng, n)
            cfg = SamplingConfig(
                seed=rng.randrange(2**32), tuples=tuples_per_op, grid=grid
            )
            outcome = run_check_suite_full(op, n, cfg)
            identity_reports.append(outcome.report)
            gap_reports.append(outcome.diagonal_gap)
        records.append(
            merge_reports(
                f"converse-identity-n{n}",
                n,
                identity_reports,
                DEFAULT_TOL_ABS,
                DEFAULT_TOL_REL,
            )
        )
        records.append(
            merge_reports(f"diagonal-consistency-n{n}", n, gap_reports, 0.0, 1e-12)
        )
    return records


def counterexample_battery(seed: int = 42) -> list[ResidualReport]:
    """The square black box must produce the known residual -1 at the pinned
    probe and must fail the random suite."""
    sq = builtin_blackbox("square")
    x_fn = fn_from_expr("x")
    pinned = _Aggregator()
    value = alternating_subset_residual(sq, [x_fn, x_fn], 1.0)
    pinned.add(value - (-1.0), 1.0, 1.0, (x_fn.descriptor,) * 2)
    suite = run_check_suite_full(sq, 1, SamplingConfig(seed=seed, tuples=10))
    return [
        pinned.report("counterexample-square-value", 1, 1e-12, 0.0),
        detection_record("counterexample-square-detected", not suite.report.passed, 1),
    ]


def units_battery(seed: int = 42, ops: int = 20) -> list[ResidualReport]:
    """D(1) = D(-1) = 0 exactly, and localization on agreeing
    subintervals."""
    rng = random.Random(seed)
    grid = default_grid(7)
    unit_reports = []
    local_reports = []
    fixed = [derivative_op(1), derivative_op(2), derivative_op(3), entropy_op()]
    bump = fn_bump((2.0, 4.0), (2.5, 3.5))
    for op in fixed + [random_canonical_op(rng, rng.randint(1, 4)) for _ in range(ops)]:
        unit_reports.append(check_units(op, grid))
        f1 = random_function(rng)
        f2 = fn_linear_combination([(1.0, f1), (1.0, bump)])
        # f1 and f2 agree left of the bump's support (2, 4), which holds
        # the whole grid [-1, 1]
        local_reports.append(check_localization(op, f1, f2, (-math.inf, 2.0), grid))
    return [
        merge_reports("units-exact", 0, unit_reports, 0.0, 0.0),
        merge_reports("localization", 0, local_reports, 1e-12, 0.0),
    ]


def recovery_battery(seed: int = 42, ops: int = 50) -> list[ResidualReport]:
    """Round-trip recovery on random canonical operators over 5 points of
    [-0.8, 0.8], holdout validation, and misfit detection for the square
    black box."""
    rng = random.Random(seed)
    holdout = [
        fn_from_expr("sin(x)"),
        fn_from_expr("x^3"),
        fn_from_expr("x*exp(x)"),
    ]
    grid = default_grid(5, -0.8, 0.8)
    coeff_agg = _Aggregator()
    validation_reports = []
    for _ in range(ops):
        n = rng.randint(1, 4)
        op = random_canonical_op(rng, n)
        profile = recover_profile(op, n, grid)
        for x, c_row, d_row in zip(profile.grid, profile.c_rows, profile.d_rows):
            if c_row is None:
                coeff_agg.add(math.inf, 1.0, x, (op.descriptor, "recovery failed"))
                continue
            for i in range(n):
                for rec, true in ((c_row[i], op.c[i].value_at(x)),
                                  (d_row[i], op.d[i].value_at(x))):
                    dev = abs(rec - true) / (1.0 + abs(true))
                    coeff_agg.add(dev, 1.0, x, (op.descriptor,))
        validation_reports.append(validate_recovery(op, profile, holdout))
    records = [
        coeff_agg.report("recovery-roundtrip", 0, 1e-6, 0.0),
        merge_reports("recovery-holdout", 0, validation_reports, 1e-9, 1e-6),
    ]
    sq = builtin_blackbox("square")
    sq_profile = recover_profile(sq, 1, grid)
    sq_report = validate_recovery(sq, sq_profile, holdout)
    records.append(detection_record("recovery-square-misfit", not sq_report.passed, 1))
    return records


def frechet_battery(seed: int = 42, ops: int = 15) -> list[ResidualReport]:
    """(n+1)-fold differences of exp-conjugated canonical operators vanish;
    the exp probe is the standard non-polynomial witness."""
    rng = random.Random(seed)
    agg = _Aggregator()
    for _ in range(ops):
        n = rng.randint(1, 3)
        op = random_canonical_op(rng, n)
        P = conjugate_exp(op)
        g = random_polynomial(rng, 2)
        hs = [random_polynomial(rng, 2) for _ in range(n + 1)]
        for x in (-0.5, 0.0, 0.5):
            terms = difference_terms(P, g, hs, x)
            scale = max(abs(t) for t in terms)
            agg.add(signed_sum(terms), scale, x, (op.descriptor,))
    records = [agg.report("frechet-degree", 0, 0.0, 1e-6)]

    probe = BlackBoxOp(lambda g, x: math.exp(g.value_at(x)), "g -> exp(g(x))")
    unit_steps = iterated_difference(probe, [fn_constant(1.0)] * 2)
    witness = _Aggregator()
    value = apply(unit_steps, fn_constant(0.0), 0.0)
    witness.add(value - WITNESS_VALUE, WITNESS_VALUE, 0.0, (unit_steps.descriptor,))
    records.append(witness.report("frechet-witness", 1, 1e-9, 0.0))
    return records


def annihilation_battery(seed: int = 42) -> list[ResidualReport]:
    """Operators with the low derivative coefficients zeroed annihilate
    monomials up to that degree exactly; d/dx must fail the j=1 case."""
    rng = random.Random(seed)
    grid = default_grid(7)
    reports = []
    for j in (0, 1, 2):
        for _ in range(5):
            n = rng.randint(j + 1, 4)
            coeffs = [fn_constant(0.0)] * j + [
                random_polynomial(rng, 2) for _ in range(n - j)
            ]
            op = linear_op(coeffs)
            reports.append(check_poly_annihilation(op, j, grid))
    records = [merge_reports("annihilation-exact", 0, reports, 0.0, 0.0)]
    ddx = check_poly_annihilation(derivative_op(1), 1, grid)
    records.append(detection_record("annihilation-detects-ddx", not ddx.passed))
    return records


def selftest(seed: int = 42, fast: bool = False) -> list[ResidualReport]:
    """The full standard battery at one seed. `fast` shrinks sample counts
    for smoke testing; the acceptance-scale run keeps the defaults."""
    scale = 10 if fast else 1
    records = []
    records += converse_battery(
        seed,
        ops_per_n=max(1, 100 // scale),
        tuples_per_op=max(1, 10 // (2 if fast else 1)),
    )
    records += counterexample_battery(seed)
    records += units_battery(seed, ops=max(2, 20 // scale))
    records += recovery_battery(seed, ops=max(2, 50 // scale))
    records += frechet_battery(seed, ops=max(2, 15 // scale))
    records += annihilation_battery(seed)
    return records
