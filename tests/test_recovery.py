"""Coefficient recovery round trips and black-box misfit detection."""

import math
import random
import warnings

import numpy as np
import pytest

from opident.errors import EvalDomainError, RecoveryError, StructuralError
from opident.functions import fn_constant, fn_from_expr
from opident.identities import default_grid
from opident.operators import (
    BlackBoxOp,
    CanonicalOp,
    apply,
    apply_canonical_values,
    builtin_blackbox,
    derivative_op,
    entropy_op,
)
from opident.recovery import (
    CoefficientProfile,
    _probe_matrix,
    default_probes,
    recover_at_point,
    recover_profile,
    validate_recovery,
)
from opident.suites import random_canonical_op


HOLDOUT = [fn_from_expr("sin(x)"), fn_from_expr("x^3"), fn_from_expr("x*exp(x)")]


class TestRecoverAtPoint:
    def test_pure_derivative(self):
        c, d = recover_at_point(derivative_op(1), 1, 0.3)
        assert math.isclose(c[0], 1.0, abs_tol=1e-10)
        assert math.isclose(d[0], 0.0, abs_tol=1e-10)

    def test_entropy(self):
        c, d = recover_at_point(entropy_op(), 1, -0.2)
        assert math.isclose(c[0], 0.0, abs_tol=1e-10)
        assert math.isclose(d[0], 1.0, abs_tol=1e-10)

    def test_mixed_second_order(self):
        op = CanonicalOp(
            2,
            [fn_constant(1.0), fn_from_expr("x")],
            [fn_constant(0.0), fn_constant(2.0)],
        )
        c, d = recover_at_point(op, 2, 0.5)
        assert math.isclose(c[0], 1.0, abs_tol=1e-8)
        assert math.isclose(c[1], 0.5, abs_tol=1e-8)
        assert math.isclose(d[0], 0.0, abs_tol=1e-8)
        assert math.isclose(d[1], 2.0, abs_tol=1e-8)

    def test_default_probes_interleave(self):
        assert default_probes(4) == (1.0, -1.0, 2.0, -2.0)
        assert default_probes(3) == (1.0, -1.0, 2.0)

    def test_order_below_one_rejected_before_any_probe(self):
        applied = []

        def recording(f, x):
            applied.append(x)
            return 0.0

        op = BlackBoxOp(recording, "recording")
        for n in (0, -1):
            with pytest.raises(StructuralError):
                recover_at_point(op, n, 0.0)
            with pytest.raises(StructuralError):
                recover_profile(op, n, [0.0, 0.5])
        assert applied == []


class TestRecoverProfile:
    def test_sin_coefficient_profile(self):
        op = CanonicalOp(1, [fn_from_expr("sin(x)")], [fn_constant(0.0)])
        grid = [(-1.0 + 0.1 * i) for i in range(21)]
        profile = recover_profile(op, 1, grid)
        assert not profile.failures
        for x, row in zip(profile.grid, profile.c_rows):
            assert abs(row[0] - math.sin(x)) <= 1e-7

    def test_single_point_grid(self):
        profile = recover_profile(derivative_op(1), 1, [0.25])
        assert len(profile.grid) == 1
        assert len(profile.c_rows) == 1

    def test_failures_recorded_not_fatal(self):
        # operator whose evaluation leaves its domain at one grid point
        def fragile(f, x):
            if x == 0.5:
                raise EvalDomainError("boom")
            return f.eval_jet(x, 1)[1]

        op = BlackBoxOp(fragile, "fragile")
        profile = recover_profile(op, 1, [0.0, 0.5, 1.0])
        assert len(profile.failures) == 1
        assert profile.failures[0][0] == 1
        assert profile.c_rows[1] is None
        assert profile.c_rows[0] is not None
        # the failed point is a sample of the validation, which fails there
        report = validate_recovery(op, profile, HOLDOUT)
        assert not report.passed
        assert report.worst_case.x == 0.5
        assert report.worst_case.functions == ("recovery failed: boom",)

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0], [0.5]])
    def test_validation_fails_where_recovery_failed(self, grid):
        # a nan response is a NumericRangeError in apply: recorded, and a
        # validation FAIL even when no point was recovered
        op = BlackBoxOp(
            lambda f, x: math.nan if x == 0.5 else f.eval_jet(x, 1)[1], "nan at 0.5"
        )
        profile = recover_profile(op, 1, grid)
        report = validate_recovery(op, profile, HOLDOUT)
        assert not report.passed and not report.vacuous
        assert report.worst_case.x == 0.5

    def test_black_box_bug_propagates(self):
        # a TypeError is a bug in the black box, not a failed recovery
        def buggy(f, x):
            if x == 0.5:
                raise TypeError("bug")
            return f.eval_jet(x, 1)[1]

        with pytest.raises(TypeError):
            recover_profile(BlackBoxOp(buggy, "buggy"), 1, [0.0, 0.5, 1.0])

    def test_ill_conditioned_system_warns_once_at_the_caller(self):
        # default probes at n = 11: cond 6.1e8 > COND_WARN_THRESHOLD
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recover_profile(derivative_op(2), 11, default_grid(5))
        assert len(caught) == 1
        assert caught[0].category is UserWarning
        assert caught[0].filename == __file__

    def test_near_singular_system_raises_once(self):
        # default probes at n = 16: cond 6.4e14 > 1e14
        with pytest.raises(RecoveryError):
            recover_profile(derivative_op(1), 16, default_grid(5))

    def test_rows_match_pointwise_recovery(self):
        # one solve over all points moves a row from the one-point solve by
        # at most n·κ∞(M)·u·‖row‖∞ (M the probe matrix, u = 2^-53)
        rng = random.Random(4242)
        grid = default_grid(21, -0.8, 0.8)
        for n in (1, 2, 3, 4):
            bound = n * np.linalg.cond(_probe_matrix(n), np.inf) * 2.0**-53
            for _ in range(3):
                op = random_canonical_op(rng, n)
                profile = recover_profile(op, n, grid)
                assert not profile.failures
                for x, c_row, d_row in zip(profile.grid, profile.c_rows, profile.d_rows):
                    for got, want in zip((c_row, d_row), recover_at_point(op, n, x)):
                        shift = max(abs(g - w) for g, w in zip(got, want))
                        assert shift <= bound * max(abs(w) for w in want)


def per_point_twin(op):
    return BlackBoxOp(lambda f, x: apply(op, f, x), f"per-point {op.descriptor}")


class TestGridPass:
    """A canonical op's one formula pass gives bitwise the records of its
    per-point twin, a black box that applies it one point at a time."""

    def test_profile_and_validation_are_the_per_point_results(self):
        rng = random.Random(909)
        for n in range(1, 6):
            for points in (1, 2, 5, 21):
                op = random_canonical_op(rng, n)
                twin = per_point_twin(op)
                for order in (n, rng.randint(1, 5)):
                    grid = default_grid(points, -0.8, 0.8)
                    got = recover_profile(op, order, grid)
                    want = recover_profile(twin, order, grid)
                    assert repr(got) == repr(want)
                    assert repr(validate_recovery(op, got, HOLDOUT)) == repr(
                        validate_recovery(twin, want, HOLDOUT)
                    )

    @pytest.mark.parametrize(
        "source, failed", [("ln(x)", [0, 1, 2]), ("1/x", [2])]
    )
    def test_coefficient_failures_are_the_per_point_failures(self, source, failed):
        op = CanonicalOp(
            2, [fn_from_expr(source), fn_constant(1.0)], [fn_constant(0.5), fn_from_expr("x")]
        )
        grid = default_grid(5)  # -1, -0.5, 0, 0.5, 1
        got = recover_profile(op, 2, grid)
        want = recover_profile(per_point_twin(op), 2, grid)
        assert [idx for idx, _ in got.failures] == failed
        assert repr(got) == repr(want)
        assert repr(validate_recovery(op, got, HOLDOUT)) == repr(
            validate_recovery(per_point_twin(op), want, HOLDOUT)
        )


class TestValidation:
    def test_roundtrip_random_ops(self):
        rng = random.Random(2718)
        for _ in range(10):
            n = rng.randint(1, 4)
            op = random_canonical_op(rng, n)
            grid = [-0.8 + 0.4 * i for i in range(5)]
            profile = recover_profile(op, n, grid)
            assert not profile.failures
            for x, c_row, d_row in zip(profile.grid, profile.c_rows, profile.d_rows):
                for i in range(n):
                    true_c = op.c[i].value_at(x)
                    true_d = op.d[i].value_at(x)
                    assert abs(c_row[i] - true_c) <= 1e-6 * (1.0 + abs(true_c))
                    assert abs(d_row[i] - true_d) <= 1e-6 * (1.0 + abs(true_d))
            report = validate_recovery(op, profile, HOLDOUT)
            assert report.passed, report

    def test_ties_go_to_the_first_sample_in_point_order(self):
        # zero coefficients and a black box reading a table: the largest
        # residual, 2, is at (0.0, g) and at (1.0, f), point-major first
        f, g = fn_from_expr("x"), fn_from_expr("x+1")
        table = {(f, 0.0): 1.0, (g, 0.0): 2.0, (f, 1.0): 2.0, (g, 1.0): 1.0}
        op = BlackBoxOp(lambda fn, x: table[fn, x], "table")
        zero = ((0.0,), (0.0,))
        profile = CoefficientProfile(1, (0.0, 1.0), zero, zero, ())
        report = validate_recovery(op, profile, [f, g])
        assert report.max_abs_residual == 2.0
        assert (report.worst_case.x, report.worst_case.functions) == (0.0, ("x+1",))

    def test_square_blackbox_fails_validation(self):
        op = builtin_blackbox("square")
        profile = recover_profile(op, 1, [0.0, 0.5])
        report = validate_recovery(op, profile, HOLDOUT)
        assert not report.passed

    def test_empty_holdout_is_vacuous(self):
        profile = recover_profile(derivative_op(1), 1, [0.0])
        report = validate_recovery(derivative_op(1), profile, [])
        assert report.passed and report.vacuous

    def test_units_consistency_of_recovered_op(self):
        rng = random.Random(31415)
        op = random_canonical_op(rng, 2)
        c, d = recover_at_point(op, 2, 0.3)
        one = fn_constant(1.0)
        minus_one = fn_constant(-1.0)
        assert apply_canonical_values(c, d, one.eval_jet(0.3, 2)) == 0.0
        assert apply_canonical_values(c, d, minus_one.eval_jet(0.3, 2)) == 0.0
        assert apply(op, one, 0.3) == 0.0
