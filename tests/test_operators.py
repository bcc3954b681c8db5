"""Operator application semantics, including the 0·ln(0)^k = 0 convention."""

import math
import random
from fractions import Fraction

import pytest

import numpy as np

from opident.errors import EvalDomainError, NumericRangeError, StructuralError
from opident.functions import fn_constant, fn_from_expr, fn_linear_combination
from opident.identities import random_function, random_polynomial
from opident.operators import (
    BlackBoxOp,
    CanonicalOp,
    JetOp,
    apply,
    apply_canonical_values,
    builtin_blackbox,
    derivative_op,
    entropy_op,
    linear_op,
)
from opident.suites import random_canonical_op


def neg(f):
    return fn_linear_combination([(-1.0, f)])


class TestApply:
    def test_pure_derivative(self):
        op = derivative_op(1)
        assert apply(op, fn_from_expr("x^2"), 2.0) == 4.0

    def test_entropy_convention_at_zero(self):
        # f(x)=0 kills the log terms by convention
        op = entropy_op()
        assert apply(op, fn_from_expr("x"), 0.0) == 0.0

    def test_entropy_value(self):
        op = entropy_op()
        got = apply(op, fn_from_expr("x"), 2.0)
        assert math.isclose(got, 2.0 * math.log(2.0), rel_tol=1e-15)

    def test_second_derivative_of_sin(self):
        op = CanonicalOp(
            2,
            [fn_constant(0.0), fn_constant(1.0)],
            [fn_constant(0.0), fn_constant(0.0)],
        )
        assert apply(op, fn_from_expr("sin(x)"), 0.0) == 0.0
        got = apply(op, fn_from_expr("sin(x)"), math.pi / 2)
        assert math.isclose(got, -1.0, rel_tol=1e-12)

    def test_blackbox_nonfinite_result(self):
        bad = BlackBoxOp(lambda f, x: float("inf"), "bad")
        with pytest.raises(NumericRangeError):
            apply(bad, fn_constant(1.0), 0.0)

    @pytest.mark.parametrize(
        "op",
        [
            CanonicalOp(
                2,
                [fn_from_expr("sin(x)"), fn_constant(-1.5)],
                [fn_from_expr("x^2-0.5"), fn_constant(2.0)],
            ),
            linear_op([fn_from_expr("cos(x)"), fn_constant(0.0), fn_from_expr("x")]),
            BlackBoxOp(lambda f, x: f.value_at(x) * f.eval_jet(x, 1)[1], "f*f'"),
        ],
        ids=["log-terms", "linear", "black-box"],
    )
    def test_grid_is_bitwise_the_point_values(self, op):
        # f vanishes at the grid points 0 and 0.5, where the log terms are 0
        grid = tuple(i / 8 for i in range(-8, 9))
        for f in (fn_from_expr("x*(x-0.5)*exp(x)"), fn_from_expr("sin(3*x)+2")):
            got = apply(op, f, grid).tolist()
            assert [v.hex() for v in got] == [apply(op, f, x).hex() for x in grid]

    def test_empty_grid(self):
        f = fn_from_expr("x^2+1")
        for op in (entropy_op(), builtin_blackbox("square")):
            assert apply(op, f, ()).shape == (0,)

    def test_grid_range_error_names_the_first_bad_point(self):
        # 1e308·e^x overflows from e^x > 1.797, first at the grid point 0.625
        op = linear_op([fn_constant(1e308)])
        twin = BlackBoxOp(lambda f, x: apply(op, f, x), "per-point twin")
        grid = tuple(i / 8 for i in range(-8, 9))
        for path in (op, twin):
            with pytest.raises(NumericRangeError, match=r" at x=0\.625$"):
                apply(path, fn_from_expr("exp(x)"), grid)

    def test_the_functions_error_comes_before_the_coefficients(self):
        # at 0 both f = ln(x) and the coefficient 1/x fail; at a point and
        # on a grid alike, f's jet is read before op.at(x) reads 1/x
        op = linear_op([fn_from_expr("1/x")])
        for x in (0.0, (0.0,)):
            with pytest.raises(EvalDomainError) as error:
                apply(op, fn_from_expr("ln(x)"), x)
            assert str(error.value) == "ln of a nonpositive value (0.0) at offset 0"

    def test_order_validation(self):
        with pytest.raises(StructuralError):
            CanonicalOp(0, [], [])
        with pytest.raises(StructuralError):
            CanonicalOp(2, [fn_constant(1.0)], [fn_constant(0.0)] * 2)
        with pytest.raises(StructuralError):
            derivative_op(0)

    def test_derivative_descriptors(self):
        assert [derivative_op(k).descriptor for k in (1, 2, 3)] == [
            "d/dx",
            "d^2/dx^2",
            "d^3/dx^3",
        ]

    def test_canonical_values_matches_ops(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 3)
            op = random_canonical_op(rng, n)
            f = random_function(rng)
            x = rng.uniform(-1, 1)
            direct = apply(op, f, x)
            via_values = apply_canonical_values(
                [fn.value_at(x) for fn in op.c],
                [fn.value_at(x) for fn in op.d],
                f.eval_jet(x, n),
            )
            assert direct == via_values

    @pytest.mark.parametrize("log_terms", [True, False])
    def test_batch_is_bitwise_the_scalar_formula(self, log_terms):
        # np.log and math.log disagree in the last ulp on about 2 values in
        # 10^4, so 20000 jets would show a grid path that used np.log. Every
        # 50th jet has f = ±0.0, and every 100th also zero derivatives under
        # negative c, whose -0.0 products meet the ±0.0 log terms there.
        rng = random.Random(11)
        n, points = 3, 20000
        jets, c_rows, d_rows = [], [], []
        for p in range(points):
            if p % 100 == 0:
                jet = [0.0] * (n + 1)
                c = [-rng.uniform(0.5, 2) for _ in range(n)]
            else:
                value = rng.choice((-1, 1)) * math.exp(rng.uniform(-5, 5))
                if p % 50 == 0:
                    value = -0.0
                jet = [value] + [rng.uniform(-3, 3) for _ in range(n)]
                c = [rng.uniform(-2, 2) for _ in range(n)]
            jets.append(jet)
            c_rows.append(c)
            d_rows.append([rng.uniform(-2, 2) for _ in range(n)] if log_terms else [])
        grid = apply_canonical_values(
            np.array(c_rows).T, np.array(d_rows).T, np.array(jets).T
        )
        scalar = [
            apply_canonical_values(c, d, tuple(jet))
            for jet, c, d in zip(jets, c_rows, d_rows)
        ]
        assert [v.hex() for v in grid.tolist()] == [v.hex() for v in scalar]
        # where f = 0 the log terms leave the c-term sum bitwise as it is
        for jet, c, d, got in zip(jets, c_rows, d_rows, scalar):
            if jet[0] == 0.0:
                assert got.hex() == apply_canonical_values(c, [], tuple(jet)).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_d_values_are_bitwise_no_log_terms(self, n):
        # the fact coefficient_values' empty d-row rests on: with finite f each
        # (±0.0·f)·ln|f|^i is ±0.0 and the c-term sum is never -0.0. f = ±0.0
        # on every 50th jet, |f| reaches 1e300 (where f·ln|f|^3 overflows, so
        # the product must be taken as (d·f)·ln|f|^i), and every 100th jet
        # from the 1st has zero derivatives.
        rng = random.Random(n)
        points = 20000
        jets, c_rows, zero_rows = [], [], []
        for p in range(points):
            size = 0.0 if p % 50 == 0 else 10.0 ** rng.uniform(-300, 300)
            derivs = [0.0] * n if p % 100 == 1 else [rng.uniform(-3, 3) for _ in range(n)]
            jets.append([rng.choice((-1.0, 1.0)) * size] + derivs)
            c_rows.append([rng.uniform(-2, 2) for _ in range(n)])
            zero_rows.append([rng.choice((-0.0, 0.0)) for _ in range(n)])
        for jet, c, zeros in zip(jets, c_rows, zero_rows):
            want = apply_canonical_values(c, (), jet).hex()
            assert apply_canonical_values(c, zeros, jet).hex() == want
        stack, c_stack = np.array(jets).T, np.array(c_rows).T
        full = apply_canonical_values(c_stack, np.array(zero_rows).T, stack)
        assert full.tobytes() == apply_canonical_values(c_stack, (), stack).tobytes()


class TestIsLinearForm:
    """The d-row of coefficient_values is empty, () at a point and (0, P) on
    a grid, exactly where every d value read is ±0.0."""

    grid = (-0.5, 0.0, 0.5)

    def test_all_zero_log_terms(self):
        op = linear_op([fn_constant(1.0), fn_constant(0.0)])
        assert op.coefficient_values(0.3)[1] == ()
        assert op.coefficient_values(self.grid)[1].shape == (0, 3)

    def test_nonzero_log_coefficient(self):
        # d_1 = x is not the zero function, but the values decide: no log
        # terms at the point 0, the full row on a grid with a nonzero value
        op = CanonicalOp(1, [fn_constant(1.0)], [fn_from_expr("x")])
        assert op.coefficient_values(0.0)[1] == ()
        assert op.coefficient_values((0.0,))[1].shape == (0, 1)
        assert op.coefficient_values(self.grid)[1].tolist() == [list(self.grid)]

    def test_entropy_is_not_linear_form(self):
        op = entropy_op()
        assert op.coefficient_values(0.3)[1] == (1.0,)
        assert op.coefficient_values(self.grid)[1].tolist() == [[1.0, 1.0, 1.0]]


class TestOperatorInvariants:
    def test_linearity_of_linear_forms(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 3)
            op = linear_op([random_polynomial(rng, 2) for _ in range(n)])
            f = random_function(rng)
            g = random_function(rng)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            x = rng.uniform(-1, 1)
            combined = apply(op, fn_linear_combination([(a, f), (b, g)]), x)
            split = a * apply(op, f, x) + b * apply(op, g, x)
            scale = abs(a * apply(op, f, x)) + abs(b * apply(op, g, x)) + 1.0
            assert abs(combined - split) <= 1e-10 * scale

    def test_odd_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            op = random_canonical_op(rng, n)
            f = random_function(rng)
            x = rng.uniform(-1, 1)
            if f.value_at(x) == 0.0:
                continue
            plus = apply(op, f, x)
            minus = apply(op, neg(f), x)
            assert math.isclose(minus, -plus, rel_tol=1e-12, abs_tol=1e-12)

    def test_units_vanish_exactly(self):
        rng = random.Random(11)
        one = fn_constant(1.0)
        minus_one = fn_constant(-1.0)
        for _ in range(25):
            op = random_canonical_op(rng, rng.randint(1, 4))
            for x in (-0.9, 0.0, 0.4, 1.1):
                assert apply(op, one, x) == 0.0
                assert apply(op, minus_one, x) == 0.0


class TestBuiltinBlackBoxes:
    def test_square(self):
        op = builtin_blackbox("square")
        assert apply(op, fn_from_expr("x+1"), 2.0) == 9.0

    def test_square_is_correctly_rounded_and_overflow_is_a_range_error(self):
        # a libm pow need not round correctly, so v ** 2 can be an ulp off
        # the exact square; the black box must give it bit for bit
        op = builtin_blackbox("square")
        rng = random.Random(11)
        for _ in range(10_000):
            v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-150.0, 150.0)
            assert apply(op, fn_constant(v), 0.0).hex() == float(Fraction(v) ** 2).hex()
        with pytest.raises(NumericRangeError):
            apply(op, fn_constant(1e200), 0.0)

    def test_translate_is_nonlocal(self):
        op = builtin_blackbox("translate")
        assert apply(op, fn_from_expr("x^2"), 1.0) == 2.25

    def test_third_derivative(self):
        op = builtin_blackbox("third-derivative")
        assert apply(op, fn_from_expr("x^3"), 0.3) == 6.0

    def test_km_entropy_matches_canonical(self):
        bb = builtin_blackbox("km-entropy")
        can = entropy_op()
        for x in (-1.5, 0.2, 2.0):
            f = fn_from_expr("x^2+1")
            assert apply(bb, f, x).hex() == apply(can, f, x).hex()
        assert apply(bb, fn_from_expr("x"), 0.0) == 0.0

    def test_unknown_name(self):
        with pytest.raises(StructuralError):
            builtin_blackbox("nope")

    def test_jet_op_order_is_nonnegative(self):
        with pytest.raises(StructuralError):
            JetOp(-1, lambda d: d[0], "bad")
        assert JetOp(0, lambda d: d[0], "f").order == 0
