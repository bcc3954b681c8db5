"""Function-space constructors: products, prescribed jets, bumps."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from opident import exprs, functions
from opident.errors import EvalDomainError, NumericRangeError, ParseError, StructuralError
from opident.functions import (
    SmoothFn,
    fn_bump,
    fn_constant,
    fn_exp_of,
    fn_from_expr,
    fn_from_jet,
    fn_monomial,
    fn_product,
    fn_linear_combination,
)
from opident.exprs import BinOp, Const, Pow, Var, parse, to_text
from opident.identities import (
    _subset_plan,
    alternating_subset_terms,
    default_grid,
    random_function,
)
from opident.operators import CanonicalOp, builtin_blackbox
from test_exprs import random_expr

E = math.e


class TestProduct:
    def test_x_times_x_squared(self):
        f = fn_product([fn_from_expr("x"), fn_from_expr("x^2")])
        assert f.eval_jet(1.0, 2) == (1.0, 3.0, 6.0)

    def test_one_is_identity(self):
        g = fn_from_expr("x^2-1")
        f = fn_product([g, fn_constant(1.0)])
        for x in (-0.5, 0.3, 2.0):
            assert f.eval_jet(x, 3) == g.eval_jet(x, 3)

    def test_all_ones(self):
        f = fn_product([fn_constant(1.0)] * 4)
        assert f.eval_jet(0.7, 5) == (1.0,) + (0.0,) * 5

    def test_empty_is_structural_error(self):
        with pytest.raises(StructuralError):
            fn_product([])

    def test_an_overflowing_partial_product_is_named(self):
        # (-1e200)² overflows to inf, which the last factor's 0.0 would turn
        # into nan; the fold stops at the inf, at a point and on a grid
        f = fn_product([fn_constant(-1e200), fn_constant(-1e200), fn_constant(0.0)])
        with pytest.raises(NumericRangeError, match=r"^non-finite jet coefficient: inf$"):
            f.eval_jet(0.0, 1)
        with pytest.raises(NumericRangeError, match=r" at x=0\.5$"):
            f.eval_jet((0.5, 1.0), 1)
        op = builtin_blackbox("translate")
        fs = [fn_constant(-1e200), fn_constant(-1e200), fn_constant(0.0)]
        with pytest.raises(NumericRangeError, match=r"^non-finite jet coefficient: inf$"):
            alternating_subset_terms(op, fs, 0.0)

    def test_order_does_not_matter(self):
        f = fn_from_expr("sin(x)")
        g = fn_from_expr("exp(x)+x")
        fg = fn_product([f, g])
        gf = fn_product([g, f])
        for x in (-1.0, 0.25, 1.5):
            assert fg.eval_jet(x, 4) == gf.eval_jet(x, 4)


class TestFromJet:
    def test_zero(self):
        f = fn_from_jet(0.0, [0.0, 0.0, 0.0])
        assert f.eval_jet(1.3, 2) == (0.0, 0.0, 0.0)

    def test_prescribed_jet_roundtrip_exact(self):
        v = [1.0, 2.0, 2.0]
        f = fn_from_jet(0.0, v)
        assert f.eval_jet(0.0, 2) == tuple(v)
        # p(x) = 1 + 2x + x^2
        assert f.eval_jet(2.0, 0)[0] == 9.0

    def test_linear_case(self):
        f = fn_from_jet(3.0, [0.0, 1.0])
        assert f.eval_jet(5.0, 0)[0] == 2.0

    def test_roundtrip_high_order(self):
        v = [0.5, -1.0, 3.0, 2.0, -0.25]
        f = fn_from_jet(-0.7, v)
        assert f.eval_jet(-0.7, 4) == tuple(v)


class TestBump:
    def test_plateau_jet(self):
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        assert f.eval_jet(1.5, 4) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_outside_support(self):
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        assert f.eval_jet(-1.0, 4) == (0.0,) * 5
        assert f.eval_jet(5.0, 2) == (0.0,) * 3

    def test_range(self):
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        for i in range(101):
            x = -0.5 + 4.0 * i / 100
            v = f.eval_jet(x, 0)[0]
            assert 0.0 <= v <= 1.0

    def test_flat_next_to_the_plateau(self):
        # the ramp parameter rounds to 1 at the first float past each
        # plateau end, where the smoothstep used to divide by zero
        f = fn_bump((-0.9, 0.8), (-0.2, 0.3))
        for x in (math.nextafter(-0.2, -1.0), math.nextafter(0.3, 1.0)):
            for order in range(5):
                assert f.eval_jet(x, order) == (1.0,) + (0.0,) * order

    def test_flat_next_to_the_support_end(self):
        # next to a support end exp(-1/t) underflows to 0 while the jet of
        # -1/t overflows; the bump is flat there
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        for x, order in ((1e-62, 4), (1e-103, 2), (1e-155, 1), (1e-309, 0), (1e-20, 4)):
            assert f.eval_jet(x, order) == (0.0,) * (order + 1)
        # the ramp parameter itself rounds to 0, where 1/t is undefined
        wide = fn_bump((0.0, 3e300), (1e300, 2e300))
        assert wide.eval_jet(1e-30, 2) == (0.0,) * 3

    def test_bad_plateau(self):
        with pytest.raises(StructuralError):
            fn_bump((0.0, 1.0), (0.0, 0.5))

    def test_first_derivative_matches_finite_difference(self):
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        h = 1e-6
        for i in range(1, 100):
            x = 3.0 * i / 100
            fd = (f.eval_jet(x + h, 0)[0] - f.eval_jet(x - h, 0)[0]) / (2 * h)
            assert abs(fd - f.eval_jet(x, 1)[1]) < 1e-4

    def test_continuity_at_joints(self):
        f = fn_bump((0.0, 3.0), (1.0, 2.0))
        for joint in (0.0, 1.0, 2.0, 3.0):
            near = [joint - 1e-9, joint + 1e-9]
            vals = [f.eval_jet(x, 0)[0] for x in near]
            ref = f.eval_jet(joint, 0)[0] if 0.0 < joint < 3.0 else 0.0
            for v in vals:
                assert abs(v - ref) < 1e-6


class TestCombinators:
    def test_exp_of_zero(self):
        f = fn_exp_of(fn_constant(0.0))
        assert f.eval_jet(0.3, 3) == (1.0, 0.0, 0.0, 0.0)

    def test_constant_minus_one(self):
        f = fn_constant(-1.0)
        assert f.eval_jet(0.0, 3) == (-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_is_a_range_error(self, c):
        with pytest.raises(NumericRangeError):
            fn_constant(c)

    @pytest.mark.parametrize("source", ["x+1e999", "x^1e400"])
    def test_non_finite_literal_is_a_parse_error(self, source):
        with pytest.raises(ParseError):
            fn_from_expr(source)

    def test_exp_of_x_squared(self):
        f = fn_exp_of(fn_from_expr("x^2"))
        j = f.eval_jet(1.0, 2)
        assert math.isclose(j[0], E, rel_tol=1e-14)
        assert math.isclose(j[1], 2 * E, rel_tol=1e-14)
        assert math.isclose(j[2], 6 * E, rel_tol=1e-14)

    def test_scale_add(self):
        f = fn_linear_combination([(2.0, fn_from_expr("x")), (-3.0, fn_constant(1.0))])
        assert f.eval_jet(2.0, 1) == (1.0, 2.0)

    def test_scale_add_zero_detection(self):
        # a zero combination used as d leaves the d-row empty
        z = fn_linear_combination([(0.0, fn_from_expr("x")), (1.0, fn_constant(0.0))])
        op = CanonicalOp(1, [fn_constant(1.0)], [z])
        assert op.coefficient_values(0.7)[1] == ()
        assert op.coefficient_values((-0.5, 0.0, 0.5))[1].shape == (0, 3)

    def test_overflowing_sum_is_a_range_error(self):
        big = fn_constant(1.7e308)
        f = fn_linear_combination([(1.0, big), (1.0, big), (-1.0, big)])
        with pytest.raises(NumericRangeError):
            f.eval_jet(0.0, 1)

    def test_sum(self):
        fs = [fn_from_expr("x"), fn_from_expr("x^2"), fn_constant(1.0)]
        f = fn_linear_combination([(1.0, g) for g in fs])
        assert f.eval_jet(2.0, 2) == (7.0, 5.0, 2.0)

    def test_monomial(self):
        f = fn_monomial(3)
        assert f.descriptor == "x^3"
        assert f.eval_jet(2.0, 4) == (8.0, 12.0, 12.0, 6.0, 0.0)
        assert fn_monomial(0).eval_jet(1.0, 2) == (1.0, 0.0, 0.0)

    def test_monomial_jet_at_zero_is_exact(self):
        for m in range(0, 171, 13):
            for order in (0, m, m + 2):
                want = [float(math.factorial(m)) if k == m else 0.0 for k in range(order + 1)]
                got = fn_monomial(m).eval_jet(0.0, order)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_monomial_values_round_past_53_bits(self):
        # exact where m!·t^m fits in 53 bits (t^m itself is exact here)
        for m, t in itertools.product(range(23), (0.5, 1.5, -0.75)):
            numerator = abs((math.factorial(m) * Fraction(t) ** m).numerator)
            if (numerator // (numerator & -numerator)).bit_length() <= 53:
                assert fn_monomial(m).eval_jet(t, 0)[0].hex() == (t**m).hex()
        # 15!·1.5^15 needs 54 bits
        got = fn_monomial(15).eval_jet(1.5, 0)[0]
        assert got == 437.8938903808593 == 1.5**15 - math.ulp(1.5**15)

    def test_monomial_degree_within_the_float_factorials(self):
        # 170! is the largest factorial below the float range
        assert math.isclose(fn_monomial(170).eval_jet(0.5, 0)[0], 0.5**170, rel_tol=1e-12)
        with pytest.raises(NumericRangeError, match="x\\^171"):
            fn_monomial(171)

    def test_jet_consistency(self):
        # a fresh function per order, so no read is served by the memo
        def fresh():
            return fn_exp_of(fn_from_expr("sin(x)+x^2"))

        full = fresh().eval_jet(0.4, 6)
        for k in range(6):
            assert fresh().eval_jet(0.4, k) == full[: k + 1]

    def test_determinism(self):
        f = fn_from_expr("exp(x)*sin(x)")
        assert f.eval_jet(0.9, 5) == f.eval_jet(0.9, 5)


# covers both ramps of BUMP, its plateau and points outside its support
GRID = default_grid(21) + (0.123456789, -0.7, 2.0, -3.5)
BUMP = fn_bump((-0.9, 0.8), (-0.25, 0.35))


def stacked(f, grid, order):
    """The reference: the per-point jets as columns."""
    return np.array([f.eval_jet(x, order) for x in grid], dtype=float).T


def outcome(evaluate):
    """The bytes evaluate() returns, or the type and text of what it raises."""
    try:
        return evaluate().tobytes()
    except (EvalDomainError, NumericRangeError) as exc:
        return type(exc), str(exc)


def assert_grid_parity(f, grid=GRID, orders=range(7)):
    for order in orders:
        got = f.eval_jet(grid, order)
        want = stacked(f, grid, order)
        assert got.shape == want.shape == (order + 1, len(grid))
        assert got.tobytes() == want.tobytes(), (f.descriptor, order)


class TestGridEval:
    """eval_jet on a grid is bitwise the per-point jets, stacked."""

    @pytest.mark.parametrize(
        "f",
        [
            fn_constant(2.5),
            fn_constant(-1.0),
            fn_constant(0.0),
            fn_from_jet(0.3, [1.0, -2.0, 0.5]),  # degree 2 below orders 3..6
            fn_from_jet(-0.7, [0.5, -1.0, 3.0, 2.0, -0.25, 1.5, -4.0, 0.125]),
            fn_monomial(0),
            fn_monomial(3),
            fn_exp_of(fn_from_jet(0.0, [0.1, 1.5, -2.0, 0.7])),
            fn_exp_of(fn_constant(0.0)),
            fn_product([fn_from_jet(0.0, [1.0, 2.0]), fn_exp_of(fn_from_expr("x"))]),
            fn_exp_of(fn_product([fn_monomial(2), fn_constant(-0.5)])),
            fn_from_expr("sin(2*x)*exp(x)"),
            fn_exp_of(fn_from_expr("1/(2+x)")),
        ],
        ids=lambda f: f.descriptor,
    )
    def test_batched_constructors(self, f):
        assert_grid_parity(f)

    @pytest.mark.parametrize(
        "f",
        [
            fn_from_expr("2.5"),
            fn_from_expr("x"),
            fn_from_expr("-x"),
            fn_from_expr("(x+0.5)^3"),
            fn_from_expr(Pow(BinOp("+", Var(), Const(4.0)), -2.0)),
            fn_from_expr("(x+4)^2.5"),
            fn_from_expr("sin(3*x)"),
            fn_from_expr("cos(x^2)"),
            fn_from_expr("exp(-x)"),
            fn_from_expr("ln(x+4)"),
            fn_from_expr("abs(x-0.31)"),
            fn_from_expr("x+sin(x)"),
            fn_from_expr("1-x^2"),
            fn_from_expr("x*cos(x)"),
            fn_from_expr("1/(x+4)"),
            fn_from_expr("-sin(x)/(2+cos(x))"),
        ],
        ids=lambda f: f.descriptor,
    )
    def test_every_expression_node(self, f):
        assert_grid_parity(f)

    def test_random_expressions(self):
        # out-of-domain points included: the grid then raises the per-point error
        rng = random.Random(2504)
        for _ in range(200):
            tree = random_expr(rng, rng.randint(1, 5))
            for order in range(7):
                per_point = outcome(lambda: stacked(fn_from_expr(tree), GRID, order))
                on_grid = outcome(lambda: fn_from_expr(tree).eval_jet(GRID, order))
                assert on_grid == per_point, (to_text(tree), order)

    @pytest.mark.parametrize(
        "f",
        [
            fn_linear_combination([(2.0, fn_from_expr("x^2")), (-3.0, fn_monomial(1))]),
            BUMP,
            fn_product([BUMP, fn_from_expr("cos(x)")]),
        ],
        ids=lambda f: f.descriptor,
    )
    def test_defaulting_constructors(self, f):
        assert_grid_parity(f)

    def test_random_suite_functions(self):
        rng = random.Random(5)
        for _ in range(30):
            assert_grid_parity(random_function(rng), orders=(0, 4))

    @pytest.mark.parametrize("size", (3, 4))
    def test_product_under_every_permutation_with_ties(self, size):
        # at x=0 every value is 1 and some first derivatives tie too; the
        # first factor enters twice, so whole jets tie as well. Inexact
        # derivatives make the fold order show in the bits.
        factors = [
            fn_from_jet(0.0, [1.0, 0.1, 0.7, -0.3, 0.11, 0.9]),
            fn_from_jet(0.0, [1.0, 0.1, -1 / 3, 0.6, 0.2]),
            fn_from_jet(0.0, [1.0, 0.3, 0.123, 0.77]),
            fn_constant(1.0),
            fn_from_jet(0.0, [1.0, 0.1, 0.7, -0.3, 0.11, 0.9]),
            fn_exp_of(fn_from_jet(0.0, [0.0, 0.37, -1.1])),
        ]
        grid = (0.0, 0.25, -0.5, 0.0, 1.0)
        for chosen in itertools.combinations(factors, size):
            for perm in itertools.permutations(chosen):
                assert_grid_parity(fn_product(perm), grid, orders=(0, 1, 5))

    def test_out_of_domain_point_is_the_per_point_error(self):
        f = fn_product([fn_from_expr("ln(x)"), fn_monomial(1)])
        with pytest.raises(EvalDomainError) as per_point:
            f.eval_jet(-1.0, 2)
        with pytest.raises(EvalDomainError) as grid:
            f.eval_jet((0.5, -1.0, 0.25), 2)
        assert str(grid.value) == str(per_point.value)

    @pytest.mark.parametrize(
        "tree",
        [
            parse("ln(x-0.5)"),
            parse("1/(x-0.5)"),
            parse("(x-0.5)^2.5"),
            Pow(BinOp("-", Var(), Const(0.5)), -2.0),
            parse("abs(x-0.5)"),
        ],
        ids=to_text,
    )
    def test_expression_domain_error_is_the_per_point_error(self, tree):
        # 0.5 is the first point out of the domain
        grid = (1.0, 0.75, 0.5, 0.25, 2.0)
        with pytest.raises(EvalDomainError) as per_point:
            fn_from_expr(tree).eval_jet(0.5, 2)
        with pytest.raises(EvalDomainError) as on_grid:
            fn_from_expr(tree).eval_jet(grid, 2)
        assert str(on_grid.value) == str(per_point.value)

    def test_abs_at_a_zero_has_a_value(self):
        assert_grid_parity(fn_from_expr("abs(x-0.5)"), (1.0, 0.5, -0.0, 0.0), orders=(0,))

    def test_expression_overflow_is_the_per_point_range_error(self):
        # x*1e200*1e200 is inf at ±1, where math.sin would raise ValueError
        for order in (0, 2):
            with pytest.raises(NumericRangeError) as per_point:
                fn_from_expr("sin(x*1e200*1e200)").eval_jet(1.0, order)
            with pytest.raises(NumericRangeError) as on_grid:
                fn_from_expr("sin(x*1e200*1e200)").eval_jet((0.0, 1.0, -1.0), order)
            assert str(on_grid.value) == str(per_point.value)

    @pytest.mark.parametrize(
        "f",
        [
            fn_exp_of(fn_from_jet(0.0, [700.0, 20.0])),  # math.exp overflows at 710
            fn_exp_of(fn_from_jet(0.0, [0.0, 1e200])),  # a derivative overflows
            fn_product([fn_constant(1e200), fn_constant(1e200)]),
        ],
        ids=lambda f: f.descriptor,
    )
    def test_overflow_is_a_range_error(self, f):
        grid = (0.0, 1.0, 0.5)
        with pytest.raises(NumericRangeError):
            for x in grid:
                f.eval_jet(x, 2)
        with pytest.raises(NumericRangeError):
            f.eval_jet(grid, 2)

    def test_range_error_names_the_first_bad_point(self):
        # (1e200·x)² overflows at ±1 but not at 0 or 1e-150
        f = fn_product([fn_from_jet(0.0, [0.0, 1e200])] * 2)
        with pytest.raises(NumericRangeError, match=r" at x=-1\.0$"):
            f.eval_jet((0.0, 1e-150, -1.0, 1.0), 0)

    def test_first_failing_point_wins(self):
        # a stacked rule, and a row rule rerun per point, stop at the first
        # point that raises or whose jet is not finite
        overflow = fn_from_jet(0.0, [0.0, 1e200])  # its square overflows at 2, not at 1e-150
        f = fn_product([overflow, overflow, fn_from_expr("ln(x)")])
        with pytest.raises(NumericRangeError, match=r" at x=2\.0$"):
            f.eval_jet((1e-150, 2.0, -1.0), 1)
        with pytest.raises(EvalDomainError) as per_point:
            f.eval_jet(-1.0, 1)
        with pytest.raises(EvalDomainError) as on_grid:
            f.eval_jet((1e-150, -1.0, 2.0), 1)
        assert str(on_grid.value) == str(per_point.value)
        # exp's derivative overflows at 0, its value at 1
        g = fn_exp_of(fn_from_jet(0.0, [700.0, 1e200]))
        with pytest.raises(NumericRangeError, match=r" at x=0\.0$"):
            g.eval_jet((0.0, 1.0), 1)

    def test_non_finite_point_is_the_per_point_error(self):
        # every constructor raises before its rule runs, so no rule's
        # NumericRangeError or EvalDomainError can come first
        for name, fresh in FRESH.items():
            for bad in (math.inf, -math.inf, math.nan):
                f = fresh()
                calls = recorded(f)
                with pytest.raises(StructuralError) as per_point:
                    f.eval_jet(bad, 1)
                with pytest.raises(StructuralError) as grid:
                    f.eval_jet((0.0, bad), 1)
                assert str(grid.value) == str(per_point.value), name
                assert calls == [], name

    @pytest.mark.parametrize(
        "fresh, kernel",
        [
            (lambda: fn_constant(-2.5), None),
            (lambda: fn_from_expr("sin(2*x)*exp(x)-ln(x+4)"), (exprs, "run_program")),
            (lambda: fn_from_jet(0.3, [0.5, -1.0, 3.0, 2.0]), (functions, "_poly_derivs")),
            (lambda: fn_monomial(4), (functions, "_poly_derivs")),
            (lambda: fn_exp_of(fn_from_jet(0.0, [0.1, 1.5, -2.0])), (functions, "_exp_derivs")),
        ],
        ids=["constant", "from_expr", "from_jet", "monomial", "exp_of"],
    )
    def test_row_rules_run_once_per_grid(self, fresh, kernel, monkeypatch):
        # a rule that stacked its points instead would still be bitwise
        # right, only about 7 times slower
        want = stacked(fresh(), GRID, 4)
        on_rows = []
        if kernel is not None:
            module, name = kernel
            inner = getattr(module, name)

            def spy(*args):
                on_rows.append(any(isinstance(a, np.ndarray) for a in args))
                return inner(*args)

            monkeypatch.setattr(module, name, spy)
        f = fresh()
        calls = recorded(f)
        assert f.eval_jet(GRID, 4).tobytes() == want.tobytes()
        assert calls == [GRID]
        if kernel is not None:
            assert on_rows and all(on_rows)  # the kernel runs, and only on rows

    def test_read_only_and_memoized(self):
        f = fn_exp_of(fn_from_jet(0.0, [0.1, 1.5, -2.0]))
        first = f.eval_jet(GRID, 3)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert f.eval_jet(GRID, 3) is first
        assert f.eval_jet(GRID, 2) is not first

    def test_empty_grid(self):
        for f in (fn_from_expr("x"), fn_monomial(2)):
            assert f.eval_jet((), 3).shape == (4, 0)


def recorded(f):
    """The points and grids f's rule is called on from now on."""
    calls = []
    rule = f._derivs
    f._derivs = lambda x0, order: calls.append(x0) or rule(x0, order)
    return calls


def hexes(jet):
    return [d.hex() for d in jet]


# Fresh-function factories: every constructor, a subset plan's product,
# and fn_from_expr on every DSL node.
FRESH = {
    "constant": lambda: fn_constant(-2.5),
    "from_jet": lambda: fn_from_jet(0.3, [0.5, -1.0, 3.0, 2.0, -0.25, 1.5, -4.0, 0.125]),
    "monomial": lambda: fn_monomial(4),
    "exp_of": lambda: fn_exp_of(fn_from_jet(0.0, [0.1, 1.5, -2.0, 0.7])),
    "product": lambda: fn_product(
        [fn_from_jet(0.0, [1.0, 2.0, -1.0]), fn_exp_of(fn_from_expr("x")), fn_from_expr("cos(x)")]
    ),
    "linear_combination": lambda: fn_linear_combination(
        [(2.0, fn_from_expr("x^2")), (-3.0, fn_from_expr("sin(x)"))]
    ),
    "bump": lambda: fn_bump((-0.9, 0.8), (-0.25, 0.35)),
    "plan_product": lambda: _subset_plan(
        [fn_from_expr("sin(x)+2"), fn_from_expr("x^2"), fn_from_jet(0.0, [1.0, 0.5, -0.3])]
    )[0][0],
    **{
        to_text(tree): (lambda tree=tree: fn_from_expr(tree))
        for tree in (
            parse("3"),
            parse("x"),
            parse("-x"),
            parse("abs(x-0.31)"),
            parse("ln(x+4)"),
            parse("1/(x+4)"),
            parse("-sin(x)/(2+cos(x))"),
            parse("(x+4)^3"),
            Pow(BinOp("+", Var(), Const(4.0)), -2.0),
            parse("(x+4)^2.5"),
            parse("sin(3*x)"),
            parse("cos(x^2)"),
            parse("exp(-x)"),
            parse("x*cos(x)-x^2"),
        )
    },
}
# the bump's rising ramp, plateau and falling ramp, and a point outside it
POINTS = (-0.7, -0.1, 0.0, 0.3, 0.5, 0.95)
TOP = 6


class TestPrefixContract:
    """An order-k jet is bitwise the first k+1 entries of the order-K jet,
    k < K, for fresh functions: what lets the memo answer lower orders."""

    @pytest.mark.parametrize("fresh", FRESH.values(), ids=list(FRESH))
    def test_at_points(self, fresh):
        for x in POINTS:
            top = hexes(fresh().eval_jet(x, TOP))
            for k in range(TOP):
                assert hexes(fresh().eval_jet(x, k)) == top[: k + 1], (x, k)

    @pytest.mark.parametrize("fresh", FRESH.values(), ids=list(FRESH))
    def test_on_a_grid(self, fresh):
        top = fresh().eval_jet(POINTS, TOP)
        for k in range(TOP):
            assert fresh().eval_jet(POINTS, k).tobytes() == top[: k + 1].tobytes(), k

    @pytest.mark.parametrize("fresh", FRESH.values(), ids=list(FRESH))
    def test_negative_order_is_a_structural_error(self, fresh):
        for x, order in itertools.product((0.3, (0.3, 0.5)), (-1, -2)):
            f = fresh()
            with pytest.raises(StructuralError, match="order must be nonnegative"):
                f.eval_jet(x, order)
            f.eval_jet(x, 2)  # and with a memo entry to read a prefix of
            with pytest.raises(StructuralError, match="order must be nonnegative"):
                f.eval_jet(x, order)


def counted(top: int = TOP):
    """A SmoothFn with jets (1, 2, ..., order+1) up to order `top`, above
    which it raises NumericRangeError, and the list of its evaluations."""
    calls = []

    def derivs(x0, order):
        if type(x0) is tuple:
            return None  # stacked per point
        calls.append((x0, order))
        if order > top:
            raise NumericRangeError(f"order {order} overflows")
        return [float(k + 1) for k in range(order + 1)]

    return SmoothFn("counted", derivs), calls


class TestMemo:
    """One entry per point or grid: the highest order evaluated there."""

    def test_lower_orders_read_the_entry_at_a_point(self):
        f, calls = counted()
        f.eval_jet(0.3, 1)
        top = f.eval_jet(0.3, 4)
        assert f.eval_jet(0.3, 4) is top
        assert f.eval_jet(0.3, 2) == (1.0, 2.0, 3.0)
        assert f.eval_jet(0.3, 0) == (1.0,)
        assert f.value_at(0.3) == 1.0
        assert calls == [(0.3, 1), (0.3, 4)]
        f.value_at(0.5)
        f.eval_jet(0.5, 2)
        assert calls[2:] == [(0.5, 0), (0.5, 2)]

    def test_lower_orders_read_the_entry_on_a_grid(self):
        f, calls = counted()
        grid = (0.0, 0.5)
        top = f.eval_jet(grid, 3)
        low = f.eval_jet(grid, 1)
        assert low.base is top and not low.flags.writeable
        assert low.tolist() == [[1.0, 1.0], [2.0, 2.0]]
        assert f.eval_jet(grid, 3) is top
        assert calls == [(0.0, 3), (0.5, 3)]

    def test_a_failed_upgrade_keeps_the_entry(self):
        f, calls = counted(top=2)
        kept = f.eval_jet(0.3, 2)
        with pytest.raises(NumericRangeError):
            f.eval_jet(0.3, 5)
        assert f.eval_jet(0.3, 2) is kept
        assert f.eval_jet(0.3, 1) == (1.0, 2.0)
        grid = (0.0, 0.5)
        kept = f.eval_jet(grid, 1)
        with pytest.raises(NumericRangeError):
            f.eval_jet(grid, 3)
        assert f.eval_jet(grid, 1) is kept
        assert calls == [(0.3, 2), (0.3, 5), (0.0, 1), (0.5, 1), (0.0, 3)]

    def test_a_full_memo_is_cleared_and_reads_again(self, monkeypatch):
        # at _CACHE_CAP entries the memo is emptied before the next one is
        # stored; what is read again is evaluated again, bitwise as first read
        monkeypatch.setattr(functions, "_CACHE_CAP", 3)
        f = fn_from_expr("sin(x)*exp(x)/(2+x^2)")
        keys = [0.25, -0.5, (0.0, 0.5), 1.5, (0.5, 1.0, 2.0), 0.75, -0.0]
        first = []
        for x in keys:
            first.append(np.array(f.eval_jet(x, 3)).tobytes())
            assert 1 <= len(f._cache) <= 3
        for x, want in zip(keys * 2, first * 2):
            assert np.array(f.eval_jet(x, 3)).tobytes() == want
            assert len(f._cache) <= 3
        counter, calls = counted()
        for x in (0.1, 0.2, 0.3, 0.4, 0.1):
            counter.eval_jet(x, 1)
        # the fourth point cleared the memo, so 0.1 is evaluated twice
        assert calls == [(0.1, 1), (0.2, 1), (0.3, 1), (0.4, 1), (0.1, 1)]

    @pytest.mark.parametrize("source", ["x", "-x", "sin(x)"])
    def test_signed_zeros_are_read_apart(self, source):
        # 0.0 and -0.0 compare and hash equal, yet these functions keep the
        # sign: every read is what a fresh function reads, whatever came first
        def signs(values):
            return [math.copysign(1.0, v) for v in values]

        def reads(f, x):
            if type(x) is tuple:
                return signs(f.eval_jet(x, 0).ravel()) + signs(f.eval_jet(x, 1).ravel())
            return signs([f.value_at(x)]) + signs(f.eval_jet(x, 1))

        grids = [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)]
        for first, then in itertools.permutations([0.0, -0.0, *grids], 2):
            f = fn_from_expr(source)
            f.eval_jet(first, 3)
            f.value_at(first[0] if type(first) is tuple else first)
            assert reads(f, then) == reads(fn_from_expr(source), then), (first, then)
        assert reads(fn_from_expr(source), -0.0) != reads(fn_from_expr(source), 0.0)


class TestRuleOutput:
    """SmoothFn checks what a rule gives: order+1 finite entries, stored at a
    point as a tuple of floats."""

    def test_a_point_reads_a_tuple_of_floats(self):
        f = SmoothFn("mixed", lambda x0, order: [1] + [np.float64(2.5)] * order)
        got = f.eval_jet(0.3, 3)
        assert got == (1.0, 2.5, 2.5, 2.5)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert f.eval_jet(0.3, 1) == (1.0, 2.5) and type(f.eval_jet(0.3, 1)) is tuple

    def test_a_non_finite_entry_is_a_range_error(self):
        f = SmoothFn("overflow", lambda x0, order: [1.0] + [math.inf] * order)
        with pytest.raises(NumericRangeError, match=r"^non-finite jet coefficient: inf$"):
            f.eval_jet(0.3, 2)
        assert f._cache == {}

    @pytest.mark.parametrize("entries", [1, 0, 6], ids=["too-few", "zero", "too-many"])
    @pytest.mark.parametrize(
        "x0, rows",
        [(0.3, True), ((0.0, 0.5, 1.0), True), ((0.0, 0.5, 1.0), False)],
        ids=["point", "row-rule", "stacked"],
    )
    def test_a_wrong_entry_count_is_a_structural_error(self, entries, x0, rows):
        # a row rule's float entries stand for rows constant on the grid
        def derivs(x, order):
            return None if type(x) is tuple and not rows else [1.0] * entries

        f = SmoothFn("short", derivs)
        want = f"the jet rule of short gave {entries} entries for order 3, not 4"
        with pytest.raises(StructuralError, match=f"^{want}$"):
            f.eval_jet(x0, 3)
        assert f._cache == {}
