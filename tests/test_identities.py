"""Identity engine: residuals, structural sanity, and the random suites."""

import collections
import gc
import itertools
import json
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

from opident.errors import EvalDomainError, NumericRangeError, StructuralError
from opident.functions import (
    SmoothFn,
    fn_bump,
    fn_constant,
    fn_from_expr,
    fn_from_jet,
    fn_linear_combination,
    fn_product,
)
from opident import identities
from opident.identities import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    SamplingConfig,
    _Aggregator,
    _canonical_arrays,
    _column_scales,
    _family_jets,
    _points_batched,
    _points_per_point,
    _power_terms,
    alternating_subset_residual,
    alternating_subset_terms,
    check_localization,
    check_poly_annihilation,
    check_units,
    default_grid,
    random_function,
    run_check_suite_full,
    subset_masks,
)
from opident.jets import binomial_row, signed_sum
from opident.operators import (
    BlackBoxOp,
    JetOp,
    apply,
    builtin_blackbox,
    derivative_op,
    entropy_op,
    linear_op,
)
from opident.identities import random_polynomial
from opident.suites import random_canonical_op

X = fn_from_expr("x")
X2 = fn_from_expr("x^2")
BUMP = fn_bump((2.0, 4.0), (2.5, 3.5))


class TestSubsetResidual:
    def test_leibniz_exactness(self):
        op = derivative_op(1)
        for x in (-1.0, 0.2, 3.0):
            assert abs(alternating_subset_residual(op, [X, X2], x)) < 1e-12

    def test_square_counterexample(self):
        op = builtin_blackbox("square")
        assert alternating_subset_residual(op, [X, X], 1.0) == -1.0

    def test_second_derivative_triple(self):
        op = derivative_op(2)
        for x in (-0.5, 1.0, 2.0):
            r = alternating_subset_residual(op, [X, X, X], x)
            assert abs(r) < 1e-12 * max(1.0, abs(x) ** 3)

    def test_residual_is_the_correctly_rounded_sum(self):
        # the terms are [1e16, 1.0, -1e16] in one order or another; a plain
        # or sorted float sum gives 0.0 on some interpreters
        table = BlackBoxOp(lambda g, x: {2.0: 1e16, 1.0: -0.5}[g.value_at(x)], "table")
        fs = [fn_constant(2.0), fn_constant(1.0)]
        for tup in (fs, fs[::-1]):
            assert sorted(alternating_subset_terms(table, tup, 0.0)) == [-1e16, 1.0, 1e16]
            assert alternating_subset_residual(table, tup, 0.0) == 1.0

    def test_needs_two_functions(self):
        with pytest.raises(StructuralError):
            alternating_subset_residual(derivative_op(1), [X], 0.0)


def _fn_product_terms(op, fs, x):
    """The subset terms with one fn_product per complement and the outside
    products by math.prod(sorted(...)), written out."""
    values = [f.value_at(x) for f in fs]
    terms = []
    for mask in subset_masks(len(fs)):
        outside = math.prod(sorted(values[j] for j in range(len(fs)) if mask >> j & 1))
        complement = [f for j, f in enumerate(fs) if not mask >> j & 1]
        signed = outside * apply(op, fn_product(complement), x)
        terms.append(-signed if mask.bit_count() % 2 else signed)
    return terms


def _first_error(terms_fn, op, fs, grid):
    """(x, exception type) of the first grid point where terms_fn raises."""
    for x in grid:
        try:
            terms_fn(op, fs, x)
        except (EvalDomainError, NumericRangeError) as exc:
            return x, type(exc)
    return None


# jets at x = 0 tied in value with ±0.0 entries, duplicates and sign changes
PLAN_POOL = (
    fn_constant(0.0),
    fn_constant(-0.0),
    fn_constant(1.0),
    fn_from_expr("x"),
    fn_from_expr("-x"),
    fn_from_expr("x^2"),
    fn_from_expr("sin(x)"),
    fn_from_expr("-sin(x)"),
    fn_from_expr("exp(x)-1"),
    fn_from_jet(0.0, [1.0, -0.0, 2.0, -3.0]),
    fn_from_jet(0.0, [1.0, 0.0, 2.0, -3.0]),
)
# the operators read orders 0, 1 and 3 at the call's point, and order 0
# half a unit away; the last two have log terms, which take the formula's
# f = 0 branch at the pool's exact zeros
PLAN_OPS = (
    builtin_blackbox("square"),
    BlackBoxOp(lambda f, x: f.eval_jet(x, 1)[1], "f -> f'"),
    builtin_blackbox("third-derivative"),
    builtin_blackbox("translate"),
    derivative_op(3),
    entropy_op(),
    random_canonical_op(random.Random(7), 2),
)


class TestSubsetPlan:
    """The opaque path against one fn_product per subset, bitwise."""

    @pytest.mark.parametrize("m", range(2, 6))
    def test_products_are_fn_products(self, m):
        rng = random.Random(m)
        for _ in range(12):
            fs = [rng.choice(PLAN_POOL) for _ in range(m)]
            for perm in [fs, fs[::-1], rng.sample(fs, m)]:
                plan = identities._subset_plan(perm)
                for mask, (prod, odd) in zip(subset_masks(m), plan):
                    want = fn_product([f for j, f in enumerate(perm) if not mask >> j & 1])
                    assert prod.descriptor == want.descriptor
                    assert odd == mask.bit_count() % 2
                    for x, order in itertools.product((0.0, 0.5), (0, 1, 3)):
                        got = prod.eval_jet(x, order)
                        assert [d.hex() for d in got] == [
                            d.hex() for d in want.eval_jet(x, order)
                        ]

    @pytest.mark.parametrize("m", range(2, 6))
    def test_terms_are_the_fn_product_terms(self, m):
        rng = random.Random(10 + m)
        for _ in range(6):
            fs = [rng.choice(PLAN_POOL) for _ in range(m)]
            for op, x in itertools.product(PLAN_OPS, (0.0, -0.3)):
                got = alternating_subset_terms(op, fs, x)
                want = _fn_product_terms(op, fs, x)
                assert [t.hex() for t in got] == [float(t).hex() for t in want]
            # the powers fs[0]^k of the per-point engine
            _, inner, _ = _points_per_point(PLAN_OPS[2], fs, [0.0, -0.3])
            for i, k in enumerate(range(m, 0, -1)):
                want = [apply(PLAN_OPS[2], fn_product([fs[0]] * k), x) for x in (0.0, -0.3)]
                assert [v.hex() for v in inner[i].tolist()] == [v.hex() for v in want]

    def test_outside_products_with_jets_are_fn_products(self):
        # ranked by jets, each outside product is bitwise the sorted product
        # of its values, and each product jet is fn_product's, ±0.0 and ties
        # included
        rng = random.Random(6)
        for m in range(1, 6):
            for _ in range(40):
                fs = [rng.choice(PLAN_POOL) for _ in range(m)]
                for x, order in itertools.product((0.0, -0.0, 0.5), (0, 1, 3)):
                    jets = [f.eval_jet(x, order) for f in fs]
                    outside, prods = identities._outside_products(jets)
                    for mask in range(1 << m):
                        inside = sorted(jets[j][0] for j in range(m) if mask >> j & 1)
                        assert outside[mask].hex() == float(math.prod(inside)).hex()
                    for mask in range(1, 1 << m):
                        product = fn_product([f for j, f in enumerate(fs) if mask >> j & 1])
                        got = [d.hex() for d in prods[mask]]
                        assert got == [d.hex() for d in product.eval_jet(x, order)]

    def test_errors_are_the_fn_product_errors(self):
        grid = default_grid(9)
        big, ln = fn_constant(1e200), fn_from_expr("ln(x)")
        tuples = (
            [X, ln, X2],
            [ln, fn_from_expr("1/x")],
            [big, big, fn_constant(1.0)],
            [fn_constant(-1e200), fn_constant(-1e200), fn_constant(0.0)],
            [X, big, fn_from_expr("1e200*x"), X2],
        )
        for fs, op in itertools.product(tuples, PLAN_OPS):
            error = _first_error(alternating_subset_terms, op, fs, grid)
            assert error is not None
            assert error == _first_error(_fn_product_terms, op, fs, grid)
        # a failing factor raises its own error, message and all
        with pytest.raises(EvalDomainError) as got:
            alternating_subset_terms(PLAN_OPS[2], tuples[0], -0.5)
        with pytest.raises(EvalDomainError) as want:
            _fn_product_terms(PLAN_OPS[2], tuples[0], -0.5)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_one_conv_per_product_and_no_cycle(self, m, monkeypatch):
        calls = collections.Counter()
        conv = identities._conv
        monkeypatch.setattr(identities, "_conv", lambda a, b: calls.update(["conv"]) or conv(a, b))
        product = identities.fn_product
        monkeypatch.setattr(
            identities, "fn_product", lambda fs: calls.update(["fn_product"]) or product(fs)
        )
        fs = [fn_from_expr(f"sin({j + 1}*x)+2") for j in range(m)]
        products = []

        def third(f, x):
            if all(f is not g for g in fs):
                products.append(weakref.ref(f._derivs))
            return f.eval_jet(x, 3)[3]

        gc.disable()
        try:
            alternating_subset_terms(BlackBoxOp(third, "f -> f'''"), fs, 0.3)
            # one fn_product per complement, and no _conv of the identities' own
            assert calls == {"fn_product": 2**m - 1}
            assert len(products) == 2**m - m - 1
            assert all(ref() is None for ref in products)
        finally:
            gc.enable()


def _counted(f):
    """f behind a SmoothFn whose rule records the point of every call."""
    calls = []

    def derivs(x0, order):
        if type(x0) is tuple:
            return None  # stacked per point
        calls.append(x0)
        return f.eval_jet(x0, order)

    return SmoothFn(f.descriptor, derivs), calls


class TestOncePerPoint:
    """The tuple's values are read after D's applies, as prefixes of the
    jets they evaluated: each input is evaluated once per point."""

    SOURCES = ("sin(x)+2", "x^2+1", "exp(x)", "1/(3+x)")

    @pytest.mark.parametrize("name", ("third-derivative", "km-entropy", "square"))
    def test_subset_terms(self, name):
        op = builtin_blackbox(name)
        fs, calls = zip(*(_counted(fn_from_expr(s)) for s in self.SOURCES))
        got = alternating_subset_terms(op, fs, 0.3)
        assert list(calls) == [[0.3]] * len(fs)
        want = _fn_product_terms(op, [fn_from_expr(s) for s in self.SOURCES], 0.3)
        assert [t.hex() for t in got] == [float(t).hex() for t in want]

    def test_suite(self, monkeypatch):
        # an opaque box runs the per-point engine; a JetOp's suite runs on grids
        op, n = BlackBoxOp(lambda f, x: f.eval_jet(x, 3)[3], "f -> f'''"), 3
        cfg = SamplingConfig(seed=3, tuples=2, grid=default_grid(5))
        want = run_check_suite_full(op, n, cfg)
        counts = []
        build = identities._function_of

        def counted_build(descriptor, p, q):
            f, calls = _counted(build(descriptor, p, q))
            counts.append(calls)
            return f

        # the suite draws jets and builds functions only for a black box
        monkeypatch.setattr(identities, "_function_of", counted_build)
        got = run_check_suite_full(op, n, cfg)
        assert counts == [list(cfg.grid)] * (cfg.tuples * (n + 1))
        assert got.report.to_json() == want.report.to_json()
        assert got.diagonal_gap.to_json() == want.diagonal_gap.to_json()


class TestDrawsAsJets:
    """The suite draws its tuples as jets: the grid engine of a local D
    builds no function, and only a black box's tuples are built."""

    @pytest.mark.parametrize(
        "name", ("random-canonical", "square", "third-derivative", "km-entropy", "translate")
    )
    def test_a_local_suite_builds_no_function(self, monkeypatch, name):
        if name == "random-canonical":
            op = random_canonical_op(random.Random(8), 3)
        else:
            op = builtin_blackbox(name)
        cfg = SamplingConfig(seed=8, tuples=3, grid=default_grid(7))
        want = run_check_suite_full(op, 3, cfg)

        def refuse(*draw):
            raise AssertionError("a function was built")

        monkeypatch.setattr(identities, "_function_of", refuse)
        if isinstance(op, BlackBoxOp):
            with pytest.raises(AssertionError, match="a function was built"):
                run_check_suite_full(op, 3, cfg)
            return
        got = run_check_suite_full(op, 3, cfg)
        assert got.report.to_json() == want.report.to_json()
        assert got.diagonal_gap.to_json() == want.diagonal_gap.to_json()


class TestValueErrorsFirst:
    """Values are read last, yet a failing value still raises its error
    before any error of D's, as when the values were read first."""

    def _value_error(self, f, x):
        with pytest.raises(EvalDomainError) as error:
            f.value_at(x)
        return str(error.value)

    def test_a_box_that_reads_nothing(self):
        op = BlackBoxOp(lambda f, x: 0.0, "f -> 0")
        with pytest.raises(EvalDomainError) as got:
            alternating_subset_terms(op, [X2, fn_from_expr("ln(x)")], -0.5)
        assert str(got.value) == self._value_error(fn_from_expr("ln(x)"), -0.5)
        # the first failing grid point is named, -0.5, not -1.0
        with pytest.raises(EvalDomainError) as got:
            _points_per_point(op, [X2, fn_from_expr("ln(x)")], (0.5, -0.5, -1.0))
        assert str(got.value) == self._value_error(fn_from_expr("ln(x)"), -0.5)

    def test_a_value_error_comes_before_an_apply_error(self):
        # abs(x) has a value at 0 but no third derivative; ln(x) has neither
        op = builtin_blackbox("third-derivative")
        with pytest.raises(EvalDomainError, match="abs is not differentiable"):
            alternating_subset_terms(op, [fn_from_expr("abs(x)"), X2], 0.0)
        for fs in ([fn_from_expr("abs(x)"), fn_from_expr("ln(x)")],
                   [fn_from_expr("ln(x)"), fn_from_expr("abs(x)")]):
            with pytest.raises(EvalDomainError) as got:
                alternating_subset_terms(op, fs, 0.0)
            assert str(got.value) == self._value_error(fn_from_expr("ln(x)"), 0.0)
            with pytest.raises(EvalDomainError) as got:
                _points_per_point(op, fs, (0.5, 0.0))
            assert str(got.value) == self._value_error(fn_from_expr("ln(x)"), 0.0)


def _old_square(f, x):
    v = f.value_at(x)
    return v * v


def _old_entropy(f, x):
    v = f.value_at(x)
    return 0.0 if v == 0.0 else v * math.log(abs(v))


# each local builtin's opaque twin: the BlackBoxOp rule that it replaced
LOCAL_TWINS = {
    "square": BlackBoxOp(_old_square, "square: f -> f^2"),
    "third-derivative": BlackBoxOp(lambda f, x: f.eval_jet(x, 3)[3], "f -> f'''"),
    "km-entropy": BlackBoxOp(_old_entropy, "f -> f*ln|f|"),
}


def _outcome(fn, *args):
    """The hex of each float fn(*args) returns, or the type and message of
    the package error it raises."""
    try:
        out = fn(*args)
    except (EvalDomainError, NumericRangeError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in out]


def _raise(*args):
    raise AssertionError("the opaque per-point engine ran")


class TestLocalBuiltins:
    """square, third-derivative and km-entropy are JetOps, bitwise their
    opaque twins, and run on the jet engines only."""

    @pytest.mark.parametrize("name", sorted(LOCAL_TWINS))
    @pytest.mark.parametrize("m", range(2, 6))
    def test_subset_terms_are_the_twins(self, name, m):
        op, twin = builtin_blackbox(name), LOCAL_TWINS[name]
        assert isinstance(op, JetOp) and op.descriptor == twin.descriptor
        rng = random.Random(30 + m)
        for _ in range(50):
            fs = [rng.choice(PLAN_POOL) for _ in range(m)]
            for x in (0.0, -0.0, 0.5, -1.0):
                got = _outcome(alternating_subset_terms, op, fs, x)
                assert got == _outcome(alternating_subset_terms, twin, fs, x)

    @pytest.mark.parametrize("name", sorted(LOCAL_TWINS))
    def test_grid_apply_is_the_point_values(self, name):
        op, twin = builtin_blackbox(name), LOCAL_TWINS[name]
        grid = tuple(i / 8 for i in range(-8, 9))
        # zeros at 0 and 0.5; zeros at ±1 and -1 at 0; the constants 0, -0, ±1
        fs = [fn_from_expr("x*(x-0.5)*exp(x)"), fn_from_expr("sin(3*x)+2"), fn_from_expr("x^2-1")]
        fs += [fn_constant(v) for v in (0.0, -0.0, 1.0, -1.0)]
        for f in fs:
            got = [v.hex() for v in apply(op, f, grid).tolist()]
            assert got == [apply(op, f, x).hex() for x in grid]
            assert got == [apply(twin, f, x).hex() for x in grid]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_suite_is_the_twins(self, n):
        cfg = SamplingConfig(seed=40 + n, tuples=3)
        for name, twin in LOCAL_TWINS.items():
            got = run_check_suite_full(builtin_blackbox(name), n, cfg)
            want = run_check_suite_full(twin, n, cfg)
            assert got == want
            for a, b in ((got.report, want.report), (got.diagonal_gap, want.diagonal_gap)):
                assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_suite_error_is_the_per_point_engines(self):
        # 1e307·f' first overflows at 1.0 for the first of seed 4's tuples
        # and at 0.75 for the second: the block names 0.75, and its rerun, as
        # the per-point engine, names the first tuple's 1.0
        op = JetOp(1, lambda d: 1e307 * d[1], "1e307*f'")
        twin = BlackBoxOp(lambda f, x: 1e307 * f.eval_jet(x, 1)[1], op.descriptor)
        cfg = SamplingConfig(seed=4, tuples=2, grid=default_grid(9, 0.0, 1.0))
        errors = []
        for path in (op, twin):
            with pytest.raises(NumericRangeError) as error:
                run_check_suite_full(path, 1, cfg)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        assert errors[0].endswith(" at x=1.0")

    def test_subset_terms_never_build_a_plan(self, monkeypatch):
        monkeypatch.setattr(identities, "_subset_plan", _raise)
        fs = [X, X2, fn_from_expr("sin(x)+2"), fn_from_expr("exp(x)")]
        for op in [*map(builtin_blackbox, LOCAL_TWINS), derivative_op(3), entropy_op()]:
            alternating_subset_terms(op, fs, 0.3)
        with pytest.raises(AssertionError, match="opaque"):
            alternating_subset_terms(builtin_blackbox("translate"), fs, 0.3)

    def test_suite_never_runs_per_point(self, monkeypatch):
        monkeypatch.setattr(identities, "_points_per_point", _raise)
        cfg = SamplingConfig(seed=5, tuples=2, grid=default_grid(5))
        for name in LOCAL_TWINS:
            run_check_suite_full(builtin_blackbox(name), 2, cfg)
        with pytest.raises(AssertionError, match="opaque"):
            run_check_suite_full(builtin_blackbox("translate"), 2, cfg)


def _diagonal_residual(op, f, n, x):
    """The suite's diagonal residual Σ (-1)^i C(n+1,i) f(x)^i D(f^(n+1-i))(x)."""
    _, inner, values = _points_per_point(op, (f,) * (n + 1), [x])
    pterms, _ = _power_terms(inner, values, n)
    return signed_sum(pterms[:, 0])


class TestPowerResidual:
    def test_first_order(self):
        op = derivative_op(1)
        for x in (0.3, 1.0, -2.0):
            assert abs(_diagonal_residual(op, X2, 1, x)) < 1e-10

    def test_square_blackbox_n2(self):
        op = builtin_blackbox("square")
        assert _diagonal_residual(op, X, 2, 1.0) == 1.0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_grid_terms_are_the_one_point_loop(self, n):
        # reference: the loop over Python floats at one point; every column
        # must be bitwise its result, overflow, -0.0 and nan entries included
        rng = random.Random(n)

        def pick():
            return rng.choice([rng.uniform(-3.0, 3.0), 1e200, -0.0, math.nan])

        values = np.array([pick() for _ in range(30)])
        inner = np.array([[pick() for _ in range(30)] for _ in range(n + 1)])
        pterms, dterms = _power_terms(inner, values, n)
        row = binomial_row(n + 1)
        for p, v in enumerate(values.tolist()):
            want, by_card, vpow = [], [], 1.0
            for i in range(n + 1):
                term = row[i] * vpow * inner[i, p].item()
                signed = vpow * inner[i, p].item()
                want.append(term if i % 2 == 0 else -term)
                by_card.append(signed if i % 2 == 0 else -signed)
                vpow *= v
            equal = [by_card[mask.bit_count()] for mask in subset_masks(n + 1)]
            assert np.array(want).tobytes() == pterms[:, p].tobytes()
            assert np.array(equal).tobytes() == dterms[:, p].tobytes()


class TestStructuralSanity:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_layer_counts(self, n):
        counts = {}
        for mask in subset_masks(n + 1):
            counts[mask.bit_count()] = counts.get(mask.bit_count(), 0) + 1
        for i in range(n + 1):
            assert counts[i] == math.comb(n + 1, i)
        assert (n + 1) not in counts  # full subset excluded

    @pytest.mark.parametrize("n", range(0, 13))
    def test_alternating_binomial_sum(self, n):
        total = sum((-1) ** i * math.comb(n + 1, i) for i in range(n + 1))
        assert total == (-1) ** n


class TestChecks:
    def test_units_canonical_exact(self):
        rng = random.Random(3)
        op = random_canonical_op(rng, 3)
        report = check_units(op, [-0.5, 0.0, 0.7])
        assert report.max_abs_residual == 0.0 and report.passed

    def test_units_square_fails(self):
        report = check_units(builtin_blackbox("square"), [0.0, 1.0])
        assert report.max_abs_residual == 1.0 and not report.passed

    def test_units_entropy(self):
        report = check_units(entropy_op(), [0.0, 0.5])
        assert report.max_abs_residual == 0.0 and report.passed

    def test_localization_identical(self):
        f = fn_from_expr("x^2")
        report = check_localization(
            derivative_op(1), f, f, (-1.0, 1.0), [-0.5, 0.0, 0.5]
        )
        assert report.max_abs_residual == 0.0

    def test_localization_bump_outside(self):
        rng = random.Random(17)
        op = random_canonical_op(rng, 2)
        f1 = fn_from_expr("x^2")
        # agree on (-1, 1): the bump lives on (2, 4)
        f2 = fn_linear_combination([(1.0, f1), (1.0, BUMP)])
        report = check_localization(op, f1, f2, (-1.0, 1.0), [-0.9, 0.0, 0.9])
        assert report.max_abs_residual == 0.0 and report.passed

    def test_localization_detects_nonlocal(self):
        # depends on the function far from the agreement interval
        peek = BlackBoxOp(lambda f, x: f.value_at(3.0), "peek@3")
        f1 = fn_from_expr("x^2")
        f2 = fn_linear_combination([(1.0, f1), (1.0, BUMP)])
        report = check_localization(peek, f1, f2, (-1.0, 1.0), [0.0])
        assert report.max_abs_residual == 1.0 and not report.passed

    def test_localization_is_the_per_point_loop(self, monkeypatch):
        # two grid applies give bitwise the residuals of the per-point loop;
        # the residuals are added as one row
        samples = []
        add = _Aggregator.add
        monkeypatch.setattr(
            _Aggregator, "add", lambda agg, r, *rest: samples.extend(r) or add(agg, r, *rest)
        )
        rng = random.Random(23)
        grid = default_grid(9, -0.9, 0.9)
        ops = [builtin_blackbox("translate")]
        ops += [random_canonical_op(rng, rng.randint(1, 4)) for _ in range(20)]
        for op in ops:
            f1, f2 = random_function(rng), random_function(rng)
            samples.clear()
            check_localization(op, f1, f2, (-1.0, 1.0), list(grid))
            want = [apply(op, f1, x) - apply(op, f2, x) for x in grid]
            assert [r.hex() for r in samples] == [r.hex() for r in want]

    def test_localization_error_names_f1s_first_failing_point(self):
        # f2 fails first on the grid, f1 only later: f1's grid apply runs
        # first, so its point is named, not the first point where either fails
        grid = [0.0, 0.5, 0.75, 0.95]
        f1, f2 = fn_from_expr("2*x"), fn_from_expr("4*x")
        bad = {f1: 0.95, f2: 0.5}
        box = BlackBoxOp(lambda f, x: math.inf if x == bad[f] else 0.0, "inf")
        # D(f) = 1e308·x·f' overflows from x = 0.9 for f1, from x = 0.45 for f2
        canonical = linear_op([fn_from_expr("1e308*x")])
        for op in (box, canonical):
            with pytest.raises(NumericRangeError, match=r" at x=0\.95$"):
                check_localization(op, f1, f2, (-1.0, 1.0), grid)

    def test_localization_bound_is_rounding_level(self):
        # (x+1)^2 and x^2+2*x+1 agree everywhere but round differently: the
        # residual is nonzero and passes the 1e-12 bound; 1e-9·x apart fails
        f1 = fn_from_expr("(x+1)^2")
        grid = default_grid(9, -0.9, 0.9)
        expanded = fn_from_expr("x^2+2*x+1")
        rounding = check_localization(entropy_op(), f1, expanded, (-1.0, 1.0), grid)
        assert 0.0 < rounding.max_abs_residual <= 1e-12 and rounding.passed
        assert rounding.tol_abs == 1e-12
        apart = fn_from_expr("(x+1)^2+1e-9*x")
        for op in (entropy_op(), derivative_op(1)):
            report = check_localization(op, f1, apart, (-1.0, 1.0), grid)
            assert report.max_abs_residual > 1e-12 and not report.passed

    def test_localization_rejects_grid_outside(self):
        with pytest.raises(StructuralError):
            check_localization(derivative_op(1), X, X, (0.0, 1.0), [2.0])

    def test_annihilation_d3_form(self):
        # c_1..c_j zero, top coefficients arbitrary, no log terms
        op = linear_op([fn_constant(0.0), fn_constant(0.0), fn_from_expr("x^2+1")])
        report = check_poly_annihilation(op, 2, [-1.0, 0.0, 2.0])
        assert report.max_abs_residual == 0.0 and report.passed

    def test_annihilation_ddx_fails_at_j1(self):
        report = check_poly_annihilation(derivative_op(1), 1, [0.0, 1.0])
        assert report.max_abs_residual == 1.0 and not report.passed

    def test_annihilation_third_derivative(self):
        report = check_poly_annihilation(derivative_op(3), 2, [-0.5, 0.5])
        assert report.max_abs_residual == 0.0 and report.passed


class TestSuite:
    def test_canonical_passes(self):
        rng = random.Random(1)
        op = random_canonical_op(rng, 2)
        outcome = run_check_suite_full(op, 2, SamplingConfig(seed=5, tuples=4))
        assert outcome.report.passed
        assert outcome.diagonal_gap is not None and outcome.diagonal_gap.passed

    def test_square_fails_with_worst_recorded(self):
        report = run_check_suite_full(
            builtin_blackbox("square"), 1, SamplingConfig(seed=5, tuples=3)
        ).report
        assert not report.passed
        assert report.worst_case is not None
        assert abs(report.worst_case.residual) == report.max_abs_residual

    def test_one_sample_over_its_bound_fails(self):
        # a 1e-8·f² nudge at x=0 only puts one sample over its own bound;
        # the largest scale, 1.2e7, comes from another sample, and borrowing
        # it would let the record pass
        op = random_canonical_op(random.Random(0), 2)

        def nudged(f, x):
            out = apply(op, f, x)
            return out + 1e-8 * f.value_at(x) ** 2 if x == 0.0 else out

        cfg = SamplingConfig(seed=42, tuples=10)
        assert run_check_suite_full(op, 2, cfg).report.passed
        report = run_check_suite_full(BlackBoxOp(nudged, "nudged"), 2, cfg).report
        assert not report.passed
        assert report.worst_case.x == 0.0

    def test_nan_sample_fails(self):
        # at x=0.5 the terms overflow to ±inf and their sum is nan; the
        # other samples are exactly 0, and max() used to skip the nan ratio
        spike = BlackBoxOp(lambda f, x: 1e308 if x == 0.5 else 0.0, "spike@0.5")
        fs = [fn_from_expr("x+3"), fn_from_expr("x+4"), fn_from_expr("x+5")]
        agg = _Aggregator()
        for x in default_grid(5):
            terms = alternating_subset_terms(spike, fs, x)
            residual = alternating_subset_residual(spike, fs, x)
            agg.add(residual, max(abs(t) for t in terms), x, ())
        report = agg.report("spike", 2, DEFAULT_TOL_ABS, DEFAULT_TOL_REL)
        assert math.isnan(report.max_abs_residual)
        assert report.worst_case.x == 0.5
        assert not report.passed

    def test_nan_sample_fails_the_suite(self):
        spike = BlackBoxOp(lambda f, x: 1e308 if x == 0.5 else 0.0, "spike@0.5")
        cfg = SamplingConfig(seed=5, tuples=2, grid=(0.0, 0.5))
        outcome = run_check_suite_full(spike, 2, cfg)
        for report in (outcome.report, outcome.diagonal_gap):
            assert math.isnan(report.max_abs_residual)
            assert report.worst_case.x == 0.5
            assert not report.passed

    def test_vacuous(self):
        report = run_check_suite_full(
            derivative_op(1), 1, SamplingConfig(seed=5, tuples=0)
        ).report
        assert report.passed and report.vacuous
        assert report.max_abs_residual == 0.0

    def test_negative_tuples_raise(self):
        for op in (derivative_op(1), builtin_blackbox("square")):
            with pytest.raises(StructuralError):
                run_check_suite_full(op, 1, SamplingConfig(tuples=-1))

    def test_deterministic(self):
        cfg = SamplingConfig(seed=33, tuples=3)
        op = derivative_op(2)
        r1 = run_check_suite_full(op, 2, cfg)
        r2 = run_check_suite_full(op, 2, cfg)
        assert r1 == r2

    def test_first_order_op_passes_higher_identities(self):
        op = linear_op([fn_from_expr("ln(2+x^2)")])
        for n in (2, 3):
            cfg = SamplingConfig(seed=9, tuples=4)
            report = run_check_suite_full(op, n, cfg).report
            assert report.passed, report


def _stack(fs, grid, order):
    """The (K+1, m, P) stack of one tuple's grid jets, _points_batched's input."""
    return np.stack([f.eval_jet(tuple(grid), order) for f in fs], axis=1)


def _wrapped(op):
    """op as a black box: checked per point through opaque products."""
    return BlackBoxOp(lambda f, x: apply(op, f, x), op.descriptor)


def _parity_ops(n):
    rng = random.Random(100 + n)
    return [
        random_canonical_op(rng, n),  # with log terms
        linear_op([random_polynomial(rng, 2) for _ in range(n)]),  # without
        random_canonical_op(rng, n + 1),  # planted: order n+1 fails order n
        linear_op([fn_from_expr("ln(2+x^2)")]),
    ]


class TestBatchedCanonical:
    """The batched canonical path against the per-point path, bitwise."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_suite_matches_black_box_path(self, n):
        for op in _parity_ops(n):
            for tuples in (1, 3, 10):
                cfg = SamplingConfig(seed=7 * n, tuples=tuples)
                assert run_check_suite_full(op, n, cfg) == run_check_suite_full(
                    _wrapped(op), n, cfg
                )
            rng = random.Random(n)
            fs = tuple(random_function(rng) for _ in range(n + 1))
            batched = _points_batched(op, _stack(fs, cfg.grid, op.n), cfg.grid)
            per_point = _points_per_point(op, fs, cfg.grid)
            assert [(a.shape, a.tobytes()) for a in batched] == [
                (a.shape, a.tobytes()) for a in per_point
            ]

    def test_engines_on_an_empty_grid(self):
        op = _parity_ops(2)[0]
        rng = random.Random(2)
        fs = tuple(random_function(rng) for _ in range(3))
        arrays = (_points_batched(op, _stack(fs, (), op.n), ()), _points_per_point(op, fs, ()))
        for engine_arrays in arrays:
            assert [a.shape for a in engine_arrays] == [(7, 0), (3, 0), (0,)]

    def test_black_box_error_names_the_first_point(self):
        # a black box is applied point by point, the 2^m - 1 subset applies
        # and then the m power applies: at the first grid point only the
        # power applies go non-finite, at the second every apply does
        n = 2
        calls = collections.Counter()

        def box(f, x):
            calls[x] += 1
            return math.inf if x == 0.5 or calls[x] > 2 ** (n + 1) - 1 else 0.0

        cfg = SamplingConfig(seed=5, tuples=1, grid=(0.0, 0.5))
        with pytest.raises(NumericRangeError, match=r"at x=0\.0$"):
            run_check_suite_full(BlackBoxOp(box, "late"), n, cfg)

    def test_list_grid_matches_tuple_grid(self):
        op = _parity_ops(3)[0]
        grid = default_grid(9)
        outcomes = [
            run_check_suite_full(op, 3, SamplingConfig(seed=5, tuples=2, grid=g))
            for g in (grid, list(grid))
        ]
        assert outcomes[0] == outcomes[1]

    def test_planted_order_fails(self):
        op = _parity_ops(4)[2]
        assert not run_check_suite_full(op, 4, SamplingConfig(seed=1, tuples=2)).passed

    def test_empty_grid_is_vacuous(self):
        cfg = SamplingConfig(seed=1, tuples=2, grid=())
        outcome = run_check_suite_full(_parity_ops(2)[0], 2, cfg)
        assert outcome.report.vacuous and outcome.passed

    @pytest.mark.parametrize("n", (2, 3))
    def test_permutation_symmetry_exact(self, n):
        # every term of a permuted tuple is bitwise the term of the same
        # subset of the original tuple
        rng = random.Random(61 + n)
        op = random_canonical_op(rng, n)
        fs = [random_function(rng) for _ in range(n + 1)]
        grid = default_grid(9)
        want, want_inner, want_values = _points_batched(op, _stack(fs, grid, n), grid)
        for perm in itertools.permutations(range(n + 1)):
            permuted = _stack([fs[k] for k in perm], grid, n)
            terms, inner, values = _points_batched(op, permuted, grid)
            for mask, row in zip(subset_masks(n + 1), terms):
                orig = sum(1 << perm[k] for k in range(n + 1) if mask >> k & 1)
                assert row.tobytes() == want[orig].tobytes()
            if perm[0] == 0:
                # the powers and values are those of the unchanged first function
                assert inner.tobytes() == want_inner.tobytes()
                assert values.tobytes() == want_values.tobytes()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exact_zeros_at_grid_points(self, n):
        # each function of the tuple is exactly 0.0 at a grid point of its
        # own, so every product through it takes the formula's f = 0 branch
        # there, the one where the log terms are left out
        rng = random.Random(300 + n)
        op = random_canonical_op(rng, n)
        assert op.coefficient_values(0.5)[1]  # log terms present
        grid = default_grid(9)
        zeros = rng.sample(grid, n + 1)
        slopes = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in zeros]
        fs = [fn_from_jet(x, [0.0, a, rng.uniform(-2, 2)]) for x, a in zip(zeros, slopes)]
        assert all(f.value_at(x) == 0.0 for f, x in zip(fs, zeros))
        batched = _points_batched(op, _stack(fs, grid, n), grid)
        per_point = _points_per_point(_wrapped(op), fs, grid)
        assert [a.tobytes() for a in batched] == [a.tobytes() for a in per_point]

    @pytest.mark.parametrize(
        "coefficient, error",
        [("1/x", EvalDomainError), ("1e308", NumericRangeError)],
    )
    def test_errors_match_per_point_path(self, coefficient, error):
        # 1/x is undefined at the grid point 0; 1e308·f' overflows already
        # at the first grid point, -1. Both paths pass the grid up to that
        # point and raise the same error type once it is included.
        x = {"1/x": 0.0, "1e308": -1.0}[coefficient]
        op = linear_op([fn_from_expr(coefficient)])
        grid = default_grid()
        stop = grid.index(x)
        for path in (op, _wrapped(op)):
            before = SamplingConfig(seed=3, tuples=2, grid=grid[:stop])
            run_check_suite_full(path, 1, before)
            with pytest.raises(error):
                run_check_suite_full(path, 1, replace(before, grid=grid[: stop + 1]))

    def test_range_error_names_the_first_bad_point(self):
        # on this grid 1e308·x·f' first overflows at 0.375 for the seed-3
        # tuples, after three finite points
        op = linear_op([fn_from_expr("1e308*x")])
        cfg = SamplingConfig(seed=3, tuples=2, grid=default_grid(9, 0.0, 1.0))
        for path in (op, _wrapped(op)):
            with pytest.raises(NumericRangeError, match=r" at x=0\.375$"):
                run_check_suite_full(path, 1, cfg)

    def test_tuples_beyond_one_pass(self, monkeypatch):
        # 9 tuples in one pass, then in passes of 4, 4 and 1
        op = _parity_ops(1)[0]
        cfg = SamplingConfig(seed=3, tuples=9)
        whole = run_check_suite_full(op, 1, cfg)
        assert whole.report.samples == 9 * len(cfg.grid) * 2
        monkeypatch.setattr(identities, "_TUPLES_PER_PASS", 4)
        assert run_check_suite_full(op, 1, cfg) == whole

    def test_error_is_the_first_failing_tuples(self):
        # seed 2 draws two tuples: 1e308·x·f' first overflows at 0.5 for the
        # first and at 0.25 for the second, so checking them at once names
        # 0.25, and only the tuple-by-tuple rerun names the first tuple's 0.5
        op = linear_op([fn_from_expr("1e308*x")])
        cfg = SamplingConfig(seed=2, tuples=2, grid=default_grid(9, 0.0, 1.0))
        for path in (op, _wrapped(op)):
            with pytest.raises(NumericRangeError, match=r" at x=0\.5$"):
                run_check_suite_full(path, 1, cfg)


class TestFamilyJets:
    """The family pass against the functions' own grid jets: _family_jets
    bitwise where they are finite, and the errors of _canonical_arrays,
    whose one fallback reruns the block on the per-point engine."""

    @pytest.mark.parametrize(
        "grid",
        [default_grid(21), default_grid(9, 0.0, 1.0), (0.3,), (), list(default_grid(5))],
        ids=["default", "unit", "one-point", "empty", "list"],
    )
    def test_matches_each_functions_jets(self, grid):
        rng = random.Random(len(grid))
        for _ in range(200):
            draws = [identities._draw_jets(rng) for _ in range(rng.randint(1, 5))]
            order = rng.randint(0, 6)
            fs = [identities._function_of(*d) for d in draws]
            want = np.stack([f.eval_jet(tuple(grid), order) for f in fs], axis=1)
            got = _family_jets(draws, grid, order)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize(
        "op", [derivative_op(1), builtin_blackbox("third-derivative")], ids=["canonical", "jet"]
    )
    def test_overflow_raises_the_functions_error(self, op):
        # at x=40 a cubic exponent with a positive leading term overflows exp,
        # so the family pass raises for the whole block; _canonical_arrays
        # reruns it once on the per-point engine, where the first failing
        # tuple raises its function's own error, naming the function's value;
        # at seed 21 the first five tuples pass and 12 of the 30 fail
        rng = random.Random(21)
        draws = [[identities._draw_jets(rng) for _ in range(2)] for _ in range(30)]
        grid = (0.0, 40.0)

        def error(draw):
            """The error of the tuple's per-function eval_jet, or None."""
            try:
                for d in draw:
                    identities._function_of(*d).eval_jet(grid, op.order)
            except NumericRangeError as exc:
                return str(exc)
            return None

        errors = [error(draw) for draw in draws]
        first = next(t for t, e in enumerate(errors) if e is not None)
        want = errors[first]
        assert first > 0 and "overflow" in want
        for block in (draws, draws[first : first + 1]):
            with pytest.raises(NumericRangeError) as got:
                _canonical_arrays(op, block, grid)
            assert str(got.value) == want


class TestSampleScales:
    def test_matches_the_python_max_of_each_column(self):
        # a NaN first in its column makes Python's max NaN, a NaN later is
        # skipped by its comparisons; numpy's max would be NaN for both
        terms = np.array([[1.0, math.nan, -3.0, 0.0], [-2.0, 5.0, math.nan, -0.0]])
        want = [max(map(abs, col)) for col in terms.T.tolist()]
        got = _column_scales(terms)
        assert math.isnan(want[1]) and want[2] == 3.0
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestSubsetStacksOrder:
    """_subset_stacks' DP over top ranks folds every product in the order of
    _outside_products, fn_product's sorted fold, column by column."""

    POOL = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0)

    def _column_jets(self, rng, m, order):
        # ties, ±0.0 and exact zeros from the pool, one draw in five random
        pick = lambda: rng.choice(self.POOL) if rng.random() < 0.8 else rng.uniform(-2, 2)
        jets = [tuple(pick() for _ in range(order + 1)) for _ in range(m)]
        if rng.random() < 0.5:
            jets[rng.randrange(m)] = rng.choice(jets)  # a tied jet
        return jets

    @pytest.mark.parametrize("m", range(2, 7))
    def test_products_are_outside_products(self, monkeypatch, m):
        # the reference runs unchecked, so the column holding an inf compares
        # its non-finite products too
        monkeypatch.setattr(identities, "_check_finite", lambda values: values)
        rng = random.Random(m)
        size = 1 << m
        member = np.array([[s >> j & 1 for j in range(m)] for s in subset_masks(m)])
        for order in range(6):
            columns = [self._column_jets(rng, m, order) for _ in range(12)]
            bad = columns[rng.randrange(len(columns))]
            j, k = rng.randrange(m), rng.randrange(order + 1)
            bad[j] = bad[j][:k] + (rng.choice((math.inf, -math.inf)),) + bad[j][k + 1 :]
            stack = np.array(columns).transpose(2, 1, 0)  # (K+1, m, C)
            with np.errstate(all="ignore"):
                outside, prods, inside, odd = identities._subset_stacks(stack)
                for c, jets in enumerate(columns):
                    want_outside, want_prods = identities._outside_products(jets)
                    ranks = sorted(range(m), key=jets.__getitem__)
                    bits = np.array([1 << ranks.index(j) for j in range(m)])
                    assert inside[:, c].tolist() == (member @ bits).tolist()
                    for mask in range(1, size):
                        rank_mask = int(bits[[j for j in range(m) if mask >> j & 1]].sum())
                        got = prods[:, rank_mask, c], outside[rank_mask, c]
                        want = np.array(want_prods[mask]), np.float64(want_outside[mask])
                        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    power = jets[0]
                    for k in range(1, m + 1):
                        assert prods[:, size - 1 + k, c].tobytes() == np.array(power).tobytes()
                        power = identities._conv(power, jets[0])
            assert odd.tolist() == (member.sum(axis=1) % 2 == 1).tolist()


def _reference_ratio(residual, scale, tol_abs, tol_rel):
    """bound_ratio's rule on floats, written out."""
    if not (math.isfinite(residual) and math.isfinite(scale)):
        return math.inf
    bound = tol_abs + tol_rel * scale
    if bound > 0.0:
        return abs(residual) / bound
    return 0.0 if residual == 0.0 else math.inf


class TestAggregation:
    """Samples added one at a time or as rows give the report of the
    per-sample rule: the first sample with the largest bound_ratio."""

    POOL = (0.0, -0.0, 1e-9, -1e-9, 2e-9, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e300)

    def _sample(self, rng):
        pick = lambda: rng.choice(self.POOL) if rng.random() < 0.7 else rng.uniform(-1e-8, 1e-8)
        return pick(), abs(pick()), rng.choice((-0.5, 0.0, 0.5)), (f"f{rng.randrange(3)}",)

    def _report(self, samples, name, n, tol_abs, tol_rel):
        if not samples:
            return identities.ResidualReport(name, n, 0, 0.0, 0.0, None, tol_abs, tol_rel)
        residual, scale, x, descriptors = max(
            samples, key=lambda s: _reference_ratio(s[0], s[1], tol_abs, tol_rel)
        )
        case = identities.WorstCase(x, tuple(descriptors), residual)
        return identities.ResidualReport(
            name, n, len(samples), abs(residual), scale, case, tol_abs, tol_rel
        )

    @pytest.mark.parametrize("tols", [(1e-9, 1e-8), (0.0, 0.0), (0.0, 1e-12), (1e-9, 0.0)])
    def test_rows_and_single_adds_are_the_per_sample_rule(self, tols):
        rng = random.Random(repr(tols))
        for _ in range(300):
            agg, samples = _Aggregator(), []
            for _ in range(rng.randrange(5)):
                row = [self._sample(rng) for _ in range(rng.randrange(1, 8))]
                samples += row
                if len(row) == 1 and rng.random() < 0.5:
                    agg.add(*row[0])
                else:
                    agg.add(*map(list, zip(*row)))
            got = agg.report("mix", 2, *tols)
            want = self._report(samples, "mix", 2, *tols)
            assert repr(got) == repr(want)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_bound_ratio_on_arrays_is_the_float_rule(self):
        rng = random.Random(11)
        for tols in ((1e-9, 1e-8), (0.0, 0.0), (1e-300, 1e-300), (0.0, 1e-12)):
            pairs = [self._sample(rng)[:2] for _ in range(500)]
            residuals, scales = (np.array(column) for column in zip(*pairs))
            got = identities.bound_ratio(residuals, scales, *tols)
            want = [_reference_ratio(r, s, *tols) for r, s in pairs]
            assert got.tobytes() == np.array(want).tobytes()
            floats = [identities.bound_ratio(r, s, *tols) for r, s in pairs]
            assert all(type(v) is float for v in floats)
            assert np.array(floats).tobytes() == np.array(want).tobytes()
