"""Exp-conjugation, iterated differences, and degree probes."""

import itertools
import math
import random

import pytest

from opident.errors import NumericRangeError
from opident.functions import (
    fn_constant,
    fn_from_expr,
    fn_from_jet,
)
from opident.functions import fn_linear_combination
from opident.identities import (
    _points_per_point,
    _power_terms,
    alternating_subset_residual,
    alternating_subset_terms,
    random_function,
    random_polynomial,
)
from opident.multiadd import (
    conjugate_exp,
    difference_terms,
    iterated_difference,
)
from opident.jets import signed_sum
from opident.operators import (
    BlackBoxOp,
    CanonicalOp,
    apply,
    builtin_blackbox,
    derivative_op,
    entropy_op,
    linear_op,
)
from opident.suites import random_canonical_op

E = math.e


class TestConjugateExp:
    def test_first_derivative_becomes_slope_reader(self):
        P = conjugate_exp(derivative_op(1))
        g = fn_from_expr("x^2-x")
        for x in (-0.5, 0.3, 1.0):
            assert math.isclose(
                apply(P, g, x), 2 * x - 1, rel_tol=1e-12, abs_tol=1e-12
            )

    def test_second_derivative(self):
        # P(g) = g'' + (g')^2; at g=x^2, x=1: 2 + 4 = 6
        P = conjugate_exp(derivative_op(2))
        got = apply(P, fn_from_expr("x^2"), 1.0)
        assert math.isclose(got, 6.0, rel_tol=1e-12)

    def test_entropy_conjugates_to_identity(self):
        P = conjugate_exp(entropy_op())
        g = fn_from_expr("sin(x)+x")
        for x in (-1.0, 0.0, 0.8):
            assert math.isclose(
                apply(P, g, x), g.value_at(x), rel_tol=1e-12, abs_tol=1e-12
            )


class TestIteratedDifference:
    def test_empty_returns_same_operator(self):
        op = derivative_op(1)
        assert iterated_difference(op, []) is op

    def test_single_difference_of_linear_op(self):
        op = derivative_op(1)
        h = fn_from_expr("x^2")
        diff = iterated_difference(op, [h])
        for f in (fn_from_expr("sin(x)"), fn_from_expr("exp(x)")):
            for x in (0.2, 1.0):
                got = apply(diff, f, x)
                want = apply(op, h, x)  # T(f+h)-T(f) = T(h) by additivity
                assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_double_difference_of_square(self):
        sq = builtin_blackbox("square")
        h = fn_from_expr("x+1")
        diff = iterated_difference(sq, [h, h])
        for f in (fn_from_expr("x^2"), fn_constant(3.0)):
            for x in (0.0, 0.7):
                want = 2.0 * h.value_at(x) ** 2
                assert math.isclose(apply(diff, f, x), want, rel_tol=1e-12)

    def test_overflowing_difference_is_a_range_error(self):
        # every term is +1.7e308: the exact sum is past the float range
        table = {1.0: 1.7e308, 2.0: -1.7e308, 3.0: 1.7e308}
        op = BlackBoxOp(lambda g, x: table[g.value_at(x)], "table")
        diff = iterated_difference(op, [fn_constant(1.0)] * 2)
        with pytest.raises(NumericRangeError):
            apply(diff, fn_constant(1.0), 0.0)

    def test_terms_count(self):
        op = derivative_op(1)
        hs = [fn_constant(1.0)] * 3
        assert len(difference_terms(op, fn_constant(0.0), hs, 0.0)) == 8


class TestMultiadditiveForm:
    def test_permutation_symmetry_exact(self):
        rng = random.Random(61)
        op = random_canonical_op(rng, 2)
        fs = [random_function(rng) for _ in range(3)]
        x = 0.4
        base = alternating_subset_residual(op, fs, x)
        for perm in itertools.permutations(fs):
            assert alternating_subset_residual(op, list(perm), x) == base

    def test_slot_additivity_for_linear_ops(self):
        rng = random.Random(62)
        for _ in range(10):
            n = rng.randint(1, 3)
            op = linear_op([random_polynomial(rng, 2) for _ in range(n)])
            rest = [random_function(rng) for _ in range(n)]
            f, g = random_function(rng), random_function(rng)
            x = rng.uniform(-1, 1)
            f_plus_g = fn_linear_combination([(1, f), (1, g)])
            joint = alternating_subset_residual(op, [f_plus_g] + rest, x)
            split = alternating_subset_residual(
                op, [f] + rest, x
            ) + alternating_subset_residual(op, [g] + rest, x)
            scale = max(
                abs(t) for t in alternating_subset_terms(op, [f_plus_g] + rest, x)
            )
            assert abs(joint - split) <= 1e-10 * max(1.0, scale)

    def test_polarization_shadow(self):
        # linear-form ops kill the diagonal identity on probes, and the full
        # form then vanishes on tuples of distinct functions too
        rng = random.Random(64)
        for _ in range(5):
            n = rng.randint(1, 3)
            op = linear_op([random_polynomial(rng, 2) for _ in range(n)])
            x = rng.uniform(-1, 1)
            for _ in range(3):
                probe = random_function(rng)
                _, inner, values = _points_per_point(op, (probe,) * (n + 1), [x])
                pterms, _ = _power_terms(inner, values, n)
                residual = signed_sum(pterms[:, 0])
                assert abs(residual) <= 1e-8 * max(1.0, abs(apply(op, probe, x)))
            fs = [random_function(rng) for _ in range(n + 1)]
            value = alternating_subset_residual(op, fs, x)
            scale = max(abs(t) for t in alternating_subset_terms(op, fs, x))
            assert abs(value) <= 1e-8 * max(1.0, scale)


class TestFrechetDegree:
    def test_additive_conjugate_two_fold(self):
        P = conjugate_exp(derivative_op(1))
        g = fn_from_expr("x^2")
        hs = [fn_from_expr("sin(x)"), fn_from_expr("x")]
        r = sum(difference_terms(P, g, hs, 0.5))
        scale = max(abs(t) for t in difference_terms(P, g, hs, 0.5))
        assert abs(r) <= 1e-13 * max(1.0, scale)

    def test_quadratic_conjugate_three_fold(self):
        P = conjugate_exp(derivative_op(2))
        rng = random.Random(65)
        g = random_polynomial(rng, 3)
        hs = [random_polynomial(rng, 3) for _ in range(3)]
        r = sum(difference_terms(P, g, hs, 0.3))
        scale = max(abs(t) for t in difference_terms(P, g, hs, 0.3))
        assert abs(r) <= 1e-8 * max(1.0, scale)

    def test_exp_probe_witness(self):
        # non-polynomial response: two-fold difference with unit increments
        # at g=0 expands to e^2 - 2e + 1
        P = BlackBoxOp(lambda g, x: math.exp(g.value_at(x)), "g -> exp(g(x))")
        hs = [fn_constant(1.0), fn_constant(1.0)]
        r = sum(difference_terms(P, fn_constant(0.0), hs, 0.0))
        assert math.isclose(r, E * E - 2 * E + 1, rel_tol=0, abs_tol=1e-12)

    def test_degree_bound_with_witness_search(self):
        # order-n canonical with top coefficients present: (n+1)-fold
        # differences vanish, n-fold differences have a nonzero witness
        rng = random.Random(66)
        for n in (1, 2):
            op = CanonicalOp(
                n,
                [random_polynomial(rng, 1) for _ in range(n - 1)] + [fn_constant(1.0)],
                [fn_constant(0.0)] * (n - 1) + [fn_constant(1.0)],
            )
            P = conjugate_exp(op)
            x = 0.25
            g = random_polynomial(rng, 2)
            hs_full = [random_polynomial(rng, 2) for _ in range(n + 1)]
            r = sum(difference_terms(P, g, hs_full, x))
            scale = max(abs(t) for t in difference_terms(P, g, hs_full, x))
            assert abs(r) <= 1e-6 * max(1.0, scale)

            found = False
            for _ in range(20):
                hs = [random_polynomial(rng, 2) for _ in range(n)]
                r = sum(difference_terms(P, g, hs, x))
                scale = max(abs(t) for t in difference_terms(P, g, hs, x))
                if abs(r) > 10 * 1e-6 * max(1.0, scale):
                    found = True
                    break
            assert found, f"no degree-{n} witness found for order-{n} operator"


class TestJetResponse:
    def test_slope_reader(self):
        P = conjugate_exp(derivative_op(1))
        for a in (-1.0, 0.0, 2.0):
            assert math.isclose(
                apply(P, fn_from_jet(0.5, [a, 3.0]), 0.5), 3.0, rel_tol=1e-12
            )

    def test_quadratic_response(self):
        P = conjugate_exp(derivative_op(2))
        a, b, c = 0.7, -1.2, 0.4
        got = apply(P, fn_from_jet(0.0, [a, b, c]), 0.0)
        assert math.isclose(got, c + b * b, rel_tol=1e-10, abs_tol=1e-12)

    def test_vspace_differences_vanish_for_canonical(self):
        # the response map in jet coordinates is polynomial of degree <= n:
        # (n+1)-fold finite differences along scaled basis directions vanish
        rng = random.Random(67)
        n = 2
        op = random_canonical_op(rng, n)
        P = conjugate_exp(op)
        x = 0.3
        v0 = [rng.uniform(-1, 1) for _ in range(n + 1)]
        steps = []
        for _ in range(n + 1):
            e = [0.0] * (n + 1)
            e[rng.randrange(n + 1)] = 0.5
            steps.append(e)
        total = 0.0
        scale = 0.0
        for mask in range(1 << (n + 1)):
            v = list(v0)
            for i in range(n + 1):
                if mask >> i & 1:
                    v = [a + b for a, b in zip(v, steps[i])]
            term = apply(P, fn_from_jet(x, v), x)
            sign = (-1) ** ((n + 1) - mask.bit_count())
            total += sign * term
            scale = max(scale, abs(term))
        assert abs(total) <= 1e-8 * max(1.0, scale)
