"""Jet arithmetic against symbolic oracles and algebraic invariants."""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opident.errors import EvalDomainError, NumericRangeError, StructuralError
from opident.jets import (
    Jet,
    _abs_derivs,
    _exp_derivs,
    _ln_abs_derivs,
    _per_value,
    jet_exp,
    jet_linear_combine,
    jet_ln_abs,
    jet_power,
    jet_product,
    jet_reciprocal,
    jet_sin_cos,
    signed_sum,
)

E = math.e


# Independent oracle: formal polynomial calculus on coefficient lists
# (coeffs[i] is the coefficient of x^i).

def poly_diff(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0.0]


def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_jet(coeffs, x0, order):
    derivs = []
    cur = list(coeffs)
    for _ in range(order + 1):
        derivs.append(poly_eval(cur, x0))
        cur = poly_diff(cur)
    return Jet(x0, derivs)


def jet_constant(x0, value, order):
    """Jet of the constant function `value` at x0."""
    return Jet(x0, (float(value),) + (0.0,) * order)


def rel_close(a, b, tol):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class TestSignedSum:
    def test_nan_where_fsum_has_no_value(self):
        # math.fsum raises on the last two; a plain sum gives nan or inf
        assert signed_sum([math.inf, 1.0, -2.0]) == math.inf
        assert math.isnan(signed_sum([math.inf, 1.0, -math.inf]))
        assert math.isnan(signed_sum([1.7e308, 1.7e308, -1.7e308]))


class TestLinearCombine:
    def test_componentwise_sum(self):
        j = jet_linear_combine(1, Jet(1.0, [1, 1, 0]), 1, Jet(1.0, [1, 2, 2]))
        assert j.derivs == (2.0, 3.0, 2.0)

    def test_zero_coefficients(self):
        j = jet_linear_combine(0, Jet(0.5, [3, 1, 4]), 0, Jet(0.5, [1, 5, 9]))
        assert j.derivs == (0.0, 0.0, 0.0)

    def test_two_x_minus_x(self):
        j1 = Jet(2.0, [0.3, -1.5, 2.0])
        assert jet_linear_combine(2, j1, -1, j1) == j1

    def test_mismatched_base_point(self):
        with pytest.raises(StructuralError):
            jet_linear_combine(1, Jet(0.0, [1, 2]), 1, Jet(1.0, [1, 2]))

    def test_mismatched_order(self):
        with pytest.raises(StructuralError):
            jet_linear_combine(1, Jet(0.0, [1, 2]), 1, Jet(0.0, [1, 2, 3]))


class TestProduct:
    def test_x_times_x_squared(self):
        # x * x^2 = x^3 at x0=1: value 1, first 3, second 6
        j = jet_product(Jet(1.0, [1, 1, 0]), Jet(1.0, [1, 2, 2]))
        assert j.derivs == (1.0, 3.0, 6.0)

    def test_constant_one_is_identity(self):
        j = Jet(0.7, [2.0, -0.5, 3.25])
        assert jet_product(j, jet_constant(0.7, 1.0, 2)) == j

    def test_x_squared_at_zero(self):
        j = jet_product(Jet(0.0, [0, 1, 0]), Jet(0.0, [0, 1, 0]))
        assert j.derivs == (0.0, 0.0, 2.0)

    def test_against_polynomial_oracle(self):
        rng = random.Random(20240810)
        for _ in range(50):
            pa = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
            pb = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))]
            x0 = rng.uniform(-2, 2)
            order = rng.randint(0, 8)
            got = jet_product(poly_jet(pa, x0, order), poly_jet(pb, x0, order))
            want = poly_jet(poly_mul(pa, pb), x0, order)
            for g, w in zip(got.derivs, want.derivs):
                assert rel_close(g, w, 1e-12)


jet_values = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    min_size=1,
    max_size=9,
)


@given(jet_values, jet_values)
@settings(max_examples=150, deadline=None)
def test_product_commutes(a, b):
    # _conv adds each (j, k-j) pair of products as one term, so swapping the
    # factors is exact, signs of zero included
    n = min(len(a), len(b))
    j1, j2 = Jet(0.25, a[:n]), Jet(0.25, b[:n])
    left = jet_product(j1, j2)
    right = jet_product(j2, j1)
    assert [v.hex() for v in left.derivs] == [v.hex() for v in right.derivs]


@given(jet_values, jet_values, jet_values)
# draw 117,153 of random.Random(0) triples (n = randint(1, 9), entries
# uniform(-3, 3)): |l_8 - r_8| = 2.2e-12, past a fixed 1e-12
@example(
    [2.210097428817968, -2.3012297199820417, 2.4814410263684454,
     0.1363084603983502, -0.018353889396514056, -1.5769949241301604,
     0.4596300576739356, -0.13995217274206162, 2.8374583789433885],
    [-1.67651568748704, -2.2201842889551138, -0.23622748509742264,
     2.187567432944027, 0.6451441456251059, 0.7564197355655224,
     1.8141260408096596, 1.8659386266328353, -2.607134933159502],
    [1.1625768289727683, -0.4189032022695658, -2.246807892688027,
     2.6025348944414546, 2.368977655418095, 0.383861887525871,
     -2.578562820975121, -0.5244149870974688, 1.3339944547248148],
)
@settings(max_examples=150, deadline=None)
def test_product_associates(a, b, c):
    # Rounding model (Higham 2002, §3.1): entry k of one _conv has at most
    # k+3 roundings on any path, so it is within γ_{k+3} times the same
    # convolution of absolute values, γ_m = m·u/(1-m·u) and u = eps/2. Two
    # nested products put each side within about 2γ_{k+3}·M_k, where
    # M = |a|⊛|b|⊛|c|, so |l_k - r_k| <= 4γ_{k+3}·M_k ≈ 2(k+3)·eps·M_k; the
    # bound below doubles that. Over 200,000 random triples the worst was
    # 1.53·(k+1)·eps·M_k. The smallest normal double covers gradual underflow.
    n = min(len(a), len(b), len(c))
    j1, j2, j3 = (Jet(-0.5, v[:n]) for v in (a, b, c))
    left = jet_product(jet_product(j1, j2), j3)
    right = jet_product(j1, jet_product(j2, j3))
    m1, m2, m3 = (Jet(-0.5, [abs(t) for t in v[:n]]) for v in (a, b, c))
    mags = jet_product(jet_product(m1, m2), m3)
    for k, (l, r, m) in enumerate(zip(left.derivs, right.derivs, mags.derivs)):
        bound = 4 * (k + 3) * sys.float_info.epsilon * m + sys.float_info.min
        assert abs(l - r) <= bound


class TestExp:
    def test_shifted_identity(self):
        # g = x - 1 at x0=1: exp(x-1) has all derivatives 1 there
        j = jet_exp(Jet(1.0, [0, 1, 0]))
        assert j.derivs == (1.0, 1.0, 1.0)

    def test_constant(self):
        j = jet_exp(jet_constant(0.0, 1.5, 4))
        assert j.derivs == (math.exp(1.5), 0.0, 0.0, 0.0, 0.0)

    def test_exp_of_x_squared(self):
        # symbolic: exp(x^2) at 1 -> [e, 2e, 6e]
        j = jet_exp(Jet(1.0, [1, 2, 2]))
        assert rel_close(j.derivs[0], E, 1e-14)
        assert rel_close(j.derivs[1], 2 * E, 1e-14)
        assert rel_close(j.derivs[2], 6 * E, 1e-14)

    def test_overflow(self):
        with pytest.raises(NumericRangeError):
            jet_exp(jet_constant(0.0, 1e4, 2))


class TestLnAbs:
    def test_ln_one(self):
        j = jet_ln_abs(jet_constant(0.0, 1.0, 5))
        assert j.derivs == (0.0,) * 6

    def test_roundtrip_of_exp_example(self):
        j = jet_ln_abs(jet_exp(Jet(1.0, [1, 2, 2])))
        for got, want in zip(j.derivs, (1.0, 2.0, 2.0)):
            assert rel_close(got, want, 1e-12)

    def test_negative_value(self):
        # symbolic series of ln|t - 1| at t=0
        j = jet_ln_abs(Jet(0.0, [-1, 1, 0]))
        assert j.derivs == (0.0, -1.0, -1.0)

    def test_zero_value_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            jet_ln_abs(Jet(0.0, [0.0, 1.0]))

    # log derivatives on derivative sequences, against closed forms

    def test_k1_single_term(self):
        # (ln|f|)' = f'/f
        assert _ln_abs_derivs([2.0, 6.0])[1] == 3.0

    def test_k2_exp_square(self):
        # f = exp(x^2) at 1: jet [e, 2e, 6e]; (ln f)'' = (x^2)'' = 2
        got = _ln_abs_derivs(_exp_derivs([1.0, 2.0, 2.0]))[2]
        assert math.isclose(got, 2.0, rel_tol=1e-12)

    def test_k3_exp_cube(self):
        # f = exp(x^3) at 1: inner jet of x^3 at 1 is [1, 3, 6, 6]
        got = _ln_abs_derivs(_exp_derivs([1.0, 3.0, 6.0, 6.0]))[3]
        assert math.isclose(got, 6.0, rel_tol=1e-12)

    def test_exp_conjugation_recovers_inner_jet(self):
        rng = random.Random(88)
        for _ in range(30):
            k = rng.randint(1, 8)
            g = [rng.uniform(-2.0, 2.0) for _ in range(k + 1)]
            got = _ln_abs_derivs(_exp_derivs(g))[k]
            assert math.isclose(got, g[k], rel_tol=1e-8, abs_tol=1e-8)


def ln_exp_magnitudes(g):
    """Running-error magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.3) for ln|exp(g)|: the exp and ln recurrences of
    jets.py run on absolute values. Entry 0 adds 1 for the log of the rounded
    exp value, whose relative error becomes an absolute one."""
    n = len(g)
    h = [math.exp(g[0])] + [0.0] * (n - 1)
    for k in range(n - 1):
        h[k + 1] = sum(math.comb(k, i) * abs(g[i + 1]) * h[k - i] for i in range(k + 1))
    m = [1.0 + abs(g[0])] + [0.0] * (n - 1)
    for k in range(n - 1):
        carried = sum(math.comb(k, i) * h[i] * m[k + 1 - i] for i in range(1, k + 1))
        m[k + 1] = (h[k + 1] + carried) / h[0]
    return m


@given(jet_values)
@settings(max_examples=200, deadline=None)
def test_ln_exp_roundtrip(values):
    # Per entry, err_k <= c·(K+1)·eps·m_k with c = 2: over 200k jets drawn
    # like jet_values, err_k / (eps·m_k) stayed below 1.8. The smallest
    # normal double covers gradual underflow, where relative error is lost.
    j = Jet(0.0, values)
    back = jet_ln_abs(jet_exp(j))
    order = j.order
    for got, want, m in zip(back.derivs, j.derivs, ln_exp_magnitudes(values)):
        bound = 2 * (order + 1) * sys.float_info.epsilon * m + sys.float_info.min
        assert abs(got - want) <= bound


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.booleans(),
    jet_values,
)
@settings(max_examples=200, deadline=None)
def test_ln_abs_sign_symmetry(magnitude, negate, tail):
    value = -magnitude if negate else magnitude
    j = Jet(0.0, (value,) + tuple(tail))
    minus = Jet(0.0, tuple(-v for v in j.derivs))
    assert jet_ln_abs(j).derivs == jet_ln_abs(minus).derivs


def ln_abs_taylor_derivs(derivs, k):
    """Independent oracle: derivatives 0..k of ln|f| at 0, f the polynomial
    with these derivatives at 0, from mpmath's Taylor expansion at 50
    digits."""
    with mpmath.workdps(50):
        def ln_abs_f(t):
            f = mpmath.fsum(d * t**j / mpmath.factorial(j) for j, d in enumerate(derivs))
            return mpmath.log(abs(f))

        coeffs = mpmath.taylor(ln_abs_f, 0, k)
        return [float(c * mpmath.factorial(j)) for j, c in enumerate(coeffs)]


def test_ln_abs_matches_mpmath_taylor():
    # the recurrence against the oracle at orders 1..8; over 5,000 such draws
    # the worst relative error of any order was 2.9e-13
    rng = random.Random(42)
    for _ in range(100):
        k = rng.randint(1, 8)
        value = rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))
        derivs = [value] + [rng.uniform(-3.0, 3.0) for _ in range(k)]
        got = jet_ln_abs(Jet(0.0, derivs)).derivs
        want = ln_abs_taylor_derivs(derivs, k)
        for order in range(1, k + 1):
            assert math.isclose(got[order], want[order], rel_tol=1e-8), (derivs, order)


class TestReciprocalAndPower:
    def test_reciprocal_against_product(self):
        j = Jet(0.5, [2.0, -1.0, 0.5, 3.0])
        one = jet_product(j, jet_reciprocal(j))
        assert rel_close(one.derivs[0], 1.0, 1e-14)
        for v in one.derivs[1:]:
            assert abs(v) < 1e-12

    def test_integer_power(self):
        x = Jet(2.0, [2.0, 1.0, 0.0, 0.0])
        cube = jet_power(x, 3)
        assert cube.derivs == (8.0, 12.0, 12.0, 6.0)

    def test_power_zero(self):
        assert jet_power(Jet(1.5, [2, 1, 0]), 0).derivs == (1.0, 0.0, 0.0)

    def test_negative_power(self):
        # x^-1 at 2: 1/2, -1/4, 1/4
        j = jet_power(Jet(2.0, [2.0, 1.0, 0.0]), -1)
        assert rel_close(j.derivs[0], 0.5, 1e-14)
        assert rel_close(j.derivs[1], -0.25, 1e-14)
        assert rel_close(j.derivs[2], 0.25, 1e-14)

    def test_fractional_power(self):
        # sqrt(x) at 4: 2, 1/4, -1/32
        j = jet_power(Jet(4.0, [4.0, 1.0, 0.0]), 0.5)
        assert rel_close(j.derivs[0], 2.0, 1e-12)
        assert rel_close(j.derivs[1], 0.25, 1e-12)
        assert rel_close(j.derivs[2], -1.0 / 32.0, 1e-12)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(EvalDomainError):
            jet_power(Jet(0.0, [-1.0, 1.0]), 0.5)


class TestSinCosAbs:
    def test_sin_cos_at_zero(self):
        s, c = jet_sin_cos(Jet(0.0, [0.0, 1.0, 0.0, 0.0]))
        assert s.derivs == (0.0, 1.0, 0.0, -1.0)
        assert c.derivs == (1.0, 0.0, -1.0, 0.0)

    def test_abs_negative(self):
        assert _abs_derivs([-2.0, 1.0, 3.0]) == [2.0, -1.0, -3.0]

    def test_abs_kink(self):
        with pytest.raises(EvalDomainError):
            _abs_derivs([0.0, 1.0])


class TestJetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(NumericRangeError):
            Jet(0.0, [float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(NumericRangeError):
            Jet(0.0, [1.0, float("inf")])

    def test_length_matches_order(self):
        j = Jet(0.0, [1, 2, 3])
        assert j.order == 2 and len(j.derivs) == j.order + 1

    def test_immutable(self):
        j = Jet(0.0, [1.0])
        with pytest.raises(AttributeError):
            j.x0 = 1.0


class TestPerValue:
    """_per_value maps the math call over the values in C: bitwise the
    element-by-element comprehension, and the first failing value raises."""

    @pytest.mark.parametrize("fn", (math.log, math.exp, math.sin), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape", ((), (0,), (3, 4, 5)), ids=repr)
    def test_is_the_comprehension(self, fn, shape):
        rng = random.Random(repr(shape))
        v = np.array([rng.uniform(0.01, 5.0) for _ in range(int(np.prod(shape)))]).reshape(shape)
        want = np.array([fn(t) for t in v.ravel().tolist()]).reshape(v.shape)
        got = _per_value(fn, v)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_exp_overflow_raises_at_the_first_overflowing_value(self):
        v = np.array([[1.0, 800.0], [2.0, 900.0]])
        seen = []

        def exp(t):
            seen.append(t)
            return math.exp(t)

        with pytest.raises(OverflowError):
            _per_value(exp, v)
        assert seen == [1.0, 800.0]
