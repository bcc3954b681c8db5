"""Truncated Taylor-jet arithmetic.

A jet is the sequence of raw derivatives f(x0), f'(x0), ..., f^(K)(x0) of
a real function at a base point, in the package a plain sequence of floats
(SmoothFn.eval_jet gives a tuple). Products follow the binomial convolution
of the higher-order product rule; exp, ln, reciprocal, sin/cos and powers
are computed by the standard triangular recurrences, so every coefficient
is exact up to floating-point rounding (no series truncation error enters
below order K).

Raw derivatives, not Taylor coefficients f^(i)/i!, are stored: the product
rule then reads off the binomial table verbatim.

A grid of jets is stored derivative-major: entry k holds the k-th
derivatives at every point, as a numpy row or (..., P) array, or as a float
where it is the same at every point. The derivs kernels _conv,
_exp_derivs, _ln_abs_derivs, _reciprocal_derivs, _sin_cos_derivs,
_abs_derivs and _power_derivs index entries only, so they run on a
point's derivatives or a grid's with the same operations in the same order,
and hence give bitwise the per-point results.

Jet, a checked (base point, finite derivatives) wrapper, is returned only
by the jet_* wrappers of the kernels and exprs.eval_jet, which the
benchmark names; no other package code builds or reads one.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import EvalDomainError, NumericRangeError, StructuralError

# Pascal rows, extended on demand; entries exact in doubles far beyond order 12.
_BINOM: list[tuple[float, ...]] = [(1.0,)]


def binomial_row(k: int) -> tuple[float, ...]:
    """Row k of Pascal's triangle as floats: C(k,0..k)."""
    while len(_BINOM) <= k:
        n = len(_BINOM)
        _BINOM.append(tuple(float(math.comb(n, j)) for j in range(n + 1)))
    return _BINOM[k]


def signed_sum(terms: Sequence[float]) -> float:
    """math.fsum of terms: their exact sum rounded once, in any order. Where
    fsum has no value (+inf beside -inf, or a partial sum past the float
    range) it is nan: the sample fails its bound and _check_finite rejects it."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def _check_finite(values: Sequence) -> Sequence:
    """values, once every entry (a float or a grid row) is finite: one C-level
    pass over floats; the entry loop for grid rows (math.isfinite raises
    TypeError on them) and to name the first bad value."""
    try:
        if all(map(math.isfinite, values)):
            return values
    except TypeError:
        pass
    for v in values:
        if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
            raise NumericRangeError(f"non-finite jet coefficient: {v!r}")
    return values


def _any(mask) -> bool:
    """A comparison at a point, or whether it holds anywhere on a grid row."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _per_value(fn, v):
    """fn of a float or of each value of an array (numpy's can differ by an
    ulp), mapped in C; the first value on which fn raises raises its error."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)
    return fn(v)


class Jet:
    """Derivatives (f(x0), f'(x0), ..., f^(K)(x0)) of a function at x0.

    Immutable value; all entries finite.
    """

    __slots__ = ("x0", "derivs")

    def __init__(self, x0: float, derivs: Iterable[float]):
        d = tuple(map(float, derivs))
        if not d:
            raise StructuralError("a jet needs at least the order-0 entry")
        if not math.isfinite(x0):
            raise StructuralError("jet base point must be finite")
        if not all(map(math.isfinite, d)):
            _check_finite(d)
        object.__setattr__(self, "x0", x0 if type(x0) is float else float(x0))
        object.__setattr__(self, "derivs", d)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    @property
    def value(self) -> float:
        return self.derivs[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.x0 == other.x0
            and self.derivs == other.derivs
        )

    def __hash__(self) -> int:
        return hash((self.x0, self.derivs))

    def __repr__(self) -> str:
        return f"Jet(x0={self.x0}, derivs={list(self.derivs)})"


def _require_aligned(j1: Jet, j2: Jet) -> None:
    if j1.x0 != j2.x0:
        raise StructuralError(
            f"jet base points differ: {j1.x0} vs {j2.x0}"
        )
    if j1.order != j2.order:
        raise StructuralError(
            f"jet orders differ: {j1.order} vs {j2.order}"
        )


def jet_linear_combine(a: float, j1: Jet, b: float, j2: Jet) -> Jet:
    """Componentwise a*j1 + b*j2 for jets sharing base point and order."""
    _require_aligned(j1, j2)
    d1, d2 = j1.derivs, j2.derivs
    return Jet(j1.x0, tuple(a * d1[i] + b * d2[i] for i in range(len(d1))))


def _conv(a: Sequence, b: Sequence) -> list:
    """Binomial convolution: (a*b)[k] = sum_j C(k,j) a[j] b[k-j], of two
    derivs sequences or two broadcastable derivative-major grid arrays.

    Terms are grouped in (j, k-j) pairs so the result is bitwise identical
    under swapping a and b (commutativity of the product is exact).
    """
    n = len(a)
    binomial_row(n - 1)
    rows = _BINOM
    out = [0.0] * n
    for k in range(n):
        row = rows[k]
        s = 0.0
        j = 0
        while j < k - j:
            s += row[j] * (a[j] * b[k - j] + a[k - j] * b[j])
            j += 1
        if j == k - j:
            s += row[j] * (a[j] * b[j])
        out[k] = s
    return out


def sorted_jet_order(jets: np.ndarray) -> np.ndarray:
    """Indices that sort a (K+1, m, P) stack of m grid jets along its
    middle axis, per point: the stable lexicographic order in which Python
    sorts the derivs tuples, so a fold in this order is a fold in sorted
    order."""
    return np.lexsort(jets[::-1], axis=0)


def jet_product(j1: Jet, j2: Jet) -> Jet:
    """Jet of the pointwise product, by the higher-order product rule."""
    _require_aligned(j1, j2)
    return Jet(j1.x0, _conv(j1.derivs, j2.derivs))


def jet_exp(j: Jet) -> Jet:
    """Jet of exp∘g from the jet of g."""
    return Jet(j.x0, _exp_derivs(j.derivs))


def _exp_derivs(g):
    """Derivatives of exp∘g from those of g: a derivs sequence or a (K+1, P)
    grid array.

    Uses the recurrence h = exp(g), h^(k+1) = sum_j C(k,j) g^(j+1) h^(k-j),
    which is the product rule applied to h' = g'·h.
    """
    try:
        h0 = _per_value(math.exp, g[0])
    except OverflowError:
        raise NumericRangeError(f"exp overflow at value {g[0]}") from None
    n = len(g)
    h = [h0] + [0.0] * (n - 1)
    binomial_row(n - 1)
    rows = _BINOM
    for k in range(n - 1):
        row = rows[k]
        s = 0.0
        for i in range(k + 1):
            s += row[i] * g[i + 1] * h[k - i]
        h[k + 1] = s
    return h


def jet_ln_abs(j: Jet) -> Jet:
    """Jet of ln|f| from the jet of f; requires f(x0) != 0."""
    return Jet(j.x0, _ln_abs_derivs(j.derivs))


def _ln_abs_derivs(f):
    """Derivatives of ln|f| from those of f, nonzero at every point: solves
    f·u' = f' order by order (u = ln|f|); all coefficients beyond the value
    are sign-independent because only ratios over f appear."""
    if _any(f[0] == 0.0):
        raise EvalDomainError("log singularity at base point")
    n = len(f)
    u = [0.0] * n
    u[0] = _per_value(math.log, abs(f[0]))
    binomial_row(n - 1)
    rows = _BINOM
    inv_f0 = 1.0 / f[0]
    for k in range(n - 1):
        # f[0]*u[k+1] = f[k+1] - sum_{i=1..k} C(k,i) f[i] u[k+1-i]; no -=,
        # which would write into the row f[k+1]
        row = rows[k]
        s = f[k + 1]
        for i in range(1, k + 1):
            s = s - row[i] * f[i] * u[k + 1 - i]
        u[k + 1] = s * inv_f0
    return u


def jet_reciprocal(j: Jet) -> Jet:
    """Jet of 1/f; requires f(x0) != 0."""
    return Jet(j.x0, _reciprocal_derivs(j.derivs))


def _reciprocal_derivs(f):
    """Derivatives of 1/f from those of f, nonzero at every point."""
    if _any(f[0] == 0.0):
        raise EvalDomainError("division by zero at base point")
    n = len(f)
    w = [0.0] * n
    w[0] = 1.0 / f[0]
    binomial_row(n - 1)
    rows = _BINOM
    for k in range(1, n):
        row = rows[k]
        s = 0.0
        for i in range(1, k + 1):
            s += row[i] * f[i] * w[k - i]
        w[k] = -s * w[0]
    return w


def jet_sin_cos(j: Jet) -> tuple[Jet, Jet]:
    """Jets of sin∘g and cos∘g."""
    s, c = _sin_cos_derivs(j.derivs)
    return Jet(j.x0, s), Jet(j.x0, c)


def _sin_cos_derivs(g):
    """Derivatives of sin∘g and cos∘g, advanced jointly via s' = g'·c, c' = -g'·s."""
    n = len(g)
    s = [0.0] * n
    c = [0.0] * n
    s[0] = _per_value(math.sin, g[0])
    c[0] = _per_value(math.cos, g[0])
    binomial_row(n - 1)
    rows = _BINOM
    for k in range(n - 1):
        row = rows[k]
        acc_s = 0.0
        acc_c = 0.0
        for i in range(k + 1):
            gi = row[i] * g[i + 1]
            acc_s += gi * c[k - i]
            acc_c -= gi * s[k - i]
        s[k + 1] = acc_s
        c[k + 1] = acc_c
    return s, c


def _abs_derivs(f):
    """Derivatives of |f|: |f(x)|, then ±f^(k) by the sign of f(x). A zero
    of f is a kink, an error unless only the value is asked for."""
    a = abs(f[0])
    if len(f) > 1 and _any(a == 0.0):
        raise EvalDomainError("abs is not differentiable at a zero of f")
    return [a] + [f[0] / a * d for d in f[1:]]


def jet_power(j: Jet, exponent: float) -> Jet:
    """Jet of f^p for a constant exponent p."""
    return Jet(j.x0, _power_derivs(j.derivs, exponent))


def _power_derivs(f, exponent: float):
    """Derivatives of f^p, each intermediate checked finite as a Jet would
    be: integer p by square-and-multiply (any sign of f; negative p needs
    f != 0), non-integer p as exp(p·ln f), which needs f > 0."""
    if float(exponent).is_integer():
        p = int(exponent)
        if p == 0:
            return [1.0] + [0.0] * (len(f) - 1)
        acc = base = f if p > 0 else _check_finite(_reciprocal_derivs(f))
        for bit in bin(abs(p))[3:]:
            acc = _check_finite(_conv(acc, acc))
            if bit == "1":
                acc = _check_finite(_conv(acc, base))
        return acc
    if _any(f[0] <= 0.0):
        raise EvalDomainError(
            "fractional power needs a positive value at the base point"
        )
    ln = _check_finite(_ln_abs_derivs(f))
    return _exp_derivs(_check_finite([exponent * v for v in ln]))
