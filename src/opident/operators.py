"""Operator families applied pointwise through jets.

A local operator reads only f's derivatives 0..order at x, and answers one
call, at(x): the rule that maps f's derivatives at x to D(f)(x), on a
point's floats or on a grid's derivative-major stack in one pass.
CanonicalOp is the closed form

    D(f)(x) = sum_i c_i(x)·f^(i)(x) + sum_i d_i(x)·f(x)·ln|f(x)|^i,

with the second sum defined as 0 wherever f(x) = 0 (x·ln|x|^k extends
continuously by 0); apply_canonical_values, the one place it is written,
evaluates it with the coefficients read at x, skipping log terms whose d
values are all 0. JetOp is any other local operator, given by its rule.
BlackBoxOp wraps an arbitrary deterministic rule (SmoothFn, x) -> real, so
the identity checks can probe operators with no structural access, non-local
ones included; it is applied point by point.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import NumericRangeError, StructuralError
from .functions import SmoothFn, fn_constant
from .jets import _per_value


class CanonicalOp:
    """Order-n operator with derivative coefficients c and log-term
    coefficients d (each a list of n SmoothFn)."""

    __slots__ = ("n", "c", "d", "descriptor")

    def __init__(
        self,
        n: int,
        c: Sequence[SmoothFn],
        d: Sequence[SmoothFn],
        descriptor: str | None = None,
    ):
        if n < 1:
            raise StructuralError("operator order must be positive")
        if len(c) != n or len(d) != n:
            raise StructuralError(
                f"need exactly n={n} coefficient functions, got {len(c)} and {len(d)}"
            )
        self.n = n
        self.c = tuple(c)
        self.d = tuple(d)
        if descriptor is None:
            cs = ", ".join(fn.descriptor for fn in self.c)
            ds = ", ".join(fn.descriptor for fn in self.d)
            descriptor = f"D[n={n}; c=({cs}); d=({ds})]"
        self.descriptor = descriptor

    @property
    def order(self) -> int:
        """The jet order D reads: n."""
        return self.n

    def coefficient_values(self, x):
        """(c_1(x)..c_n(x)), (d_1(x)..d_n(x)) read through each coefficient's
        SmoothFn memo: floats at a point or, for a grid given as a tuple of
        points, (n, P) arrays. The d-row is empty, () or (0, P), exactly where
        every d value read is ±0.0. That is bitwise the full formula: for
        finite f, (±0.0·f)·ln|f|^i is ±0.0 and the c-term sum never -0.0."""
        if type(x) is tuple:
            c_vals = np.array([fn.eval_jet(x, 0)[0] for fn in self.c])
            d_vals = np.array([fn.eval_jet(x, 0)[0] for fn in self.d])
            return c_vals, d_vals if d_vals.any() else np.empty((0, len(x)))
        c_vals = tuple(fn.value_at(x) for fn in self.c)
        d_vals = tuple(fn.value_at(x) for fn in self.d)
        return c_vals, d_vals if any(d_vals) else ()

    def at(self, x):
        """apply_canonical_values with the coefficients read at x, once."""
        return partial(apply_canonical_values, *self.coefficient_values(x))

    def __repr__(self) -> str:
        return self.descriptor


class BlackBoxOp:
    """Opaque deterministic mapping (SmoothFn, x) -> real. The rule reads f
    only through its values and derivatives at points: f.value_at(x) for
    f(x), and f.eval_jet(x, k)[k] for f^(k)(x)."""

    __slots__ = ("fn", "descriptor")

    def __init__(self, fn: Callable[[SmoothFn, float], float], descriptor: str):
        self.fn = fn
        self.descriptor = descriptor

    def __repr__(self) -> str:
        return self.descriptor


class JetOp:
    """Local operator D(f)(x) = rule(f(x), f'(x), ..., f^(order)(x)). The
    rule maps a derivative-major stack to D's values: one point's tuple of
    floats to a float, or a grid's (order+1, ..., P) array to a (..., P)
    array each of whose columns is bitwise that point's value, so it uses
    per-value math (jets._per_value) where numpy's can differ."""

    __slots__ = ("order", "rule", "descriptor")

    def __init__(self, order: int, rule: Callable, descriptor: str):
        if order < 0:
            raise StructuralError(f"jet order must be nonnegative, got {order}")
        self.order = order
        self.rule = rule
        self.descriptor = descriptor

    def at(self, x):
        """The rule; x is unused."""
        return self.rule

    def __repr__(self) -> str:
        return self.descriptor


Operator = Union[CanonicalOp, JetOp, BlackBoxOp]


def apply_canonical_values(
    c_vals: Sequence[float] | np.ndarray,
    d_vals: Sequence[float] | np.ndarray,
    derivs: Sequence[float] | np.ndarray,
) -> float | np.ndarray:
    """The canonical formula on the derivatives of f: derivs is one point's
    (f, f', ..., f^(n)) with float coefficients, or a derivative-major
    (n+1, ..., P) stack at P points with (n, P) coefficient rows, and a grid
    column is bitwise its point's value. An empty d_vals skips the log
    terms. ln|f| is math.log per value (np.log can differ in the last ulp)
    of |f|, or of 1 where f = 0: the ±0.0 log terms there leave the c-term
    sum, which is never -0.0, unchanged. The total starts at the int 0, so
    exact coefficient rows and derivatives (Fractions) give an exact
    value."""
    total = 0
    for i, cv in enumerate(c_vals, 1):
        total = total + cv * derivs[i]
    if len(d_vals):
        v = derivs[0]
        log_v = _per_value(math.log, abs(v) + (v == 0.0))
        power = 1.0
        for dv in d_vals:
            power = power * log_v
            total = total + dv * v * power
    return total


def finite_value(op: Operator, value: float, x: float) -> float:
    """D's value at the point x, once it is finite; else NumericRangeError."""
    if not math.isfinite(value):
        raise NumericRangeError(f"{op.descriptor} produced a non-finite value at x={x}")
    return value


def apply(op: Operator, f: SmoothFn, x):
    """D(f)(x) at the point x or, for a grid given as a tuple of points, an
    array of D(f) at each point, bitwise the point values. A local D reads
    f's jet at op.order, then runs op.at(x) on it, on a grid in one pass; a
    black box is called point by point. A non-finite value raises
    NumericRangeError naming the (first such) point."""
    if isinstance(op, BlackBoxOp):
        if type(x) is tuple:
            return np.array([apply(op, f, p) for p in x], dtype=float)
        return finite_value(op, op.fn(f, x), x)
    if type(x) is tuple:
        return apply_on_grid(op, x, f.eval_jet(x, op.order))
    derivs = f.eval_jet(x, op.order)
    return finite_value(op, op.at(x)(derivs), x)


def apply_on_grid(op: CanonicalOp | JetOp, grid: tuple, derivs: np.ndarray) -> np.ndarray:
    """D on a derivative-major stack derivs of shape (op.order+1, ..., P), or
    (op.order+1, ..., 1) for jets that are the same at every point: the rule
    op.at(grid) on it, copied into and broadcast over the grid's (..., P)
    result.
    A non-finite entry of derivs or of the result raises NumericRangeError
    naming the first grid point that has one."""
    out = np.empty(derivs.shape[1:-1] + (len(grid),))
    with np.errstate(all="ignore"):
        out[...] = op.at(grid)(derivs)
    finite = np.isfinite(derivs).all(axis=0) & np.isfinite(out)
    finite = finite.all(axis=tuple(range(finite.ndim - 1)))
    if not finite.all():
        x = grid[int(np.argmin(finite))]
        raise NumericRangeError(f"{op.descriptor} produced a non-finite value at x={x}")
    return out


def linear_op(c: Sequence[SmoothFn], descriptor: str | None = None) -> CanonicalOp:
    """Canonical operator with log terms all zero."""
    n = len(c)
    return CanonicalOp(n, c, [fn_constant(0.0)] * n, descriptor)


def derivative_op(k: int) -> CanonicalOp:
    """The k-th derivative, k >= 1, as a canonical operator."""
    if k < 1:
        raise StructuralError("derivative order must be positive")
    coeffs = [fn_constant(0.0)] * (k - 1) + [fn_constant(1.0)]
    return linear_op(coeffs, descriptor=f"d^{k}/dx^{k}" if k > 1 else "d/dx")


def entropy_op() -> CanonicalOp:
    """First-order operator f ↦ f·ln|f| (the n=1 log-term solution)."""
    return CanonicalOp(
        1, [fn_constant(0.0)], [fn_constant(1.0)], descriptor="f*ln|f|"
    )


def _x_ln_abs(v: float) -> float:
    """v·ln|v|, and +0.0 where v is ±0.0."""
    return 0.0 if v == 0.0 else v * math.log(abs(v))


def builtin_blackbox(name: str) -> JetOp | BlackBoxOp:
    """Falsification black boxes shipped with the CLI. The local ones are
    JetOps; translate is the one opaque BlackBoxOp.

    square: f ↦ f², fails every identity (not of canonical form).
    translate: f ↦ f(·+0.5), non-local; breaks localization.
    third-derivative: f ↦ f''', a bona fide order-3 operator.
    km-entropy: f ↦ f·ln|f|, +0.0 at zeros of f, math.log per value.
    """
    if name == "square":
        # correctly rounded; libm's pow, behind v ** 2, need not be
        return JetOp(0, lambda d: d[0] * d[0], "square: f -> f^2")
    if name == "translate":
        return BlackBoxOp(
            lambda f, x: f.value_at(x + 0.5), "translate: f -> f(x+0.5)"
        )
    if name == "third-derivative":
        return JetOp(3, lambda d: d[3], "f -> f'''")
    if name == "km-entropy":
        return JetOp(0, lambda d: _per_value(_x_ln_abs, d[0]), "f -> f*ln|f|")
    raise StructuralError(f"unknown builtin black box {name!r}")
