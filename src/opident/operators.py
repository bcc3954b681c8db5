"""Operator families applied pointwise through jets.

CanonicalOp is the closed form

    D(f)(x) = sum_i c_i(x)·f^(i)(x) + sum_i d_i(x)·f(x)·ln|f(x)|^i,

with the second sum defined as 0 wherever f(x) = 0 (x·ln|x|^k extends
continuously by 0); apply_canonical_values, the one place it is written,
evaluates it at a point or on a grid, skipping log terms whose d values are
all 0. BlackBoxOp wraps an arbitrary deterministic rule (SmoothFn, x) ->
real, so the identity checks can probe operators with no structural access.
"""

from __future__ import annotations

import math
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


Operator = Union[CanonicalOp, BlackBoxOp]


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
    sum, which is never -0.0, unchanged."""
    total = 0.0
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


def apply(op: Operator, f: SmoothFn, x):
    """D(f)(x) at the point x or, for a grid given as a tuple of points, an
    array of D(f) at each point, bitwise the point values. For canonical D
    the jet of f is taken at order n, on a grid in one formula pass; a black
    box is called point by point. A non-finite value raises
    NumericRangeError naming the (first such) point."""
    if type(x) is tuple:
        if isinstance(op, BlackBoxOp):
            return np.array([apply(op, f, p) for p in x], dtype=float)
        return apply_on_grid(op, x, f.eval_jet(x, op.n))
    if isinstance(op, BlackBoxOp):
        out = op.fn(f, x)
        if not math.isfinite(out):
            raise NumericRangeError(
                f"{op.descriptor} produced a non-finite value at x={x}"
            )
        return out
    c_vals, d_vals = op.coefficient_values(x)
    total = apply_canonical_values(c_vals, d_vals, f.eval_jet(x, op.n))
    if not math.isfinite(total):
        raise NumericRangeError(
            f"{op.descriptor} produced a non-finite value at x={x}"
        )
    return total


def apply_on_grid(op: CanonicalOp, grid: tuple, derivs: np.ndarray) -> np.ndarray:
    """apply_canonical_values with op's coefficient rows on the grid, for a
    derivative-major stack derivs of shape (op.n+1, ..., P), or (op.n+1, ...,
    1) for jets that are the same at every point; the result is (..., P). A
    non-finite entry of derivs or of the result raises NumericRangeError
    naming the first grid point that has one."""
    c_vals, d_vals = op.coefficient_values(grid)
    with np.errstate(all="ignore"):
        out = apply_canonical_values(c_vals, d_vals, derivs)
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


def builtin_blackbox(name: str) -> BlackBoxOp:
    """Falsification black boxes shipped with the CLI.

    square: f ↦ f², fails every identity (not of canonical form).
    translate: f ↦ f(·+0.5), non-local; breaks localization.
    third-derivative: f ↦ f''', a bona fide order-3 operator.
    km-entropy: f ↦ f·ln|f| wrapped opaquely (0 at zeros of f).
    """
    if name == "square":
        def square(f: SmoothFn, x: float) -> float:
            v = f.value_at(x)
            return v * v  # correctly rounded; libm's pow, behind v ** 2, need not be

        return BlackBoxOp(square, "square: f -> f^2")
    if name == "translate":
        return BlackBoxOp(
            lambda f, x: f.value_at(x + 0.5), "translate: f -> f(x+0.5)"
        )
    if name == "third-derivative":
        return BlackBoxOp(lambda f, x: f.eval_jet(x, 3)[3], "f -> f'''")
    if name == "km-entropy":
        def entropy(f: SmoothFn, x: float) -> float:
            v = f.value_at(x)
            return 0.0 if v == 0.0 else v * math.log(abs(v))

        return BlackBoxOp(entropy, "f -> f*ln|f|")
    raise StructuralError(f"unknown builtin black box {name!r}")
