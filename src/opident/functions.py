"""Functions on the real line, evaluable to their derivatives at any order.

A SmoothFn bundles one jet rule with a human-readable descriptor and carries
no flag: whether it is zero is read from its values. Constructors cover
everything the identity and recovery machinery needs: pointwise products,
linear combinations, exp-composites, polynomials with a prescribed jet,
compact-support bumps, and expression-backed functions. Where one is
undefined (ln of a value <= 0, division by zero, a kink), its jet raises
EvalDomainError.

Evaluation is pure. eval_jet takes a point, giving the derivatives 0..K as
a tuple of floats, or a grid (a tuple of points), giving a read-only
derivative-major (K+1, P) array whose column p is bitwise the tuple at
point p: the jet representation that the kernels of jets.py run on. A jet
rule derivs(x0, order) gives the derivatives 0..order at a finite point x0
(floats), or on a grid x0 (rows, or floats where a derivative is the same
at every point) by running its point code on numpy rows: Taylor recurrences
are the same operations on a float and on a row, so the rows are bitwise
the per-point values. A rule that gives other than order+1 entries raises
StructuralError. A rule whose point code has no row form (a sorted fold, an
fsum per entry, a branch per point) returns None for a grid, and SmoothFn
stacks its points. A grid pass that raises EvalDomainError or
NumericRangeError is rerun point by point, which raises the error of the
first failing point.

Each SmoothFn memoizes one entry per point or grid (0.0 and -0.0 apart),
the highest-order evaluation made there, and reads a lower order as its
prefix. Every jet recurrence is triangular, so that prefix is bitwise the
lower-order jet; a custom rule must keep this contract. The memo serves
repeated reads: opaque black-box point sweeps, where each subset product of
identities._subset_plan, an fn_product, reads its factors' jets, and the
tuple's values are prefixes of those jets; point reads of a tuple by
several local operators, each of which reads each input once at its order
and builds the products as plain derivative tuples, not SmoothFns; and
grid reads of coefficients and holdouts. The grid identity engine for
local operators does not hit it: it draws its random inputs as jets,
evaluates them in one family pass (identities._family_jets, on the kernels
_poly_derivs, _exp_derivs and _conv) and builds its subset products by
DP, with no SmoothFn.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import exprs
from .errors import EvalDomainError, NumericRangeError, StructuralError
from .jets import _check_finite, _conv, _exp_derivs, _reciprocal_derivs, signed_sum

_CACHE_CAP = 8192


def _memo_key(x0):
    """The memo key of a point or grid. 0.0 and -0.0 compare and hash equal,
    so -0.0, or a grid holding a zero unless its only zero is 0.0, is paired
    with the text of its zeros, which no point or grid equals."""
    if type(x0) is not tuple:
        return x0 if x0 or math.copysign(1.0, x0) > 0 else (x0, "-0.0")
    zeros = x0.count(0.0)
    if not zeros or zeros == 1 and math.copysign(1.0, x0[x0.index(0.0)]) > 0:
        return x0
    return x0, repr([v for v in x0 if not v])


def _row(x0):
    """A point as a float, a grid as a numpy row: what a row rule computes on."""
    return np.array(x0, dtype=float) if type(x0) is tuple else float(x0)


class SmoothFn:
    """A function on the real line: a descriptor and a jet rule, whose
    derivatives SmoothFn alone checks and memoizes. The rule must be
    prefix-consistent: the memo answers a lower-order read with a prefix of
    a higher-order result."""

    __slots__ = ("descriptor", "_derivs", "_cache")

    def __init__(self, descriptor: str, derivs: Callable[[float | tuple, int], Sequence | None]):
        self.descriptor = descriptor
        self._derivs = derivs
        self._cache: dict[float | tuple, tuple[float, ...] | np.ndarray] = {}

    def eval_jet(self, x0, order: int):
        """The derivatives 0..order at the point x0, a tuple of finite floats,
        or, for a grid given as a tuple of points, a read-only (order+1, P)
        array whose column p is bitwise the tuple at x0[p]. Memoized per point
        or grid (0.0 and -0.0 apart) at the highest order read there: a lower
        order is read as the prefix of that entry, a higher one is evaluated
        and replaces it (unless it raises). A negative order, a point that is
        not finite, or a rule giving other than order+1 entries raises
        StructuralError; a non-finite derivative, NumericRangeError."""
        if order < 0:
            raise StructuralError(f"jet order must be nonnegative, got {order}")
        key = _memo_key(x0)
        cached = self._cache.get(key)
        if cached is not None and order < len(cached):
            return cached if order + 1 == len(cached) else cached[: order + 1]
        grid = type(x0) is tuple
        if not all(map(math.isfinite, x0 if grid else (x0,))):
            raise StructuralError("jet base point must be finite")
        if grid:
            out = self._eval_grid(x0, order)
        else:
            out = _check_finite(tuple(map(float, self._rule(x0, order))))
        if len(self._cache) >= _CACHE_CAP:
            self._cache.clear()
        self._cache[key] = out
        return out

    def _rule(self, x0, order: int) -> Sequence | None:
        """The rule's derivatives at x0, once it gave exactly order+1 of them."""
        derivs = self._derivs(x0, order)
        if derivs is not None and len(derivs) != order + 1:
            raise StructuralError(
                f"the jet rule of {self.descriptor} gave {len(derivs)} entries"
                f" for order {order}, not {order + 1}"
            )
        return derivs

    def _eval_grid(self, grid: tuple, order: int) -> np.ndarray:
        out = np.empty((order + 1, len(grid)))
        with np.errstate(all="ignore"):
            try:
                derivs = self._rule(grid, order)
            except (EvalDomainError, NumericRangeError):
                derivs = None  # the per-point loop raises the first point's error
            if derivs is None:
                # up to the first point that raises or, as the check below
                # then says, whose jet is not finite
                for p, x0 in enumerate(grid):
                    out[:, p] = self._rule(x0, order)
                    if not np.isfinite(out[:, p]).all():
                        break
            else:
                # entries may be rows or, for a derivative constant on the grid, floats
                for k, row in enumerate(derivs):
                    out[k] = row
        if not np.isfinite(out).all():
            x = grid[int(np.argmin(np.isfinite(out).all(axis=0)))]
            raise NumericRangeError(f"non-finite jet of {self.descriptor} at x={x}")
        out.flags.writeable = False
        return out

    def value_at(self, x: float) -> float:
        """f(x): entry 0 of the memo's derivatives at x, else of eval_jet(x, 0)."""
        cached = self._cache.get(_memo_key(x))
        return (cached if cached is not None else self.eval_jet(x, 0))[0]

    def __repr__(self) -> str:
        return f"SmoothFn({self.descriptor})"


def fn_constant(c: float) -> SmoothFn:
    """The constant c; a non-finite c raises NumericRangeError."""
    c = float(c)
    if not math.isfinite(c):
        raise NumericRangeError(f"constant {c} is not finite")
    desc = exprs.format_number(c) if c >= 0 else "-" + exprs.format_number(-c)
    return SmoothFn(desc, lambda x0, order: [c] + [0.0] * order)


def fn_from_expr(source) -> SmoothFn:
    """Function denoted by a DSL string or parsed AST."""
    tree = exprs.parse(source) if isinstance(source, str) else source
    return SmoothFn(exprs.to_text(tree), lambda x0, order: exprs.eval_derivs(tree, _row(x0), order))


def _poly_derivs(v: Sequence, t, order: int) -> list:
    """p^(k)(y) = sum_{l>=k} v[l]·t^(l-k)/(l-k)! for k <= order, from p's
    jet v at x0 and t = y - x0: floats, or a grid row t with each v[l] a
    float or an (F, 1) column of F polynomials' jets."""
    out = []
    for k in range(order + 1):
        acc = 0.0
        tp = 1.0
        fact = 1.0
        for l in range(k, len(v)):
            if l > k:
                tp = tp * t
                fact *= l - k
            acc = acc + v[l] * tp / fact
        out.append(acc)
    return out


def fn_from_jet(x0: float, v: Sequence[float]) -> SmoothFn:
    """The polynomial sum_l v[l]·(x-x0)^l/l!, whose jet at x0 is exactly v."""
    x0 = float(x0)
    coeffs = tuple(float(c) for c in v)
    desc = f"jetpoly@{x0}{list(coeffs)}"
    return SmoothFn(desc, lambda y, order: _poly_derivs(coeffs, _row(y) - x0, order))


def fn_product(fs: Sequence[SmoothFn]) -> SmoothFn:
    """Pointwise product; jets by iterated binomial convolution."""
    factors = tuple(fs)
    if not factors:
        raise StructuralError("fn_product needs at least one factor")
    if len(factors) == 1:
        return factors[0]

    def derivs(x0, order: int) -> list | None:
        if type(x0) is tuple:
            return None  # the sort is per point
        # canonical fold order: the product jet is then bitwise identical
        # under any permutation of the factor list
        jets = sorted(f.eval_jet(x0, order) for f in factors)
        acc = jets[0]
        for d in jets[1:]:
            acc = _conv(acc, d)
        return acc

    desc = "*".join(f"({f.descriptor})" for f in factors)
    return SmoothFn(desc, derivs)


def fn_linear_combination(terms: Sequence[tuple[float, SmoothFn]]) -> SmoothFn:
    """Σ c_i·f_i from (c_i, f_i) pairs; jets combined componentwise, each
    entry summed by signed_sum. A lone term with coefficient 1 is returned
    as is."""
    pairs = tuple((float(c), f) for c, f in terms)
    if not pairs:
        raise StructuralError("fn_linear_combination needs at least one term")
    if len(pairs) == 1 and pairs[0][0] == 1.0:
        return pairs[0][1]

    def derivs(x0, order: int) -> list | None:
        if type(x0) is tuple:
            return None  # signed_sum sums floats
        jets = [(c, f.eval_jet(x0, order)) for c, f in pairs]
        return [signed_sum([c * d[k] for c, d in jets]) for k in range(order + 1)]

    desc = "+".join(f"{c}*({f.descriptor})" for c, f in pairs)
    return SmoothFn(desc, derivs)


def fn_exp_of(g: SmoothFn) -> SmoothFn:
    """exp∘g."""

    return SmoothFn(f"exp({g.descriptor})", lambda x0, order: _exp_derivs(g.eval_jet(x0, order)))


def fn_monomial(m: int) -> SmoothFn:
    """x^m, exact for jet purposes (polynomial with prescribed jet at 0)."""
    if m < 0:
        raise StructuralError("monomial degree must be nonnegative")
    v = [0.0] * m + [float(math.factorial(m))]
    fn = fn_from_jet(0.0, v)
    fn.descriptor = "1" if m == 0 else ("x" if m == 1 else f"x^{m}")
    return fn


def _smoothstep_derivs(t: list) -> list:
    """Derivatives of s(t) = e(t)/(e(t)+e(1-t)) with e(u)=exp(-1/u), for t in
    (0,1), from those of t. A step that overflows leaves a non-finite entry
    in the result, which SmoothFn rejects."""
    num = _exp_derivs([-v for v in _reciprocal_derivs(t)])
    # 1 - t with 0.0 - v, not -v, so that t's zero entries give +0.0
    rest = [1.0 - t[0]] + [0.0 - v for v in t[1:]]
    den = [a + b for a, b in zip(num, _exp_derivs([-v for v in _reciprocal_derivs(rest)]))]
    return _conv(num, _reciprocal_derivs(den))


def fn_bump(support: tuple[float, float], plateau: tuple[float, float]) -> SmoothFn:
    """C^∞ bump: 1 on the closed plateau, 0 outside the open support,
    values in [0, 1], all jets flat at both regimes."""
    a, b = float(support[0]), float(support[1])
    p, q = float(plateau[0]), float(plateau[1])
    if not (a < p <= q < b):
        raise StructuralError(
            f"plateau [{p}, {q}] must lie strictly inside the support ({a}, {b})"
        )

    def derivs(x0, order: int) -> list | None:
        if type(x0) is tuple:
            return None  # the branches are per point
        if x0 <= a or x0 >= b:
            return [0.0] * (order + 1)
        if p <= x0 <= q:
            return [1.0] + [0.0] * order
        if x0 < p:  # rising ramp on (a, p)
            scale = 1.0 / (p - a)
            value = (x0 - a) * scale
        else:  # falling ramp on (q, b)
            scale = -1.0 / (b - q)
            value = (b - x0) * -scale
        if value >= 1.0:
            # next to the plateau the ramp rounds to its end, where the
            # smoothstep's flat limit is the constant 1
            return [1.0] + [0.0] * order
        if value == 0.0 or math.exp(-1.0 / value) == 0.0:
            # next to the support end exp(-1/t) underflows, and the jet of
            # -1/t would overflow first: the flat limit there is 0
            return [0.0] * (order + 1)
        t = [value, scale] + [0.0] * (order - 1)
        return _smoothstep_derivs(t[: order + 1])

    return SmoothFn(f"bump({a},{b};[{p},{q}])", derivs)
