"""Truncated Taylor-jet arithmetic.

A jet is the sequence of raw derivatives f(x0), f'(x0), ..., f^(K)(x0) of
a real function at a base point, in the package a plain sequence of floats
(SmoothFn.eval_jet gives a tuple). Products follow the binomial convolution
of the higher-order product rule; exp, ln, reciprocal, sin/cos and powers
are computed by the standard triangular recurrences, so every coefficient
is exact up to floating-point rounding (no series truncation error enters
below order K).

Raw derivatives, not Taylor coefficients f^(i)/i!, are stored: the product
rule then reads off the binomial coefficients verbatim. The kernels take
each C(k,j) as the int math.comb(k, j), start every sum at the int 0 and
form a reciprocal as 1 / f[0], so they run on any number type with + - * /:
on floats and numpy rows an int operand rounds as the float it converts to,
bitwise the float arithmetic, and on Fractions (or object arrays of them)
_conv and _reciprocal_derivs are exact, as is every recurrence step after
the exp, log, sin or cos of the value, which gives a float.

A grid of jets is stored derivative-major: entry k holds the k-th
derivatives at every point, as a numpy row or (..., P) array, or as a float
where it is the same at every point. The derivs kernels _conv,
_exp_derivs, _ln_abs_derivs, _reciprocal_derivs, _sin_cos_derivs,
_abs_derivs and _power_derivs run on a point's derivatives or a grid's with
the same operations in the same order, and hence give bitwise the per-point
results.

Every kernel runs as written. A whole evaluation that runs the kernels is
traced instead, and its trace inlines them: exprs's eval_derivs and
identities' _subset_loop, the per-point DP over a tuple's subset products.
A trace runs the evaluation once on placeholders that record each + - * /
and unary minus, and the recording is written out as code and exec'd as a
function of the evaluation's parameters. A program performs the traced
operations on the same operands, so its results are bitwise the
evaluation's, on floats and grid rows alike. A constant operand, an int
binomial or start included, is written as its float literal: a program
reads only floats, whose arithmetic CPython runs faster than an int's
beside a float. The trace records checks and calls too: a _check_finite of
placeholders becomes a guard `if not isfinite(e0 + e1 + ...): return None`
on the entries not checked before (an inf or NaN entry makes the sum
non-finite, so a finite sum clears them all); a branch on a comparison, as
in `if _any(f[0] == 0.0)`, becomes `if any_(...): return None`, and the
trace goes on as if it did not hold; and _per_value and abs become calls
of exp, log, sin, cos and abs. A program that returns None has met a value
its trace did not follow, and its caller reruns what was traced.
_POINT_CALLS and _GRID_CALLS bind these names: math's functions at a
point, and on a grid the per-value maps and whole-row tests of the
kernels, so one code object serves both.

Every straight-line program of the package sits in one table, _PROGRAMS:
a key, (identities._subset_loop, m, jet length) or (shape, order), maps to
the (point, grid) pair of functions of its one code object. One compile
step, _program, fills it on a miss from a recording (name, params, nodes,
result) made on the node list it passes in, and clears it when it holds
_PROGRAMS_CAP programs. That list takes at most _RECORDING_CAP nodes
(_CappedNodes): a longer recording stops, and its program returns None.

Jet, a checked (base point, finite derivatives) wrapper, is returned only
by the jet_* wrappers of the kernels and exprs.eval_jet, which the
benchmark names; no other package code builds or reads one.
"""

from __future__ import annotations

import math
from functools import partial
from types import FunctionType
from typing import Iterable, Sequence

import numpy as np

from .errors import EvalDomainError, NumericRangeError, StructuralError

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
    pass over floats; a loop over every value, entry by entry, for grid rows
    (math.isfinite raises TypeError on them) and to name the first bad
    value, as the error at that value's point names it. Of a recording's
    placeholders, a guard on those no guard has checked."""
    try:
        if all(map(math.isfinite, values)):
            return values
    except TypeError:
        recorded = [v for v in values if isinstance(v, _Value)]
        if recorded:
            _guard_finite(recorded)
            return values
    for v in [value for entry in values for value in np.ravel(entry).tolist()]:
        if not math.isfinite(v):
            raise NumericRangeError(f"non-finite jet coefficient: {v!r}")
    return values


def _any(mask) -> bool:
    """A comparison at a point, or whether it holds anywhere on a grid row."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _all_finite(v) -> bool:
    """Whether a float, or every value of a grid row, is finite."""
    return np.isfinite(v).all()


def _per_value(fn, v):
    """fn of a float or of each value of an array (numpy's can differ by an
    ulp), mapped in C; the first value on which fn raises raises its error.
    Of a recording's placeholder, the recorded call."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)
    if isinstance(v, _Value):
        return _Value(v.nodes, fn.__name__, v)
    return fn(v)


def _as_float(v):
    """float(v), or a recording's placeholder as it is."""
    return v if isinstance(v, _Value) else float(v)


# A guard statement's text before its condition
_GUARDS = ("if", "if not")
_COMPARISONS = ("<=", "==")


class _Value:
    """A placeholder value of a recording: a parameter, an entry read from a
    jet parameter, the result of one + - * / or unary minus of placeholders
    and floats, a comparison, or a call (a value call or a guard's test).
    A guard statement is a node too, whose op is its text before its
    condition. Each is appended to the recording's nodes when made, so the
    nodes stand in the order the traced code reads and computes them, and
    counts its uses as an operand; `checked` marks a value a guard has
    found finite."""

    __slots__ = ("op", "operands", "nodes", "uses", "name", "checked")

    def __init__(self, nodes: list[_Value], op: str, *operands, name: str | None = None):
        self.op = op  # the operator, a called name, or a leaf's text: "a[0]" or the parameter
        self.operands = operands
        self.nodes = nodes
        self.uses = 0
        self.name = name
        self.checked = False
        for x in operands:
            if isinstance(x, _Value):
                x.uses += 1
        nodes.append(self)

    __hash__ = None  # == records a comparison

    def __eq__(self, other):
        return _Value(self.nodes, "==", self, other)

    def __le__(self, other):
        return _Value(self.nodes, "<=", self, other)

    def __bool__(self) -> bool:
        """A branch on a comparison, recorded as a guard that returns None
        where it holds; the recording goes on as if it does not."""
        if self.op not in _COMPARISONS:
            raise TypeError("a recorded program may branch on comparisons only")
        _Value(self.nodes, "if", _Value(self.nodes, "any_", self))
        return False

    def __abs__(self):
        return _Value(self.nodes, "abs", self)

    def __add__(self, other):
        return _Value(self.nodes, "+", self, other)

    def __radd__(self, other):
        return _Value(self.nodes, "+", other, self)

    def __sub__(self, other):
        return _Value(self.nodes, "-", self, other)

    def __rsub__(self, other):
        return _Value(self.nodes, "-", other, self)

    def __mul__(self, other):
        return _Value(self.nodes, "*", self, other)

    def __rmul__(self, other):
        return _Value(self.nodes, "*", other, self)

    def __truediv__(self, other):
        return _Value(self.nodes, "/", self, other)

    def __rtruediv__(self, other):
        return _Value(self.nodes, "/", other, self)

    def __neg__(self):
        return _Value(self.nodes, "-", self)


def _guard_finite(values: list[_Value]) -> None:
    """Records a guard that returns None unless the placeholders among
    values that no guard has checked are finite: one isfinite of their sum,
    which is not finite if one of them is not."""
    fresh = [v for v in values if not v.checked]
    if fresh:
        total = fresh[0]
        for v in fresh[1:]:
            total = total + v
        _Value(total.nodes, "if not", _Value(total.nodes, "isfinite", total))
        for v in fresh:
            v.checked = True


def _text(x) -> str:
    """Program text of an operand or a result: a named placeholder's name,
    an unnamed one's expression, a finite float's repr, an int's as the
    float it rounds to, None, or a list of those. An int operand thus
    computes as in the trace (int x float rounds as float(int) x float), and
    a program reads only float constants, which CPython multiplies and adds
    faster."""
    if isinstance(x, _Value):
        if x.name is not None:
            return x.name
        return f"({_expression(x)})" if x.operands else x.op
    if isinstance(x, list):
        return "[" + ", ".join(map(_text, x)) + "]"
    if type(x) in (float, int) and math.isfinite(x):
        return repr(float(x))
    if x is None:
        return "None"
    raise TypeError(f"a recorded recurrence may use placeholders and numbers only, not {x!r}")


def _leaves(x) -> list:
    """x, or the entries of x at any depth of lists."""
    return [v for item in x for v in _leaves(item)] if isinstance(x, list) else [x]


def _expression(v: _Value) -> str:
    """Program text of what v computes, reads or calls."""
    if len(v.operands) == 2:
        return f"{_text(v.operands[0])} {v.op} {_text(v.operands[1])}"
    if not v.operands:
        return v.op
    return f"-{_text(v.operands[0])}" if v.op == "-" else f"{v.op}({_text(v.operands[0])})"


def _program_code(name: str, params: Sequence[str], nodes: list[_Value], result):
    """The code of the function `name` of params that a recording stands
    for: its nodes, in order, then `return result`.

    A placeholder used once is written into the expression that uses it,
    so an intermediate grid row is freed as soon as it is used (and numpy
    may reuse its buffer); one never read, with what only it reads, is left
    out; one read twice or returned is assigned to a name, in the
    recording's order, and each guard is a statement in its place. Each
    written operation has the recording's operands, and operations have no
    side effects, so the results are bitwise the recording's. A written
    expression runs no earlier than where it was recorded, so a guard comes
    before every operation recorded after it. The text holds only parameter
    names, integer indices, finite floats, operators, the called names of
    _POINT_CALLS, parentheses and guard statements."""
    returned = set(map(id, _leaves(result)))
    for i, v in enumerate(nodes):
        if v.name is None and v.op not in _GUARDS and (v.uses > 1 or id(v) in returned):
            v.name = f"v{i}"
    lines = [
        f"{v.op} {_expression(v.operands[0])}: return None"
        if v.op in _GUARDS
        else f"{v.name} = {_expression(v)}"
        for v in nodes
        if v.op in _GUARDS or v.name not in (None, v.op)
    ]
    body = "".join(f"    {line}\n" for line in [*lines, f"return {_text(result)}"])
    scope: dict = {}
    exec(compile(f"def {name}({', '.join(params)}):\n{body}", f"<{name}>", "exec"), {}, scope)
    return scope[name].__code__


# The names a traced program calls: math's functions at a point; on a grid
# the same maps per value, and the guards' whole-row tests.
_POINT_CALLS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "isfinite": math.isfinite,
    "any_": bool,
}
_GRID_CALLS = {
    **{name: partial(_per_value, _POINT_CALLS[name]) for name in ("exp", "log", "sin", "cos")},
    "isfinite": _all_finite,
    "any_": _any,
}


_PROGRAMS: dict = {}
_PROGRAMS_CAP = 256
_RECORDING_CAP = 4096


class _RecordingFull(Exception):
    """Raised by _CappedNodes to stop a recording at _RECORDING_CAP nodes."""


class _CappedNodes(list):
    """A recording's nodes, which take at most _RECORDING_CAP nodes."""

    def append(self, node) -> None:
        if len(self) >= _RECORDING_CAP:
            raise _RecordingFull
        super().append(node)


def _program(key, record, *args):
    """_PROGRAMS[key], filled from record(nodes, *args), a recording (name,
    params, nodes, result) on a fresh _CappedNodes, or one of None if it
    stops at the cap: its code bound to _POINT_CALLS and to _GRID_CALLS. A
    full table is cleared first."""
    try:
        code = _program_code(*record(_CappedNodes(), *args))
    except _RecordingFull:
        code = _program_code("over_cap", ["*args"], [], None)
    if len(_PROGRAMS) >= _PROGRAMS_CAP:
        _PROGRAMS.clear()
    _PROGRAMS[key] = programs = FunctionType(code, _POINT_CALLS), FunctionType(code, _GRID_CALLS)
    return programs


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
    """Binomial convolution of two derivs sequences or two broadcastable
    derivative-major grid arrays: (a*b)[k] = sum_j C(k,j) a[j] b[k-j],
    with the int C(k,j) of math.comb and each sum started at the int 0, so
    exact entries (Fractions, or object arrays of them) give exact results.

    Terms are grouped in (j, k-j) pairs so the result is bitwise identical
    under swapping a and b (commutativity of the product is exact).
    """
    out = [0.0] * len(a)
    for k in range(len(a)):
        s = 0
        for j in range((k + 1) // 2):  # j < k - j; no +=, as in _reciprocal_derivs
            s = s + math.comb(k, j) * (a[j] * b[k - j] + a[k - j] * b[j])
        if k % 2 == 0:
            s = s + math.comb(k, k // 2) * (a[k // 2] * b[k // 2])
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
    """Derivatives of exp∘g from those of g, a derivs sequence or a (K+1, P)
    grid array: h = exp(g) from h0 = exp(g(x0)) by h^(k+1) = sum_j C(k,j)
    g^(j+1) h^(k-j), which is the product rule applied to h' = g'·h."""
    try:
        h0 = _per_value(math.exp, g[0])
    except OverflowError:
        # name the first value that overflows, as the error at its point does
        for v in np.ravel(g[0]).tolist():
            try:
                math.exp(v)
            except OverflowError:
                raise NumericRangeError(f"exp overflow at value {v}") from None
    n = len(g)
    h = [h0] + [0.0] * (n - 1)
    for k in range(n - 1):
        s = 0
        for i in range(k + 1):
            s = s + math.comb(k, i) * g[i + 1] * h[k - i]  # no +=, as in _reciprocal_derivs
        h[k + 1] = s
    return h


def jet_ln_abs(j: Jet) -> Jet:
    """Jet of ln|f| from the jet of f; requires f(x0) != 0."""
    return Jet(j.x0, _ln_abs_derivs(j.derivs))


def _ln_abs_derivs(f):
    """Derivatives of ln|f| from those of f, nonzero at every point: u =
    ln|f| from u0 = ln|f(x0)| by solving f·u' = f' order by order; all
    coefficients beyond the value are sign-independent because only ratios
    over f appear."""
    if _any(f[0] == 0.0):
        raise EvalDomainError("log singularity at base point")
    n = len(f)
    u = [_per_value(math.log, abs(f[0]))] + [0.0] * (n - 1)
    inv_f0 = 1 / f[0]
    for k in range(n - 1):
        # f[0]*u[k+1] = f[k+1] - sum_{i=1..k} C(k,i) f[i] u[k+1-i]; no -=,
        # which on a grid would write into the row f[k+1]
        s = f[k + 1]
        for i in range(1, k + 1):
            s = s - math.comb(k, i) * f[i] * u[k + 1 - i]
        u[k + 1] = s * inv_f0
    return u


def jet_reciprocal(j: Jet) -> Jet:
    """Jet of 1/f; requires f(x0) != 0."""
    return Jet(j.x0, _reciprocal_derivs(j.derivs))


def _reciprocal_derivs(f):
    """Derivatives of 1/f from those of f, nonzero at every point: w = 1/f
    by w^(k) = -w(x0) sum_{i=1..k} C(k,i) f^(i) w^(k-i), the product rule
    applied to f·w = 1."""
    if _any(f[0] == 0.0):
        raise EvalDomainError("division by zero at base point")
    n = len(f)
    w = [0.0] * n
    w[0] = 1 / f[0]
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            # no +=, which on a grid would fail where a term broadcasts to
            # more points than s holds
            s = s + math.comb(k, i) * f[i] * w[k - i]
        w[k] = -s * w[0]
    return w


def jet_sin_cos(j: Jet) -> tuple[Jet, Jet]:
    """Jets of sin∘g and cos∘g."""
    s, c = _sin_cos_derivs(j.derivs)
    return Jet(j.x0, s), Jet(j.x0, c)


def _sin_cos_derivs(g):
    """Derivatives of s = sin∘g and c = cos∘g: sin and cos of the value,
    then both advanced jointly via s' = g'·c, c' = -g'·s."""
    n = len(g)
    s = [_per_value(math.sin, g[0])] + [0.0] * (n - 1)
    c = [_per_value(math.cos, g[0])] + [0.0] * (n - 1)
    for k in range(n - 1):
        acc_s = 0
        acc_c = 0
        for i in range(k + 1):
            gi = math.comb(k, i) * g[i + 1]  # no += or -=, as in _reciprocal_derivs
            acc_s = acc_s + gi * c[k - i]
            acc_c = acc_c - gi * s[k - i]
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
