"""Residual evaluation for the alternating-subset operator identity.

The core object is the signed sum over subsets I of {1..n+1} (|I| <= n) of

    (-1)^|I| · (prod_{j in I} f_j(x)) · D(prod_{k not in I} f_k)(x),

which vanishes identically when D is a differential operator of order at
most n (and, with log terms, for the full canonical family). Each sample's
residual is judged against its own bound tol_abs + tol_rel·scale, the scale
being the largest single term magnitude, because the sum cancels
catastrophically by design. Every residual is the signed_sum (math.fsum) of
its terms, rounded once from the exact sum, so it depends neither on the
order of the terms nor on the interpreter. A report carries the sample with
the worst ratio of residual to bound, so it passes only if every sample does.

For a tuple fs of m functions on a grid of P points, the suite's two engines
return what depends on D as arrays (terms, inner, values): the (2^m-1, P)
subset terms in ascending-bitmask order, inner[i] = D(fs[0]^(m-i)) of shape
(m, P), and the (P,) values of fs[0]; for T tuples at once the canonical
engine's arrays span T·P columns, tuple-major. The diagonal identity on
fs[0] is formed from the last two, once per tuple.

A local D, any operator but a BlackBoxOp, reads only jets, at op.order,
through op.values. At a point, its terms come from each input's jet, read
once, and one _outside_products DP over the jets' canonical order, which
gives every outside value product and every complement product jet (one
_conv each); op.values runs once per complement. A local D is checked on a
block of tuples, drawn as jets, over the whole grid at once: one family
pass gives every input's grid jets; _subset_stacks builds every subset
product and the powers of fs[0] by the same DP over each tuple's canonical
order, one _conv per top rank; apply_on_grid runs op.values on them in one
pass; and each term gathers its subset's outside value product and D of
its complement's product. A block that raises is rerun once on the
per-point engine below, tuple by tuple, which raises the first failing
tuple's error at its first failing point.

A black-box D, which may read f off the point, sees only opaque SmoothFn
products, evaluated per point, and its path is the sum as written:
_subset_plan builds one fn_product per complement, D is applied to each,
and each outside value product is math.prod of the subset's sorted values.
The tuple's values are read after D's applies, as prefixes of the jets
those evaluated through the SmoothFn memo, so each input is evaluated once
per point. Every path folds the same terms in the same order, so all give
bitwise the same arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, starmap
from typing import Sequence

import numpy as np

from .errors import EvalDomainError, NumericRangeError, StructuralError
from .functions import (
    SmoothFn,
    _poly_derivs,
    fn_constant,
    fn_exp_of,
    fn_from_jet,
    fn_monomial,
    fn_product,
)
from .jets import (
    _check_finite,
    _conv,
    _exp_derivs,
    binomial_row,
    signed_sum,
    sorted_jet_order,
)
from .operators import (
    BlackBoxOp,
    CanonicalOp,
    JetOp,
    Operator,
    apply,
    apply_on_grid,
    finite_value,
)

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-8
# tuples per canonical engine pass: bounds its stacks, about 0.12 MB a tuple
# at n = 4 on 21 points
_TUPLES_PER_PASS = 64


@dataclass(frozen=True)
class WorstCase:
    x: float
    functions: tuple[str, ...]
    residual: float

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "functions": list(self.functions),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check over a sample. max_abs_residual and
    max_scale are the pair of the sample with the largest bound_ratio, so
    the record passes iff every sample is within its own bound."""

    name: str
    n: int
    samples: int
    max_abs_residual: float
    max_scale: float
    worst_case: WorstCase | None
    tol_abs: float
    tol_rel: float

    @property
    def vacuous(self) -> bool:
        return self.samples == 0

    @property
    def passed(self) -> bool:
        return (
            bound_ratio(self.max_abs_residual, self.max_scale, self.tol_abs, self.tol_rel)
            <= 1.0
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "samples": self.samples,
            "max_abs_residual": self.max_abs_residual,
            "max_scale": self.max_scale,
            "worst_case": self.worst_case.to_json() if self.worst_case else None,
            "pass": self.passed,
            "vacuous": self.vacuous,
        }


def bound_ratio(residual, scale, tol_abs: float, tol_rel: float):
    """|residual| / (tol_abs + tol_rel·scale); inf when the residual or the
    scale is not finite, so a NaN sample is the worst one; with a zero
    bound, 0 for a zero residual and inf otherwise. A float for floats; for
    arrays an array, each entry bitwise the float call on its pair."""
    r, s = np.asarray(residual, dtype=float), np.asarray(scale, dtype=float)
    with np.errstate(all="ignore"):
        bound = tol_abs + tol_rel * s
        ratio = np.where(bound > 0.0, np.abs(r) / bound, np.where(r == 0.0, 0.0, np.inf))
    ratio = np.where(np.isfinite(r) & np.isfinite(s), ratio, np.inf)
    return ratio if ratio.ndim else float(ratio)


class _Aggregator:
    """Collects samples (residual, scale, x, descriptors), one at a time or
    as rows, lists with one entry per sample; the report carries the sample
    with the largest bound_ratio, the first one on ties, from one call."""

    def __init__(self):
        self._samples: list[tuple] = []

    def add(self, residual, scale, x, descriptors) -> None:
        if type(residual) is list:
            self._samples += zip(residual, scale, x, descriptors)
        else:
            self._samples.append((residual, scale, x, descriptors))

    def report(
        self, name: str, n: int, tol_abs: float, tol_rel: float
    ) -> ResidualReport:
        if not self._samples:
            return ResidualReport(name, n, 0, 0.0, 0.0, None, tol_abs, tol_rel)
        residuals, scales, _, _ = zip(*self._samples)
        # the first on ties: no ratio is NaN
        worst = int(np.argmax(bound_ratio(residuals, scales, tol_abs, tol_rel)))
        residual, scale, x, descriptors = self._samples[worst]
        case = WorstCase(x, tuple(descriptors), residual)
        return ResidualReport(
            name, n, len(self._samples), abs(residual), scale, case, tol_abs, tol_rel
        )


def subset_masks(size: int) -> range:
    """All proper subsets of {0..size-1} as bitmasks, ascending (the full
    set — the one subset the identity excludes — is omitted)."""
    return range((1 << size) - 1)


def _require_tuple(m: int) -> None:
    if m < 2:
        raise StructuralError("the subset identity needs at least 2 functions")


def _subset_plan(fs: Sequence[SmoothFn]):
    """Per subset of subset_masks(m), (fn_product over its complement, odd
    size); a one-function complement is the function itself."""
    _require_tuple(len(fs))
    return [
        (fn_product([f for j, f in enumerate(fs) if not mask >> j & 1]), mask.bit_count() % 2)
        for mask in subset_masks(len(fs))
    ]


def _outside_products(jets):
    """(outside, prods) for m functions' jets at a point, bitwise, for every
    bitmask: math.prod(sorted(jets[j][0] for j in mask)) and fn_product's
    sorted fold of the jets in mask. One stable sort of the jets (a tie in
    value is a tie in the factor multiplied), then per rank bitmask R the
    product of R without its top rank times the top-rank entry: one
    multiply each, and one _conv and _check_finite per product of two or
    more."""
    values = [jet[0] for jet in jets]
    order = sorted(range(len(jets)), key=jets.__getitem__)
    outside = [1.0] * (1 << len(jets))
    prods = [None] * len(outside)
    # by_rank[R]: the index bitmask of the functions with the ranks in R
    by_rank = [0] * len(outside)
    for ranks in range(1, len(outside)):
        top = ranks.bit_length() - 1
        j = order[top]
        rest = by_rank[ranks ^ (1 << top)]
        by_rank[ranks] = mask = rest | 1 << j
        outside[mask] = outside[rest] * values[j]
        prods[mask] = _check_finite(_conv(prods[rest], jets[j])) if rest else jets[j]
    return outside, prods


def _jet_terms(op: CanonicalOp | JetOp, fs: Sequence[SmoothFn], x: float) -> list[float]:
    """alternating_subset_terms for a local D, bitwise _terms_from_plan's
    terms: each input's jet read once at op.order, one _outside_products DP
    for the outside values and the complement products, and op.values once
    per complement. If a jet raises, the values are read in index order, so
    a failing value's error replaces it, as on the opaque path. An error is
    of the opaque path's type at the same point, but as every product is
    formed before op.values runs, an overflowing product can be named where
    the opaque path names D's value."""
    _require_tuple(len(fs))
    try:
        jets = [f.eval_jet(x, op.order) for f in fs]
    except (EvalDomainError, NumericRangeError):
        for f in fs:
            f.value_at(x)
        raise
    outside, prods = _outside_products(jets)
    full = len(outside) - 1
    terms = []
    for mask in subset_masks(len(fs)):
        signed = outside[mask] * finite_value(op, op.values(x, prods[full ^ mask]), x)
        terms.append(-signed if mask.bit_count() % 2 else signed)
    return terms


def _terms_from_plan(op: Operator, plan, fs: Sequence[SmoothFn], x: float) -> list[float]:
    """The signed terms at x. D's applies run first, so the values of fs
    read after them are prefixes of jets already evaluated. The values are
    read even when an apply raises: a failing value's error then replaces
    D's, as when the values were read first."""
    try:
        applied = [apply(op, prod, x) for prod, _ in plan]
    finally:
        values = [f.value_at(x) for f in fs]
    terms = []
    for mask, ((_, odd), d_value) in enumerate(zip(plan, applied)):
        outside = math.prod(sorted(v for j, v in enumerate(values) if mask >> j & 1))
        signed = outside * d_value
        terms.append(-signed if odd else signed)
    return terms


def alternating_subset_terms(
    op: Operator, fs: Sequence[SmoothFn], x: float
) -> list[float]:
    """Signed terms of the subset identity, in ascending-bitmask order.

    Each term's float value is permutation-invariant: the outside value
    product and the product jets inside D fold in canonical sorted order.
    Each input is evaluated once at x: a local D reads its jets and forms
    every product by one DP (_jet_terms); a black box is applied to one
    fn_product per complement, and the tuple's values are read after D's
    applies, as prefixes of the jets they evaluated.
    """
    if isinstance(op, BlackBoxOp):
        return _terms_from_plan(op, _subset_plan(fs), fs, x)
    return _jet_terms(op, fs, x)


def alternating_subset_residual(
    op: Operator, fs: Sequence[SmoothFn], x: float
) -> float:
    """Residual of the subset identity for the (n+1)-tuple fs at x.

    The terms are summed by signed_sum, which rounds the exact sum once, so
    permuting fs changes nothing, not even the final rounding.
    """
    return signed_sum(alternating_subset_terms(op, fs, x))


def _power_terms(inner: np.ndarray, values: np.ndarray, n: int):
    """(diagonal terms, equal-entry subset terms), (n+1, P) and
    (2^(n+1)-1, P) arrays, from values v = f and inner[i] = D(f^(n+1-i)).

    The diagonal terms are (-1)^i C(n+1,i) v^i inner[i]; the subset identity
    on the tuple (f,)*(n+1) has, per mask with i members, (-1)^i v^i
    inner[i], one row per mask of subset_masks(n+1) (both in the float
    operations of a one-point loop over i).
    """
    row = binomial_row(n + 1)
    pterms, signed = [], []
    vpow = np.ones_like(values)
    with np.errstate(all="ignore"):
        for i in range(n + 1):
            term = row[i] * vpow * inner[i]
            power = vpow * inner[i]
            pterms.append(term if i % 2 == 0 else -term)
            signed.append(power if i % 2 == 0 else -power)
            vpow = vpow * values
    cards = [mask.bit_count() for mask in subset_masks(n + 1)]
    return np.array(pterms), np.array(signed)[cards]


def _power_terms_from_plan(op: Operator, powers, x: float) -> list[float]:
    return [apply(op, power, x) for power in reversed(powers)]


def _points_per_point(op: Operator, fs: Sequence[SmoothFn], grid):
    """(terms, inner, values), the engine arrays of the module docstring,
    through opaque product functions, the subset plan's and the powers
    fn_product([fs[0]] * k): the path a black-box D needs, and the
    reference for _points_batched. At each point the subset applies run,
    then the values are read (as prefixes of the jets the applies
    evaluated), then the power applies, so an error names the first failing
    point and, there, the values' error comes before D's."""
    plan = _subset_plan(fs)
    m = len(fs)
    powers = [fn_product([fs[0]] * k) for k in range(1, m + 1)]
    terms = np.empty(((1 << m) - 1, len(grid)))
    inner = np.empty((m, len(grid)))
    values = np.empty(len(grid))
    for p, x in enumerate(grid):
        terms[:, p] = _terms_from_plan(op, plan, fs, x)
        inner[:, p] = _power_terms_from_plan(op, powers, x)
        values[p] = fs[0].value_at(x)
    return terms, inner, values


def _subset_stacks(jets: np.ndarray):
    """(outside, prods, inside, odd) of tuples of m grid jets, given as a
    derivative-major (K+1, m, C) stack of C columns, in arrays of its dtype.

    Per column the tuple is put in canonical order (sorted_jet_order,
    fn_product's fold order) and the product over each rank bitmask R is
    built by DP over its top rank t, prod[R] = prod[R - 2^t] ⊛ jet[t], the
    masks [2^t, 2^(t+1)) in one _conv of the slice prods[:, :2^t]: prods[:, R]
    is its (K+1, C) jet and outside[R] the (2^m, C) product of its values in
    the same fold. prods[:, 2^m - 1 + k] is jets[:, 0]^k, k = 1..m, by f^k =
    f^(k-1) ⊛ f carried in the empty product's slot 0 of the same _conv.
    inside[s, c] is the rank bitmask in column c of subset s of
    subset_masks(m), and odd[s] whether that subset has odd size.
    """
    _, m, cols = jets.shape
    size = 1 << m
    # by_rank[t, c]: index into the tuple of the rank-t function in column c
    by_rank = sorted_jet_order(jets)
    # factors[:, t]: the rank-t jet; factors[:, m]: jets[:, 0], the powers' base
    factors = np.take_along_axis(jets, np.vstack([by_rank, 0 * by_rank[:1]])[None], axis=1)
    prods = np.empty((len(jets), size + m, cols), dtype=jets.dtype)
    prods[:, 0] = prods[:, size] = factors[:, m]
    outside = np.ones((size, cols), dtype=jets.dtype)
    # bits[j, c]: the rank bit of the j-th function in column c
    bits = 1 << np.argsort(by_rank, axis=0)
    inside, odd = np.zeros((size, cols), dtype=bits.dtype), np.zeros(size, dtype=bool)
    for t in range(m):
        low, high = 1 << t, 2 << t
        outside[low:high] = outside[:low] * factors[0, t]
        inside[low:high] = inside[:low] + bits[t]
        odd[low:high] = ~odd[:low]
        prods[:, low] = factors[:, t]
        if t:
            step = np.array(_conv(prods[:, :low], factors[:, [m, t]].repeat([1, low - 1], 1)))
            prods[:, 0] = prods[:, size + t] = step[:, 0]
            prods[:, low + 1 : high] = step[:, 1:]
    return outside, prods, inside[:-1], odd[:-1]


def _points_batched(op: CanonicalOp | JetOp, jets: np.ndarray, grid: tuple):
    """_points_per_point for a local D on T tuples at once, bitwise equal to
    it tuple by tuple: jets is their (K+1, m, T·P) stack of order-op.order
    grid jets, column t·P + p holding tuple t at grid[p], as do the arrays
    returned. _subset_stacks, one apply_on_grid pass (NumericRangeError
    naming the first grid point with a non-finite product or value in any
    tuple), then the signed gather. Values are the jets' order-0 entries,
    bitwise those of order-0 jets since every jet recurrence is triangular.
    """
    _, m, cols = jets.shape
    _require_tuple(m)
    size = 1 << m
    with np.errstate(all="ignore"):
        outside, prods, inside, odd = _subset_stacks(jets)
        # the empty product prods[:, 0] is no complement, so it is left out;
        # the columns split into (tuple, point) for the coefficient rows
        split = (cols // max(len(grid), 1), len(grid))
        stacked = prods[:, 1:].reshape(len(jets), size - 1 + m, *split)
        applied = apply_on_grid(op, grid, stacked).reshape(size - 1 + m, cols)
        index = np.arange(cols)
        terms = outside[inside, index] * applied[size - 2 - inside, index]
    terms[odd] = -terms[odd]
    return terms, applied[size - 1:][::-1], jets[0, 0]


def _per_point_arrays(op: Operator, draws, grid: tuple) -> list:
    """Each tuple's engine arrays from _points_per_point on the functions
    built for it alone: a black box's path, and a local D's when its block
    raises, so the first failing tuple raises its per-point error."""
    return [_points_per_point(op, [*starmap(_function_of, draw)], grid) for draw in draws]


def _canonical_arrays(op: CanonicalOp | JetOp, draws, grid: tuple) -> list:
    """Each tuple's engine arrays for a local D, from one _family_jets and
    one _points_batched call on the _draw_jets draws, or from
    _per_point_arrays if that raises."""
    order, tuples, m, points = op.order + 1, len(draws), len(draws[0]), len(grid)
    try:
        family = _family_jets([d for draw in draws for d in draw], grid, op.order)
        # (K+1, T·m, P) in draw order to (K+1, m, T·P), tuple-major columns
        jets = family.reshape(order, tuples, m, points).transpose(0, 2, 1, 3)
        arrays = _points_batched(op, jets.reshape(order, m, tuples * points), grid)
    except (EvalDomainError, NumericRangeError):
        return _per_point_arrays(op, draws, grid)
    return [tuple(a[..., t * points : (t + 1) * points] for a in arrays) for t in range(tuples)]


def _grid_report(name: str, tol_abs: float, grid: tuple, rows) -> ResidualReport:
    """The sampling rule over grid residual rows: for each (descriptors, row)
    pair, in order, the residual r at each grid point x is one sample with
    scale |r|, so the report's bound is tol_abs alone."""
    agg = _Aggregator()
    for descriptors, row in rows:
        row = row.tolist()
        agg.add(row, list(map(abs, row)), list(grid), [descriptors] * len(row))
    return agg.report(name, 0, tol_abs, 0.0)


def _exact_zeros(op: Operator, fns: list[SmoothFn], grid, name: str) -> ResidualReport:
    """D(f)(x) = 0 with no tolerance for each f of fns at every grid point,
    sampled f by f from one apply per function on the whole grid."""
    grid = tuple(grid)
    rows = (((f.descriptor,), apply(op, f, grid)) for f in fns)
    return _grid_report(name, 0.0, grid, rows)


def check_units(op: Operator, grid: Sequence[float]) -> ResidualReport:
    """D(1)(x) = D(-1)(x) = 0 at every grid point, with no tolerance:
    canonical operators give exactly zero."""
    return _exact_zeros(op, [fn_constant(1.0), fn_constant(-1.0)], grid, "units")


def check_localization(
    op: Operator,
    f1: SmoothFn,
    f2: SmoothFn,
    interval: tuple[float, float],
    grid: Sequence[float],
) -> ResidualReport:
    """|D(f1)(x) - D(f2)(x)| <= 1e-12 at grid points inside the interval
    where f1 and f2 agree, from one grid apply each: an error names f1's
    first failing point before any of f2's."""
    a, b = interval
    grid = tuple(grid)
    for x in grid:
        if not a < x < b:
            raise StructuralError(
                f"grid point {x} is outside the agreement interval ({a}, {b})"
            )
    row = apply(op, f1, grid) - apply(op, f2, grid)
    descriptors = (f1.descriptor, f2.descriptor)
    return _grid_report("localization", 1e-12, grid, [(descriptors, row)])


def check_poly_annihilation(
    op: Operator, j: int, grid: Sequence[float]
) -> ResidualReport:
    """D(x^m)(x) = 0 exactly for monomials of degree m <= j at every grid
    point."""
    if j < 0:
        raise StructuralError("polynomial degree bound must be nonnegative")
    monomials = [fn_monomial(m) for m in range(j + 1)]
    return _exact_zeros(op, monomials, grid, f"poly-annihilation(j={j})")


# Random function family for the suites: p, exp(q), p·exp(q) with p, q
# polynomials whose coefficients are uniform on [-COEF_RANGE, COEF_RANGE];
# exercises both signs and zero crossings.

COEF_RANGE = 2.0


def _draw_polynomial(rng: random.Random, degree: int = 3):
    """random_polynomial's draw: (its descriptor, its jet at 0)."""
    coeffs = [rng.uniform(-COEF_RANGE, COEF_RANGE) for _ in range(degree + 1)]
    fact = 1.0
    jet = []
    for l, cl in enumerate(coeffs):
        if l > 0:
            fact *= l
        jet.append(cl * fact)
    return "poly[" + ",".join(f"{c:.4g}" for c in coeffs) + "]", jet


def random_polynomial(rng: random.Random, degree: int = 3) -> SmoothFn:
    return _function_of(*_draw_polynomial(rng, degree), None)


def _draw_jets(rng: random.Random):
    """random_function's draw as jets: (descriptor, p, q) for f = p, exp(q)
    or p·exp(q), p and q its cubics' jets at 0 (None where f has none)."""
    kind = rng.randrange(3)
    p_text, p = _draw_polynomial(rng) if kind != 1 else (None, None)
    q_text, q = _draw_polynomial(rng) if kind != 0 else (None, None)
    if kind == 0:
        return p_text, p, q
    exp_text = f"exp({q_text})"
    return (exp_text if kind == 1 else f"({p_text})*({exp_text})"), p, q


def _function_of(descriptor: str, p, q) -> SmoothFn:
    """The SmoothFn of a _draw_jets draw: p, exp(q) or their fn_product."""
    parts = [fn_from_jet(0.0, p)] if p is not None else []
    parts += [fn_exp_of(fn_from_jet(0.0, q))] if q is not None else []
    fn = fn_product(parts)
    fn.descriptor = descriptor
    return fn


def random_function(rng: random.Random) -> SmoothFn:
    return _function_of(*_draw_jets(rng))


def _family_jets(draws, grid, order: int) -> np.ndarray:
    """np.stack([_function_of(*d).eval_jet(tuple(grid), order) for d in draws],
    axis=1) for _draw_jets draws, bitwise wherever that is finite, by one
    _poly_derivs over every p and q, one _exp_derivs and one _conv for the
    p·exp(q) (fn_product's fold, as _conv is exactly commutative). It checks
    nothing itself."""
    has_p, has_q = (np.array([d[i] is not None for d in draws]) for i in (1, 2))
    polys = [d[1] for d in draws if d[1] is not None] + [d[2] for d in draws if d[2] is not None]
    with np.errstate(all="ignore"):
        # every jet is at x0 = 0, so t = y - x0 is the grid itself
        rows = _poly_derivs(np.array(polys).T[:, :, None], np.array(grid, dtype=float), order)
        poly = np.array([np.broadcast_to(row, (len(polys), len(grid))) for row in rows])
        ps, qs = np.split(poly, [has_p.sum()], axis=1)
        out = np.empty((order + 1, len(draws), len(grid)))
        out[:, has_p] = ps
        out[:, has_q] = exps = np.array(_exp_derivs(qs))
        both = has_p & has_q
        if both.any():
            out[:, both] = np.array(_conv(ps[:, both[has_p]], exps[:, both[has_q]]))
    return out


def default_grid(points: int = 21, lo: float = -1.0, hi: float = 1.0) -> tuple:
    if points == 1:
        return ((lo + hi) / 2.0,)
    step = (hi - lo) / (points - 1)
    return tuple(lo + i * step for i in range(points))


@dataclass
class SamplingConfig:
    """Deterministic sampling plan for run_check_suite_full."""

    seed: int = 42
    tuples: int = 10
    grid: tuple[float, ...] = field(default_factory=default_grid)


@dataclass(frozen=True)
class SuiteOutcome:
    """Aggregate identity report plus the diagonal-consistency gap."""

    report: ResidualReport
    diagonal_gap: ResidualReport

    @property
    def passed(self) -> bool:
        return self.report.passed and self.diagonal_gap.passed


def _column_scales(terms: np.ndarray) -> list[float]:
    """max(map(abs, column)) per column: numpy's, or for a column with a NaN
    Python's, which depends on where the NaN sits."""
    scales = np.abs(terms).max(axis=0).tolist()
    for p in np.flatnonzero(np.isnan(scales)):
        scales[p] = max(map(abs, terms[:, p].tolist()))
    return scales


def run_check_suite_full(op: Operator, n: int, cfg: SamplingConfig) -> SuiteOutcome:
    """Drive both identities over random tuples; deterministic given seed.

    Per sampled tuple and grid point this evaluates the subset identity on
    the tuple and the diagonal identity on the tuple's first function; it
    also reports |diagonal - subset| for the equal-entry tuple against the
    shared term scale (they agree up to roundoff by construction). Both
    sides of that gap come from the same n+1 applications D(f^k)(x).

    Tuples are drawn as jets, _TUPLES_PER_PASS at a time; a local D takes
    _canonical_arrays per block, and a black box _per_point_arrays.
    _power_terms forms both diagonal forms from the engine's arrays; each
    tuple's samples are added as rows, point by point.
    """
    if cfg.tuples < 0:
        raise StructuralError(f"tuples must be nonnegative, got {cfg.tuples}")
    rng = random.Random(cfg.seed)
    grid = tuple(cfg.grid)
    agg = _Aggregator()
    gap_agg = _Aggregator()
    for start in range(0, cfg.tuples, _TUPLES_PER_PASS):
        size = min(_TUPLES_PER_PASS, cfg.tuples - start)
        draws = [[_draw_jets(rng) for _ in range(n + 1)] for _ in range(size)]
        if isinstance(op, BlackBoxOp):
            arrays = _per_point_arrays(op, draws, grid)
        else:
            arrays = _canonical_arrays(op, draws, grid)
        for draw, (subset, inner, values) in zip(draws, arrays):
            descriptors = tuple(d for d, _, _ in draw)
            term_arrays = (subset, *_power_terms(inner, values, n))
            sums, psums, dsums = ([*map(signed_sum, a.T.tolist())] for a in term_arrays)
            scales, pscales, dscales = map(_column_scales, term_arrays)
            # each point's subset sample, then its diagonal one
            rows = [[*chain(*zip(a, b))] for a, b in ((sums, psums), (scales, pscales))]
            agg.add(*rows, [*chain(*zip(grid, grid))], [descriptors, descriptors[:1]] * len(grid))
            gaps = [p - d for p, d in zip(psums, dsums)]
            gap_agg.add(gaps, [*map(max, pscales, dscales)], [*grid], [descriptors[:1]] * len(grid))
    return SuiteOutcome(
        agg.report("identity-suite", n, DEFAULT_TOL_ABS, DEFAULT_TOL_REL),
        gap_agg.report("diagonal-consistency", n, 0.0, 1e-12),
    )
