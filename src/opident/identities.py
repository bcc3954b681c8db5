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
(m, P), and the (P,) values of fs[0]. The diagonal identity on fs[0] is
formed from the last two, once per tuple. A black-box D sees only opaque
SmoothFn products, built per tuple and evaluated per point. A canonical D
is checked over the whole grid at once, as stacks, formula, gather:
_subset_stacks builds every subset product of the tuple's grid jets by DP
over its canonical order; operators.apply_on_grid applies the closed form
to the nonempty ones and to the powers of fs[0] in one pass; and each term
gathers its subset's outside value product and D of its complement's
product. The batched engine folds the same terms in the same order as the per-point
one, so both give bitwise the same arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StructuralError
from .functions import (
    SmoothFn,
    fn_constant,
    fn_exp_of,
    fn_from_jet,
    fn_monomial,
    fn_product,
)
from .jets import _conv, binomial_row, signed_sum, sorted_jet_order
from .operators import CanonicalOp, Operator, apply, apply_on_grid

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-8


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


def bound_ratio(residual: float, scale: float, tol_abs: float, tol_rel: float) -> float:
    """|residual| / (tol_abs + tol_rel·scale); inf when the residual or the
    scale is not finite, so a NaN sample is the worst one; with a zero
    bound, 0 for a zero residual and inf otherwise."""
    if not (math.isfinite(residual) and math.isfinite(scale)):
        return math.inf
    bound = tol_abs + tol_rel * scale
    if bound > 0.0:
        return abs(residual) / bound
    return 0.0 if residual == 0.0 else math.inf


class _Aggregator:
    """Collects (residual, scale, x, descriptors) samples; the report carries
    the sample with the largest bound_ratio, the first one on ties."""

    def __init__(self):
        self._samples: list[tuple] = []

    def add(self, residual: float, scale: float, x: float, descriptors) -> None:
        self._samples.append((residual, scale, x, descriptors))

    def report(
        self, name: str, n: int, tol_abs: float, tol_rel: float
    ) -> ResidualReport:
        if not self._samples:
            return ResidualReport(name, n, 0, 0.0, 0.0, None, tol_abs, tol_rel)
        residual, scale, x, descriptors = max(
            self._samples, key=lambda s: bound_ratio(s[0], s[1], tol_abs, tol_rel)
        )
        return ResidualReport(
            name,
            n,
            len(self._samples),
            abs(residual),
            scale,
            WorstCase(x, tuple(descriptors), residual),
            tol_abs,
            tol_rel,
        )


def subset_masks(size: int) -> range:
    """All proper subsets of {0..size-1} as bitmasks, ascending (the full
    set — the one subset the identity excludes — is omitted)."""
    return range((1 << size) - 1)


def _require_tuple(fs: Sequence[SmoothFn]) -> None:
    if len(fs) < 2:
        raise StructuralError("the subset identity needs at least 2 functions")


def _subset_plan(fs: Sequence[SmoothFn]):
    """Per-mask (inside indices, complement product, sign) — built once per
    tuple so product functions are reused across grid points."""
    _require_tuple(fs)
    m = len(fs)
    plan = []
    for mask in subset_masks(m):
        inside = tuple(j for j in range(m) if mask >> j & 1)
        complement = [fs[j] for j in range(m) if not mask >> j & 1]
        plan.append((inside, fn_product(complement), mask.bit_count() % 2))
    return plan


def _terms_from_plan(op: Operator, plan, values, x: float) -> list[float]:
    terms = []
    for inside, prod, odd in plan:
        outside = math.prod(sorted(values[j] for j in inside))
        signed = outside * apply(op, prod, x)
        terms.append(-signed if odd else signed)
    return terms


def alternating_subset_terms(
    op: Operator, fs: Sequence[SmoothFn], x: float
) -> list[float]:
    """Signed terms of the subset identity, in ascending-bitmask order.

    Each term's float value is permutation-invariant: the outside value
    product and the product jets inside D fold in canonical sorted order.
    """
    values = [f.value_at(x) for f in fs]
    return _terms_from_plan(op, _subset_plan(fs), values, x)


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
    through opaque product functions: the path a black-box D needs, and the
    reference for _points_batched. At each point the subset applies run
    before the power applies, so an error names the first failing point."""
    plan = _subset_plan(fs)
    m = len(fs)
    powers = [fn_product([fs[0]] * k) for k in range(1, m + 1)]
    terms = np.empty(((1 << m) - 1, len(grid)))
    inner = np.empty((m, len(grid)))
    values = np.empty(len(grid))
    for p, x in enumerate(grid):
        point_values = [f.value_at(x) for f in fs]
        terms[:, p] = _terms_from_plan(op, plan, point_values, x)
        inner[:, p] = _power_terms_from_plan(op, powers, x)
        values[p] = point_values[0]
    return terms, inner, values


def _subset_stacks(jets: np.ndarray):
    """(outside, prods, inside, odd) of a tuple of m grid jets, given as a
    derivative-major (K+1, m, P) stack, in arrays of its dtype.

    Per point the tuple is put in canonical order (sorted_jet_order,
    fn_product's fold order) and the product over each rank bitmask R is
    built by DP, prod[R] = prod[R - top(R)] ⊛ jet[top(R)], one _conv per
    popcount level: prods[:, R] is its (K+1, 2^m, P) jet and outside[R] the
    (2^m, P) product of its values in the same fold. inside[s, p] is the
    rank bitmask at point p of subset s of subset_masks(m), and odd[s]
    whether that subset has odd size.
    """
    _, m, points = jets.shape
    size = 1 << m
    # by_rank[r, p]: index into the tuple of the rank-r function at point p
    by_rank = sorted_jet_order(jets)
    ranked = np.take_along_axis(jets, by_rank[None], axis=1)
    prods = np.zeros((len(jets), size, points), dtype=jets.dtype)
    outside = np.ones((size, points), dtype=jets.dtype)
    for level in range(1, m + 1):
        masks = [r for r in range(1, size) if r.bit_count() == level]
        tops = [r.bit_length() - 1 for r in masks]
        rests = [r ^ (1 << t) for r, t in zip(masks, tops)]
        outside[masks] = outside[rests] * ranked[0, tops]
        top_jets = ranked[:, tops]
        prods[:, masks] = top_jets if level == 1 else _conv(prods[:, rests], top_jets)
    # bits[j, p]: the rank bit of the j-th function at point p
    bits = 1 << np.argsort(by_rank, axis=0)
    member = np.array([[mask >> j & 1 for j in range(m)] for mask in subset_masks(m)])
    return outside, prods, member @ bits, member.sum(axis=1) % 2 == 1


def _points_batched(op: CanonicalOp, fs: Sequence[SmoothFn], grid):
    """_points_per_point for a canonical D on the whole grid at once,
    bitwise equal to it: grid jets (a list grid is taken as a tuple), then
    _subset_stacks and the chain f^k = f^(k-1) ⊛ f for the powers of fs[0],
    then one apply_on_grid pass, which raises NumericRangeError naming the
    first grid point with a non-finite product or value, then the signed
    gather. Values are the order-0 entries of the jets: every jet
    recurrence is triangular, so they are bitwise those of order-0 jets.
    """
    _require_tuple(fs)
    grid = tuple(grid)
    m = len(fs)
    size = 1 << m
    # jets[k, j, p]: the k-th derivative of fs[j] at grid[p]
    jets = np.stack([f.eval_jet(grid, op.n) for f in fs], axis=1)
    with np.errstate(all="ignore"):
        outside, prods, inside, odd = _subset_stacks(jets)
        powers = [jets[:, 0]]
        for _ in range(m - 1):
            powers.append(_conv(powers[-1], jets[:, 0]))
        # the empty product prods[:, 0] is no complement, so it is left out
        stacked = np.concatenate([prods[:, 1:], np.stack(powers, axis=1)], axis=1)
        applied = apply_on_grid(op, grid, stacked)
        cols = np.arange(len(grid))
        terms = outside[inside, cols] * applied[size - 2 - inside, cols]
    terms[odd] = -terms[odd]
    return terms, applied[size - 1:][::-1], jets[0, 0]


def _exact_zeros(op: Operator, fns: list[SmoothFn], grid, name: str) -> ResidualReport:
    """D(f)(x) = 0 with no tolerance for each f of fns at every grid point,
    sampled f by f from one apply per function on the whole grid."""
    grid = tuple(grid)
    agg = _Aggregator()
    for f in fns:
        for x, r in zip(grid, apply(op, f, grid).tolist()):
            agg.add(r, abs(r), x, (f.descriptor,))
    return agg.report(name, 0, 0.0, 0.0)


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
    where f1 and f2 agree."""
    a, b = interval
    for x in grid:
        if not a < x < b:
            raise StructuralError(
                f"grid point {x} is outside the agreement interval ({a}, {b})"
            )
    agg = _Aggregator()
    for x in grid:
        r = apply(op, f1, x) - apply(op, f2, x)
        agg.add(r, abs(r), x, (f1.descriptor, f2.descriptor))
    return agg.report("localization", 0, 1e-12, 0.0)


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


def random_polynomial(rng: random.Random, degree: int = 3) -> SmoothFn:
    coeffs = [rng.uniform(-COEF_RANGE, COEF_RANGE) for _ in range(degree + 1)]
    fact = 1.0
    jet = []
    for l, cl in enumerate(coeffs):
        if l > 0:
            fact *= l
        jet.append(cl * fact)
    fn = fn_from_jet(0.0, jet)
    fn.descriptor = "poly[" + ",".join(f"{c:.4g}" for c in coeffs) + "]"
    return fn


def random_function(rng: random.Random) -> SmoothFn:
    kind = rng.randrange(3)
    if kind == 0:
        return random_polynomial(rng)
    if kind == 1:
        return fn_exp_of(random_polynomial(rng))
    return fn_product([random_polynomial(rng), fn_exp_of(random_polynomial(rng))])


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


def run_check_suite_full(op: Operator, n: int, cfg: SamplingConfig) -> SuiteOutcome:
    """Drive both identities over random tuples; deterministic given seed.

    Per sampled tuple and grid point this evaluates the subset identity on
    the tuple and the diagonal identity on the tuple's first function; it
    also reports |diagonal - subset| for the equal-entry tuple against the
    shared term scale (they agree up to roundoff by construction). Both
    sides of that gap come from the same n+1 applications D(f^k)(x).

    Per tuple, a canonical D takes _points_batched and a black box
    _points_per_point; _power_terms forms both diagonal forms from the
    engine's arrays, and the samples are added point by point.
    """
    rng = random.Random(cfg.seed)
    agg = _Aggregator()
    gap_agg = _Aggregator()
    engine = _points_batched if isinstance(op, CanonicalOp) else _points_per_point
    for _ in range(cfg.tuples):
        fs = tuple(random_function(rng) for _ in range(n + 1))
        descriptors = tuple(f.descriptor for f in fs)
        subset, inner, values = engine(op, fs, cfg.grid)
        columns = (a.T.tolist() for a in (subset, *_power_terms(inner, values, n)))
        for x, terms, pterms, dterms in zip(cfg.grid, *columns):
            scale = max(map(abs, terms))
            agg.add(signed_sum(terms), scale, x, descriptors)

            presidual = signed_sum(pterms)
            pscale = max(map(abs, pterms))
            agg.add(presidual, pscale, x, descriptors[:1])

            dscale = max(map(abs, dterms))
            gap = presidual - signed_sum(dterms)
            gap_agg.add(gap, max(pscale, dscale), x, descriptors[:1])
    return SuiteOutcome(
        agg.report("identity-suite", n, DEFAULT_TOL_ABS, DEFAULT_TOL_REL),
        gap_agg.report("diagonal-consistency", n, 0.0, 1e-12),
    )
