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
fs[0] is formed from the last two, once per tuple. A black-box D sees only
opaque SmoothFn products, evaluated per point: _subset_plan builds them by
DP over the complement masks, each product's jet one _conv of a factor and
the product that leaves it out, and _outside_products forms a point's
outside value products by one multiply per rank bitmask. The tuple's values
are read after D's applies, as prefixes of the jets those evaluated through
the SmoothFn memo, so each input is evaluated once per point. A canonical D is
checked on a block of tuples over the whole grid at once: one family pass
gives every input's grid jets; _subset_stacks builds every subset product
and the powers of fs[0] by DP over each tuple's canonical order;
apply_on_grid applies the closed form to them in one pass; and each term
gathers its subset's outside value product and D of its complement's
product. A block that raises is rerun tuple by tuple, so its error is the
per-tuple loop's. Both engines fold the same terms in the same order, so
they give bitwise the same arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
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
from .jets import _conv, _exp_derivs, binomial_row, signed_sum, sorted_jet_order
from .operators import CanonicalOp, Operator, apply, apply_on_grid

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


def _require_tuple(m: int) -> None:
    if m < 2:
        raise StructuralError("the subset identity needs at least 2 functions")


def _product_fn(descriptor: str, pairs) -> SmoothFn:
    """A product of two or more factors from one DP step: pairs holds, per
    factor in index order, (factor, product of the other factors). Its jet
    at (x0, order) is one _conv: the product without the last factor whose
    jet is maximal, times that factor. That factor is the one Python's
    stable sort puts last, so by induction this is fn_product's sorted
    fold, bitwise, at every point and order; on a grid SmoothFn stacks its
    points. The closure holds only the pairs, so the products form no
    reference cycle."""

    def derivs(x0, order: int) -> list | None:
        if type(x0) is tuple:
            return None  # the factor is picked per point
        top = None
        for factor, rest in pairs:
            jet = factor.eval_jet(x0, order)
            if top is None or jet >= top:
                top, without = jet, rest
        return _conv(without.eval_jet(x0, order), top)

    return SmoothFn(descriptor, derivs)


def _subset_plan(fs: Sequence[SmoothFn]):
    """Per subset of subset_masks(m), (complement product, odd size), built
    once per call so a product's jet is shared by the products above it.
    The product over each complement mask c is built by DP over c with one
    _product_fn, its descriptor fn_product's "*"-joined factor texts; a
    one-function complement is the function itself."""
    m = len(fs)
    _require_tuple(m)
    size = 1 << m
    prods: list = [None] * size
    texts = [""] * size
    for c in range(1, size):
        top = c.bit_length() - 1
        rest = c ^ (1 << top)
        text = f"({fs[top].descriptor})"
        if rest:
            texts[c] = f"{texts[rest]}*{text}"
            pairs = [(fs[j], prods[c ^ (1 << j)]) for j in range(m) if c >> j & 1]
            prods[c] = _product_fn(texts[c], pairs)
        else:
            texts[c], prods[c] = text, fs[top]
    return [(prods[size - 1 - mask], mask.bit_count() % 2) for mask in subset_masks(m)]


def _outside_products(values: Sequence[float]) -> list[float]:
    """math.prod(sorted(values[j] for j in mask)), bitwise, for every bitmask
    of the values: one stable sort, then per rank bitmask R the product of
    R without its top rank times the top-rank value, one multiply each."""
    order = sorted(range(len(values)), key=values.__getitem__)
    outside = [1.0] * (1 << len(values))
    # by_rank[R]: the index bitmask of the functions with the ranks in R
    by_rank = [0] * len(outside)
    for ranks in range(1, len(outside)):
        top = ranks.bit_length() - 1
        rest = by_rank[ranks ^ (1 << top)]
        by_rank[ranks] = mask = rest | 1 << order[top]
        outside[mask] = outside[rest] * values[order[top]]
    return outside


def _terms_from_plan(op: Operator, plan, fs: Sequence[SmoothFn], x: float) -> list[float]:
    """The signed terms at x. D's applies run first, so the values of fs
    read after them are prefixes of jets already evaluated. The values are
    read even when an apply raises: a failing value's error then replaces
    D's, as when the values were read first."""
    try:
        applied = [apply(op, prod, x) for prod, _ in plan]
    finally:
        values = [f.value_at(x) for f in fs]
    outside = _outside_products(values)
    terms = []
    for mask, ((_, odd), d_value) in enumerate(zip(plan, applied)):
        signed = outside[mask] * d_value
        terms.append(-signed if odd else signed)
    return terms


def alternating_subset_terms(
    op: Operator, fs: Sequence[SmoothFn], x: float
) -> list[float]:
    """Signed terms of the subset identity, in ascending-bitmask order.

    Each term's float value is permutation-invariant: the outside value
    product and the product jets inside D fold in canonical sorted order.
    The tuple's values are read after D's applies, as prefixes of the jets
    they evaluated, so each input is evaluated once at x.
    """
    return _terms_from_plan(op, _subset_plan(fs), fs, x)


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
    reference for _points_batched. At each point the subset applies run,
    then the values are read (as prefixes of the jets the applies
    evaluated), then the power applies, so an error names the first failing
    point and, there, the values' error comes before D's."""
    plan = _subset_plan(fs)
    m = len(fs)
    # f^k = f^(k-1) ⊛ f, fn_product([f] * k)'s fold of equal jets
    text = f"({fs[0].descriptor})"
    powers = [fs[0]]
    for k in range(2, m + 1):
        powers.append(_product_fn("*".join([text] * k), [(fs[0], powers[-1])]))
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
    built by DP, prod[R] = prod[R - top(R)] ⊛ jet[top(R)], one _conv per
    popcount level: prods[:, R] is its (K+1, C) jet and outside[R] the
    (2^m, C) product of its values in the same fold; prods[:, 2^m - 1 + k]
    is jets[:, 0]^k, k = 1..m, by f^k = f^(k-1) ⊛ f in the same _conv calls.
    inside[s, c] is the rank bitmask in column c of subset s of
    subset_masks(m), and odd[s] whether that subset has odd size.
    """
    _, m, cols = jets.shape
    size = 1 << m
    # by_rank[r, c]: index into the tuple of the rank-r function in column c
    by_rank = sorted_jet_order(jets)
    # factors[:, r]: the rank-r jet; factors[:, m]: jets[:, 0], the powers' base
    factors = np.take_along_axis(jets, np.vstack([by_rank, 0 * by_rank[:1]])[None], axis=1)
    prods = np.zeros((len(jets), size + m, cols), dtype=jets.dtype)
    outside = np.ones((size, cols), dtype=jets.dtype)
    for level in range(1, m + 1):
        masks = [r for r in range(1, size) if r.bit_count() == level]
        tops = [r.bit_length() - 1 for r in masks]
        rests = [r ^ (1 << t) for r, t in zip(masks, tops)]
        outside[masks] = outside[rests] * factors[0, tops]
        top_jets = factors[:, tops + [m]]
        masks.append(size - 1 + level)
        rests.append(size - 2 + level)
        prods[:, masks] = top_jets if level == 1 else _conv(prods[:, rests], top_jets)
    # bits[j, c]: the rank bit of the j-th function in column c
    bits = 1 << np.argsort(by_rank, axis=0)
    member = np.array([[mask >> j & 1 for j in range(m)] for mask in subset_masks(m)])
    return outside, prods, member @ bits, member.sum(axis=1) % 2 == 1


def _points_batched(op: CanonicalOp, jets: np.ndarray, grid: tuple):
    """_points_per_point for a canonical D on T tuples at once, bitwise equal
    to it tuple by tuple: jets is their (K+1, m, T·P) stack of order-op.n
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


def _canonical_arrays(op: CanonicalOp, draws, grid: tuple) -> list:
    """Each tuple's engine arrays for a canonical D, from one _family_jets
    and one _points_batched call; tuple by tuple if that raises; for a lone
    tuple, its functions' eval_jet (their own errors), then _points_batched."""
    order, tuples, m, points = op.n + 1, len(draws), len(draws[0]), len(grid)
    try:
        family = _family_jets([d for draw in draws for d in draw], grid, op.n)
        # (K+1, T·m, P) in draw order to (K+1, m, T·P), tuple-major columns
        jets = family.reshape(order, tuples, m, points).transpose(0, 2, 1, 3)
        arrays = _points_batched(op, jets.reshape(order, m, tuples * points), grid)
    except (EvalDomainError, NumericRangeError):
        if tuples > 1:
            return [out for draw in draws for out in _canonical_arrays(op, [draw], grid)]
        jets = np.stack([f.eval_jet(grid, op.n) for f, _, _ in draws[0]], axis=1)
        arrays = _points_batched(op, jets, grid)
    return [tuple(a[..., t * points : (t + 1) * points] for a in arrays) for t in range(tuples)]


def _grid_report(name: str, tol_abs: float, grid: tuple, rows) -> ResidualReport:
    """The sampling rule over grid residual rows: for each (descriptors, row)
    pair, in order, the residual r at each grid point x is one sample with
    scale |r|, so the report's bound is tol_abs alone."""
    agg = _Aggregator()
    for descriptors, row in rows:
        for x, r in zip(grid, row.tolist()):
            agg.add(r, abs(r), x, descriptors)
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
    """random_polynomial's draw: (the function, its jet at 0)."""
    coeffs = [rng.uniform(-COEF_RANGE, COEF_RANGE) for _ in range(degree + 1)]
    fact = 1.0
    jet = []
    for l, cl in enumerate(coeffs):
        if l > 0:
            fact *= l
        jet.append(cl * fact)
    fn = fn_from_jet(0.0, jet)
    fn.descriptor = "poly[" + ",".join(f"{c:.4g}" for c in coeffs) + "]"
    return fn, jet


def random_polynomial(rng: random.Random, degree: int = 3) -> SmoothFn:
    return _draw_polynomial(rng, degree)[0]


def _draw_function(rng: random.Random):
    """random_function's draw: (f, p, q) for f = p, exp(q) or p·exp(q), with
    p and q the jets at 0 of its cubics, None where f has none."""
    kind = rng.randrange(3)
    p_fn, p = _draw_polynomial(rng) if kind != 1 else (None, None)
    q_fn, q = _draw_polynomial(rng) if kind != 0 else (None, None)
    if kind == 0:
        return p_fn, p, q
    return (fn_exp_of(q_fn) if kind == 1 else fn_product([p_fn, fn_exp_of(q_fn)])), p, q


def random_function(rng: random.Random) -> SmoothFn:
    return _draw_function(rng)[0]


def _family_jets(draws, grid, order: int) -> np.ndarray:
    """np.stack([f.eval_jet(tuple(grid), order) for f, _, _ in draws], axis=1),
    bitwise wherever that is finite, by one _poly_derivs over every p and q,
    one _exp_derivs and one _conv for the p·exp(q) (fn_product's fold, as
    _conv is exactly commutative). It checks nothing itself."""
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

    Tuples are drawn _TUPLES_PER_PASS at a time; a canonical D takes
    _canonical_arrays per block, a black box _points_per_point per tuple.
    _power_terms forms both diagonal forms from the engine's arrays;
    samples are added point by point.
    """
    if cfg.tuples < 0:
        raise StructuralError(f"tuples must be nonnegative, got {cfg.tuples}")
    rng = random.Random(cfg.seed)
    grid = tuple(cfg.grid)
    agg = _Aggregator()
    gap_agg = _Aggregator()
    for start in range(0, cfg.tuples, _TUPLES_PER_PASS):
        size = min(_TUPLES_PER_PASS, cfg.tuples - start)
        draws = [[_draw_function(rng) for _ in range(n + 1)] for _ in range(size)]
        if isinstance(op, CanonicalOp):
            arrays = _canonical_arrays(op, draws, grid)
        else:
            arrays = (_points_per_point(op, [f for f, _, _ in draw], grid) for draw in draws)
        for draw, (subset, inner, values) in zip(draws, arrays):
            descriptors = tuple(f.descriptor for f, _, _ in draw)
            term_arrays = (subset, *_power_terms(inner, values, n))
            columns = [a.T.tolist() for a in term_arrays]
            scales = [_column_scales(a) for a in term_arrays]
            for x, terms, pterms, dterms, scale, pscale, dscale in zip(grid, *columns, *scales):
                agg.add(signed_sum(terms), scale, x, descriptors)

                presidual = signed_sum(pterms)
                agg.add(presidual, pscale, x, descriptors[:1])

                gap = presidual - signed_sum(dterms)
                gap_agg.add(gap, max(pscale, dscale), x, descriptors[:1])
    return SuiteOutcome(
        agg.report("identity-suite", n, DEFAULT_TOL_ABS, DEFAULT_TOL_REL),
        gap_agg.report("diagonal-consistency", n, 0.0, 1e-12),
    )
