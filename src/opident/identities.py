"""Residual evaluation for the alternating-subset operator identity.

The core object is the signed sum over subsets I of {1..n+1} (|I| <= n) of

    (-1)^|I| · (prod_{j in I} f_j(x)) · D(prod_{k not in I} f_k)(x),

which vanishes identically when D is a differential operator of order at
most n (and, with log terms, for the full canonical family). Each sample's
residual is judged against its own bound tol_abs + tol_rel·scale, the scale
being the largest single term magnitude, because the sum cancels
catastrophically by design. A report carries the sample with the worst
ratio of residual to bound, so it passes only if every sample does.

Products fed to D are opaque SmoothFn values, so black-box operators are
checked through exactly the same path as canonical ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import StructuralError
from .functions import (
    SmoothFn,
    fn_constant,
    fn_exp_of,
    fn_from_jet,
    fn_monomial,
    fn_product,
)
from .jets import binomial_row
from .operators import Operator, apply

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
    vacuous: bool = False

    @property
    def passed(self) -> bool:
        return self.max_abs_residual <= self.tol_abs + self.tol_rel * self.max_scale

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

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        extra = " (vacuous)" if self.vacuous else ""
        return (
            f"[{flag}] {self.name}  n={self.n}  samples={self.samples}  "
            f"worst: |residual|={self.max_abs_residual:.3e} "
            f"at scale={self.max_scale:.3e}{extra}"
        )


def bound_ratio(residual: float, scale: float, tol_abs: float, tol_rel: float) -> float:
    """|residual| / (tol_abs + tol_rel·scale); with a zero bound, 0 for a
    zero residual and inf otherwise."""
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
            return ResidualReport(name, n, 0, 0.0, 0.0, None, tol_abs, tol_rel, True)
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


def subset_masks(size: int) -> Iterator[int]:
    """All proper subsets of {0..size-1} as bitmasks, ascending (the full
    set — the one subset the identity excludes — is omitted)."""
    full = (1 << size) - 1
    for mask in range(full):
        yield mask


def _sorted_product(values: list[float]) -> float:
    acc = 1.0
    for v in sorted(values):
        acc *= v
    return acc


def _subset_plan(fs: Sequence[SmoothFn]):
    """Per-mask (inside indices, complement product, sign) — built once per
    tuple so product functions are reused across grid points."""
    m = len(fs)
    if m < 2:
        raise StructuralError("the subset identity needs at least 2 functions")
    plan = []
    for mask in subset_masks(m):
        inside = tuple(j for j in range(m) if mask >> j & 1)
        complement = [fs[j] for j in range(m) if not mask >> j & 1]
        plan.append((inside, fn_product(complement), mask.bit_count() % 2))
    return plan


def _terms_from_plan(op: Operator, plan, values, x: float) -> list[float]:
    terms = []
    for inside, prod, odd in plan:
        outside = _sorted_product([values[j] for j in inside])
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

    Terms are summed in sorted order, so permuting fs changes nothing, not
    even the final rounding.
    """
    return sum(sorted(alternating_subset_terms(op, fs, x)))


def _power_plan(f: SmoothFn, n: int):
    """powers[m-1] = f^m as opaque products, m = 1..n+1."""
    if n < 1:
        raise StructuralError("identity order must be positive")
    return [fn_product([f] * m) for m in range(1, n + 2)]


def _diagonal_plan(powers, n: int):
    """Subset plan for an equal-entry tuple: masks of one cardinality share
    the complement product object (the values and jets coincide anyway)."""
    plan = []
    for mask in subset_masks(n + 1):
        card = mask.bit_count()
        plan.append((tuple(range(card)), powers[n - card], card % 2))
    return plan


def _power_terms_from_plan(op: Operator, powers, n: int, v: float, x: float):
    row = binomial_row(n + 1)
    terms = []
    vpow = 1.0
    for i in range(n + 1):
        inner = apply(op, powers[n - i], x)
        term = row[i] * vpow * inner
        terms.append(term if i % 2 == 0 else -term)
        vpow *= v
    return terms


def alternating_power_terms(
    op: Operator, f: SmoothFn, n: int, x: float
) -> list[float]:
    """Signed terms of the diagonal (single-function) identity:
    (-1)^i C(n+1,i) f(x)^i D(f^{n+1-i})(x), i = 0..n."""
    return _power_terms_from_plan(op, _power_plan(f, n), n, f.value_at(x), x)


def alternating_power_residual(op: Operator, f: SmoothFn, n: int, x: float) -> float:
    """Residual of the diagonal identity at x."""
    return sum(alternating_power_terms(op, f, n, x))


def graded_leibniz_residual(
    ops: Sequence[Operator], f: SmoothFn, g: SmoothFn, x: float
) -> float:
    """T_n(f·g)(x) - sum_k C(n,k)·T_k(f)(x)·T_{n-k}(g)(x) for a sequence
    T_0..T_n of operators."""
    n = len(ops) - 1
    if n < 0:
        raise StructuralError("need at least one operator")
    row = binomial_row(n)
    lhs = apply(ops[n], fn_product([f, g]), x)
    rhs = 0.0
    for k in range(n + 1):
        rhs += row[k] * apply(ops[k], f, x) * apply(ops[n - k], g, x)
    return lhs - rhs


def check_units(op: Operator, grid: Sequence[float]) -> ResidualReport:
    """D(1)(x) = D(-1)(x) = 0 at every grid point, with no tolerance:
    canonical operators give exactly zero."""
    agg = _Aggregator()
    for value, name in ((1.0, "1"), (-1.0, "-1")):
        unit = fn_constant(value)
        for x in grid:
            r = apply(op, unit, x)
            agg.add(r, abs(r), x, (name,))
    return agg.report("units", 0, 0.0, 0.0)


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
    agg = _Aggregator()
    for m in range(j + 1):
        mono = fn_monomial(m)
        for x in grid:
            r = apply(op, mono, x)
            agg.add(r, abs(r), x, (mono.descriptor,))
    return agg.report(f"poly-annihilation(j={j})", 0, 0.0, 0.0)


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
    include_diagonal: bool = True


@dataclass(frozen=True)
class SuiteOutcome:
    """Aggregate identity report plus the diagonal-consistency gap."""

    report: ResidualReport
    diagonal_gap: ResidualReport | None

    @property
    def passed(self) -> bool:
        ok = self.report.passed
        if self.diagonal_gap is not None:
            ok = ok and self.diagonal_gap.passed
        return ok


def run_check_suite_full(op: Operator, n: int, cfg: SamplingConfig) -> SuiteOutcome:
    """Drive both identities over random tuples; deterministic given seed.

    Per sampled tuple and grid point this evaluates the subset identity on
    the tuple and the diagonal identity on the tuple's first function; when
    cfg.include_diagonal is set it also evaluates the subset identity on the
    equal-entry tuple and reports |diagonal - subset| against the shared
    term scale (they agree up to roundoff by construction).
    """
    rng = random.Random(cfg.seed)
    agg = _Aggregator()
    gap_agg = _Aggregator()
    for _ in range(cfg.tuples):
        fs = tuple(random_function(rng) for _ in range(n + 1))
        descriptors = tuple(f.descriptor for f in fs)
        f0 = fs[0]
        plan = _subset_plan(fs)
        powers = _power_plan(f0, n)
        diag_plan = _diagonal_plan(powers, n) if cfg.include_diagonal else None
        for x in cfg.grid:
            values = [f.value_at(x) for f in fs]
            terms = _terms_from_plan(op, plan, values, x)
            scale = max(abs(t) for t in terms)
            agg.add(sum(sorted(terms)), scale, x, descriptors)

            pterms = _power_terms_from_plan(op, powers, n, values[0], x)
            pscale = max(abs(t) for t in pterms)
            agg.add(sum(pterms), pscale, x, (f0.descriptor,))

            if diag_plan is not None:
                dvalues = [values[0]] * (n + 1)
                dterms = _terms_from_plan(op, diag_plan, dvalues, x)
                dscale = max(abs(t) for t in dterms)
                gap = sum(pterms) - sum(sorted(dterms))
                gap_agg.add(gap, max(pscale, dscale), x, (f0.descriptor,))
    report = agg.report("identity-suite", n, DEFAULT_TOL_ABS, DEFAULT_TOL_REL)
    gap_report = (
        gap_agg.report("diagonal-consistency", n, 0.0, 1e-12)
        if cfg.include_diagonal
        else None
    )
    return SuiteOutcome(report, gap_report)

