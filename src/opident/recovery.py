"""Recover canonical coefficients of a black-box operator from probes.

At a point x0, exponential probes f_λ(x) = exp(λ(x-x0)) have value 1 and
log 0 there, so D(f_λ)(x0) = sum_i c_i(x0)·λ^i — a Vandermonde-type system
in the λ powers with no constant column. Constant probes g_μ ≡ e^μ have all
derivatives zero and log μ, so D(g_μ)(x0)/e^μ = sum_i d_i(x0)·μ^i isolates
the log-term coefficients the same way.

A holdout validation guards against operators outside the canonical class:
recovery always produces numbers, but only operators of the canonical form
reproduce D on functions the probe family never saw.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvalDomainError, NumericRangeError, RecoveryError
from .functions import SmoothFn, fn_constant, fn_exp_of, fn_from_jet
from .identities import ResidualReport, _Aggregator
from .operators import Operator, apply, apply_canonical_values

COND_WARN_THRESHOLD = 1e8


def default_probes(n: int) -> tuple[float, ...]:
    """±1, ±2, ... interleaved, truncated to n values."""
    out = []
    k = 1
    while len(out) < n:
        out.append(float(k))
        if len(out) < n:
            out.append(float(-k))
        k += 1
    return tuple(out)


def _check_probes(values: Sequence[float], what: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if any(v == 0.0 for v in vals):
        raise RecoveryError(f"{what} probes must be nonzero, got {vals}")
    if len(set(vals)) != len(vals):
        raise RecoveryError(f"{what} probes must be pairwise distinct, got {vals}")
    return vals


def _power_matrix(probes: Sequence[float], n: int) -> np.ndarray:
    return np.array([[p ** (i + 1) for i in range(n)] for p in probes])


def _solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > 1e14:
        raise RecoveryError(
            f"{what} probe system is singular or near-singular "
            f"(condition estimate {cond:.3e})"
        )
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"{what} probe system is poorly conditioned (cond={cond:.3e}); "
            "recovered coefficients may lose precision",
            stacklevel=3,
        )
    if matrix.shape[0] == matrix.shape[1]:
        return np.linalg.solve(matrix, rhs)
    out, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return out


def exp_probe(x0: float, rate: float) -> SmoothFn:
    """exp(rate·(x - x0)); value 1, log 0, i-th derivative rate^i at x0."""
    fn = fn_exp_of(fn_from_jet(x0, [0.0, rate]))
    fn.descriptor = f"exp({rate}*(x-{x0}))"
    return fn


def recover_at_point(
    op: Operator,
    n: int,
    x0: float,
    lambdas: Sequence[float] | None = None,
    mus: Sequence[float] | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Recover (c_1..c_n, d_1..d_n) at x0 from exponential and constant
    probes. Probe lists default to ±1, ±2, ...; more than n probes switches
    to a least-squares fit."""
    lams = _check_probes(lambdas if lambdas is not None else default_probes(n), "λ")
    mus_ = _check_probes(mus if mus is not None else default_probes(n), "μ")
    if len(lams) < n or len(mus_) < n:
        raise RecoveryError(f"need at least n={n} probes in each family")

    rhs_c = np.array([apply(op, exp_probe(x0, lam), x0) for lam in lams])
    c = _solve(_power_matrix(lams, n), rhs_c, "exponential")

    rhs_d = np.array(
        [apply(op, fn_constant(math.exp(mu)), x0) / math.exp(mu) for mu in mus_]
    )
    d = _solve(_power_matrix(mus_, n), rhs_d, "constant")
    return tuple(float(v) for v in c), tuple(float(v) for v in d)


@dataclass(frozen=True)
class CoefficientProfile:
    """Pointwise recovered coefficients swept over a grid."""

    n: int
    grid: tuple[float, ...]
    c_rows: tuple[tuple[float, ...] | None, ...]  # None where recovery failed
    d_rows: tuple[tuple[float, ...] | None, ...]
    failures: tuple[tuple[int, str], ...]  # (grid index, message)


def recover_profile(
    op: Operator,
    n: int,
    grid: Sequence[float],
) -> CoefficientProfile:
    """Pointwise recovery over a grid. A point whose probe system is singular
    or whose probes leave the operator's domain or the finite range is
    recorded as a failure; any other exception propagates."""
    c_rows: list = []
    d_rows: list = []
    failures: list[tuple[int, str]] = []
    for idx, x in enumerate(grid):
        try:
            c, d = recover_at_point(op, n, x)
            c_rows.append(c)
            d_rows.append(d)
        except (
            RecoveryError,
            EvalDomainError,
            NumericRangeError,
            np.linalg.LinAlgError,
        ) as exc:
            c_rows.append(None)
            d_rows.append(None)
            failures.append((idx, str(exc)))
    return CoefficientProfile(
        n, tuple(float(x) for x in grid), tuple(c_rows), tuple(d_rows), tuple(failures)
    )


def validate_recovery(
    op: Operator,
    recovered: CoefficientProfile,
    holdout: Sequence[SmoothFn],
) -> ResidualReport:
    """Compare op against the canonical form built from the recovered
    coefficients, on functions outside the probe family, at every recovered
    grid point (tolerances 1e-9 absolute, 1e-6 relative). Passing certifies
    consistency with the canonical class on the evidence; a black box that
    is not of that form fails loudly here."""
    agg = _Aggregator()
    for x, c_row, d_row in zip(recovered.grid, recovered.c_rows, recovered.d_rows):
        if c_row is None:
            continue
        for f in holdout:
            lhs = apply(op, f, x)
            rhs = apply_canonical_values(c_row, d_row, f, x)
            agg.add(lhs - rhs, max(abs(lhs), abs(rhs)), x, (f.descriptor,))
    return agg.report("recovery-validation", recovered.n, 1e-9, 1e-6)
