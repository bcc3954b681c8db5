"""Recover canonical coefficients of a black-box operator from probes.

With the probes p_j of `default_probes(n)`, exponential probes
exp(p_j·(x-x0)) have value 1 and log 0 at x0, so D of one at x0 is
sum_i c_i(x0)·p_j^i; constant probes e^p_j have all derivatives zero and log
p_j, so D of one at x0, over e^p_j, is sum_i d_i(x0)·p_j^i. Both families
thus share one probe matrix M[j, i] = p_j^(i+1), Vandermonde-type with no
constant column, and it does not depend on x0: a recovery checks its
condition once and solves all its response columns in one call.

A probe's jet at its own anchor does not depend on the anchor either, bit
for bit: exp_probe(x0, p) evaluates its inner polynomial at t = x0 - x0 =
0.0, so its jet at x0 is the exp of (0, p, 0, ...), and a constant's jet is
(e^p, 0, ...) everywhere. So for a local D, every response at every grid
point comes from one pass of apply_on_grid over the (order+1, 2n, 1) stack
of those jets (_probe_jets), bitwise the per-point responses: the rule
op.at(grid) reads them at the whole grid, broadcast over its points. Only a BlackBoxOp
is probed point by point, and so is a local D whose grid pass leaves its
domain or the finite range, so that each failing point is recorded.

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

from .errors import EvalDomainError, NumericRangeError, RecoveryError, StructuralError
from .functions import SmoothFn, fn_constant, fn_exp_of, fn_from_jet
from .jets import _exp_derivs
from .identities import ResidualReport, _Aggregator
from .operators import (
    BlackBoxOp,
    CanonicalOp,
    JetOp,
    Operator,
    apply,
    apply_canonical_values,
    apply_on_grid,
)

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


def _probe_matrix(n: int) -> np.ndarray:
    """M[j, i] = p_j^(i+1) over the probes p_j of `default_probes(n)`."""
    if n < 1:
        raise StructuralError(f"recovery needs order n >= 1, got n={n}")
    return np.array([[p ** (i + 1) for i in range(n)] for p in default_probes(n)])


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve for every column of rhs after one condition check: cond > 1e14
    raises RecoveryError, and cond > COND_WARN_THRESHOLD warns once, at the
    caller of the recover_* function that called this."""
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > 1e14:
        raise RecoveryError(
            "probe system is singular or near-singular "
            f"(condition estimate {cond:.3e})"
        )
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"probe system is poorly conditioned (cond={cond:.3e}); "
            "recovered coefficients may lose precision",
            stacklevel=3,
        )
    return np.linalg.solve(matrix, rhs)


def exp_probe(x0: float, rate: float) -> SmoothFn:
    """exp(rate·(x - x0)); value 1, log 0, i-th derivative rate^i at x0."""
    fn = fn_exp_of(fn_from_jet(x0, [0.0, rate]))
    fn.descriptor = f"exp({rate}*(x-{x0}))"
    return fn


def _responses(op: Operator, n: int, x0: float) -> list[list[float]]:
    """The two right-hand-side columns at x0: D at the exponential probes,
    and D at the constant probes divided by their value."""
    probes = default_probes(n)
    return [
        [apply(op, exp_probe(x0, p), x0) for p in probes],
        [apply(op, fn_constant(math.exp(p)), x0) / math.exp(p) for p in probes],
    ]


def _probe_jets(n: int, order: int) -> np.ndarray:
    """The (order+1, 2n, 1) stack of the exp probes' jets at their anchor,
    the exp of (0, p, 0, ...), then the constants' (e^p, 0, ...): bitwise
    exp_probe(x0, p).eval_jet(x0, order) and fn_constant(e^p)'s."""
    zeros, probes = [0.0] * order, default_probes(n)
    jets = [_exp_derivs([0.0, p, *zeros][: order + 1]) for p in probes]
    return np.array(jets + [[math.exp(p), *zeros] for p in probes]).T[:, :, None]


def _grid_responses(op: CanonicalOp | JetOp, n: int, grid: tuple) -> np.ndarray:
    """_responses at every grid point as an (n, 2P) right-hand side whose
    columns 2p and 2p+1 are the two columns at grid[p], from one pass of
    apply_on_grid over the probe jets at op.order, which are the same at
    every anchor."""
    jets = _probe_jets(n, op.order)
    out = apply_on_grid(op, grid, jets)
    out[n:] /= jets[0, n:]
    return out.reshape(2, n, len(grid)).transpose(1, 2, 0).reshape(n, -1)


def recover_at_point(
    op: Operator, n: int, x0: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Recover (c_1..c_n, d_1..d_n) at x0: `recover_profile` on one point,
    except that a probe leaving the operator's domain or the finite range
    raises instead of being recorded."""
    matrix = _probe_matrix(n)
    c, d = _solve(matrix, np.array(_responses(op, n, x0)).T).T.tolist()
    return tuple(c), tuple(d)


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
    """The probe responses at every grid point, then one solve against the
    shared probe matrix. For a local op the responses come from one grid
    pass; a BlackBoxOp, or a local op whose pass leaves its domain or the
    finite range, is probed point by point. A point whose
    probes leave the operator's domain or the finite range is recorded as a
    failure. n < 1 raises StructuralError before any probe is applied, a
    near-singular probe system (n >= 16) raises RecoveryError once, and any
    other exception propagates."""
    matrix = _probe_matrix(n)
    grid = tuple(float(x) for x in grid)
    failures: list[tuple[int, str]] = []
    rhs = None
    if not isinstance(op, BlackBoxOp) and grid:
        try:
            rhs = _grid_responses(op, n, grid)
        except (EvalDomainError, NumericRangeError):
            pass  # the per-point loop below records each failing point
    if rhs is None:
        columns: list[list[float]] = []
        for idx, x in enumerate(grid):
            try:
                columns += _responses(op, n, x)
            except (EvalDomainError, NumericRangeError) as exc:
                failures.append((idx, str(exc)))
        rhs = np.array(columns).reshape(-1, n).T
    solved = iter(_solve(matrix, rhs).T.tolist())
    failed = {idx for idx, _ in failures}
    c_rows: list = []
    d_rows: list = []
    for idx in range(len(grid)):
        c_rows.append(None if idx in failed else tuple(next(solved)))
        d_rows.append(None if idx in failed else tuple(next(solved)))
    return CoefficientProfile(n, grid, tuple(c_rows), tuple(d_rows), tuple(failures))


def validate_recovery(
    op: Operator,
    recovered: CoefficientProfile,
    holdout: Sequence[SmoothFn],
) -> ResidualReport:
    """Compare op against apply_canonical_values with the recovered
    coefficients, on functions outside the probe family, at every grid point
    (tolerances 1e-9 absolute, 1e-6 relative); a point where recovery failed
    is an infinite sample naming the failure. Both sides are evaluated on
    the grid of recovered points from each holdout's jets, read once, in
    holdout order, in one grid pass at max(op.order, n) (at n for a
    BlackBoxOp), so a holdout's jet error comes before op's. For a local op
    the left side is one apply_on_grid over the stacked (order+1, H, P)
    prefix of those jets, and a non-finite value names the first grid point
    that is non-finite in any holdout; a BlackBoxOp is applied per holdout.
    The right side is one formula pass over their (n+1, H, P) prefix.
    Passing certifies consistency with the canonical class on the evidence;
    a black box that is not of that form fails loudly here."""
    agg = _Aggregator()
    for idx, message in recovered.failures:
        agg.add(math.inf, 1.0, recovered.grid[idx], (f"recovery failed: {message}",))
    kept = [i for i, row in enumerate(recovered.c_rows) if row is not None]
    if not kept or not holdout:
        return agg.report("recovery-validation", recovered.n, 1e-9, 1e-6)
    grid = tuple(recovered.grid[i] for i in kept)
    local = not isinstance(op, BlackBoxOp)
    order = max(op.order, recovered.n) if local else recovered.n
    jets = np.stack([f.eval_jet(grid, order) for f in holdout], axis=1)
    if local:
        lhs = apply_on_grid(op, grid, jets[: op.order + 1])
    else:
        lhs = np.array([apply(op, f, grid) for f in holdout])
    c_rows = np.array([recovered.c_rows[i] for i in kept]).T
    d_rows = np.array([recovered.d_rows[i] for i in kept]).T
    with np.errstate(all="ignore"):
        rhs = apply_canonical_values(c_rows, d_rows, jets[: recovered.n + 1])
    names = [f.descriptor for f in holdout]
    for x, left, right in zip(grid, lhs.T.tolist(), rhs.T.tolist()):
        for a, b, name in zip(left, right, names):
            agg.add(a - b, max(abs(a), abs(b)), x, (name,))
    return agg.report("recovery-validation", recovered.n, 1e-9, 1e-6)
