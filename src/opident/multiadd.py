"""Difference operators, exp-conjugation, and degree probes.

Conjugating an operator by exp — P(g)(x) = D(exp∘g)(x)/exp(g(x)) — turns
the multiplicative structure the identities constrain into additive,
polynomial structure in g and its derivatives. Iterated differences
Δ_{h1..hm} then act as degree probes: an (n+1)-fold difference of P
vanishes exactly when P is polynomial of degree at most n in its function
argument, which is what the canonical family guarantees.

The symmetric (n+1)-slot multiadditive form attached to an operator is the
subset-identity residual itself, identities.alternating_subset_residual.
"""

from __future__ import annotations

import math
from typing import Sequence

from .functions import SmoothFn, fn_exp_of, fn_linear_combination
from .jets import signed_sum
from .operators import BlackBoxOp, Operator, apply


def conjugate_exp(op: Operator) -> BlackBoxOp:
    """The operator P with P(g)(x) = D(exp∘g)(x) / exp(g(x))."""

    def conjugated(g: SmoothFn, x: float) -> float:
        return apply(op, fn_exp_of(g), x) / math.exp(g.value_at(x))

    return BlackBoxOp(conjugated, f"expconj[{op.descriptor}]")


def difference_terms(
    op: Operator, f: SmoothFn, hs: Sequence[SmoothFn], x: float
) -> list[float]:
    """Signed terms of the m-fold difference of op at (f, x):
    (-1)^(m-|S|) · op(f + sum_{i in S} h_i)(x) over subsets S, ascending.
    A sum near zero, against the largest term, certifies degree-below-m
    polynomial behavior of op in its function slot at this probe."""
    increments = tuple(hs)
    m = len(increments)
    terms = []
    for mask in range(1 << m):
        shifted = [(1.0, f)]
        for i in range(m):
            if mask >> i & 1:
                shifted.append((1.0, increments[i]))
        value = apply(op, fn_linear_combination(shifted), x)
        sign_odd = (m - mask.bit_count()) % 2
        terms.append(-value if sign_odd else value)
    return terms


def iterated_difference(op: Operator, hs: Sequence[SmoothFn]) -> Operator:
    """The m-fold difference operator Δ_{h1..hm} applied to op; with no
    increments op is returned unchanged."""
    increments = tuple(hs)
    if not increments:
        return op
    names = ",".join(h.descriptor for h in increments)

    def differenced(f: SmoothFn, x: float) -> float:
        return signed_sum(difference_terms(op, f, increments, x))

    return BlackBoxOp(differenced, f"diff[{names}]({op.descriptor})")
