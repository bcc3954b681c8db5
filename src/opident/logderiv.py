"""Closed-form k-th derivative of ln|f| as a sum over integer partitions.

Each term is indexed by multiplicities (m_1..m_k) with sum i·m_i = k and
contributes

    k!/(m_1!···m_k!) · (-1)^(M-1) (M-1)! · f^(-M) · prod_j (f^(j)/j!)^m_j,

where M = m_1 + ... + m_k. Coefficients are computed in exact integer
arithmetic (factorials through 12! are exact) and only converted to floats
when the term is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EvalDomainError, StructuralError
from .jets import Jet

MAX_K = 12


@dataclass(frozen=True)
class PartitionTerm:
    """One multiplicity vector of the closed form with its coefficients."""

    k: int
    multiplicities: tuple[int, ...]  # m_1..m_k, sum i·m_i = k
    coefficient: float  # k!/(m_1!···m_k!) · (-1)^(M-1)(M-1)!

    @property
    def total_blocks(self) -> int:
        """M = m_1 + ... + m_k (the power of 1/f in the term)."""
        return sum(self.multiplicities)


def enumerate_partition_multisets(k: int) -> tuple[PartitionTerm, ...]:
    """All multiplicity vectors (m_1..m_k) with sum i·m_i = k, each once,
    in ascending lexicographic order."""
    if not 1 <= k <= MAX_K:
        raise StructuralError(f"k must be in 1..{MAX_K}, got {k}")
    vectors: list[tuple[int, ...]] = []

    def extend(i: int, remaining: int, acc: list[int]) -> None:
        if i > k:
            if remaining == 0:
                vectors.append(tuple(acc))
            return
        for m in range(remaining // i + 1):
            extend(i + 1, remaining - i * m, acc + [m])

    extend(1, k, [])
    vectors.sort()
    k_fact = math.factorial(k)
    terms = []
    for mv in vectors:
        big_m = sum(mv)
        coeff = k_fact
        for m in mv:
            coeff //= math.factorial(m)
        coeff *= (-1) ** (big_m - 1) * math.factorial(big_m - 1)
        terms.append(PartitionTerm(k, mv, float(coeff)))
    return tuple(terms)


def log_deriv_via_partitions(fjet: Jet, k: int) -> float:
    """k-th derivative of ln|f| at the jet's base point via the partition
    sum; requires fjet.order >= k and a nonzero value."""
    if fjet.order < k:
        raise StructuralError(
            f"jet order {fjet.order} is too low for derivative order {k}"
        )
    v = fjet.value
    if v == 0.0:
        raise EvalDomainError("log singularity at base point")
    # taylor[j] = f^(j)/j!
    taylor = []
    fact = 1.0
    for j, dj in enumerate(fjet.derivs):
        if j > 0:
            fact *= j
        taylor.append(dj / fact)
    total = 0.0
    for term in enumerate_partition_multisets(k):
        prod = term.coefficient * v ** (-term.total_blocks)
        for j, m in enumerate(term.multiplicities, start=1):
            if m == 1:
                prod *= taylor[j]
            elif m > 1:
                prod *= taylor[j] ** m
        total += prod
    return total
