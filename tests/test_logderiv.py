"""Partition-sum log derivatives against the jet recurrence oracle."""

import math
import random

import pytest

from opident.errors import EvalDomainError, StructuralError
from opident.jets import Jet, jet_exp, jet_ln_abs
from opident.logderiv import (
    enumerate_partition_multisets,
    log_deriv_via_partitions,
)


def brute_force_partitions(k):
    """Independent oracle: partitions of k as sorted part tuples."""
    out = set()

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.add(tuple(sorted(acc)))
            return
        for part in range(1, min(remaining, max_part) + 1):
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return out


class TestEnumeration:
    def test_k1(self):
        terms = enumerate_partition_multisets(1)
        assert len(terms) == 1
        assert terms[0].multiplicities == (1,)
        assert terms[0].coefficient == 1.0

    def test_k4_count(self):
        assert len(enumerate_partition_multisets(4)) == 5

    @pytest.mark.parametrize("k,count", list(zip(range(1, 9), (1, 2, 3, 5, 7, 11, 15, 22))))
    def test_counts_match_brute_force(self, k, count):
        terms = enumerate_partition_multisets(k)
        assert len(terms) == count
        assert len(brute_force_partitions(k)) == count

    def test_bijection_with_partitions(self):
        for k in range(1, 9):
            got = {
                tuple(
                    sorted(
                        part
                        for part, m in enumerate(t.multiplicities, start=1)
                        for _ in range(m)
                    )
                )
                for t in enumerate_partition_multisets(k)
            }
            assert got == brute_force_partitions(k)

    def test_lexicographic_order(self):
        vecs = [t.multiplicities for t in enumerate_partition_multisets(6)]
        assert vecs == sorted(vecs)

    def test_weight_invariant(self):
        for k in range(1, 13):
            for t in enumerate_partition_multisets(k):
                assert sum(i * m for i, m in enumerate(t.multiplicities, 1)) == k
                assert t.coefficient != 0.0
                assert t.coefficient == round(t.coefficient)

    def test_k3_coefficients(self):
        terms = enumerate_partition_multisets(3)
        assert [t.multiplicities for t in terms] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
        assert [t.coefficient for t in terms] == [6.0, -6.0, 2.0]

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            enumerate_partition_multisets(0)
        with pytest.raises(StructuralError):
            enumerate_partition_multisets(13)


class TestLogDeriv:
    def test_k1_single_term(self):
        assert log_deriv_via_partitions(Jet(0.0, [2.0, 6.0]), 1) == 3.0

    def test_k2_exp_square(self):
        # f = exp(x^2) at 1: jet [e, 2e, 6e]; (ln f)'' = (x^2)'' = 2
        fjet = jet_exp(Jet(1.0, [1.0, 2.0, 2.0]))
        got = log_deriv_via_partitions(fjet, 2)
        assert math.isclose(got, 2.0, rel_tol=1e-12)

    def test_k3_exp_cube(self):
        # f = exp(x^3) at 1: inner jet of x^3 at 1 is [1, 3, 6, 6]
        fjet = jet_exp(Jet(1.0, [1.0, 3.0, 6.0, 6.0]))
        got = log_deriv_via_partitions(fjet, 3)
        assert math.isclose(got, 6.0, rel_tol=1e-12)

    def test_zero_value(self):
        with pytest.raises(EvalDomainError):
            log_deriv_via_partitions(Jet(0.0, [0.0, 1.0]), 1)

    def test_order_too_low(self):
        with pytest.raises(StructuralError):
            log_deriv_via_partitions(Jet(0.0, [1.0, 1.0]), 2)

    def test_agrees_with_jet_recurrence(self):
        rng = random.Random(404)
        for _ in range(100):
            k = rng.randint(1, 8)
            value = rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))
            derivs = [value] + [rng.uniform(-3.0, 3.0) for _ in range(k)]
            fjet = Jet(0.0, derivs)
            want = jet_ln_abs(fjet).derivs[k]
            got = log_deriv_via_partitions(fjet, k)
            assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-8)

    def test_exp_conjugation_recovers_inner_jet(self):
        rng = random.Random(88)
        for _ in range(30):
            k = rng.randint(1, 8)
            g = [rng.uniform(-2.0, 2.0) for _ in range(k + 1)]
            fjet = jet_exp(Jet(0.0, g))
            got = log_deriv_via_partitions(fjet, k)
            assert math.isclose(got, g[k], rel_tol=1e-8, abs_tol=1e-8)
