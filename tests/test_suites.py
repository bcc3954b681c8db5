"""Standard batteries and the record-merging rule."""

import math

import numpy as np

from opident.identities import ResidualReport, _Aggregator, bound_ratio
from opident.suites import merge_reports, selftest

# the selftest's records in order, with their orders n: a record that
# disappears fails by name
SELFTEST_RECORDS = [
    ("converse-identity-n1", 1),
    ("diagonal-consistency-n1", 1),
    ("converse-identity-n2", 2),
    ("diagonal-consistency-n2", 2),
    ("converse-identity-n3", 3),
    ("diagonal-consistency-n3", 3),
    ("converse-identity-n4", 4),
    ("diagonal-consistency-n4", 4),
    ("counterexample-square-value", 1),
    ("counterexample-square-detected", 1),
    ("units-exact", 0),
    ("localization", 0),
    ("recovery-roundtrip", 0),
    ("recovery-holdout", 0),
    ("recovery-square-misfit", 1),
    ("frechet-degree", 0),
    ("frechet-witness", 1),
    ("annihilation-exact", 0),
    ("annihilation-detects-ddx", 0),
]

# (residual, scale, x): at tolerances 1e-9 / 1e-8 the ratios are about 3,
# 0.5, 2 and 3, so the first sample is the worst and the last one ties it
SAMPLES = [(3e-9, 0.0, 0.1), (5.0, 1e9, 0.2), (-4e-9, 0.1, 0.3), (-3e-9, 0.0, 0.4)]


def aggregate(samples):
    agg = _Aggregator()
    for residual, scale, x in samples:
        agg.add(residual, scale, x, ())
    return agg.report("part", 0, 1e-9, 1e-8)


def test_aggregator_reports_worst_ratio_first_on_ties():
    report = aggregate(SAMPLES)
    assert report.worst_case.x == 0.1
    assert (report.max_abs_residual, report.max_scale) == (3e-9, 0.0)
    assert not report.passed


def test_merge_reports_picks_the_aggregator_worst_case():
    whole = aggregate(SAMPLES)
    for cut in range(1, len(SAMPLES)):
        parts = [aggregate(SAMPLES[:cut]), aggregate(SAMPLES[cut:])]
        merged = merge_reports("all", 0, parts, 1e-9, 1e-8)
        assert merged.samples == whole.samples
        assert merged.worst_case == whole.worst_case
        assert (merged.max_abs_residual, merged.max_scale) == (
            whole.max_abs_residual,
            whole.max_scale,
        )


def test_zero_bound_ratio():
    assert bound_ratio(0.0, 5.0, 0.0, 0.0) == 0.0
    assert bound_ratio(-1e-300, 5.0, 0.0, 0.0) == float("inf")


def test_a_sample_at_its_bound_passes():
    # the bound is inclusive: ratio exactly 1.0 passes, one ulp above fails
    for tol_abs, tol_rel, scale in ((1e-9, 0.0, 0.0), (1e-9, 1e-8, 3.7), (0.0, 1e-12, 0.25)):
        bound = tol_abs + tol_rel * scale
        for residual, passed in ((bound, True), (np.nextafter(bound, math.inf), False)):
            report = ResidualReport("edge", 0, 1, float(residual), scale, None, tol_abs, tol_rel)
            assert (bound_ratio(residual, scale, tol_abs, tol_rel) == 1.0) is passed
            assert report.passed is passed
            assert report.to_json()["pass"] is passed


def test_non_finite_sample_is_the_worst():
    assert bound_ratio(math.nan, 1.0, 1e-9, 1e-8) == math.inf
    assert bound_ratio(0.0, math.inf, 1e-9, 1e-8) == math.inf
    nan_part = ResidualReport("part", 0, 1, math.nan, math.inf, None, 1e-9, 1e-8)
    merged = merge_reports("all", 0, [aggregate(SAMPLES[1:2]), nan_part], 1e-9, 1e-8)
    assert merged.max_scale == math.inf and not merged.passed
    # an infinite scale must not pass an infinite residual under an inf bound
    assert not ResidualReport("r", 0, 1, math.inf, math.inf, None, 1e-9, 1e-8).passed


def test_merging_vacuous_reports_is_vacuous():
    # no reports, or reports of no samples, merge into a passing record
    # with 0 samples and no worst case, under the merged tolerances
    empty = _Aggregator().report("part", 2, 1e-9, 1e-8)
    for reports in ([], [empty], [empty, empty]):
        merged = merge_reports("all", 2, reports, 0.0, 0.0)
        assert merged == ResidualReport("all", 2, 0, 0.0, 0.0, None, 0.0, 0.0)
        assert merged.vacuous and merged.passed


def test_selftest_fast_all_pass():
    records = selftest(fast=True)
    assert len(records) == 19
    assert [(r.name, r.n) for r in records] == SELFTEST_RECORDS
    assert [r.to_json() for r in records if not r.passed] == []
