"""Validation-suite tests: the beta CDF and survival function against scipy
references, and the failure path (a broken property must surface as a named
failing check)."""

import numpy as np
import pytest
import scipy.special
import scipy.stats

import gdpacer.theory as theory
from gdpacer.theory import (ALPHA_GRID, SHAPE_GRID, CheckResult, beta_cdf, fluctuation_ratio,
                            participation_rate, run_validation_suite)

SHAPES = list(SHAPE_GRID) + [(5.0, 2.0), (2.0, 8.0)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_beta_cdf_matches_regularized_incomplete_beta(m, n):
    xs = np.linspace(0.005, 0.995, 67)
    ref = scipy.special.betainc(m, n, xs)
    got = np.array([beta_cdf(m, n, x) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-8


def test_beta_cdf_boundary_values():
    assert beta_cdf(2, 5, 0.0) == 0.0
    assert beta_cdf(2, 5, -0.3) == 0.0
    assert beta_cdf(2, 5, 1.0) == 1.0
    assert beta_cdf(2, 5, 1.7) == 1.0


@pytest.mark.parametrize("m,n", SHAPES)
def test_participation_rate_is_survival_function(m, n):
    for a in ALPHA_GRID:
        ref = scipy.stats.beta.sf(a, m, n)
        assert participation_rate(m, n, a) == pytest.approx(ref, abs=1e-8)


def test_fluctuation_ratio_hand_check():
    m, n, a, d = 2.0, 2.0, 0.5, 0.05
    # Beta(2,2) CDF is 3x^2 - 2x^3, so sf(0.45)/sf(0.5) has a closed form
    sf = lambda x: 1.0 - (3 * x ** 2 - 2 * x ** 3)
    assert fluctuation_ratio(m, n, a, d) == pytest.approx(sf(0.45) / sf(0.5), abs=1e-8)
    assert fluctuation_ratio(m, n, a, d) > 1.0


def test_fluctuation_ratio_grows_with_threshold():
    vals = [fluctuation_ratio(2.0, 5.0, a) for a in ALPHA_GRID]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def full_suite():
    return run_validation_suite()


def test_suite_all_checks_pass(full_suite):
    failing = [c for c in full_suite if not c.passed]
    assert not failing, failing


def test_suite_check_names(full_suite):
    assert [c.name for c in full_suite] == [
        "survival-ratio-monotonicity",
        "participation-shape-monotonicity",
        "drift-ratio-monotonicity",
        "percentile-linear-bound",
        "transform-round-trip",
        "normal-inverse-consistency",
    ]
    assert all(isinstance(c, CheckResult) and c.detail for c in full_suite)


def test_broken_property_yields_named_failure(monkeypatch):
    # a ratio that falls with alpha violates the monotone-growth claim
    monkeypatch.setattr(theory, "fluctuation_ratio",
                        lambda m, n, a, delta=0.05: 2.0 - a)
    results = run_validation_suite()
    by_name = {c.name: c for c in results}
    bad = by_name["survival-ratio-monotonicity"]
    assert not bad.passed
    assert "ratio decreases" in bad.detail
    # unrelated checks keep passing
    assert [c.name for c in results if not c.passed] == ["survival-ratio-monotonicity"]
