"""Quality-law and percentile-transform tests.

Derived expectations are frozen from independent oracles computed here:
dense-grid likelihood scans, the scalar twin of the Newton lambda solve
and the golden-section search of `oracle.py`, and scipy's Box-Cox maximum
likelihood for the lambda fit, scipy's erf/ndtr pair and direct density
quadrature for the normal helpers, and beta-moment quadrature for the
sampling checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import oracle
from gdpacer.quality import (BetaQualityModel, BoxCoxFit, DegenerateSampleError,
                             DomainError, backward_transform,
                             backward_transform_clipped, boxcox, fit_boxcox,
                             fit_boxcox_lambda, fit_boxcox_lambdas,
                             fit_moments_batch, forward_transform, inverse_boxcox, normal_cdf,
                             normal_quantile)
from oracle import fit_moments

RT_LAMBDAS = (-1.0, 0.0, 0.5, 1.0)
RT_EPSILONS = (0.0, 0.1, 1.0)


def _fit_covering(lam: float, eps: float, lo: float = 0.01, hi: float = 0.99) -> BoxCoxFit:
    """Fit whose forward image of [lo, hi] stays inside the percentile clamp."""
    y = boxcox(lam, np.array([lo, hi]))
    mu = float(y.mean())
    sigma = float((y[1] - y[0]) / 6.0)
    return BoxCoxFit(lam, mu, sigma, eps)


# --- power transform ----------------------------------------------------------

def test_boxcox_frozen_values():
    assert boxcox(1.0, 0.4) == pytest.approx(-0.6, abs=1e-12)
    assert boxcox(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # (sqrt(0.25) - 1) / 0.5 = -1
    assert boxcox(0.5, 0.25) == pytest.approx(-1.0, abs=1e-12)
    assert boxcox(2.0, 0.5) == pytest.approx(-0.375, abs=1e-12)


def test_boxcox_log_branch_threshold():
    v = 0.37
    assert boxcox(1e-10, v) == pytest.approx(math.log(v), abs=1e-12)
    # just outside the branch cutoff the power form is continuous with log
    assert boxcox(1e-8, v) == pytest.approx(math.log(v), abs=1e-6)


def test_boxcox_rejects_nonpositive():
    with pytest.raises(DomainError):
        boxcox(0.5, 0.0)
    with pytest.raises(DomainError):
        boxcox(1.0, np.array([0.2, -0.1]))


def test_inverse_boxcox_frozen_values():
    assert inverse_boxcox(1.0, -0.6) == pytest.approx(0.4, abs=1e-12)
    assert inverse_boxcox(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert inverse_boxcox(0.5, -1.0) == pytest.approx(0.25, abs=1e-12)


def test_inverse_boxcox_domain_error():
    # lambda*y + 1 <= 0 has no real preimage
    with pytest.raises(DomainError):
        inverse_boxcox(1.0, -1.0)
    with pytest.raises(DomainError):
        inverse_boxcox(-0.5, 3.0)


@given(lam=st.one_of(st.just(0.0), st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-6)),
       v=st.floats(0.01, 0.99))
def test_boxcox_round_trip_property(lam, v):
    assert inverse_boxcox(lam, boxcox(lam, v)) == pytest.approx(v, rel=1e-9)


# --- lambda fitting -----------------------------------------------------------

def _loglik_grid_argmax(v: np.ndarray) -> float:
    """Independent dense-grid scan of the profile likelihood, step 0.001."""
    log_sum = np.log(v).sum()
    best_lam, best_ll = None, -np.inf
    for lam in np.arange(-2.0, 2.0 + 1e-12, 0.001):
        if abs(lam) < 1e-9:
            t = np.log(v)
        else:
            t = (np.power(v, lam) - 1.0) / lam
        var = t.var()
        if var <= 0.0:
            continue
        ll = -0.5 * v.size * np.log(var) + (lam - 1.0) * log_sum
        if ll > best_ll:
            best_lam, best_ll = lam, ll
    return best_lam


def test_fit_lambda_normal_samples_near_one():
    rng = np.random.default_rng(11)
    v = np.clip(rng.normal(0.5, 0.1, size=4000), 1e-3, 1.0 - 1e-3)
    lam = fit_boxcox_lambda(v)
    assert abs(lam - 1.0) <= 0.3
    assert abs(lam - _loglik_grid_argmax(v)) <= 0.01


def test_fit_lambda_lognormal_samples_near_zero():
    rng = np.random.default_rng(12)
    v = np.clip(np.exp(rng.normal(-2.0, 0.3, size=4000)), 1e-6, 1.0 - 1e-6)
    lam = fit_boxcox_lambda(v)
    assert abs(lam - 0.0) <= 0.3
    assert abs(lam - _loglik_grid_argmax(v)) <= 0.01


def test_fit_lambda_two_point_sample_in_range():
    # the profile likelihood peaks at 0, where the solve starts and the
    # score's series is 0 up to rounding; the golden-section search lands
    # within tol/2 of 0
    v = np.array([0.2, 0.6] * 20)
    lam = fit_boxcox_lambda(v)
    assert abs(lam) <= 1e-12 and abs(oracle.golden_lambda(v)) <= 5e-5


def test_fit_lambda_rejects_degenerate_and_small():
    with pytest.raises(DegenerateSampleError):
        fit_boxcox_lambda(np.full(40, 0.25))
    with pytest.raises(DegenerateSampleError):
        fit_boxcox_lambda(np.linspace(0.1, 0.9, 29))
    with pytest.raises(DomainError):
        fit_boxcox_lambda(np.linspace(-0.1, 0.9, 40))


def test_fit_lambdas_rejects_any_bad_segment():
    good = np.linspace(0.1, 0.9, 40)
    assert fit_boxcox_lambdas([]).shape == (0,)
    with pytest.raises(DegenerateSampleError):
        fit_boxcox_lambdas([good, np.full(40, 0.25)])
    with pytest.raises(DegenerateSampleError):
        fit_boxcox_lambdas([good, good[:29]])
    with pytest.raises(DomainError):
        fit_boxcox_lambdas([np.linspace(-0.1, 0.9, 40), good])


def test_fit_lambdas_segments_stop_on_their_own():
    # segments stop after different numbers of points, on a Newton step or,
    # with the optimum past the end of [-2, 2], on a bracket narrower than
    # tol; a stopped segment leaves the batch and returns what it returns
    # fitted alone
    rng = np.random.default_rng(3)
    segs = [rng.beta(rng.uniform(2, 8), rng.uniform(2, 8), 300) for _ in range(40)]
    paths = [[] for _ in segs]
    ref = [oracle.fit_boxcox_lambda(seg, points=p) for seg, p in zip(segs, paths)]
    assert len({len(p) for p in paths}) > 1
    newton = [lam == p[-1][0] - p[-1][1] / p[-1][2] for lam, p in zip(ref, paths)]
    assert 0 < sum(newton) < len(segs)
    assert fit_boxcox_lambdas(segs).tolist() == ref
    # a point away from 0 costs one exp over the segment; at most 4 are taken
    assert max(sum(abs(lam) >= 1e-3 for lam, *_ in p) for p in paths) <= 4


def _segment(kind: str, size: int, p: float, q: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "lognormal":
        return np.exp(rng.normal(-3.0 * p / 8.0, q / 8.0, size))
    v = rng.beta(p, q, size)
    if kind == "quantized":
        v = np.clip(np.round(v, 6), 1e-6, 1.0 - 1e-6)
    return v


_SEGMENT = st.tuples(st.sampled_from(["beta", "lognormal", "quantized"]),
                     st.integers(30, 3000), st.floats(2.0, 8.0), st.floats(2.0, 8.0),
                     st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(_SEGMENT, min_size=1, max_size=40))
def test_fit_lambdas_matches_scalar_search(specs):
    segs = [_segment(*spec) for spec in specs]
    lams = fit_boxcox_lambdas(segs)
    assert lams.shape == (len(segs),)
    for seg, lam in zip(segs, lams.tolist()):
        # the batch is its scalar twin bit for bit, and batching does not
        # couple segments
        assert lam == oracle.fit_boxcox_lambda(seg) == fit_boxcox_lambdas([seg])[0]
        # no lambda where `fit_moments_batch` and `boxcox` can round apart
        assert lam not in (-1.0, 0.5, 2.0)


@settings(max_examples=40, deadline=None)
@given(spec=_SEGMENT)
def test_fit_lambda_as_accurate_as_golden_section_search(spec):
    seg = _segment(*spec)
    lam, ref = fit_boxcox_lambda(seg), oracle.golden_lambda(seg)
    assert abs(lam - ref) <= 1e-4
    ll_ref = oracle.profile_loglik(seg, ref)
    assert oracle.profile_loglik(seg, lam) >= ll_ref - 1e-9 * abs(ll_ref)
    # scipy's maximizer is unbounded; this one is on [-2, 2], within tol/2
    mle = stats.boxcox_normmax(seg, method="mle")
    if abs(mle) < 1.99:
        assert lam == pytest.approx(mle, abs=5e-5)


# numpy computes a power with a scalar exponent of -1, 0.5 or 2 by a fast
# path that can round one ulp apart from the general power
_LAMBDA = st.one_of(st.just(0.0), st.floats(-2.0, 2.0).filter(lambda x: x not in (-1.0, 0.5, 2.0)))


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(st.tuples(_SEGMENT, _LAMBDA), min_size=1, max_size=40))
def test_fit_moments_batch_matches_fit_moments(specs):
    segs = [_segment(*spec) for spec, _ in specs]
    lams = [lam for _, lam in specs]
    mu, sigma = fit_moments_batch(segs, lams)
    for seg, lam, m, s in zip(segs, lams, mu.tolist(), sigma.tolist()):
        assert (m, s) == fit_moments(seg, lam)


def test_fit_moments_batch_flags_degenerate_segments():
    mu, sigma = fit_moments_batch([np.full(40, 0.25), [0.2, 0.4]], [1.0, 0.3])
    assert sigma[0] == 0.0
    assert (mu[1], sigma[1]) == fit_moments([0.2, 0.4], 0.3)
    assert [a.size for a in fit_moments_batch([], [])] == [0, 0]


def test_fit_moments_two_point_symmetric():
    # log transform maps {e, 1/e} to {1, -1}: mean 0, population std 1
    mu, sigma = fit_moments([math.e, 1.0 / math.e] * 25, 0.0)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert sigma == pytest.approx(1.0, abs=1e-12)


def test_fit_moments_degenerate():
    with pytest.raises(DegenerateSampleError):
        fit_moments([0.25, 0.25, 0.25], 1.0)
    with pytest.raises(DegenerateSampleError):
        fit_moments([], 1.0)


def test_fit_moments_beta_2_2_identity_lambda():
    rng = np.random.default_rng(13)
    v = rng.beta(2.0, 2.0, size=100_000)
    mu, sigma = fit_moments(v, 1.0)
    # Beta(2,2) shifted by -1: mean -0.5, var m*n/((m+n)^2(m+n+1)) = 1/20
    assert mu == pytest.approx(-0.5, abs=0.01)
    assert sigma == pytest.approx(math.sqrt(1.0 / 20.0), abs=0.01)


def test_fit_boxcox_bundles_lambda_and_moments():
    rng = np.random.default_rng(14)
    v = rng.beta(2.0, 5.0, size=2000)
    fit = fit_boxcox(v, epsilon=0.1)
    assert fit.epsilon == 0.1
    mu, sigma = fit_moments(v, fit.lambda_star)
    assert fit.mu == pytest.approx(mu) and fit.sigma == pytest.approx(sigma)
    assert fit.scale == pytest.approx(sigma * 1.1)


def test_boxcox_fit_validation():
    with pytest.raises(DegenerateSampleError):
        BoxCoxFit(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        BoxCoxFit(1.0, 0.0, 1.0, epsilon=-0.1)


# --- quality model ------------------------------------------------------------

def test_beta_model_validation_and_mean():
    with pytest.raises(DomainError):
        BetaQualityModel(1.5, 2.0)
    with pytest.raises(DomainError):
        BetaQualityModel(2.0, 1.99)
    assert BetaQualityModel(3.0, 2.0).mean == pytest.approx(0.6)


# --- normal helpers -----------------------------------------------------------

def test_normal_cdf_against_reference():
    x = np.linspace(-10.0, 10.0, 4001)
    assert np.max(np.abs(normal_cdf(x) - special.ndtr(x))) <= 1e-7
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)


def test_normal_cdf_table_value_by_density_integration():
    oracle, err = integrate.quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                                 -np.inf, 1.959964)
    assert err < 1e-8
    assert oracle == pytest.approx(0.975, abs=1e-6)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_normal_quantile_against_reference():
    # 1e-8 absolute accuracy is promised on the |x| <= 6 working range; deeper
    # tails lose it to cancellation inside the Newton correction's CDF call
    lo = float(special.ndtr(-6.0))
    p = np.concatenate([np.geomspace(lo, 0.5, 400), 1.0 - np.geomspace(lo, 0.5, 400)])
    assert np.max(np.abs(normal_quantile(p) - special.ndtri(p))) <= 1e-8
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_normal_round_trip_and_domain():
    x = np.linspace(-6.0, 6.0, 241)
    assert np.max(np.abs(normal_quantile(normal_cdf(x)) - x)) <= 1e-6
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            normal_quantile(bad)


# --- forward/backward percentile maps ------------------------------------------

def test_forward_transform_frozen_examples():
    fit = BoxCoxFit(1.0, -0.5, 0.1, 0.0)
    # (boxcox(1, 0.6) - mu) / sigma = (-0.4 + 0.5) / 0.1 = 1
    assert forward_transform(fit, 0.6) == pytest.approx(0.8413447460685429, abs=1e-9)
    wide = BoxCoxFit(1.0, -0.5, 0.1, 1.0)
    assert forward_transform(wide, 0.6) == pytest.approx(0.6914624612740131, abs=1e-9)
    # any v mapping onto mu lands at the median
    assert forward_transform(fit, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_backward_transform_frozen_examples():
    fit = BoxCoxFit(1.0, -0.5, 0.1, 0.0)
    assert backward_transform(fit, 0.8413447460685429) == pytest.approx(0.6, abs=1e-4)
    assert backward_transform(fit, 0.5) == pytest.approx(inverse_boxcox(1.0, -0.5), abs=1e-12)


def test_forward_monotone_and_epsilon_pulls_to_half():
    fit0 = _fit_covering(0.5, 0.0)
    fit1 = _fit_covering(0.5, 1.0)
    v = np.linspace(0.01, 0.99, 199)
    out0 = forward_transform(fit0, v)
    out1 = forward_transform(fit1, v)
    assert np.all(np.diff(out0) > 0.0)
    assert np.all(np.abs(out1 - 0.5) <= np.abs(out0 - 0.5) + 1e-15)
    off_center = np.abs(out0 - 0.5) > 1e-9
    assert np.all(np.abs(out1 - 0.5)[off_center] < np.abs(out0 - 0.5)[off_center])


def test_backward_monotone():
    fit = _fit_covering(-1.0, 0.1)
    a = np.linspace(0.01, 0.99, 99)
    assert np.all(np.diff(backward_transform(fit, a)) > 0.0)


@pytest.mark.parametrize("lam", RT_LAMBDAS)
@pytest.mark.parametrize("eps", RT_EPSILONS)
def test_round_trip_grid(lam, eps):
    fit = _fit_covering(lam, eps)
    v = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(backward_transform(fit, forward_transform(fit, v)) - v)) <= 1e-6


def test_round_trip_spot_values():
    fit = _fit_covering(0.5, 0.1, lo=0.05, hi=0.95)
    for v in (0.1, 0.3, 0.7):
        assert backward_transform(fit, forward_transform(fit, v)) == pytest.approx(v, abs=1e-6)


def test_backward_clipped_saturates_instead_of_raising():
    # lambda=-1 has image y < 1; a wide-scale fit pushes mu + q*sigma past it
    # at the upper percentile clamp, where the exact inverse is undefined
    fit = BoxCoxFit(-1.0, boxcox(-1.0, 0.5), 0.5, 0.0)
    with pytest.raises(DomainError):
        backward_transform(fit, 1.0 - 1e-7)
    parts = (fit.lambda_star, fit.mu, fit.scale)
    out = backward_transform_clipped(*parts, 1.0 - 1e-7)
    assert np.isfinite(out) and out > 0.0
    # agreement with the exact inverse away from the saturated tail
    a = np.linspace(0.2, 0.8, 25)
    assert np.max(np.abs(backward_transform_clipped(*parts, a) - backward_transform(fit, a))) <= 1e-12


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_backward_clipped_broadcast_matches_scalar_calls(seed, n):
    # one call over per-campaign fits gives each campaign's scalar result bit
    # for bit, log branch and saturated tails included.  Lambdas of exactly
    # -1, 0.5 or 2 are left out: for a scalar exponent of -1, 2 or 0.5 numpy
    # computes the power by reciprocal, square or sqrt, which can differ
    # from pow by an ulp, and a fitted lambda does not land on them.
    rng = np.random.default_rng(seed)
    lam = rng.choice([-1.5, -0.4, 0.0, 1e-10, 0.3, 1.0, 1.7], size=n)
    lam += rng.normal(0.0, 0.05, n) * (rng.random(n) < 0.5)
    mu = rng.normal(-0.5, 1.0, n)
    scale = rng.uniform(0.05, 2.0, n)
    a = np.where(rng.random(n) < 0.5, rng.choice([0.0, 1e-7, 0.9, 1.0 - 1e-7, 1.0], size=n),
                 rng.random(n))
    out = backward_transform_clipped(lam, mu, scale, a)
    ref = [backward_transform_clipped(lam[i], mu[i], scale[i], a[i]) for i in range(n)]
    assert out.tobytes() == np.array(ref).tobytes()


def test_forward_percentiles_near_uniform_ks():
    # a power transform corrects skew, not kurtosis: right-skewed beta laws
    # normalize well, while symmetric platykurtic ones (e.g. shapes (2,2))
    # floor near KS 0.035 no matter the exponent
    rng = np.random.default_rng(31)
    fit = fit_boxcox(rng.beta(2.0, 5.0, size=100_000))
    fresh = rng.beta(2.0, 5.0, size=100_000)
    d = stats.kstest(forward_transform(fit, fresh), "uniform").statistic
    assert d <= 0.02


@settings(max_examples=60)
@given(lam=st.sampled_from(RT_LAMBDAS), eps=st.floats(0.0, 1.0), v=st.floats(0.02, 0.98))
def test_round_trip_property(lam, eps, v):
    fit = _fit_covering(lam, eps)
    assert backward_transform(fit, forward_transform(fit, v)) == pytest.approx(v, abs=1e-6)
