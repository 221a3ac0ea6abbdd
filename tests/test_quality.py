"""Quality-law and percentile-transform tests.

Derived expectations are frozen from independent oracles computed here:
dense-grid likelihood scans, the scalar twin of the Newton lambda solve
and the golden-section search of `oracle.py`, and scipy's Box-Cox maximum
likelihood for the lambda fit, scipy's erf/ndtr pair and direct density
quadrature for the normal helpers, and beta-moment quadrature for the
sampling checks and for the exact fit of a Beta law.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import oracle
from gdpacer.quality import (BetaQualityModel, DomainError, _fit_moments, backward_transform,
                             boxcox, fit_boxcox_batch, fit_boxcox_beta, forward_transform,
                             normal_cdf, normal_quantile)
from oracle import BoxCoxFit, DegenerateSampleError, fit_moments

RT_LAMBDAS = (-1.0, 0.0, 0.5, 1.0)
RT_EPSILONS = (0.0, 0.1, 1.0)


def _fit_covering(lam: float, eps: float, lo: float = 0.01,
                  hi: float = 0.99) -> tuple[float, float, float]:
    """The parts (lambda, mu, scale) of a fit whose forward image of [lo, hi]
    stays inside the percentile clamp."""
    y = boxcox(lam, np.array([lo, hi]))
    sigma = float((y[1] - y[0]) / 6.0)
    return lam, float(y.mean()), sigma * (1.0 + eps)


# --- power transform ----------------------------------------------------------

def test_boxcox_frozen_values():
    assert boxcox(1.0, 0.4) == pytest.approx(-0.6, abs=1e-12)
    assert boxcox(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # (sqrt(0.25) - 1) / 0.5 = -1
    assert boxcox(0.5, 0.25) == pytest.approx(-1.0, abs=1e-12)
    assert boxcox(2.0, 0.5) == pytest.approx(-0.375, abs=1e-12)
    # one lambda per element
    out = boxcox(np.array([1.0, 0.0, 0.5, 2.0]), np.array([0.4, 1.0, 0.25, 0.5]))
    assert out == pytest.approx([-0.6, 0.0, -1.0, -0.375], abs=1e-12)


def test_boxcox_log_branch_threshold():
    v = 0.37
    assert boxcox(1e-10, v) == pytest.approx(math.log(v), abs=1e-12)
    # just outside the branch cutoff the power form is continuous with log
    assert boxcox(1e-8, v) == pytest.approx(math.log(v), abs=1e-6)
    # per element, the branch is taken where |lambda| < 1e-9 alone
    lam = np.array([1e-10, -1e-10, 0.0, 1e-8, 0.5])
    out = boxcox(lam, np.full(lam.size, v))
    assert out[:3] == pytest.approx([math.log(v)] * 3, abs=1e-12)
    assert out[3] != math.log(v) and out[3] == pytest.approx(math.log(v), abs=1e-6)
    assert out[4] == pytest.approx((math.sqrt(v) - 1.0) / 0.5, abs=1e-12)


def _two_branch_boxcox(lam, v):
    """The form `boxcox` had before it took the log only when some lambda
    needs it: both branches over every element, then a select."""
    log_branch = np.abs(lam) < 1e-9
    safe_lam = np.where(log_branch, 1.0, lam)
    return np.where(log_branch, np.log(v), (np.power(v, safe_lam) - 1.0) / safe_lam)


# inside the log branch, on its edge (|lambda| = 1e-9 takes the power form),
# past it, and numpy's scalar-exponent fast-path values
_EDGE_LAMBDAS = (0.0, -0.0, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1.0, 0.5, 2.0)


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=float).view(np.int64).ravel().tolist()


@settings(max_examples=100, deadline=None)
@given(lam=st.lists(st.sampled_from(_EDGE_LAMBDAS) | st.floats(-2.0, 2.0), min_size=1,
                    max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_boxcox_matches_the_two_branch_form_bit_for_bit(lam, seed):
    lam = np.array(lam)
    v = np.random.default_rng(seed).uniform(1e-6, 1.0, lam.size)
    assert _bits(boxcox(lam, v)) == _bits(_two_branch_boxcox(lam, v))
    # one lambda for every element, and one v for every lambda
    assert _bits(boxcox(lam[0], v)) == _bits(_two_branch_boxcox(lam[0], v))
    assert _bits(boxcox(lam, v[0])) == _bits(_two_branch_boxcox(lam, v[0]))


@pytest.mark.parametrize("lam", _EDGE_LAMBDAS)
def test_boxcox_of_one_scalar_pair(lam):
    out = boxcox(lam, 0.37)
    assert np.ndim(out) == 0 and _bits(out) == _bits(_two_branch_boxcox(lam, 0.37))


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
    lam = fit_boxcox_batch([v])[0, 0]
    assert abs(lam - 1.0) <= 0.3
    assert abs(lam - _loglik_grid_argmax(v)) <= 0.01


def test_fit_lambda_lognormal_samples_near_zero():
    rng = np.random.default_rng(12)
    v = np.clip(np.exp(rng.normal(-2.0, 0.3, size=4000)), 1e-6, 1.0 - 1e-6)
    lam = fit_boxcox_batch([v])[0, 0]
    assert abs(lam - 0.0) <= 0.3
    assert abs(lam - _loglik_grid_argmax(v)) <= 0.01


def test_fit_lambda_two_point_sample_in_range():
    # the profile likelihood peaks at 0, where the solve starts and the
    # score's series is 0 up to rounding; the golden-section search lands
    # within tol/2 of 0
    v = np.array([0.2, 0.6] * 20)
    lam = fit_boxcox_batch([v])[0, 0]
    assert abs(lam) <= 1e-12 and abs(oracle.golden_lambda(v)) <= 5e-5


def test_fit_lambdas_rejects_any_bad_segment():
    # a bad segment gets no fit (NaN) and leaves the others as fitted alone
    good = np.linspace(0.1, 0.9, 40)
    assert fit_boxcox_batch([]).shape == (3, 0)
    alone = fit_boxcox_batch([good])[:, 0]
    for bad in (np.full(40, 0.25), good[:29], np.linspace(-0.1, 0.9, 40), np.empty(0)):
        for out in (fit_boxcox_batch([good, bad]), fit_boxcox_batch([bad, good])[:, ::-1]):
            assert np.isnan(out[:, 1]).all()
            assert out[:, 0].tobytes() == alone.tobytes()


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
    assert fit_boxcox_batch(segs)[0].tolist() == ref
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
    lams = fit_boxcox_batch(segs)[0]
    assert lams.shape == (len(segs),)
    for seg, lam in zip(segs, lams.tolist()):
        # the batch is its scalar twin bit for bit, and batching does not
        # couple segments
        assert lam == oracle.fit_boxcox_lambda(seg) == fit_boxcox_batch([seg])[0, 0]
        # no lambda where `_fit_moments` and `boxcox` can round apart
        assert lam not in (-1.0, 0.5, 2.0)


@settings(max_examples=40, deadline=None)
@given(spec=_SEGMENT)
def test_fit_lambda_as_accurate_as_golden_section_search(spec):
    seg = _segment(*spec)
    lam, ref = fit_boxcox_batch([seg])[0, 0], oracle.golden_lambda(seg)
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


def _moments(segs, lams):
    """`_fit_moments` on the layout `fit_boxcox_batch` builds for `segs`."""
    reps = np.array([len(s) + 1 for s in segs], dtype=np.int64)
    v = np.concatenate([np.empty(0)] + [np.r_[1.0, s] for s in segs])
    return _fit_moments(v, np.cumsum(reps) - reps, reps, np.asarray(lams, dtype=float))


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(st.tuples(_SEGMENT, _LAMBDA), min_size=1, max_size=40))
def test_fit_moments_batch_matches_fit_moments(specs):
    segs = [_segment(*spec) for spec, _ in specs]
    lams = [lam for _, lam in specs]
    mu, sigma = _moments(segs, lams)
    for seg, lam, m, s in zip(segs, lams, mu.tolist(), sigma.tolist()):
        assert (m, s) == fit_moments(seg, lam)


def test_fit_moments_batch_flags_degenerate_segments():
    mu, sigma = _moments([np.full(40, 0.25), [0.2, 0.4]], [1.0, 0.3])
    assert sigma[0] == 0.0
    assert (mu[1], sigma[1]) == fit_moments([0.2, 0.4], 0.3)
    assert [a.size for a in _moments([], [])] == [0, 0]


def _mixed_segment(kind: str, size: int, p: float, q: float, seed: int) -> np.ndarray:
    """A segment of one kind: empty, too small, with a sample <= 0, constant,
    or healthy (any kind of `_segment`)."""
    if kind == "empty":
        return np.empty(0)
    if kind == "small":
        return _segment("beta", size % 30, p, q, seed)
    if kind == "constant":
        return np.full(size, p / 8.0)
    v = _segment(kind.removeprefix("nonpositive-"), size, p, q, seed)
    if kind.startswith("nonpositive-"):
        v[seed % size] = -(seed % 2) * p
    return v


_MIXED = st.tuples(st.sampled_from(["empty", "small", "constant", "nonpositive-beta", "beta",
                                    "lognormal", "quantized"]),
                   st.integers(30, 1000), st.floats(2.0, 8.0), st.floats(2.0, 8.0),
                   st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(_MIXED, max_size=20))
def test_fit_batch_matches_scalar_chain(specs):
    # NaN exactly where the scalar chain refuses a segment; elsewhere its
    # lambda and moments bit for bit, in a batch and alone
    segs = [_mixed_segment(*spec) for spec in specs]
    out = fit_boxcox_batch(segs)
    assert out.shape == (3, len(segs))
    for k, seg in enumerate(segs):
        try:
            lam = oracle.fit_boxcox_lambda(seg)
            ref = (lam, *fit_moments(seg, lam))
        except (DegenerateSampleError, DomainError):
            ref = (np.nan,) * 3
        assert np.array(ref).tobytes() == out[:, k].tobytes()
        assert fit_boxcox_batch([seg])[:, 0].tobytes() == out[:, k].tobytes()


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


# --- quality model ------------------------------------------------------------

def test_beta_model_validation_and_mean():
    with pytest.raises(DomainError):
        BetaQualityModel(1.5, 2.0)
    with pytest.raises(DomainError):
        BetaQualityModel(2.0, 1.99)
    assert BetaQualityModel(3.0, 2.0).mean == pytest.approx(0.6)


@pytest.mark.parametrize("m,n", [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0),
                                 (3.0, math.nan)])
def test_beta_model_refuses_a_shape_that_is_not_finite(m, n):
    # inf >= 2 is true, so Beta(inf, 2) used to build; the config reader
    # refused it, the API did not
    with pytest.raises(DomainError, match="finite and >= 2"):
        BetaQualityModel(m, n)


# --- exact fit of a Beta law --------------------------------------------------

_BETA_GRID = (2.0, 3.0, 4.5, 6.0, 8.0, 10.0, 12.0)


@pytest.mark.parametrize("m", _BETA_GRID)
def test_fit_boxcox_beta_matches_quadrature_reference(m):
    # the grid holds laws whose optimum is pinned at lambda = 2 (Beta(8, 2))
    # and m = 2, where the bracket's floor -m/2 sits at -1
    lam, mu, sigma = fit_boxcox_beta(m, _BETA_GRID)
    for k, n in enumerate(_BETA_GRID):
        ref = oracle.beta_lambda(m, n)
        assert abs(lam[k] - ref) <= 1e-6, (m, n)
        if ref > 2.0 - 1e-6:
            assert lam[k] == 2.0, (m, n)

        def mean(g):
            return integrate.quad(lambda v: g(v) * stats.beta.pdf(v, m, n), 0.0, 1.0,
                                  epsabs=1e-13)[0]
        ref_mu = mean(lambda v: (v ** lam[k] - 1.0) / lam[k])
        ref_var = mean(lambda v: ((v ** lam[k] - 1.0) / lam[k] - ref_mu) ** 2)
        assert mu[k] == pytest.approx(ref_mu, abs=1e-9)
        assert sigma[k] == pytest.approx(math.sqrt(ref_var), rel=1e-8)
    assert fit_boxcox_beta(8.0, 2.0)[0, 0] == 2.0


@pytest.mark.parametrize("m,n", [(2.0, 5.0), (5.0, 2.0), (3.0, 3.0), (8.0, 2.0), (2.0, 12.0),
                                 (2.5, 9.5)])
def test_fit_boxcox_beta_is_the_limit_of_sample_fits(m, n):
    v = np.random.default_rng(41).beta(m, n, size=2 ** 18)
    exact, sampled = fit_boxcox_beta(m, n)[:, 0], fit_boxcox_batch([v])[:, 0]
    assert np.abs(exact - sampled).max() <= 1e-2


@settings(max_examples=40, deadline=None)
@given(laws=st.lists(st.tuples(st.floats(2.0, 60.0), st.floats(2.0, 60.0)), min_size=1,
                     max_size=30))
def test_fit_boxcox_beta_laws_stop_on_their_own(laws):
    # each law's solve is elementwise and stops on its own: alone or in a
    # batch, its fit has the same bits
    m, n = np.array(laws).T
    batch = fit_boxcox_beta(m, n)
    alone = np.concatenate([fit_boxcox_beta(mk, nk) for mk, nk in laws], axis=1)
    assert np.array_equal(batch.view(np.int64), alone.view(np.int64))
    assert np.isfinite(batch).all() and (batch[0] > 0.0).all() and (batch[0] <= 2.0).all()
    assert (batch[2] > 0.0).all()


def test_fit_boxcox_beta_warns_of_nothing_on_laws_too_narrow_for_doubles():
    # the fits are not finite with sigma > 0 (the engine falls back to the
    # neutral fit there), but the set-up and the final moments used to warn
    # outside the solve's errstate, and `gdpacer run` printed RuntimeWarnings
    lam, mu, sigma = fit_boxcox_beta([1e6, 1e12, 1e300, 3.0], [2.0, 2.0, 1e300, 3.0])
    ok = np.isfinite(lam) & np.isfinite(mu) & np.isfinite(sigma) & (sigma > 0.0)
    assert ok.tolist() == [False, False, False, True]


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


def test_normal_quantile_refuses_nan():
    # used to return NaN: the domain test (p <= 0) | (p >= 1) is False for NaN
    for bad in (math.nan, np.float64(np.nan), np.array([0.3, np.nan])):
        with pytest.raises(DomainError):
            normal_quantile(bad)
    # the threshold map clamps its percentile and checks no domain, so a NaN
    # dual still gives a NaN threshold
    out = backward_transform(np.array([1.0, 0.0]), -0.5, 0.1, np.array([np.nan, 0.5]))
    assert np.isnan(out[0]) and out[1] == pytest.approx(math.exp(-0.5))


# --- forward/backward percentile maps ------------------------------------------

def test_forward_transform_frozen_examples():
    # (boxcox(1, 0.6) - mu) / sigma = (-0.4 + 0.5) / 0.1 = 1
    assert forward_transform(1.0, -0.5, 0.1, 0.6) == pytest.approx(0.8413447460685429, abs=1e-9)
    # epsilon = 1 doubles the scale
    assert forward_transform(1.0, -0.5, 0.2, 0.6) == pytest.approx(0.6914624612740131, abs=1e-9)
    # any v mapping onto mu lands at the median
    assert forward_transform(1.0, -0.5, 0.1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_backward_transform_frozen_examples():
    assert backward_transform(1.0, -0.5, 0.1, 0.8413447460685429) == pytest.approx(0.6, abs=1e-4)
    # the median maps back onto mu, whose identity-lambda preimage is 0.5
    assert backward_transform(1.0, -0.5, 0.1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_forward_monotone_and_epsilon_pulls_to_half():
    fit0 = _fit_covering(0.5, 0.0)
    fit1 = _fit_covering(0.5, 1.0)
    v = np.linspace(0.01, 0.99, 199)
    out0 = forward_transform(*fit0, v)
    out1 = forward_transform(*fit1, v)
    assert np.all(np.diff(out0) > 0.0)
    assert np.all(np.abs(out1 - 0.5) <= np.abs(out0 - 0.5) + 1e-15)
    off_center = np.abs(out0 - 0.5) > 1e-9
    assert np.all(np.abs(out1 - 0.5)[off_center] < np.abs(out0 - 0.5)[off_center])


def test_backward_monotone():
    fit = _fit_covering(-1.0, 0.1)
    a = np.linspace(0.01, 0.99, 99)
    assert np.all(np.diff(backward_transform(*fit, a)) > 0.0)


@pytest.mark.parametrize("lam", RT_LAMBDAS)
@pytest.mark.parametrize("eps", RT_EPSILONS)
def test_round_trip_grid(lam, eps):
    fit = _fit_covering(lam, eps)
    v = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(backward_transform(*fit, forward_transform(*fit, v)) - v)) <= 1e-6


def test_round_trip_spot_values():
    fit = _fit_covering(0.5, 0.1, lo=0.05, hi=0.95)
    for v in (0.1, 0.3, 0.7):
        assert backward_transform(*fit, forward_transform(*fit, v)) == pytest.approx(v, abs=1e-6)


def test_backward_saturates_instead_of_raising():
    # lambda=-1 has image y < 1; a wide-scale fit pushes mu + q*sigma past it
    # at the upper percentile clamp, where the exact inverse is undefined
    lam, mu, scale = -1.0, boxcox(-1.0, 0.5), 0.5
    top = mu + special.ndtri(1.0 - 1e-6) * scale
    assert lam * top + 1.0 <= 0.0
    # the threshold is the floored power base's, finite and positive
    for a in (1.0 - 1e-7, 1.0 - 1e-6, 1.0):
        assert backward_transform(lam, mu, scale, a) == pytest.approx(1e12, rel=1e-12)
    # the exact inverse away from the saturated tail
    a = np.linspace(0.2, 0.8, 25)
    exact = (lam * (mu + special.ndtri(a) * scale) + 1.0) ** (1.0 / lam)
    assert np.max(np.abs(backward_transform(lam, mu, scale, a) - exact)) <= 1e-12


# one kind of fit each: the log branch, tiny and moderate lambdas, and lambdas
# near the ends of [-2, 2].  Lambdas of exactly -1, 0.5 or 2 are left out: for
# a scalar exponent of -1, 2 or 0.5 numpy computes the power by reciprocal,
# square or sqrt, which can differ from pow by an ulp, and a fitted lambda
# does not land on them.
def _fits(rng, n: int):
    lam = rng.choice([-1.5, -0.4, 0.0, 1e-10, 0.3, 1.0, 1.7], size=n)
    lam += rng.normal(0.0, 0.05, n) * (rng.random(n) < 0.5)
    return lam, rng.normal(-0.5, 1.0, n), rng.uniform(0.05, 2.0, n)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_broadcast_calls_match_scalar_calls(seed, n):
    # one call over per-campaign fits gives each campaign's scalar result bit
    # for bit, log branch and saturated tails included
    rng = np.random.default_rng(seed)
    lam, mu, scale = _fits(rng, n)
    a = np.where(rng.random(n) < 0.5, rng.choice([0.0, 1e-7, 0.9, 1.0 - 1e-7, 1.0], size=n),
                 rng.random(n))
    out = backward_transform(lam, mu, scale, a)
    ref = [backward_transform(lam[i], mu[i], scale[i], a[i]) for i in range(n)]
    assert out.tobytes() == np.array(ref).tobytes()
    v = rng.uniform(1e-6, 1.0, n)
    out = forward_transform(lam, mu, scale, v)
    ref = [forward_transform(lam[i], mu[i], scale[i], v[i]) for i in range(n)]
    assert out.tobytes() == np.array(ref).tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       eps=st.sampled_from(RT_EPSILONS))
def test_forward_per_edge_matches_scalar_reference(seed, n, eps):
    # per-edge lambdas, as the throttle passes them, against the scalar-lambda
    # Box-Cox and fit record of the oracle, one edge at a time
    rng = np.random.default_rng(seed)
    lam, mu, sigma = _fits(rng, n)
    v = rng.uniform(1e-6, 1.0, n)
    out = forward_transform(lam, mu, sigma * (1.0 + eps), v)
    for i in range(n):
        fit = BoxCoxFit(lam[i], mu[i], sigma[i], eps)
        ref = special.ndtr((oracle.boxcox(fit.lambda_star, v[i]) - fit.mu) / fit.scale)
        assert abs(out[i] - ref) <= 1e-12


def test_forward_percentiles_near_uniform_ks():
    # a power transform corrects skew, not kurtosis: right-skewed beta laws
    # normalize well, while symmetric platykurtic ones (e.g. shapes (2,2))
    # floor near KS 0.035 no matter the exponent
    rng = np.random.default_rng(31)
    lam, mu, sigma = fit_boxcox_batch([rng.beta(2.0, 5.0, size=100_000)])[:, 0]
    fresh = rng.beta(2.0, 5.0, size=100_000)
    d = stats.kstest(forward_transform(lam, mu, sigma, fresh), "uniform").statistic
    assert d <= 0.02


@settings(max_examples=60)
@given(lam=st.sampled_from(RT_LAMBDAS), eps=st.floats(0.0, 1.0), v=st.floats(0.02, 0.98))
def test_round_trip_property(lam, eps, v):
    fit = _fit_covering(lam, eps)
    assert backward_transform(*fit, forward_transform(*fit, v)) == pytest.approx(v, abs=1e-6)
