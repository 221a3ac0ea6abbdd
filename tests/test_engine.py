"""Delivery-loop tests.

The heavyweight checks here are scalar-vs-vectorized differentials: each
run is replayed with the one-request-at-a-time decision functions and
one-campaign-at-a-time period updates of `oracle.py` against the same
generator, and per-period win counts must match the vectorized runners
exactly.  That pins both the sequential budget semantics and the edge-order
draw-consumption contract.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import gdpacer.engine
from gdpacer.engine import (_ALGO_TAGS, _DensePeriod, _FitManager, RUNNERS, RunConfig, _densify,
                            _fit_segments, _pooled_window, _resolve_winners, _substream,
                            dmd_period_update, init_campaign_states, prepare, rcp_period_update,
                            run_dmd, run_rcpacing, run_seed, run_smart_baseline)
from gdpacer.metrics import hindsight_optimum
from gdpacer.pacing import PacingHyperParams, psi_speed_bound
from gdpacer.quality import BetaQualityModel, BoxCoxFit, DomainError
from gdpacer.simulate import CampaignSpec
from gdpacer.streams import ImpressionRequest, ImpressionStream, PeriodBatch, from_requests
from oracle import campaigns, dmd_decide, rcp_decide


def _spec(j, budget, recall=1.0, m=2.0, n=5.0):
    return CampaignSpec(id=j, budget=budget, recall_prob=recall,
                        quality_model=BetaQualityModel(m, n))


def _rand_stream(n_campaigns, n_periods, requests_per_period, seed, recall=0.7, shapes=None):
    shapes = shapes or [(2.0, 5.0)] * n_campaigns
    rng = np.random.default_rng(seed)
    reqs, rid = [], 0
    for t in range(n_periods):
        for _ in range(requests_per_period):
            quals = {}
            for j in range(n_campaigns):
                if rng.random() < recall:
                    quals[j] = float(np.clip(rng.beta(*shapes[j]), 1e-6, 1.0 - 1e-6))
            reqs.append(ImpressionRequest(rid, t, quals))
            rid += 1
    return from_requests(reqs)


# --- scalar decision rules ----------------------------------------------------

def test_dmd_decide_singleton():
    c = campaigns(1)
    d = dmd_decide(ImpressionRequest(5, 0, {0: 0.3}), c)
    assert d.winner == 0 and d.bid == pytest.approx(0.3)
    assert c.remaining[0] == 99.0


def test_dmd_decide_argmax_premium():
    c = campaigns(2, alpha=[0.0, 0.25])
    # premiums 0.3 vs 0.15: raw quality does not decide, premium does
    d = dmd_decide(ImpressionRequest(0, 0, {0: 0.3, 1: 0.4}), c)
    assert d.winner == 0


def test_dmd_decide_allocates_at_negative_premium():
    d = dmd_decide(ImpressionRequest(0, 0, {0: 0.3}), campaigns(1, alpha=0.9))
    assert d.winner == 0 and d.bid == pytest.approx(-0.6)


def test_dmd_decide_tie_breaks_to_lowest_id():
    d = dmd_decide(ImpressionRequest(0, 0, {0: 0.4, 1: 0.4}), campaigns(2))
    assert d.winner == 0


def test_dmd_decide_skips_exhausted():
    c = campaigns(2, exhausted=[True, False], remaining=[100.0, 0.5])
    d = dmd_decide(ImpressionRequest(0, 0, {0: 0.9, 1: 0.9}), c)
    assert d.winner is None and d.bid is None


def test_dmd_decide_exhausts_on_last_unit():
    c = campaigns(1, remaining=1.0)
    d = dmd_decide(ImpressionRequest(0, 0, {0: 0.2}), c)
    assert d.winner == 0 and c.exhausted[0]


def test_dmd_decide_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        quals = {j: float(rng.uniform(0.01, 0.99)) for j in range(4)}
        alphas = rng.uniform(0.0, 0.8, size=4)
        winners = []
        for shift in (0.0, 0.37):
            c = campaigns(4, alpha=alphas + shift)
            winners.append(dmd_decide(ImpressionRequest(0, 0, quals), c).winner)
        assert winners[0] == winners[1]


NEUTRAL_FIT = dict(lam=1.0, mu=-0.5, scale=0.3)


def test_rcp_decide_requires_positive_premium():
    c = campaigns(1, alpha=0.5, **NEUTRAL_FIT)
    rng = _substream(0)
    # quality below the dual: campaign may pass the throttle but must not win
    d = rcp_decide(ImpressionRequest(0, 0, {0: 0.4}), c, PacingHyperParams(), rng)
    assert d.winner is None


def test_rcp_decide_draw_consumed_even_when_exhausted():
    params = PacingHyperParams()
    req = ImpressionRequest(0, 0, {0: 0.6, 1: 0.6})
    outcomes = []
    for exhausted in (False, True):
        c = campaigns(2, alpha=0.1, alpha_bar=0.5, exhausted=[exhausted, False], **NEUTRAL_FIT)
        rng = _substream(123)
        rcp_decide(req, c, params, rng)
        outcomes.append(float(rng.random()))
    # generator position after the call is identical either way
    assert outcomes[0] == outcomes[1]


# --- period updates -------------------------------------------------------------

def _cost(*values):
    return np.array(values, dtype=float)


# 20 requests in the period and on average, so rho = 10 targets x_bar = 0.5
N, AVG = 20, 20.0


def test_dmd_update_on_target_is_fixed_point():
    for mode in ("relative", "absolute"):
        c = campaigns(1, alpha=0.3)
        dmd_period_update(c, _cost(10.0), N, AVG, eta=0.2, gradient_mode=mode)
        assert c.alpha[0] == pytest.approx(0.3)


def test_dmd_update_overspend_raises_dual():
    c = campaigns(1, alpha=0.3)
    dmd_period_update(c, _cost(15.0), N, AVG, eta=0.2, gradient_mode="relative")
    # g = (0.5 - 0.75) / 0.5 = -0.5, alpha <- 0.3 + 0.2 * 0.5
    assert c.alpha[0] == pytest.approx(0.4)
    c = campaigns(1, alpha=0.3)
    dmd_period_update(c, _cost(15.0), N, AVG, eta=0.2, gradient_mode="absolute")
    # g = 0.5 - 0.75 = -0.25, alpha <- 0.3 + 0.2 * 0.25
    assert c.alpha[0] == pytest.approx(0.35)


def test_dmd_update_underspend_clamps_at_zero():
    c = campaigns(1, alpha=0.05)
    dmd_period_update(c, _cost(2.0), N, AVG, eta=0.5, gradient_mode="relative")
    assert c.alpha[0] == 0.0


def test_dmd_update_skips_zero_target():
    c = campaigns(1, alpha=0.3, rho=0.0)
    dmd_period_update(c, _cost(5.0), N, AVG, eta=0.2)
    assert c.alpha[0] == pytest.approx(0.3)


def test_rcp_update_zero_target_identity():
    c = campaigns(1, rho=0.0)
    before = (c.alpha_bar[0], c.eptr[0])
    rcp_period_update(c, _cost(0.0), N, AVG, PacingHyperParams())
    assert (c.alpha_bar[0], c.eptr[0]) == before


def test_rcp_update_on_target_fixes_dual():
    # cost == rho: g = 0 and spd = 1, so the dual must not move
    c = campaigns(1, alpha_bar=0.62, eptr=1.0)
    rcp_period_update(c, _cost(10.0), N, AVG, PacingHyperParams())
    assert c.alpha_bar[0] == pytest.approx(0.62, abs=1e-12)
    assert c.eptr[0] == 1.0


def test_rcp_update_underspend_lowers_dual():
    c = campaigns(1, alpha_bar=0.62)
    rcp_period_update(c, _cost(4.0), N, AVG, PacingHyperParams())
    assert c.alpha_bar[0] < 0.62


def test_rcp_update_period_scale_false_freezes_eptr():
    c = campaigns(1, alpha_bar=0.62, eptr=0.25)
    rcp_period_update(c, _cost(4.0), N, AVG, PacingHyperParams(), period_scale=False)
    assert c.eptr[0] == 0.25           # would grow toward 1 if the update ran


@pytest.mark.parametrize("mode", ["relative", "absolute"])
@pytest.mark.parametrize("params", [PacingHyperParams(), PacingHyperParams(eta=3.0),
                                    PacingHyperParams(divergence="euclidean"),
                                    PacingHyperParams(clip_enabled=False),
                                    PacingHyperParams(adaptive_clip_enabled=False)])
def test_array_updates_match_per_campaign_updates(params, mode):
    rng = np.random.default_rng(17)
    fields = dict(rho=[0.0, 2.0, 10.0, 10.0, 30.0], alpha=rng.uniform(0.0, 0.8, 5),
                  alpha_bar=rng.uniform(0.0, 1.0, 5), ptr_base=rng.uniform(0.1, 1.0, 5),
                  eptr=rng.uniform(0.1, 1.0, 5))
    cost = _cost(3.0, 0.0, 10.0, 25.0, 7.0)
    for period_scale in (True, False):
        vec, ref = campaigns(5, **fields), campaigns(5, **fields)
        rcp_period_update(vec, cost, N, AVG, params, mode, period_scale)
        oracle.rcp_update(ref, cost, N, AVG, params, mode, period_scale)
        assert np.array_equal(vec.alpha_bar, ref.alpha_bar)
        assert np.array_equal(vec.eptr, ref.eptr)
    vec, ref = campaigns(5, **fields), campaigns(5, **fields)
    dmd_period_update(vec, cost, N, AVG, params.eta, mode)
    oracle.dmd_update(ref, cost, N, AVG, params.eta, mode)
    assert np.array_equal(vec.alpha, ref.alpha)


# --- transform fits ----------------------------------------------------------------

def _try_fit(samples):
    """The engine's fit of one sample, None where it gets none."""
    lam, mu, sigma = _fit_segments([np.asarray(samples, dtype=float)])[:, 0]
    return None if np.isnan(sigma) else BoxCoxFit(lam, mu, sigma)


def _prior_fit(fits: _FitManager, i: int) -> BoxCoxFit:
    """Campaign i's prior fit in a fit manager's batch."""
    return BoxCoxFit(*fits.priors[:, i])


def _logged(specs, cfg, periods):
    """A fit manager at the period after `periods`, each a pair of campaign
    index and quality arrays, so that its fit window holds them."""
    batches, next_id = [], 0
    for camp, v in periods + [((), ())]:
        n = len(v)
        batches.append(PeriodBatch(np.arange(next_id, next_id + max(n, 1)), np.arange(n),
                                   np.asarray(camp, dtype=np.int64), np.asarray(v, dtype=float)))
        next_id += max(n, 1)
    stream = prepare(ImpressionStream(batches), [s.id for s in specs])
    return _FitManager(sorted(specs, key=lambda s: s.id), cfg, stream), len(periods)


def test_fit_fallback_keeps_each_campaigns_own_prior():
    # own windows too small, pooled window degenerate (all one value): each
    # campaign must fall back to the prior of its own quality model
    specs = [_spec(0, 10, m=2, n=5), _spec(1, 10, m=6, n=2)]
    cfg = RunConfig(min_fit_samples=30)
    fits, t = _logged(specs, cfg, [(np.repeat([0, 1], 20), np.full(40, 0.5))])
    c = campaigns(2)
    fits.assign_fits(c, t)
    for i in range(2):
        prior = _prior_fit(fits, i)
        assert (c.lam[i], c.mu[i], c.scale[i]) == \
            (prior.lambda_star, prior.mu, prior.sigma * (1.0 + cfg.params.epsilon))
    assert c.lam[0] != c.lam[1]


def test_fit_prefers_own_then_pooled_window():
    rng = np.random.default_rng(5)
    specs = [_spec(0, 10), _spec(1, 10)]
    v = np.concatenate([rng.beta(2, 5, 40), rng.beta(5, 2, 10)])
    fits, t = _logged(specs, RunConfig(min_fit_samples=30), [(np.repeat([0, 1], [40, 10]), v)])
    c = campaigns(2)
    fits.assign_fits(c, t)
    own, pooled = _try_fit(v[:40]), _try_fit(v)
    assert (c.lam[0], c.mu[0]) == (own.lambda_star, own.mu)
    assert (c.lam[1], c.mu[1]) == (pooled.lambda_star, pooled.mu)


def test_min_fit_samples_zero_falls_back_at_the_empty_first_window():
    # no fit takes fewer than 30 samples, so 0 and 1 behave alike; the empty
    # window of period 0 used to end the run in np.concatenate([])
    stream = _rand_stream(2, 4, 40, seed=24)
    specs = [_spec(0, 30, m=2, n=5), _spec(1, 30, m=5, n=2)]
    traces = [run_rcpacing(stream, specs, RunConfig(seed=3, min_fit_samples=k)) for k in (0, 1)]
    assert traces[0].tobytes() == traces[1].tobytes()


@pytest.mark.parametrize("min_fit_samples", [10, 30, 60])
@pytest.mark.parametrize("nonpositive", [False, True])
def test_assign_fits_matches_per_campaign_chain(nonpositive, min_fit_samples):
    # healthy windows next to too-small, constant, empty and (optionally)
    # non-positive ones, logged over two periods; a sample <= 0 also spoils
    # the pooled window, so every campaign without its own fit goes on to its
    # prior, or to the neutral fit when it has no quality model
    rng = np.random.default_rng(23)
    windows = [rng.beta(2, 5, 45), rng.beta(5, 2, 12), np.full(50, 0.4), rng.beta(3, 3, 70),
               np.empty(0), rng.beta(2, 2, 8), rng.beta(4, 2, 200)]
    if nonpositive:
        windows[3][7] = 0.0
    specs = [_spec(j, 10, m=2.0 + j, n=5.0) for j in range(7)]
    specs[5] = CampaignSpec(id=5, budget=10, recall_prob=1.0, quality_model=None)
    cfg = RunConfig(min_fit_samples=min_fit_samples, seed=4)
    logged, window = [], []
    for half in (0, 1):
        parts = [np.array_split(w, 2)[half] for w in windows]
        logged.append((np.repeat(np.arange(7), [p.size for p in parts]), np.concatenate(parts)))
        oracle.log_period(window, *logged[-1], 7)
    fits, t = _logged(specs, cfg, logged)
    got, ref = campaigns(7), campaigns(7)
    fits.assign_fits(got, t)
    oracle.assign_fits(window, specs, cfg, ref)
    for name in ("lam", "mu", "scale"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    own = {0, 3, 6} - ({3} if nonpositive else set())
    own = {j for j in own if windows[j].size >= min_fit_samples}
    pooled = _try_fit(np.concatenate([np.concatenate(p) for p in window]))
    assert (pooled is None) == nonpositive
    for j in range(7):
        if j in own:
            assert got.lam[j] == _try_fit(windows[j]).lambda_star
        elif pooled is not None:
            assert got.lam[j] == pooled.lambda_star
        elif j == 5:
            assert (got.lam[j], got.mu[j]) == (1.0, -0.5)
        else:
            assert got.lam[j] == _prior_fit(fits, j).lambda_star


# --- config / seeding ------------------------------------------------------------

def test_gradient_mode_validated():
    with pytest.raises(DomainError, match="gradient_mode"):
        RunConfig(gradient_mode="bogus")


def test_run_seed_stable_and_distinct():
    grid = [(algo, r) for algo in _ALGO_TAGS for r in range(5)]
    seeds = [run_seed(7, algo, r) for algo, r in grid]
    assert len(set(seeds)) == len(seeds)
    assert run_seed(7, "dmd", 3) == run_seed(7, "dmd", 3)
    assert run_seed(8, "dmd", 3) != run_seed(7, "dmd", 3)


def test_init_campaign_states_values():
    stream = _rand_stream(1, 10, 200, seed=0, recall=1.0)   # 2000 requests
    specs = [_spec(0, budget=100, recall=0.5)]
    c = init_campaign_states(specs, stream, PacingHyperParams())
    assert c.ids.size == 1
    # audience 1000, ptr_exp = 100 / (1000 * (1 - 0.9)) = 1.0
    assert c.ptr_exp[0] == pytest.approx(1.0)
    assert c.alpha_bar[0] == pytest.approx(0.9)
    assert c.ptr_base[0] == pytest.approx(1.0)     # min{1, 1.0 / 0.15}
    assert c.rho[0] == pytest.approx(10.0)
    assert c.eptr[0] == PacingHyperParams().initial_trial_rate
    assert not c.exhausted[0]


def test_init_campaign_states_rejects_duplicate_ids():
    stream = _rand_stream(1, 2, 5, seed=0)
    specs = [_spec(0, 10), _spec(0, 20)]
    with pytest.raises(DomainError, match="unique"):
        init_campaign_states(specs, stream, PacingHyperParams())


# --- full runs: micro-scenarios ---------------------------------------------------

def test_run_dmd_budget_equals_supply_full_delivery():
    stream = _rand_stream(1, 5, 40, seed=1, recall=1.0)
    trace = run_dmd(stream, [_spec(0, budget=200)], RunConfig())
    assert trace.total_wins == 200
    assert trace.remaining[0] == 0.0
    assert np.all(trace.eptr == 1.0)
    assert np.all(trace.duals >= 0.0)


def test_run_dmd_budget_half_supply_stops_at_budget():
    stream = _rand_stream(1, 5, 40, seed=1, recall=1.0)
    trace = run_dmd(stream, [_spec(0, budget=100)], RunConfig())
    assert trace.total_wins == 100
    assert trace.remaining[0] == 0.0


def test_run_dmd_disjoint_campaigns_do_not_interact():
    # same stream, one spec dropped: the shared campaign's row is unchanged
    rng = np.random.default_rng(9)
    reqs = []
    for t in range(6):
        for k in range(30):
            rid = t * 30 + k
            j = rid % 2
            reqs.append(ImpressionRequest(rid, t, {j: float(rng.uniform(0.05, 0.95))}))
    stream = from_requests(reqs)
    specs = [_spec(0, budget=40), _spec(1, budget=40)]
    joint = run_dmd(stream, specs, RunConfig())
    solo = run_dmd(stream, specs[:1], RunConfig())
    assert np.array_equal(joint.wins[0], solo.wins[0])
    assert np.array_equal(joint.duals[0], solo.duals[0])


def test_run_rcpacing_respects_budgets_and_determinism():
    stream = _rand_stream(3, 6, 40, seed=2)
    specs = [_spec(0, 15, m=2, n=5), _spec(1, 25, m=3, n=3), _spec(2, 200, m=5, n=2)]
    cfg = RunConfig(seed=11)
    a = run_rcpacing(stream, specs, cfg)
    b = run_rcpacing(stream, specs, cfg)
    assert a.tobytes() == b.tobytes()
    assert np.all(a.wins.sum(axis=1) <= a.budgets)
    c = run_rcpacing(stream, specs, RunConfig(seed=12))
    assert c.tobytes() != a.tobytes()


def test_run_smart_respects_budgets():
    stream = _rand_stream(3, 6, 40, seed=2)
    specs = [_spec(0, 15), _spec(1, 25), _spec(2, 200)]
    trace = run_smart_baseline(stream, specs, RunConfig(seed=5))
    assert np.all(trace.wins.sum(axis=1) <= trace.budgets)


def test_run_rcpacing_per_impression_freezes_eptr():
    stream = _rand_stream(2, 4, 25, seed=3)
    specs = [_spec(0, 30, recall=0.7), _spec(1, 30, recall=0.7)]
    cfg = RunConfig(seed=4, per_impression=True,
                    params=PacingHyperParams(initial_trial_rate=0.6))
    trace = run_rcpacing(stream, specs, cfg)
    assert trace.wins.shape[1] == stream.total_requests
    assert np.all(trace.eptr == 0.6)


def test_throttle_monotone_in_trial_rate():
    stream = _rand_stream(1, 1, 400, seed=6, recall=1.0)
    wins = []
    for rate in (0.05, 0.2, 0.5, 1.0):
        cfg = RunConfig(seed=7, params=PacingHyperParams(initial_trial_rate=rate))
        wins.append(run_rcpacing(stream, [_spec(0, budget=300)], cfg).total_wins)
    assert wins == sorted(wins)
    assert wins[0] < wins[-1]


@pytest.fixture
def transforms(monkeypatch):
    """The forward-transform values v_bar of each period of the rcpacing runs,
    recorded from the engine's `normal_cdf` calls; clear it between runs."""
    original, recorded = gdpacer.engine.normal_cdf, []

    def recording(x):
        recorded.append(original(x))
        return recorded[-1]
    monkeypatch.setattr(gdpacer.engine, "normal_cdf", recording)
    return recorded


def test_epsilon_pulls_transforms_toward_half(transforms):
    stream = _rand_stream(2, 6, 40, seed=8)
    specs = [_spec(0, 30), _spec(1, 30)]
    captured = {}
    for eps in (0.0, 0.5):
        cfg = RunConfig(seed=9, params=PacingHyperParams(epsilon=eps))
        transforms.clear()
        run_rcpacing(stream, specs, cfg)
        captured[eps] = np.concatenate(transforms)
    d0 = np.abs(captured[0.0] - 0.5)
    d1 = np.abs(captured[0.5] - 0.5)
    assert np.all(d1 <= d0 + 1e-12)
    off = d0 > 1e-3
    assert np.all(d1[off] < d0[off])


# --- prepared streams ---------------------------------------------------------------

@pytest.mark.parametrize("per_impression,refit_window", [(False, 2), (True, 60)])
def test_prepared_stream_shared_by_runs_matches_fresh_streams(per_impression, refit_window,
                                                              transforms):
    # one prepared stream serves runs that differ in policy, epsilon and eta;
    # each trace, and each captured transform, equals that of a run on a fresh
    # stream.  The windows are wide enough for own-window fits in both modes.
    specs = [_spec(0, 40, m=2, n=5), _spec(1, 60, m=3, n=3), _spec(2, 90, m=5, n=2)]
    prepared = prepare(_rand_stream(3, 8, 40, seed=21), [2, 0, 1], per_impression)
    for algo, runner in RUNNERS.items():
        for eps, eta in ((0.0, 0.5), (0.5, 0.5), (0.1, 2.0)):
            cfg = RunConfig(seed=5, per_impression=per_impression, refit_window=refit_window,
                            params=PacingHyperParams(epsilon=eps, eta=eta))
            transforms.clear()
            shared = runner(prepared, specs, cfg)
            shared_transforms = transforms[:]
            transforms.clear()
            fresh = runner(_rand_stream(3, 8, 40, seed=21), specs, cfg)
            assert shared.tobytes() == fresh.tobytes(), (algo, eps, eta)
            if algo == "rcpacing":
                assert len(shared_transforms) == len(transforms) == prepared.n_periods
                for a, b in zip(shared_transforms, transforms):
                    assert np.array_equal(a, b)


def test_prepared_stream_must_match_the_run():
    stream = _rand_stream(2, 3, 20, seed=22)
    specs = [_spec(0, 10), _spec(1, 10)]
    prepared = prepare(stream, [0, 1])
    with pytest.raises(DomainError, match="prepared for campaigns"):
        run_dmd(prepared, specs[:1], RunConfig())
    with pytest.raises(DomainError, match="prepared for campaigns"):
        run_rcpacing(prepared, specs, RunConfig(per_impression=True))
    with pytest.raises(DomainError, match="prepared for campaigns"):
        run_smart_baseline(prepare(stream, [0, 1], per_impression=True), specs, RunConfig())
    with pytest.raises(DomainError, match="unique"):
        prepare(stream, [0, 0])


@pytest.mark.parametrize("per_impression", [False, True])
def test_prepared_stream_keeps_the_stream_sizes(per_impression):
    # the benchmark reads total_edges off the prepared stream a runner gets
    stream = _rand_stream(3, 4, 20, seed=24)
    prepared = prepare(stream, [0, 1, 2], per_impression=per_impression)
    assert prepared.total_edges == stream.total_edges > 0
    assert prepared.total_requests == stream.total_requests


@pytest.mark.parametrize("per_impression", [False, True])
def test_no_campaigns_is_a_domain_error(per_impression):
    # used to end in an IndexError inside _densify
    stream = _rand_stream(2, 3, 20, seed=23)
    with pytest.raises(DomainError, match="no campaigns"):
        prepare(stream, [], per_impression=per_impression)
    for runner in RUNNERS.values():
        with pytest.raises(DomainError, match="no campaigns"):
            runner(stream, [], RunConfig(per_impression=per_impression))


def _period(req, camp, v, n_requests=None) -> PeriodBatch:
    n = n_requests if n_requests is not None else (max(req) + 1 if req else 0)
    return PeriodBatch(np.arange(n, dtype=np.int64), np.asarray(req, dtype=np.int64),
                       np.asarray(camp, dtype=np.int64), np.asarray(v, dtype=float))


def test_unsorted_period_edges_are_refused():
    # a period given out of (request, campaign id) order used to be
    # misallocated without an error: reduceat got out-of-order starts, and
    # dmd gave wins [1, 0] and quality 0.9 where the sorted edges give [1, 1]
    # and 1.2
    specs = [_spec(0, 5), _spec(1, 5)]
    ok = run_dmd(ImpressionStream([_period([0, 1, 1], [0, 0, 1], [0.9, 0.2, 0.3])]), specs,
                 RunConfig())
    assert ok.wins[:, 0].tolist() == [1, 1] and ok.total_quality == pytest.approx(1.2)
    for bad in (_period([1, 1, 0], [0, 1, 0], [0.2, 0.3, 0.9]),     # requests out of order
                _period([0, 0, 1], [1, 0, 0], [0.3, 0.9, 0.2]),     # campaigns out of order
                _period([0, 0, 1], [0, 0, 1], [0.3, 0.9, 0.2]),     # a repeated edge
                _period([0, 2], [0, 1], [0.5, 0.5], n_requests=2),  # no request 2
                _period([-1, 0], [0, 1], [0.5, 0.5], n_requests=2)):
        for per_impression in (False, True):
            with pytest.raises(DomainError, match="sorted by"):
                run_dmd(ImpressionStream([bad]), specs, RunConfig(per_impression=per_impression))


def _unique_layout(req):
    """`starts` and `seg_idx` as np.unique gives them, for a sorted `req`."""
    present, starts = np.unique(req, return_index=True)
    return starts, np.searchsorted(present, req)


def test_per_impression_prepare_matches_densified_rechunk():
    # requests with no recall, and requests and periods whose only edges
    # belong to campaigns outside the run, empty periods with and without
    # requests, then a random stream whose campaigns 1 and 3 sit out the run
    hand = ImpressionStream([
        _period([0, 0, 0, 2, 3, 3], [0, 2, 5, 5, 2, 9], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 5),
        _period([], [], [], 0),
        _period([], [], [], 2),
        _period([0, 1], [5, 5], [0.7, 0.8]),
        _period([0, 0, 1], [0, 2, 0], [0.25, 0.5, 0.75]),
    ])
    for stream, ids in ((hand, [2, 0]), (_rand_stream(4, 5, 30, seed=31, recall=0.5), [0, 2])):
        got = prepare(stream, ids, per_impression=True)
        chunks = oracle.per_impression(stream)
        ref = _densify(chunks, sorted(ids))
        assert got.n_periods == len(ref) == stream.total_requests
        assert got.total_requests == chunks.total_requests
        assert got.avg_requests_per_period == chunks.avg_requests_per_period
        for a, b in zip(got.periods, ref):
            assert a.n_requests == b.n_requests == 1
            for name in ("req", "camp", "v", "starts", "seg_idx"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
        for dp in _densify(stream, sorted(ids)) + ref:
            starts, seg_idx = _unique_layout(dp.req)
            assert np.array_equal(dp.starts, starts) and np.array_equal(dp.seg_idx, seg_idx)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("score,elig,remaining", [
    ([0.3, 0.5, 0.5], [1, 1, 1], [2, 2, 2]),            # tie: the lower campaign wins
    ([0.3, 0.9, 0.5], [1, 0, 1], [2, 2, 2]),            # the top score is not eligible
    ([0.3, _NAN, 0.5], [1, 1, 1], [2, 2, 2]),           # a NaN score: no winner
    ([0.3, _NAN, 0.5], [1, 0, 1], [2, 2, 2]),           # ... unless it is not eligible
    ([-_INF, -_INF, 0.5], [1, 1, 0], [2, 2, 2]),        # -inf scores still win
    ([0.3, 0.9, 0.5], [0, 0, 0], [2, 2, 2]),            # no eligible edge
    ([0.3, 0.9, 0.5], [1, 1, 1], [2, 0, 2]),            # the top campaign cannot pay
    ([0.3, 0.2, 0.5], [1, 1, 1], [2, 0, 2]),            # a loser cannot pay
    ([0.3, 0.9, 0.5], [1, 1, 1], [0, 0, 0]),            # nobody can pay
])
def test_one_request_winner_matches_repair_loop(score, elig, remaining):
    # the same edges as one period of 1 request and of 2 requests, the
    # second of which recalls nothing: only the first takes the shortcut
    camp = np.array([0, 1, 3])
    zeros = np.zeros(3, dtype=np.int64)
    args = (np.array(score), np.array(elig, dtype=bool), np.array(remaining + [2]))
    one = _resolve_winners(_DensePeriod(1, zeros, camp, np.ones(3), zeros[:1], zeros), *args)
    two = _resolve_winners(_DensePeriod(2, zeros, camp, np.ones(3), zeros[:1], zeros), *args)
    assert one.dtype == two.dtype and one.tolist() == two.tolist()


def test_per_impression_rcpacing_own_fits_start_mid_run():
    # one-request periods of 2 edges under a 40-period window: the first 15
    # windows hold fewer than 30 qualities and share one no-fit entry, which
    # a run applies once; then the pooled fit takes over, and from period 30
    # on every campaign has its own fit, a new one each period
    stream = _rand_stream(2, 2, 60, seed=32, recall=1.0)
    specs = [_spec(0, 40, m=2, n=5), _spec(1, 40, m=5, n=2)]
    cfg = RunConfig(seed=6, per_impression=True, refit_window=40)
    prepared = prepare(stream, [0, 1], per_impression=True)
    _assert_matches_replay(run_rcpacing(prepared, specs, cfg),
                           oracle.replay("rcpacing", stream, specs, cfg))
    memo = prepared.fit_memo(40, 30)
    assert all(memo[t] is memo[0] for t in range(15)) and memo[0].pooled is None
    assert all(memo[t].pooled is not None for t in range(15, 30))
    assert all(np.isfinite(memo[t].lam).all() for t in range(30, 120))


# --- scalar vs vectorized differentials -------------------------------------------

def _assert_matches_replay(trace, ref):
    for t in range(trace.wins.shape[1]):
        assert np.array_equal(trace.wins[:, t], ref.wins[:, t]), f"period {t}"
    for field in ("quality_sum", "duals", "eptr"):
        assert np.array_equal(getattr(trace, field), getattr(ref, field)), field
    assert np.array_equal(trace.remaining, ref.remaining)


def test_run_dmd_matches_scalar_replay():
    stream = _rand_stream(3, 6, 40, seed=10)
    specs = [_spec(0, 15), _spec(1, 25), _spec(2, 200)]
    cfg = RunConfig()
    _assert_matches_replay(run_dmd(stream, specs, cfg), oracle.replay("dmd", stream, specs, cfg))


def test_run_rcpacing_matches_scalar_replay():
    stream = _rand_stream(3, 6, 40, seed=12)
    specs = [_spec(0, 15, m=2, n=5), _spec(1, 25, m=3, n=3), _spec(2, 200, m=5, n=2)]
    cfg = RunConfig(seed=13)
    _assert_matches_replay(run_rcpacing(stream, specs, cfg),
                           oracle.replay("rcpacing", stream, specs, cfg))


def test_run_smart_matches_scalar_replay():
    # a low-quality campaign that loses most auctions to two high-quality
    # ones underspends from a pass rate well below 1, so the feedback keeps
    # opening its layers while the others overspend and shut theirs
    stream = _rand_stream(3, 20, 40, seed=17, shapes=[(2, 8), (5, 2), (5, 2)])
    specs = [_spec(0, 40, recall=0.7, m=2, n=8), _spec(1, 200, recall=0.7, m=5, n=2),
             _spec(2, 300, recall=0.7, m=5, n=2)]
    cfg = RunConfig(seed=17)
    _assert_matches_replay(run_smart_baseline(stream, specs, cfg),
                           oracle.replay("smart", stream, specs, cfg))


@st.composite
def _instances(draw):
    """Small instances: tight budgets so campaigns run out mid-period,
    qualities on a coarse grid so bids tie, and periods with no requests
    or with requests that recall no campaign.  A 40-period window lets the
    pooled and own fits start mid-run, per impression too; a 1000-period
    window is longer than any run."""
    M = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6)
                 .filter(lambda xs: sum(xs) > 0))
    levels = draw(st.sampled_from([3, 5, 1000]))
    recall = draw(st.floats(0.2, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods, next_id = [], 0
    for n in sizes:
        mask = rng.random((n, M)) < recall
        rows, cols = np.nonzero(mask)
        v = rng.integers(1, levels, size=rows.size) / levels
        periods.append(PeriodBatch(np.arange(next_id, next_id + n, dtype=np.int64),
                                   rows.astype(np.int64), cols.astype(np.int64), v))
        next_id += n
    budgets = draw(st.lists(st.integers(1, 8), min_size=M, max_size=M))
    specs = [_spec(j, b, recall=recall, m=2.0 + j, n=5.0) for j, b in enumerate(budgets)]
    cfg = RunConfig(seed=draw(st.integers(0, 2**32 - 1)),
                    per_impression=draw(st.booleans()),
                    refit_window=draw(st.sampled_from([2, 40, 1000])),
                    gradient_mode=draw(st.sampled_from(["relative", "absolute"])),
                    min_fit_samples=draw(st.sampled_from([4, 30])),
                    prior_fit_samples=256,
                    params=PacingHyperParams(eta=draw(st.sampled_from([0.2, 2.0])),
                                             initial_trial_rate=draw(st.sampled_from([0.3, 1.0]))))
    return ImpressionStream(periods), specs, cfg


def _speed_bound_as_bisection(alpha_bar, ptr_base, spd, params):
    # the duals are compared to 1e-12 below; the adaptive clip bound that
    # feeds them must equal the sequential bisection's bit for bit
    out = psi_speed_bound(alpha_bar, ptr_base, spd, params)
    ref = oracle.psi_speed_bound(alpha_bar, ptr_base, spd, params)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=_instances())
def test_runners_match_scalar_oracles(inst):
    stream, specs, cfg = inst
    opt = hindsight_optimum(stream, {s.id: s.budget for s in specs})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdpacer.engine, "psi_speed_bound", _speed_bound_as_bisection)
        for algo, runner in RUNNERS.items():
            trace = runner(stream, specs, cfg)
            _assert_matches_replay(trace, oracle.replay(algo, stream, specs, cfg))
            assert np.all(trace.wins.sum(axis=1) <= trace.budgets)
            assert trace.total_quality <= opt.value + 1e-9


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=_instances(), refit_window=st.sampled_from([1, 2, 5, 1000]))
def test_campaign_major_windows_match_per_period_gather(inst, refit_window):
    # every own and pooled fit window read from the campaign-major layout
    # equals the per-period gather, with empty periods, requests without
    # recall, a campaign without edges (id 99) and one-request periods
    stream, specs, cfg = inst
    ids = [s.id for s in specs] + [99]
    prepared = prepare(stream, ids, cfg.per_impression)
    v, off = prepared.campaign_major
    assert v.size == sum(p.v.size for p in prepared.periods)
    for hi in range(prepared.n_periods + 1):
        lo = max(0, hi - refit_window)
        own, pooled = oracle.fit_windows(prepared.periods, lo, hi, len(ids))
        for j, ref in enumerate(own):
            assert np.array_equal(v[off[j, lo]:off[j, hi]], ref), (lo, hi, j)
        assert np.array_equal(_pooled_window(v, off, lo, hi), pooled), (lo, hi)


def test_generator_array_fill_matches_sequential_draws():
    # the differential above relies on rng.random(n) equalling n single draws
    a = _substream(42).random(16)
    g = _substream(42)
    b = np.array([g.random() for _ in range(16)])
    assert np.array_equal(a, b)


# --- trace plumbing -----------------------------------------------------------------

def test_trace_tobytes_reflects_content():
    stream = _rand_stream(2, 3, 20, seed=14)
    specs = [_spec(0, 10), _spec(1, 10)]
    t1 = run_dmd(stream, specs, RunConfig())
    t2 = run_dmd(stream, specs, RunConfig())
    assert t1.tobytes() == t2.tobytes()
    t2.wins[0, 0] += 1
    assert t1.tobytes() != t2.tobytes()
    assert t1.stream_id == stream.fingerprint()


def test_trace_totals():
    stream = _rand_stream(1, 2, 10, seed=15, recall=1.0)
    trace = run_dmd(stream, [_spec(0, budget=20)], RunConfig())
    assert trace.total_wins == trace.wins.sum()
    assert trace.total_quality == pytest.approx(trace.quality_sum.sum())
