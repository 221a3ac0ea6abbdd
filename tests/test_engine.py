"""Delivery-loop tests.

The heavyweight checks here are scalar-vs-vectorized differentials: each
run is replayed with the one-request-at-a-time decision functions and
one-campaign-at-a-time period updates of `oracle.py` against the same
generator, and per-period win counts must match the vectorized runners
exactly.  That pins both the sequential budget semantics and the edge-order
draw-consumption contract.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle
import gdpacer.engine
from gdpacer.engine import (_ALGO_TAGS, _TAGS, _DensePeriod, _FitManager, RUNNERS, RunConfig,
                            _densify, _fit_window, _resolve_winners, _substream, dmd_period_update,
                            init_campaign_states, prepare, rcp_period_update, run_dmd,
                            run_rcpacing, run_seed, run_smart_baseline)
from gdpacer.metrics import hindsight_optimum
from gdpacer.pacing import PacingHyperParams, psi_speed_bound
from gdpacer.quality import (BetaQualityModel, DomainError, fit_boxcox_batch, fit_boxcox_beta,
                             forward_transform)
from gdpacer.simulate import CampaignSpec
from gdpacer.streams import ImpressionStream, PeriodBatch, load_stream_csv
from oracle import BoxCoxFit, ImpressionRequest, campaigns, dmd_decide, from_requests, rcp_decide


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
    lam, mu, sigma = fit_boxcox_batch([samples])[:, 0]
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
    cfg = RunConfig()
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
    fits, t = _logged(specs, RunConfig(), [(np.repeat([0, 1], [40, 10]), v)])
    c = campaigns(2)
    fits.assign_fits(c, t)
    own, pooled = _try_fit(v[:40]), _try_fit(v)
    assert (c.lam[0], c.mu[0]) == (own.lambda_star, own.mu)
    assert (c.lam[1], c.mu[1]) == (pooled.lambda_star, pooled.mu)


def test_empty_first_window_falls_back_to_priors():
    # period 0's window is empty: no own or pooled fit, so every campaign
    # takes its prior (an empty window used to end a run in np.concatenate([]))
    specs = [_spec(0, 30, m=2, n=5), _spec(1, 30, m=5, n=2)]
    fits, t = _logged(specs, RunConfig(seed=3), [])
    empty = _fit_window([], 2)
    assert np.isnan(empty.sigma).all() and empty.pooled is None
    c = campaigns(2)
    fits.assign_fits(c, t)
    for i in range(2):
        assert (c.lam[i], c.mu[i]) == (_prior_fit(fits, i).lambda_star, _prior_fit(fits, i).mu)


def test_priors_depend_on_neither_run_seed_nor_campaign_index():
    # a prior is the exact fit of the campaign's own model: neither the run
    # seed nor a campaign added below the others may move it
    specs = [_spec(3, 10, m=2, n=5), _spec(5, 10, m=6, n=2)]
    priors = [_logged(specs, RunConfig(seed=seed), [])[0].priors for seed in (0, 1, 99)]
    assert all(np.array_equal(p, priors[0]) for p in priors)
    grown = _logged([_spec(1, 10, m=3, n=3)] + specs, RunConfig(seed=0), [])[0].priors
    assert np.array_equal(grown[:, 1:], priors[0])
    assert np.array_equal(grown[:, :1], fit_boxcox_beta(3.0, 3.0))


@pytest.mark.parametrize("own_size", [10, 30, 60])
@pytest.mark.parametrize("nonpositive", [False, True])
def test_assign_fits_matches_per_campaign_chain(nonpositive, own_size):
    # healthy windows next to too-small, constant, empty and (optionally)
    # non-positive ones, logged over two periods, with campaign 0's window
    # below, at or above the 30 samples a fit needs; a sample <= 0 also
    # spoils the pooled window, so every campaign without its own fit goes
    # on to its prior, or to the neutral fit when it has no quality model
    rng = np.random.default_rng(23)
    windows = [rng.beta(2, 5, own_size), rng.beta(5, 2, 12), np.full(50, 0.4), rng.beta(3, 3, 70),
               np.empty(0), rng.beta(2, 2, 8), rng.beta(4, 2, 200)]
    if nonpositive:
        windows[3][7] = 0.0
    specs = [_spec(j, 10, m=2.0 + j, n=5.0) for j in range(7)]
    specs[5] = CampaignSpec(id=5, budget=10, recall_prob=1.0, quality_model=None)
    cfg = RunConfig(seed=4)
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
    own = {j for j in own if windows[j].size >= 30}
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


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None, np.float64(3.0), np.int64(-2)])
def test_run_config_refuses_a_bad_seed(seed):
    # dmd used to run on any of these and write it into the trace, while
    # rcpacing and smart failed mid-run
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        RunConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.int64(3), np.uint64(2**63)])
def test_run_config_takes_any_nonnegative_integer_seed(seed):
    stream = _rand_stream(1, 2, 10, seed=1)
    for runner in RUNNERS.values():
        assert runner(stream, [_spec(0, 5)], RunConfig(seed=seed)).seed == seed


def test_substream_tags_are_one_per_purpose():
    # the streams, runs, budget scales and campaign populations each draw
    # from their own tag, at the values every pinned output was drawn with
    # (the priors are exact fits and draw nothing)
    assert _TAGS == {"stream": 1, "run": 2, "scale": 3, "synth": 5}


def test_run_seed_stable_and_distinct():
    grid = [(algo, r) for algo in _ALGO_TAGS for r in range(5)]
    seeds = [run_seed(7, algo, r) for algo, r in grid]
    assert len(set(seeds)) == len(seeds)
    assert run_seed(7, "dmd", 3) == run_seed(7, "dmd", 3)
    assert run_seed(8, "dmd", 3) != run_seed(7, "dmd", 3)


def test_init_campaign_states_values():
    stream = _rand_stream(1, 10, 200, seed=0, recall=1.0)   # 2000 requests
    specs = [_spec(0, budget=100, recall=0.5)]
    c = init_campaign_states(specs, prepare(stream, [0]), PacingHyperParams())
    assert c.ids.size == 1
    # audience 1000, ptr_exp = 100 / (1000 * (1 - 0.9)) = 1.0
    assert c.alpha_bar[0] == pytest.approx(0.9)
    assert c.ptr_base[0] == pytest.approx(1.0)     # min{1, 1.0 / 0.15}
    assert c.rho[0] == pytest.approx(10.0)
    assert c.eptr[0] == PacingHyperParams().initial_trial_rate
    assert not c.exhausted[0]


def _no_edges(*sizes) -> ImpressionStream:
    """Periods of `sizes` requests that recall no campaign."""
    empty = np.empty(0, dtype=np.int64)
    return ImpressionStream([PeriodBatch(np.arange(n, dtype=np.int64), empty, empty, np.empty(0))
                             for n in sizes])


@st.composite
def _setups(draw):
    """Campaigns of any budget and recall over periods of 0-400 requests
    with no edges, so audiences run from 0 and ptr_exp from far below 1 to
    far above it, under any p_ub and global win rate."""
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    specs = [_spec(j, draw(st.integers(1, 10**6)), recall=draw(st.floats(1e-6, 1.0)))
             for j in ids]
    stream = _no_edges(*draw(st.lists(st.integers(0, 400) | st.just(0), min_size=1, max_size=5)))
    params = PacingHyperParams(p_ub=draw(st.floats(0.01, 0.99)),
                               wr_glb=draw(st.floats(0.01, 1.0)),
                               initial_trial_rate=draw(st.sampled_from([0.1, 1.0])))
    return specs, stream, params


@settings(max_examples=200, deadline=None)
@given(setup=_setups())
# no requests, so every audience is 0 and ptr_exp is 1; and budgets 10 and
# 1000 times the top slice of their audience: ptr_exp = 10 puts the dual at 0
@example(setup=([_spec(3, 5), _spec(1, 10**6, recall=0.5)], _no_edges(0, 0), PacingHyperParams()))
@example(setup=([_spec(0, 100), _spec(1, 10**4)], _no_edges(60, 40), PacingHyperParams()))
def test_init_campaign_states_matches_scalar_reference(setup):
    specs, stream, params = setup
    specs = sorted(specs, key=lambda s: s.id)
    got = init_campaign_states(specs, prepare(stream, [s.id for s in specs]), params)
    ref = oracle.init_state(specs[::-1], stream, params)
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype, f.name
        if a.dtype == float:
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("runner", RUNNERS.values())
def test_runners_reject_duplicate_ids(runner):
    stream = _rand_stream(1, 2, 5, seed=0)
    specs = [_spec(0, 10), _spec(0, 20)]
    with pytest.raises(DomainError, match="unique"):
        runner(stream, specs, RunConfig())
    with pytest.raises(DomainError, match="prepared for campaigns"):
        runner(prepare(stream, [0]), specs, RunConfig())


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
    """The forward-transform values v_bar of each period of the rcpacing runs:
    every recalled edge mapped through the fits the period applied, recorded
    after each `_RCPacing.score` call (the throttle itself maps only the
    edges that bid); clear it between runs."""
    original, recorded = gdpacer.engine._RCPacing.score, []

    def recording(self, t, dp):
        out = original(self, t, dp)
        c = self.camps
        recorded.append(forward_transform(c.lam[dp.camp], c.mu[dp.camp], c.scale[dp.camp], dp.v))
        return out
    monkeypatch.setattr(gdpacer.engine._RCPacing, "score", recording)
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

@pytest.mark.parametrize("per_impression", [False, True])
def test_prepared_stream_shared_by_runs_matches_fresh_streams(per_impression, transforms):
    # one prepared stream serves runs that differ in policy, epsilon and eta;
    # each trace, and each captured transform, equals that of a run on a fresh
    # stream.  Periods get own-window fits; per impression, prior fits only.
    specs = [_spec(0, 40, m=2, n=5), _spec(1, 60, m=3, n=3), _spec(2, 90, m=5, n=2)]
    prepared = prepare(_rand_stream(3, 8, 40, seed=21), [2, 0, 1], per_impression)
    for algo, runner in RUNNERS.items():
        for eps, eta in ((0.0, 0.5), (0.5, 0.5), (0.1, 2.0)):
            cfg = RunConfig(seed=5, per_impression=per_impression,
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


def test_empty_stream_is_a_domain_error(tmp_path):
    # every runner used to accept a stream with no periods, and its report
    # gave a NaN unsmoothness; a stream of requests-free periods re-chunks
    # into no periods at all
    empty = np.empty(0, dtype=np.int64)
    no_requests = ImpressionStream([PeriodBatch(empty, empty, empty, np.empty(0))])
    cases = [(ImpressionStream([]), False), (ImpressionStream([]), True), (no_requests, True)]
    for stream, per_impression in cases:
        with pytest.raises(DomainError, match="no periods"):
            prepare(stream, [0], per_impression=per_impression)
        for runner in RUNNERS.values():
            with pytest.raises(DomainError, match="no periods"):
                runner(stream, [_spec(0, 5)], RunConfig(per_impression=per_impression))
    with pytest.raises(DomainError, match="no periods"):
        hindsight_optimum(ImpressionStream([]), {0: 5})
    # the reader still returns the empty stream a header-only file holds
    path = tmp_path / "empty.csv"
    path.write_text("request_id,period,campaign_id,ctr\n", encoding="utf-8")
    assert load_stream_csv(path).n_periods == 0


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
        assert got.avg_requests_per_period == oracle.avg_requests_per_period(chunks)
        for a, b in zip(got.periods, ref):
            assert a.n_requests == b.n_requests == 1
            for name in ("req", "camp", "v"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("score,elig,remaining", [
    ([0.3, 0.5, 0.5], [1, 1, 1], [2, 2, 2]),            # tie: the lower campaign wins
    ([0.3, 0.9, 0.5], [1, 0, 1], [2, 2, 2]),            # the top score is not eligible
    ([0.3, _NAN, 0.5], [1, 1, 1], [2, 2, 2]),           # a NaN score: no winner
    ([0.3, _NAN, 0.5], [1, 0, 1], [2, 2, 2]),           # ... unless it is not eligible
    ([0.3, _NAN, 0.5], [1, 1, 1], [2, 0, 2]),           # ... or its campaign cannot pay
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
    one = _resolve_winners(_DensePeriod(1, zeros, camp, np.ones(3)), *args)
    two = _resolve_winners(_DensePeriod(2, zeros, camp, np.ones(3)), *args)
    assert one.dtype == two.dtype and one.tolist() == two.tolist()
    assert one.tolist() == oracle.resolve_winners(zeros, camp, *args).tolist()


def test_per_impression_rcpacing_pooled_fits_start_mid_run():
    # one-request periods of 16 edges under the 2-period window: the first 2
    # windows hold fewer than 30 qualities and share one no-fit entry, which
    # a run applies once; from period 2 on the pooled fit of 32 qualities
    # serves every campaign, since no campaign's own window reaches 30
    M = 16
    stream = _rand_stream(M, 1, 40, seed=32, recall=1.0)
    specs = [_spec(j, 10, m=2 + j % 4, n=5) for j in range(M)]
    cfg = RunConfig(seed=6, per_impression=True)
    prepared = prepare(stream, list(range(M)), per_impression=True)
    _assert_matches_replay(run_rcpacing(prepared, specs, cfg),
                           oracle.replay("rcpacing", stream, specs, cfg))
    memo = prepared.fit_memo
    assert memo[1] is memo[0] and memo[0].pooled is None
    assert all(memo[t].pooled is not None and np.isnan(memo[t].lam).all()
               for t in range(2, 40))


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
    or with requests that recall no campaign.  Periods of 24 requests
    let the pooled and own fits start mid-run."""
    M = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 7) | st.just(24), min_size=1, max_size=6)
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
                    gradient_mode=draw(st.sampled_from(["relative", "absolute"])),
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


def _twin(rng):
    """A generator in the state `rng` is in now."""
    out = np.random.Generator(np.random.Philox())
    out.bit_generator.state = rng.bit_generator.state
    return out


def _throttle_against_reference(stream, specs, cfg):
    """Run `rcpacing` with every period's `_RCPacing.score` checked against
    `oracle.rcp_throttle` on the same state and draws: the same duals, bids
    and pass mask, bit for bit, and one draw per recalled edge.  Returns how
    many periods were empty, had no positive bid, or recalled an exhausted
    campaign."""
    seen = dict.fromkeys(("periods", "empty", "no bid", "exhausted"), 0)
    original = gdpacer.engine._RCPacing.score

    def checked(self, t, dp):
        before = _twin(self.rng)
        bid, passed = original(self, t, dp)
        u = before.random(dp.v.size)
        assert _twin(self.rng).random() == before.random(), f"period {t}: draw count"
        alpha, ref_bid, ref_passed = oracle.rcp_throttle(self.camps, dp.camp, dp.v, u,
                                                         self.config.params)
        assert np.array_equal(self.camps.alpha.view(np.int64), alpha.view(np.int64)), t
        assert np.array_equal(bid.view(np.int64), ref_bid.view(np.int64)), t
        assert passed.dtype == bool and np.array_equal(passed, ref_passed), t
        seen["periods"] += 1
        seen["empty"] += dp.v.size == 0
        seen["no bid"] += dp.v.size > 0 and not (ref_bid > 0.0).any()
        seen["exhausted"] += bool(self.camps.exhausted[dp.camp].any())
        return bid, passed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdpacer.engine._RCPacing, "score", checked)
        run_rcpacing(stream, specs, cfg)
    return seen


@pytest.mark.parametrize("per_impression", [False, True])
def test_throttle_matches_full_edge_reference(per_impression):
    # a period of requests that recall nothing, a request whose one quality
    # sits far below any threshold, and budgets that run out mid-run
    reqs = [ImpressionRequest(r.request_id, r.period, r.qualities)
            for r in oracle.iter_requests(_rand_stream(3, 6, 40, seed=12))]
    reqs += [ImpressionRequest(240 + i, 6, {}) for i in range(5)]
    reqs += [ImpressionRequest(245, 7, {1: 1e-6})]
    specs = [_spec(0, 3, m=2, n=5), _spec(1, 25, m=3, n=3), _spec(2, 200, m=5, n=2)]
    for eps in (0.0, 0.1):
        cfg = RunConfig(seed=13, per_impression=per_impression,
                        params=PacingHyperParams(epsilon=eps))
        seen = _throttle_against_reference(from_requests(reqs), specs, cfg)
        assert min(seen.values()) > 0, seen


def test_throttle_passes_no_bid_of_zero():
    # an edge exactly at its campaign's threshold bids 0 and never passes;
    # one a ulp above passes a throttle whose probability is 1
    specs = [_spec(0, 30), _spec(1, 30)]
    cfg = RunConfig(seed=1, params=PacingHyperParams(initial_trial_rate=1.0))
    prepared = prepare(_rand_stream(2, 3, 20, seed=3), [0, 1])
    camps = init_campaign_states(specs, prepared, cfg.params)
    camps.ptr_base[:] = 1e6
    pol = gdpacer.engine._RCPacing(camps, specs, cfg, prepared)
    pol.score(0, prepared.periods[0])
    v = np.concatenate([camps.alpha, np.nextafter(camps.alpha, 2.0)])
    dp = _DensePeriod(2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), v)
    bid, passed = pol.score(0, dp)
    assert np.array_equal(bid, [0.0, 0.0, *(v[2:] - camps.alpha)])
    assert passed.tolist() == [False, False, True, True]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=_instances())
def test_throttle_matches_full_edge_reference_on_small_instances(inst):
    stream, specs, cfg = inst
    seen = _throttle_against_reference(stream, specs, cfg)
    assert seen["periods"] == prepare(stream, [s.id for s in specs],
                                      cfg.per_impression).n_periods


@pytest.mark.parametrize("seed", range(3))
def test_throttle_maps_give_an_element_its_bits_anywhere(seed):
    # the positive-bid throttle maps a subset of a period's edges, and a
    # one-request period's edges alone; each must keep its full-array bits
    assert oracle.position_mismatches(seed) == []


@pytest.mark.parametrize("width,examples", [(None, 60), (1, 10), (256, 10), (257, 10),
                                            (65_537, 3)])
def test_fit_windows_match_per_period_gather(width, examples):
    # `_fit_window` over periods lo..hi-1 of the densified periods fits the
    # own and pooled windows of the per-period gather: the segments it hands
    # the batch fit are those windows, and its fits are their batch fits,
    # bit for bit; the pooled window is fitted only when some campaign has
    # no fit of its own.  With empty periods, requests without recall, a
    # campaign without edges (id 99) and one-request periods.  A `width`
    # runs M = width campaigns: campaign 0 alone, or ids 0..M-1 with
    # campaign 0 first and the instance's others moved to the top ids, so
    # the dense indices straddle each narrower key: they sort as uint8
    # (M <= 256), uint16 (M <= 65,536) or uint32 keys.  A uint32-key example
    # checks one window, the whole horizon, which holds every edge; a window
    # at that width costs about 0.2 s of 65,537-segment fits
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(inst=_instances(), data=st.data())
    def check(inst, data):
        stream, specs, cfg = inst
        ids = [s.id for s in specs] + [99]
        if width == 1:
            ids = [0]
        elif width is not None:
            assume(len(specs) > 1)
            top = width - len(specs)
            stream = ImpressionStream([PeriodBatch(p.request_ids, p.req,
                                                   np.where(p.camp > 0, p.camp + top, 0), p.v)
                                       for p in stream.periods])
            ids = list(range(width))
        prepared, M = prepare(stream, ids, cfg.per_impression and width in (None, 1)), len(ids)
        wide = M > 2**16
        for hi in [prepared.n_periods] if wide else range(prepared.n_periods + 1):
            lo = 0 if wide else data.draw(st.integers(0, hi))
            own, pooled = oracle.fit_windows(prepared.periods, lo, hi, M)
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gdpacer.engine, "fit_boxcox_batch",
                           lambda segs: seen.append(segs) or fit_boxcox_batch(segs))
                got = _fit_window(prepared.periods[lo:hi], M)
            assert [s.size for s in seen[0]] == [s.size for s in own], (lo, hi)
            assert np.array_equal(np.concatenate(seen[0]), np.concatenate(own)), (lo, hi)
            ref = fit_boxcox_batch(own)
            assert np.array_equal(bits([got.lam, got.mu, got.sigma]), bits(ref)), (lo, hi)
            if not np.isnan(ref[2]).any():
                assert len(seen) == 1 and got.pooled is None
                continue
            assert np.array_equal(seen[1][0], pooled), (lo, hi)
            ref = fit_boxcox_batch([pooled])
            assert got.pooled is None if np.isnan(ref[2, 0]) else \
                np.array_equal(bits(got.pooled), bits(ref)), (lo, hi)
    check()


@st.composite
def _auctions(draw):
    """One period's edges, scores, eligibility and budgets: up to 8 requests
    (none, one, some recalling nothing), scores on a coarse grid so they tie,
    with -inf and NaN among them, and budgets of 0 to 3 so campaigns run out
    mid-period or never take part."""
    M, R = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    mask = np.array(draw(st.lists(st.booleans(), min_size=R * M, max_size=R * M)),
                    dtype=bool).reshape(R, M)
    req, camp = np.nonzero(mask)
    n = req.size
    scores = [0.1, 0.5, 0.9, -_INF] + ([_NAN] if draw(st.booleans()) else [])
    score = np.array(draw(st.lists(st.sampled_from(scores), min_size=n, max_size=n)))
    elig = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    remaining = np.array(draw(st.lists(st.integers(0, 3), min_size=M, max_size=M)))
    return _DensePeriod(R, req, camp, np.ones(n)), score, elig, remaining


@settings(max_examples=400, deadline=None)
@given(case=_auctions())
def test_resolve_winners_matches_sequential_auction(case):
    dp, score, elig, remaining = case
    got = _resolve_winners(dp, score, elig, remaining)
    ref = oracle.resolve_winners(dp.req, dp.camp, score, elig, remaining)
    assert got.dtype == np.int64 and got.tolist() == ref.tolist()


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
