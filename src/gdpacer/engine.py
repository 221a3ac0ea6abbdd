"""Delivery loop for the three allocation policies.

`run_dmd` paces with plain dual mirror descent in quality space, `run_rcpacing`
with percentile-space duals plus probabilistic throttling, and
`run_smart_baseline` with layered quality throttling and no duals.  All three
run the same period loop, `_drive`, over one struct-of-arrays campaign state;
a policy supplies only its per-edge score and throttle step and its
end-of-period update.  The work that depends on the stream alone (the
densified periods, the fingerprint and the per-period transform fits) is
done once by `prepare` and shared by every run on the prepared stream.

The loop is vectorized per period.  Budget feasibility is still resolved
with sequential semantics: winners are computed optimistically for the whole
period, then campaigns that would overshoot their remaining budget are cut
at the exact request where they exhaust and the period is re-resolved.  A
campaign exhausts at most once per run, so the repair loop is cheap.

Randomness discipline: each run owns one counter-based generator; throttle
draws are consumed one per (request, recalled campaign) edge in (request
order, ascending campaign id) order, independent of any control values, so
configurations differing only in formulas consume identical draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .pacing import (PacingHyperParams, apply_dual_clip, dual_step, fp, fv, init_base_ptr,
                     init_dual_percentile, init_expected_ptr, psi_speed_bound, update_eptr)
from .quality import (MIN_LAMBDA_SAMPLES, DomainError, backward_transform, fit_boxcox_batch,
                      fit_boxcox_beta, forward_transform)
from .streams import ImpressionStream

_REFIT_WINDOW = 2               # periods of logs per transform refit
_ALGO_TAGS = {"dmd": 0, "rcpacing": 1, "smart": 2}

_NEUTRAL_SIGMA = 1.0 / math.sqrt(12.0)  # std of a uniform quality prior under lambda=1
_NEUTRAL_FIT = np.array([[1.0], [-0.5], [_NEUTRAL_SIGMA]])   # lambda, mu, sigma


@dataclass
class RunConfig:
    """Engine-level knobs shared by all three policies."""

    params: PacingHyperParams = field(default_factory=PacingHyperParams)
    seed: int = 0
    per_impression: bool = False    # re-chunk the stream into single-request periods
    # period-gradient normalization: "relative" divides the (rho_bar - x_bar)
    # deficit by rho_bar so the step size acts on the fraction of target
    # missed; "absolute" keeps raw per-request units, the convention the
    # sublinear-regret analysis assumes for per-impression runs
    gradient_mode: str = "relative"

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.gradient_mode not in ("relative", "absolute"):
            raise DomainError(
                f"gradient_mode must be 'relative' or 'absolute', got {self.gradient_mode!r}")


@dataclass
class DeliveryTrace:
    """Aggregate outcome of one run: per-campaign, per-period bookkeeping."""

    algorithm: str
    campaign_ids: list[int]
    budgets: np.ndarray             # (M,)
    wins: np.ndarray                # (M, T) impressions won
    quality_sum: np.ndarray         # (M, T) summed quality of won impressions
    remaining: np.ndarray           # (M,) final leftover budget
    duals: np.ndarray               # (M, T) dual in effect during each period
    eptr: np.ndarray                # (M, T) emergency pass rate in effect
    stream_id: str
    seed: int

    @property
    def total_wins(self) -> float:
        return float(self.wins.sum())

    @property
    def total_quality(self) -> float:
        return float(self.quality_sum.sum())

    def tobytes(self) -> bytes:
        parts = [self.algorithm.encode(), self.stream_id.encode(), str(self.seed).encode()]
        for arr in (self.budgets, self.wins, self.quality_sum, self.remaining,
                    self.duals, self.eptr):
            parts.append(np.ascontiguousarray(arr).tobytes())
        return b"|".join(parts)


@dataclass
class CampaignArrays:
    """Delivery and control state of all campaigns of a run, one entry per
    campaign in ascending-id order."""

    ids: np.ndarray                 # (M,) campaign ids
    budget: np.ndarray
    remaining: np.ndarray
    rho: np.ndarray                 # per-period impression target = budget / periods
    audience: np.ndarray            # expected recalled requests over the horizon
    ptr_base: np.ndarray
    alpha_bar: np.ndarray           # dual in percentile space
    alpha: np.ndarray               # dual in quality space
    eptr: np.ndarray
    exhausted: np.ndarray           # bool
    # current transform fit: Box-Cox lambda, mean and normal scale
    # sigma * (1 + epsilon); NaN until the first refit
    lam: np.ndarray
    mu: np.ndarray
    scale: np.ndarray


# the key after the seed of each substream: one tag per purpose, so no two
# collide (4 drew the sampled priors of earlier versions and stays unused)
_TAGS = {"stream": 1, "run": 2, "scale": 3, "synth": 5}


def _substream(*keys: int) -> np.random.Generator:
    """The generator of the seed sequence `keys`: (seed, `_TAGS` entry, ...)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(keys))))


def run_seed(scenario_seed: int, algorithm: str, round_index: int = 0) -> int:
    """Stable per-(algorithm, round) seed derivation from a scenario seed."""
    keys = [scenario_seed, _TAGS["run"], _ALGO_TAGS[algorithm], round_index]
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def init_campaign_states(specs, stream: PreparedStream,
                         params: PacingHyperParams) -> CampaignArrays:
    """Fresh state of the campaigns `specs`, given in ascending-id order."""
    M = len(specs)
    budget = np.array([float(s.budget) for s in specs])
    audience = np.array([float(s.recall_prob) for s in specs]) * stream.total_requests
    ptr_exp = init_expected_ptr(budget, audience, params.p_ub)
    return CampaignArrays(
        ids=np.array([s.id for s in specs], dtype=np.int64),
        budget=budget,
        remaining=budget.copy(),
        rho=budget / stream.n_periods,
        audience=audience,
        ptr_base=init_base_ptr(ptr_exp, params.wr_glb),
        alpha_bar=init_dual_percentile(ptr_exp, params.p_ub),
        alpha=np.zeros(M),
        eptr=np.full(M, params.initial_trial_rate),
        exhausted=budget < 1.0,
        lam=np.full(M, np.nan),
        mu=np.full(M, np.nan),
        scale=np.full(M, np.nan),
    )


# --- per-period dual updates --------------------------------------------------

def _period_gradient(rho: np.ndarray, cost: np.ndarray, n_requests: int,
                     avg_requests: float, gradient_mode: str) -> np.ndarray:
    """Per-request deficit rho_bar - x_bar, divided by rho_bar in relative
    mode (0 where rho_bar is 0)."""
    rho_bar = rho / avg_requests
    g = rho_bar - cost / max(1, n_requests)
    if gradient_mode == "relative":
        targeted = rho_bar > 0.0
        g = np.where(targeted, g / np.where(targeted, rho_bar, 1.0), 0.0)
    return g


def dmd_period_update(camps: CampaignArrays, cost: np.ndarray, n_requests: int,
                      avg_requests: float, eta: float, gradient_mode: str = "relative") -> None:
    """alpha <- max{0, alpha - eta * g} with g the per-request deficit
    rho_bar - x_bar, divided by rho_bar in relative mode.  Campaigns with a
    zero per-period target keep their dual."""
    g = _period_gradient(camps.rho, cost, n_requests, avg_requests, gradient_mode)
    camps.alpha = np.where(camps.rho > 0.0, np.maximum(0.0, camps.alpha - eta * g), camps.alpha)


def rcp_period_update(camps: CampaignArrays, cost: np.ndarray, n_requests: int,
                      avg_requests: float, params: PacingHyperParams,
                      gradient_mode: str = "relative", period_scale: bool = True) -> None:
    """Divergence step on the percentile dual, clipped, followed by the
    emergency-rate update.  Campaigns with a zero per-period target are left
    untouched.  The quality-space dual is derived from the new percentile
    dual at the start of the next period, once its transform is refit.

    `period_scale=False` (single-request periods) freezes the emergency rate
    and the speed-based clip bound: both act on the cost/expected-cost ratio,
    which degenerates to {0, 1/rho} when a period holds one request."""
    a = camps.alpha_bar
    active = camps.rho > 0.0
    g = _period_gradient(camps.rho, cost, n_requests, avg_requests, gradient_mode)
    a_new = dual_step(a, g, params)     # already clamped to [0, 1]
    bound = None
    if period_scale:
        spd = np.where(active, cost / np.where(active, camps.rho, 1.0), 1.0)
        if params.clip_enabled and params.adaptive_clip_enabled:
            bound = psi_speed_bound(a, camps.ptr_base, spd, params)
        camps.eptr = np.where(active, update_eptr(camps.eptr, spd, params.eptr_speed_cap),
                              camps.eptr)
    if params.clip_enabled:
        a_new = apply_dual_clip(a, a_new, g, params.alpha_hat, bound)
    camps.alpha_bar = np.where(active, a_new, a)


# --- the prepared stream ---------------------------------------------------------

@dataclass
class _DensePeriod:
    n_requests: int
    req: np.ndarray
    camp: np.ndarray            # dense campaign index into the campaign arrays
    v: np.ndarray


def _firsts(x: np.ndarray) -> np.ndarray:
    """Where a sorted array `x` takes a new value."""
    return np.concatenate(([True], x[1:] != x[:-1]))[:x.size]


def _densify(stream: ImpressionStream, spec_ids: list[int],
             per_impression: bool = False) -> list[_DensePeriod]:
    """Each period's edges of the campaigns `spec_ids` (ascending), or with
    `per_impression` one period of views per request; DomainError unless a
    period's (request, campaign id) pairs strictly increase over its requests."""
    id_arr, M = np.asarray(spec_ids, dtype=np.int64), len(spec_ids)
    zero = np.zeros(M, dtype=np.int64)
    zeros = [zero[:k] for k in range(M + 1)]    # shared `req` of a request's <= M edges
    out = []
    for t, p in enumerate(stream.periods):
        pos = np.minimum(np.searchsorted(id_arr, p.camp), M - 1)
        keep = id_arr[pos] == p.camp
        req, camp, v = p.req, pos, p.v
        if not keep.all():
            req, camp, v = req[keep], camp[keep], v[keep]
        new = _firsts(req)
        if req.size and (req[0] < 0 or req[-1] >= p.n_requests or np.any(
                (req[1:] < req[:-1]) | ~new[1:] & (camp[1:] <= camp[:-1]))):
            raise DomainError(f"period {t}: edges not sorted by (request, campaign id)")
        if not per_impression:
            out.append(_DensePeriod(p.n_requests, req, camp, v))
            continue
        bounds = np.searchsorted(req, np.arange(p.n_requests + 1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out.append(_DensePeriod(1, zeros[hi - lo], camp[lo:hi], v[lo:hi]))
    return out


@dataclass
class _WindowFits:
    """The fits of one period that depend on the stream alone."""

    lam: np.ndarray             # (M,) own-window fit; NaN where a campaign has none
    mu: np.ndarray
    sigma: np.ndarray
    pooled: np.ndarray | None   # (3, 1) pooled-window fit, when some campaign lacks its own


def _fit_window(periods: list[_DensePeriod], M: int) -> _WindowFits:
    """Each of M campaigns' own fit over the densified `periods`, all in one
    batch; the pooled window is fitted only when some campaign gets no fit
    of its own.  A campaign's window is its qualities in period, then edge
    order, and the pooled window is each period's qualities in campaign
    order: the orders that set their lambda bits."""
    key = np.min_scalar_type(M - 1)         # <= 16 bits: numpy's stable sort is a radix sort
    camp = np.concatenate([np.empty(0, key)] + [p.camp.astype(key) for p in periods])
    v = np.concatenate([np.empty(0)] + [p.v for p in periods])[np.argsort(camp, kind="stable")]
    own = fit_boxcox_batch(np.split(v, np.cumsum(np.bincount(camp, minlength=M))[:-1]))
    pooled = None
    if np.isnan(own[2]).any():
        pooled = fit_boxcox_batch([np.concatenate([np.empty(0)] + [
            p.v[np.argsort(p.camp.astype(key), kind="stable")] for p in periods])])
    return _WindowFits(*own, None if pooled is None or np.isnan(pooled[2, 0]) else pooled)


@dataclass(eq=False)
class PreparedStream:
    """The run-invariant work on one stream for one set of campaigns, done
    once by :func:`prepare` and shared by every run on it, whatever its
    policy, budgets, seed or hyperparameters.

    It holds the densified periods (re-chunked into single-request periods
    when `per_impression`), the stream's fingerprint and sizes, and a memo of
    each period's own-window and pooled transform fits.  Those fits depend
    on the stream alone: a fit window logs every recalled edge, not only the
    wins.  The memo keeps only their lambda, mu and sigma; each window is
    gathered from the densified periods it spans when its fit is first
    needed, and the periods are the only copy of the qualities.  Epsilon and
    the prior fallback are applied per run.
    """

    campaign_ids: list[int]         # ascending
    per_impression: bool
    periods: list[_DensePeriod]
    stream_id: str                  # `ImpressionStream.fingerprint()`
    total_requests: int
    total_edges: int                # the benchmark's edges_per_s reads it off a runner's stream
    avg_requests_per_period: float

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @functools.cached_property
    def fit_memo(self) -> list[_WindowFits | None]:
        """Period t's fits over periods t - `_REFIT_WINDOW` .. t - 1, None
        until `window_fits` makes them; all windows of fewer than 30
        qualities in all, too few for any fit, share one no-fit entry."""
        ends = np.cumsum([0] + [p.v.size for p in self.periods])
        lo = np.maximum(0, np.arange(self.n_periods) - _REFIT_WINDOW)
        small = ends[:-1] - ends[lo] < MIN_LAMBDA_SAMPLES
        no_fit = _WindowFits(*np.full((3, len(self.campaign_ids)), np.nan), None)
        return [no_fit if s else None for s in small.tolist()]

    def window_fits(self, t: int) -> _WindowFits:
        """Period t's entry of `fit_memo`, computed on first use."""
        if self.fit_memo[t] is None:
            lo = max(0, t - _REFIT_WINDOW)
            self.fit_memo[t] = _fit_window(self.periods[lo:t], len(self.campaign_ids))
        return self.fit_memo[t]


def prepare(stream: ImpressionStream, campaign_ids, per_impression: bool = False,
            ) -> PreparedStream:
    """Prepare `stream` for runs on the campaigns `campaign_ids`.

    Any runner accepts the result in place of the stream when its specs have
    exactly these ids and its config has this `per_impression`; it raises
    DomainError otherwise.
    """
    ids = sorted(int(c) for c in campaign_ids)
    if not ids:
        raise DomainError("no campaigns to prepare the stream for")
    if len(set(ids)) != len(ids):
        raise DomainError("campaign ids must be unique")
    periods, total = _densify(stream, ids, per_impression), stream.total_requests
    if not periods:
        raise DomainError("the stream has no periods to run on")
    return PreparedStream(ids, per_impression, periods, stream.fingerprint(), total,
                          stream.total_edges, total / len(periods))


# --- the period loop -----------------------------------------------------------

def _resolve_winners(dp: _DensePeriod, score: np.ndarray, elig: np.ndarray,
                     remaining: np.ndarray) -> np.ndarray:
    """Edge indices of period winners under sequential budget semantics.

    Request by request, a campaign competes while it has budget left; the
    first of a request's eligible live edges of top score wins, and none
    does when one of them scores NaN.  The pass over the eligible edges is
    optimistic, every campaign live all period; it departs from the
    sequential one first where a campaign acts (wins, or blocks with a NaN)
    after its budget is spent.  That campaign is cut there and the period
    re-resolved, one cut per pass, so the prefix before it is already
    sequentially correct.  In a one-request period whose winner can pay,
    that is the first pass's pick.
    """
    if dp.req.size == 0:
        return np.empty(0, dtype=np.int64)
    if dp.n_requests == 1:
        s = np.where(elig, score, -np.inf)
        top = s.max()
        first = (elig & (s == top)).nonzero()[0][:1]
        if remaining[dp.camp[first[0]]] >= 1 if first.size else not math.isnan(top):
            return first            # a winner that can pay, or no eligible edge
    e = np.flatnonzero(elig)
    while e.size:
        req, camp, s = dp.req[e], dp.camp[e], score[e]
        starts = np.flatnonzero(_firsts(req))
        top = np.repeat(np.maximum.reduceat(s, starts), np.diff(starts, append=e.size))
        cand = np.flatnonzero(s == top)
        first = cand[_firsts(req[cand])]
        wcamp = camp[first]
        over = np.bincount(wcamp, minlength=remaining.size) > remaining
        late = {j: first[wcamp == j][remaining[j]] for j in np.flatnonzero(over).tolist()}
        for i in np.flatnonzero(np.isnan(s)).tolist():     # a spent campaign's NaN must not block
            j = camp[i]
            if np.count_nonzero(first[wcamp == j] < i) >= remaining[j]:
                late[j] = min(late.get(j, i), i)
        if not late:
            return e[first]
        j = min(late, key=late.get)
        e = e[(camp != j) | (req < req[late[j]])]
    return e


def _drive(stream: ImpressionStream | PreparedStream, specs, config: RunConfig,
           policy) -> DeliveryTrace:
    """The period loop of every policy.

    `stream` is raw or prepared; a raw one is prepared here for this run
    alone.  Per period t: `policy.score(t, dp)` gives each recalled edge its
    auction score and its throttle outcome (True where the policy does not
    throttle), non-exhausted passers compete in the budget-feasible auction,
    wins are charged and recorded, and `policy.update(dp, cost)` moves the
    policy's controls from the period's spend.  The trace records the
    campaign-array field named by `policy.dual` as each period's dual.
    """
    specs = sorted(specs, key=lambda s: s.id)
    ids = [s.id for s in specs]
    if not isinstance(stream, PreparedStream):
        stream = prepare(stream, ids, config.per_impression)
    elif stream.campaign_ids != ids or stream.per_impression != config.per_impression:
        raise DomainError(
            f"stream prepared for campaigns {stream.campaign_ids} with per_impression="
            f"{stream.per_impression}, run has {ids} with per_impression={config.per_impression}")
    camps = init_campaign_states(specs, stream, config.params)
    M, T = camps.ids.size, stream.n_periods
    pol = policy(camps, specs, config, stream)
    wins = np.zeros((M, T), dtype=np.int64)
    quality_sum = np.zeros((M, T))
    duals = np.zeros((M, T))
    eptr = np.ones((M, T))

    for t, dp in enumerate(stream.periods):
        score, passed = pol.score(t, dp)
        elig = passed & ~camps.exhausted[dp.camp]
        winner_edges = _resolve_winners(dp, score, elig, camps.remaining.astype(np.int64))
        won = dp.camp[winner_edges]
        cost = np.bincount(won, minlength=M).astype(float)
        wins[:, t] = cost
        quality_sum[:, t] = np.bincount(won, weights=dp.v[winner_edges], minlength=M)
        duals[:, t] = getattr(camps, pol.dual)
        eptr[:, t] = camps.eptr
        camps.remaining -= cost
        camps.exhausted |= camps.remaining < 1.0
        pol.update(dp, cost)

    return DeliveryTrace(pol.name, camps.ids.tolist(), camps.budget, wins, quality_sum,
                         camps.remaining, duals, eptr, stream.stream_id, config.seed)


class _Dmd:
    """Highest premium v - alpha among live recalled campaigns wins; no
    throttle and no positivity requirement."""

    name = "dmd"
    dual = "alpha"

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, stream: PreparedStream):
        self.camps, self.config = camps, config
        self.avg_requests = stream.avg_requests_per_period
        camps.eptr[:] = 1.0

    def score(self, t: int, dp: _DensePeriod):
        return dp.v - self.camps.alpha[dp.camp], True

    def update(self, dp: _DensePeriod, cost: np.ndarray) -> None:
        dmd_period_update(self.camps, cost, dp.n_requests, self.avg_requests,
                          self.config.params.eta, self.config.gradient_mode)


class _FitManager:
    """Per-period Box-Cox fits with prior fallback.

    At period t, a campaign uses its own logged qualities from the last
    `_REFIT_WINDOW` periods when they have a fit (`quality.fit_boxcox_batch`),
    else the pooled logs of all campaigns over the same window, else the
    exact fit of the campaign's generating quality model; the last resort is
    a fixed neutral fit (lambda=1 around a uniform quality prior).  The own
    and pooled fits come from the prepared stream's memo; the prior fits are
    made here once per run, and epsilon widens every fit's scale here.  A
    period whose memo entry is the one applied last keeps the fits in place.
    """

    def __init__(self, specs, config: RunConfig, stream: PreparedStream):
        self.specs, self.stream = specs, stream
        self.eps = config.params.epsilon
        self.memo = stream.fit_memo
        self.applied = None         # the period fits now in the campaign arrays

    @functools.cached_property
    def priors(self) -> np.ndarray:
        """(3, M) prior lambda, mu and sigma: the exact Box-Cox fit of each
        campaign's quality model (`quality.fit_boxcox_beta`), the same for
        every run seed and campaign index; the neutral fit where a campaign
        has no model."""
        models = [getattr(s, "quality_model", None) for s in self.specs]
        has = [m is not None for m in models]
        out = np.tile(_NEUTRAL_FIT, len(models))
        out[:, has] = fit_boxcox_beta([m.m for m in models if m], [m.n for m in models if m])
        return out

    def assign_fits(self, camps: CampaignArrays, t: int) -> None:
        fits = self.memo[t] or self.stream.window_fits(t)
        if fits is self.applied:
            return
        self.applied = fits
        fit = (fits.lam, fits.mu, fits.sigma)
        miss = np.isnan(fits.sigma)
        if miss.any():
            fit = np.where(miss, self.priors if fits.pooled is None else fits.pooled, fit)
        camps.lam[:], camps.mu[:], camps.scale[:] = fit
        camps.scale *= 1.0 + self.eps


class _RCPacing:
    """Throttled premium auction: an edge enters only after passing its
    throttle draw, and bids its strictly positive premium v - alpha."""

    name = "rcpacing"
    dual = "alpha_bar"

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, stream: PreparedStream):
        self.camps, self.config = camps, config
        self.avg_requests = stream.avg_requests_per_period
        self.fits = _FitManager(specs, config, stream)
        self.rng = _substream(config.seed, _TAGS["run"], _ALGO_TAGS["rcpacing"])

    def score(self, t: int, dp: _DensePeriod):
        camps, params = self.camps, self.config.params
        self.fits.assign_fits(camps, t)
        camps.alpha = backward_transform(camps.lam, camps.mu, camps.scale, camps.alpha_bar)
        u = self.rng.random(dp.v.size)
        bid = dp.v - camps.alpha[dp.camp]
        passed = bid > 0.0          # every edge draws; only a positive bid can pass
        pos = passed.nonzero()[0]
        if pos.size:
            c = dp.camp[pos]
            v_bar = forward_transform(camps.lam[c], camps.mu[c], camps.scale[c], dp.v[pos])
            raw = camps.ptr_base[c] * fp(camps.alpha_bar, params.p_ub)[c] \
                * fv(camps.alpha_bar[c], v_bar, params.slope_k)
            passed[pos] = u[pos] < np.minimum(1.0, raw) * camps.eptr[c]
        return bid, passed

    def update(self, dp: _DensePeriod, cost: np.ndarray) -> None:
        rcp_period_update(self.camps, cost, dp.n_requests, self.avg_requests,
                          self.config.params, self.config.gradient_mode,
                          period_scale=not self.config.per_impression)


class _Smart:
    """Layered throttling baseline: L equal-width quality layers per campaign,
    multiplicative per-period feedback that opens high-quality layers first
    when underspending and closes low-quality layers first when overspending.
    Winner among throttle-passers is the highest raw quality."""

    name = "smart"
    dual = "alpha"              # stays 0: smart keeps no dual
    PTR_FLOOR = 0.01
    LAYERS = 10

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, stream: PreparedStream):
        self.camps = camps
        camps.eptr[:] = 1.0
        aud = camps.audience
        init = np.where(aud > 0, np.minimum(
            1.0, camps.budget / np.where(aud > 0, aud * config.params.wr_glb, 1.0)), 1.0)
        self.layer_ptr = np.repeat(init[:, None], self.LAYERS, axis=1)
        self.rng = _substream(config.seed, _TAGS["run"], _ALGO_TAGS["smart"])

    def score(self, t: int, dp: _DensePeriod):
        L = self.layer_ptr.shape[1]
        layer = np.minimum((dp.v * L).astype(np.int64), L - 1)
        passed = self.rng.random(dp.v.size) < self.layer_ptr[dp.camp, layer]
        return dp.v, passed

    def update(self, dp: _DensePeriod, cost: np.ndarray) -> None:
        camps, lp, floor = self.camps, self.layer_ptr, self.PTR_FLOOR
        L = lp.shape[1]
        active = (camps.rho > 0.0) & ~camps.exhausted
        spd = cost / np.where(active, camps.rho, 1.0)
        # underspending: boost the highest layer that is not fully open
        rows = np.flatnonzero(active & (spd < 1.0) & (lp < 1.0).any(axis=1))
        cols = L - 1 - np.argmax(lp[rows, ::-1] < 1.0, axis=1)
        s = spd[rows]
        boost = np.where(s <= 0.0, 2.0, np.minimum(2.0, 1.0 / np.where(s > 0.0, s, 1.0)))
        lp[rows, cols] = np.minimum(1.0, lp[rows, cols] * boost)
        # overspending: shrink the lowest layer still above the floor
        rows = np.flatnonzero(active & (spd > 1.0) & (lp > floor).any(axis=1))
        cols = np.argmax(lp[rows] > floor, axis=1)
        lp[rows, cols] = np.maximum(floor, lp[rows, cols] * np.maximum(0.5, 1.0 / spd[rows]))


def run_dmd(stream: ImpressionStream | PreparedStream, specs,
            config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _Dmd)


def run_rcpacing(stream: ImpressionStream | PreparedStream, specs,
                 config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _RCPacing)


def run_smart_baseline(stream: ImpressionStream | PreparedStream, specs,
                       config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _Smart)


RUNNERS = {
    "dmd": run_dmd,
    "rcpacing": run_rcpacing,
    "smart": run_smart_baseline,
}
