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
from .quality import (MIN_LAMBDA_SAMPLES, DomainError, backward_transform_clipped,
                      fit_boxcox_lambdas, fit_moments_batch, normal_cdf)
from .streams import ImpressionStream

_TAG_RUN = 2
_TAG_PRIOR = 4
_PRIOR_CHUNK = 8                # campaigns per batched prior fit
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
    refit_window: int = 2           # periods of logs per transform refit
    min_fit_samples: int = 30
    prior_fit_samples: int = 4096
    smart_layers: int = 10

    def __post_init__(self):
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
    ptr_exp: np.ndarray
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


def _substream(*keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(keys))))


def run_seed(scenario_seed: int, algorithm: str, round_index: int = 0) -> int:
    """Stable per-(algorithm, round) seed derivation from a scenario seed."""
    ss = np.random.SeedSequence([scenario_seed, _TAG_RUN, _ALGO_TAGS[algorithm], round_index])
    return int(ss.generate_state(1, np.uint64)[0])


def init_campaign_states(specs, stream: ImpressionStream | PreparedStream,
                         params: PacingHyperParams) -> CampaignArrays:
    """Fresh state in ascending campaign-id order."""
    specs = sorted(specs, key=lambda s: s.id)
    ids = np.array([s.id for s in specs], dtype=np.int64)
    if np.unique(ids).size != ids.size:
        raise DomainError("campaign ids must be unique")
    T = max(1, stream.n_periods)
    M = ids.size
    budget = np.array([float(s.budget) for s in specs])
    audience = np.array([float(s.recall_prob) for s in specs]) * stream.total_requests
    ptr_exp = np.array([init_expected_ptr(b, a, params.p_ub) if a > 0 else 1.0
                        for b, a in zip(budget, audience)])
    return CampaignArrays(
        ids=ids,
        budget=budget,
        remaining=budget.copy(),
        rho=budget / T,
        audience=audience,
        ptr_exp=ptr_exp,
        ptr_base=np.array([init_base_ptr(p, params.wr_glb) for p in ptr_exp]),
        alpha_bar=np.array([init_dual_percentile(p, params.p_ub) for p in ptr_exp]),
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
        g = np.where(rho_bar > 0.0, g / np.where(rho_bar > 0.0, rho_bar, 1.0), 0.0)
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
    a_tilde = dual_step(a, g, params)
    spd = np.where(active, cost / np.where(active, camps.rho, 1.0), 1.0)

    a_new = a_tilde                 # dual_step already clamps to [0, 1]
    if params.clip_enabled:
        adaptive = params.adaptive_clip_enabled and period_scale
        bound = psi_speed_bound(a, camps.ptr_base, spd, params) if adaptive else None
        a_new = apply_dual_clip(a, a_tilde, g, params.alpha_hat, bound)
    camps.alpha_bar = np.where(active, a_new, a)
    if period_scale:
        camps.eptr = np.where(active, update_eptr(camps.eptr, spd, params.eptr_speed_cap),
                              camps.eptr)


# --- the prepared stream ---------------------------------------------------------

@dataclass
class _DensePeriod:
    n_requests: int
    req: np.ndarray
    camp: np.ndarray            # dense campaign index into the campaign arrays
    v: np.ndarray
    starts: np.ndarray          # first edge per request present in this period
    seg_idx: np.ndarray         # per-edge segment index


def _densify(stream: ImpressionStream, spec_ids: list[int],
             per_impression: bool = False) -> list[_DensePeriod]:
    """Each period's edges of the campaigns `spec_ids` (ascending), or with
    `per_impression` one period of views per request; DomainError unless a
    period's (request, campaign id) pairs strictly increase over its requests."""
    id_arr, M = np.asarray(spec_ids, dtype=np.int64), len(spec_ids)
    zeros = [np.zeros(k, dtype=np.int64) for k in range(M + 1)]  # a request has <= M edges
    out = []
    for t, p in enumerate(stream.periods):
        pos = np.minimum(np.searchsorted(id_arr, p.camp), M - 1)
        keep = id_arr[pos] == p.camp
        req, camp, v = p.req, pos, p.v
        if not keep.all():
            req, camp, v = req[keep], camp[keep], v[keep]
        new = np.concatenate(([True], req[1:] != req[:-1]))[:req.size]  # a request starts
        if req.size and (req[0] < 0 or req[-1] >= p.n_requests or np.any(
                (req[1:] < req[:-1]) | ~new[1:] & (camp[1:] <= camp[:-1]))):
            raise DomainError(f"period {t}: edges not sorted by (request, campaign id)")
        if not per_impression:
            seg_idx = np.cumsum(new)    # in place below: fewer int temporaries, lower peak RSS
            seg_idx -= 1
            out.append(_DensePeriod(p.n_requests, req, camp, v, np.flatnonzero(new), seg_idx))
            continue
        bounds = np.searchsorted(req, np.arange(p.n_requests + 1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k = hi - lo
            out.append(_DensePeriod(1, zeros[k], camp[lo:hi], v[lo:hi], zeros[min(k, 1)],
                                    zeros[k]))
    return out


@dataclass
class _WindowFits:
    """The fits of one period that depend on the stream alone."""

    lam: np.ndarray             # (M,) own-window fit; NaN where a campaign has none
    mu: np.ndarray
    sigma: np.ndarray
    pooled: np.ndarray | None   # (3, 1) pooled-window fit, when some campaign lacks its own


def _fit_segments(segments: list[np.ndarray]) -> np.ndarray:
    """(3, n) lambda, mu and sigma of each of n sample segments, fitted in one
    batch; NaN where a segment has fewer than 30 samples, a sample <= 0, all
    samples equal, or a transformed sigma that is 0 or not finite."""
    out = np.full((3, len(segments)), np.nan)
    keep = np.flatnonzero([s.size >= MIN_LAMBDA_SAMPLES and s.min() > 0.0 and s.max() > s.min()
                           for s in segments])
    if keep.size:
        segs = [segments[k] for k in keep]
        lams = fit_boxcox_lambdas(segs)
        mus, sigmas = fit_moments_batch(segs, lams)
        ok = np.isfinite(sigmas) & (sigmas > 0.0)
        out[:, keep[ok]] = lams[ok], mus[ok], sigmas[ok]
    return out


def _pooled_window(v: np.ndarray, off: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The qualities of periods lo..hi-1 of the campaign-major layout
    (`PreparedStream.campaign_major`) in period-major order, each period's
    in campaign order: the pooled window's order, which sets its lambda bits."""
    starts, sizes = off[:, lo:hi].T.ravel(), np.diff(off[:, lo:hi + 1]).T.ravel()
    return v[np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())]


def _fit_window(v: np.ndarray, off: np.ndarray, lo: int, hi: int,
                min_fit_samples: int) -> _WindowFits:
    """Each campaign's own fit over periods lo..hi-1 of the campaign-major
    layout where it has at least max(`min_fit_samples`, 30) qualities, all in
    one batch; the pooled window is fitted only when some campaign has none."""
    sizes = off[:, hi] - off[:, lo]
    cand = np.flatnonzero(sizes >= max(min_fit_samples, MIN_LAMBDA_SAMPLES))
    own = np.full((3, sizes.size), np.nan)
    own[:, cand] = _fit_segments([v[off[j, lo]:off[j, hi]] for j in cand])
    pooled = None
    if np.isnan(own[2]).any():
        pooled = _fit_segments([_pooled_window(v, off, lo, hi)])
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
    wins.  The memo keeps only their lambda, mu and sigma; the fit windows
    are slices of one campaign-major copy of the qualities.  Epsilon and the
    seed-dependent prior fallback are applied per run.
    """

    campaign_ids: list[int]         # ascending
    per_impression: bool
    periods: list[_DensePeriod]
    stream_id: str                  # `ImpressionStream.fingerprint()`
    total_requests: int
    total_edges: int                # the benchmark's edges_per_s reads it off a runner's stream
    avg_requests_per_period: float
    _fits: dict = field(default_factory=dict, repr=False)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def fit_memo(self, refit_window: int, min_fit_samples: int) -> list[_WindowFits | None]:
        """Period t's fits over periods t - refit_window .. t - 1 for one fit
        setting, None until `window_fits` makes them; all windows of fewer than
        max(`min_fit_samples`, 30) qualities share one no-fit entry."""
        key = (refit_window, min_fit_samples)
        if key not in self._fits:
            ends = np.cumsum([0] + [p.v.size for p in self.periods])
            lo = np.maximum(0, np.arange(self.n_periods) - refit_window)
            small = ends[:-1] - ends[lo] < max(min_fit_samples, MIN_LAMBDA_SAMPLES)
            no_fit = _WindowFits(*np.full((3, len(self.campaign_ids)), np.nan), None)
            self._fits[key] = [no_fit if s else None for s in small.tolist()]
        return self._fits[key]

    def window_fits(self, t: int, refit_window: int, min_fit_samples: int) -> _WindowFits:
        """Period t's entry of `fit_memo`, computed on first use."""
        memo = self.fit_memo(refit_window, min_fit_samples)
        if memo[t] is None:
            memo[t] = _fit_window(*self.campaign_major, max(0, t - refit_window), t,
                                  min_fit_samples)
        return memo[t]

    @functools.cached_property
    def campaign_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Every quality in campaign-major order (by campaign, then period,
        then edge) and (M, T + 1) offsets `off`: campaign j's qualities of
        periods lo..hi-1 are `v[off[j, lo]:off[j, hi]]`.  Built period by
        period when a fit first needs them."""
        M, T = len(self.campaign_ids), self.n_periods
        off = np.zeros((M, T + 1), dtype=np.int64)
        for t, p in enumerate(self.periods):
            off[:, t + 1] = np.bincount(p.camp, minlength=M)
        off = off.cumsum().reshape(M, T + 1)    # off[j, 0]: all of campaigns < j
        v = np.empty(off[-1, -1])
        for t, p in enumerate(self.periods):
            n = off[:, t + 1] - off[:, t]
            dest = np.repeat(off[:, t] - np.cumsum(n) + n, n) + np.arange(p.v.size)
            v[dest] = p.v[np.argsort(p.camp, kind="stable")]
        return v, off


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
    return PreparedStream(ids, per_impression, periods, stream.fingerprint(), total,
                          stream.total_edges, total / max(1, len(periods)))


# --- the period loop -----------------------------------------------------------

def _resolve_winners(dp: _DensePeriod, score: np.ndarray, elig: np.ndarray,
                     remaining: np.ndarray) -> np.ndarray:
    """Edge indices of period winners under sequential budget semantics.

    Winners are recomputed with a campaign cut at the request where it runs
    out whenever the optimistic pass over-allocates someone; only the
    earliest violation is applied per iteration so the prefix before it is
    already sequentially correct.  In a one-request period whose winner can
    pay, that is the first pass's pick: the first eligible edge of top score.
    """
    if dp.req.size == 0:
        return np.empty(0, dtype=np.int64)
    if dp.n_requests == 1:
        s = np.where(elig, score, -np.inf)
        first = np.flatnonzero(elig & (s == s.max()))[:1]
        if first.size == 0 or remaining[dp.camp[first[0]]] >= 1:
            return first
    cut = np.full(remaining.size, dp.n_requests, dtype=np.int64)
    while True:
        ok = elig & (dp.req < cut[dp.camp])
        s = np.where(ok, score, -np.inf)
        seg_max = np.maximum.reduceat(s, dp.starts)
        cand = ok & (s == seg_max[dp.seg_idx])
        cand_edges = np.flatnonzero(cand)
        _, first = np.unique(dp.req[cand_edges], return_index=True)
        winner_edges = cand_edges[first]
        counts = np.bincount(dp.camp[winner_edges], minlength=remaining.size)
        over = np.flatnonzero(counts > remaining)
        if over.size == 0:
            return winner_edges
        best_j = -1
        best_pos = None
        wcamp = dp.camp[winner_edges]
        wreq = dp.req[winner_edges]
        for j in over:
            pos = wreq[wcamp == j][int(remaining[j])]   # first unaffordable win
            if best_pos is None or pos < best_pos:
                best_pos, best_j = pos, j
        cut[best_j] = best_pos


def _boxcox_edges(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Box-Cox with a per-edge lambda."""
    log_branch = np.abs(lam) < 1e-9
    safe_lam = np.where(log_branch, 1.0, lam)
    return np.where(log_branch, np.log(v), (np.power(v, safe_lam) - 1.0) / safe_lam)


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
    `refit_window` periods when there are at least `min_fit_samples` of them,
    else the pooled logs of all campaigns over the same window, else a fit
    sampled once from the campaign's generating quality model.  Degenerate
    samples fall through the same chain; the last resort is a fixed neutral
    fit (lambda=1 around a uniform quality prior).  The own and pooled fits
    come from the prepared stream's memo; the prior fits depend on the run
    seed and are made here, and epsilon widens every fit's scale here.  A
    period whose memo entry is the one applied last keeps the fits in place.
    """

    def __init__(self, specs, config: RunConfig, stream: PreparedStream):
        self.specs, self.config, self.stream = specs, config, stream
        self.eps = config.params.epsilon
        self.memo = stream.fit_memo(config.refit_window, config.min_fit_samples)
        self.applied = None         # the period fits now in the campaign arrays

    @functools.cached_property
    def priors(self) -> np.ndarray:
        """(3, M) prior lambda, mu and sigma: campaign i fits
        `prior_fit_samples` draws from its quality model on its own substream
        (seed, prior tag, i), batched `_PRIOR_CHUNK` campaigns at a time; the
        neutral fit where a campaign has no model or its samples no fit."""
        seed, n = self.config.seed, self.config.prior_fit_samples
        models = [getattr(s, "quality_model", None) for s in self.specs]
        out = np.empty((3, len(models)))
        for lo in range(0, len(models), _PRIOR_CHUNK):
            out[:, lo:lo + _PRIOR_CHUNK] = _fit_segments([
                np.empty(0) if m is None else _substream(seed, _TAG_PRIOR, i).beta(m.m, m.n, size=n)
                for i, m in enumerate(models[lo:lo + _PRIOR_CHUNK], lo)])
        return np.where(np.isnan(out[2]), _NEUTRAL_FIT, out)

    def assign_fits(self, camps: CampaignArrays, t: int) -> None:
        fits = self.memo[t] or self.stream.window_fits(t, self.config.refit_window,
                                                       self.config.min_fit_samples)
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
        self.rng = _substream(config.seed, _TAG_RUN, _ALGO_TAGS["rcpacing"])

    def score(self, t: int, dp: _DensePeriod):
        camps, params = self.camps, self.config.params
        self.fits.assign_fits(camps, t)
        camps.alpha = backward_transform_clipped(camps.lam, camps.mu, camps.scale,
                                                 camps.alpha_bar)
        c = dp.camp
        v_bar = normal_cdf((_boxcox_edges(camps.lam[c], dp.v) - camps.mu[c]) / camps.scale[c])
        raw = camps.ptr_base[c] * fp(camps.alpha_bar, params.p_ub)[c] \
            * fv(camps.alpha_bar[c], v_bar, params.slope_k)
        ptr = np.minimum(1.0, raw) * camps.eptr[c]
        passed = self.rng.random(dp.v.size) < ptr
        bid = dp.v - camps.alpha[c]
        return bid, passed & (bid > 0.0)

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

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, stream: PreparedStream):
        self.camps = camps
        camps.eptr[:] = 1.0
        aud = camps.audience
        init = np.where(aud > 0, np.minimum(
            1.0, camps.budget / np.where(aud > 0, aud * config.params.wr_glb, 1.0)), 1.0)
        self.layer_ptr = np.repeat(init[:, None], config.smart_layers, axis=1)
        self.rng = _substream(config.seed, _TAG_RUN, _ALGO_TAGS["smart"])

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
