"""Delivery loop for the three allocation policies.

`run_dmd` paces with plain dual mirror descent in quality space, `run_rcpacing`
with percentile-space duals plus probabilistic throttling, and
`run_smart_baseline` with layered quality throttling and no duals.  All three
run the same period loop, `_drive`, over one struct-of-arrays campaign state;
a policy supplies only its per-edge score and throttle step and its
end-of-period update.

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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .pacing import (PacingHyperParams, apply_dual_clip, dual_step, fp, fv, init_base_ptr,
                     init_dual_percentile, init_expected_ptr, psi_speed_bound, update_eptr)
from .quality import (MIN_LAMBDA_SAMPLES, BoxCoxFit, DegenerateSampleError, DomainError,
                      backward_transform_clipped, fit_boxcox, fit_boxcox_lambdas,
                      fit_moments, normal_cdf)
from .streams import ImpressionStream

_TAG_RUN = 2
_TAG_PRIOR = 4
_ALGO_TAGS = {"dmd": 0, "rcpacing": 1, "smart": 2}

_NEUTRAL_SIGMA = 1.0 / math.sqrt(12.0)  # std of a uniform quality prior under lambda=1


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
    log_transforms: bool = False    # capture per-period forward-transform values

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
    transforms: list[np.ndarray] | None = None

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


def init_campaign_states(specs, stream: ImpressionStream,
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


# --- the period loop -----------------------------------------------------------

@dataclass
class _DensePeriod:
    n_requests: int
    req: np.ndarray
    camp: np.ndarray            # dense campaign index into the campaign arrays
    v: np.ndarray
    starts: np.ndarray          # first edge per request present in this period
    seg_idx: np.ndarray         # per-edge segment index


def _densify(stream: ImpressionStream, spec_ids: list[int]) -> list[_DensePeriod]:
    id_arr = np.asarray(spec_ids, dtype=np.int64)
    out = []
    for p in stream.periods:
        pos = np.searchsorted(id_arr, p.camp)
        pos = np.clip(pos, 0, id_arr.size - 1)
        keep = id_arr[pos] == p.camp
        req = p.req[keep]
        camp = pos[keep].astype(np.int64)
        v = p.v[keep]
        present, starts = np.unique(req, return_index=True)
        seg_idx = np.searchsorted(present, req)
        out.append(_DensePeriod(p.n_requests, req, camp, v, starts, seg_idx))
    return out


def _resolve_winners(dp: _DensePeriod, score: np.ndarray, elig: np.ndarray,
                     remaining: np.ndarray) -> np.ndarray:
    """Edge indices of period winners under sequential budget semantics.

    Winners are recomputed with a campaign cut at the request where it runs
    out whenever the optimistic pass over-allocates someone; only the
    earliest violation is applied per iteration so the prefix before it is
    already sequentially correct.
    """
    n_camp = remaining.size
    cut = np.full(n_camp, dp.n_requests, dtype=np.int64)
    if dp.req.size == 0:
        return np.empty(0, dtype=np.int64)
    while True:
        ok = elig & (dp.req < cut[dp.camp])
        s = np.where(ok, score, -np.inf)
        seg_max = np.maximum.reduceat(s, dp.starts)
        cand = ok & (s == seg_max[dp.seg_idx])
        cand_edges = np.flatnonzero(cand)
        _, first = np.unique(dp.req[cand_edges], return_index=True)
        winner_edges = cand_edges[first]
        counts = np.bincount(dp.camp[winner_edges], minlength=n_camp)
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


def _drive(stream: ImpressionStream, specs, config: RunConfig, policy) -> DeliveryTrace:
    """The period loop of every policy.

    Per period: `policy.score(dp)` gives each recalled edge its auction score
    and its throttle outcome (True where the policy does not throttle),
    non-exhausted passers compete in the budget-feasible auction, wins are
    charged and recorded, and `policy.update(dp, cost)` moves the policy's
    controls from the period's spend.  The trace records the campaign-array
    field named by `policy.dual` as each period's dual.
    """
    if config.per_impression:
        stream = stream.per_impression()
    camps = init_campaign_states(specs, stream, config.params)
    periods = _densify(stream, camps.ids.tolist())
    M, T = camps.ids.size, len(periods)
    pol = policy(camps, sorted(specs, key=lambda s: s.id), config,
                 stream.avg_requests_per_period)
    wins = np.zeros((M, T), dtype=np.int64)
    quality_sum = np.zeros((M, T))
    duals = np.zeros((M, T))
    eptr = np.ones((M, T))

    for t, dp in enumerate(periods):
        score, passed = pol.score(dp)
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
                         camps.remaining, duals, eptr, stream.fingerprint(), config.seed,
                         pol.transforms)


class _Dmd:
    """Highest premium v - alpha among live recalled campaigns wins; no
    throttle and no positivity requirement."""

    name = "dmd"
    dual = "alpha"
    transforms = None

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, avg_requests: float):
        self.camps, self.config, self.avg_requests = camps, config, avg_requests
        camps.eptr[:] = 1.0

    def score(self, dp: _DensePeriod):
        return dp.v - self.camps.alpha[dp.camp], True

    def update(self, dp: _DensePeriod, cost: np.ndarray) -> None:
        dmd_period_update(self.camps, cost, dp.n_requests, self.avg_requests,
                          self.config.params.eta, self.config.gradient_mode)


class _FitManager:
    """Rolling-window Box-Cox fits with prior fallback.

    Per refit, a campaign uses its own logged qualities from the last
    `refit_window` periods when there are at least `min_fit_samples` of them,
    else the pooled logs of all campaigns over the same window, else a fit
    sampled once from the campaign's generating quality model.  Degenerate
    samples fall through the same chain; the last resort is a fixed neutral
    fit (lambda=1 around a uniform quality prior).  The lambdas of all
    campaigns that fit their own window are searched in one batch.
    """

    def __init__(self, specs, config: RunConfig):
        self.specs = specs
        self.config = config
        self.eps = config.params.epsilon
        self.window: deque[list[np.ndarray]] = deque(maxlen=config.refit_window)
        self._prior: dict[int, BoxCoxFit] = {}
        self._neutral = BoxCoxFit(1.0, -0.5, _NEUTRAL_SIGMA, self.eps)

    def log_period(self, camp: np.ndarray, v: np.ndarray, M: int) -> None:
        order = np.argsort(camp, kind="stable")
        counts = np.bincount(camp, minlength=M)
        self.window.append(np.split(v[order], np.cumsum(counts)[:-1]))

    def _prior_fit(self, i: int) -> BoxCoxFit:
        if i not in self._prior:
            model = getattr(self.specs[i], "quality_model", None)
            if model is None:
                self._prior[i] = self._neutral
            else:
                rng = _substream(self.config.seed, _TAG_PRIOR, i)
                samples = rng.beta(model.m, model.n, size=self.config.prior_fit_samples)
                self._prior[i] = self._try_fit(samples) or self._neutral
        return self._prior[i]

    def _try_fit(self, samples: np.ndarray) -> BoxCoxFit | None:
        try:
            return fit_boxcox(samples, self.eps)
        except (DegenerateSampleError, DomainError):
            return None

    def _own_fits(self, sizes: np.ndarray) -> list[BoxCoxFit | None]:
        """Each campaign's fit of its own window, None where the window is
        too small, holds a sample <= 0, is constant, or has degenerate
        transformed moments."""
        fits: list[BoxCoxFit | None] = [None] * sizes.size
        cand = np.flatnonzero(sizes >= max(self.config.min_fit_samples, MIN_LAMBDA_SAMPLES))
        if cand.size == 0:
            return fits
        own = np.concatenate([period[i] for i in cand for period in self.window])
        ends = np.cumsum(sizes[cand])
        starts = ends - sizes[cand]
        lo = np.minimum.reduceat(own, starts)
        keep = np.flatnonzero((lo > 0.0) & (np.maximum.reduceat(own, starts) > lo))
        segs = [own[starts[k]:ends[k]] for k in keep]
        for k, seg, lam in zip(keep, segs, fit_boxcox_lambdas(segs).tolist()):
            try:
                mu, sigma = fit_moments(seg, lam)
            except DegenerateSampleError:
                continue
            fits[cand[k]] = BoxCoxFit(lam, mu, sigma, self.eps)
        return fits

    def assign_fits(self, camps: CampaignArrays) -> None:
        sizes = np.zeros(camps.ids.size, dtype=np.int64)
        for period in self.window:
            sizes += [p.size for p in period]
        pooled_fit = functools.cache(        # fit on first need
            lambda: self._try_fit(np.concatenate([np.concatenate(p) for p in self.window])))
        pooled = sizes.sum() >= self.config.min_fit_samples
        for i, fit in enumerate(self._own_fits(sizes)):
            if fit is None and pooled:
                fit = pooled_fit()
            fit = fit or self._prior_fit(i)
            camps.lam[i], camps.mu[i], camps.scale[i] = fit.lambda_star, fit.mu, fit.scale


class _RCPacing:
    """Throttled premium auction: an edge enters only after passing its
    throttle draw, and bids its strictly positive premium v - alpha."""

    name = "rcpacing"
    dual = "alpha_bar"

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, avg_requests: float):
        self.camps, self.config, self.avg_requests = camps, config, avg_requests
        self.fits = _FitManager(specs, config)
        self.rng = _substream(config.seed, _TAG_RUN, _ALGO_TAGS["rcpacing"])
        self.transforms = [] if config.log_transforms else None

    def score(self, dp: _DensePeriod):
        camps, params = self.camps, self.config.params
        self.fits.assign_fits(camps)
        camps.alpha = backward_transform_clipped(camps.lam, camps.mu, camps.scale,
                                                 camps.alpha_bar)
        c = dp.camp
        v_bar = normal_cdf((_boxcox_edges(camps.lam[c], dp.v) - camps.mu[c]) / camps.scale[c])
        raw = camps.ptr_base[c] * fp(camps.alpha_bar, params.p_ub)[c] \
            * fv(camps.alpha_bar[c], v_bar, params.slope_k)
        ptr = np.minimum(1.0, raw) * camps.eptr[c]
        passed = self.rng.random(dp.v.size) < ptr
        if self.transforms is not None:
            self.transforms.append(v_bar)
        bid = dp.v - camps.alpha[c]
        return bid, passed & (bid > 0.0)

    def update(self, dp: _DensePeriod, cost: np.ndarray) -> None:
        self.fits.log_period(dp.camp, dp.v, self.camps.ids.size)
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
    transforms = None
    PTR_FLOOR = 0.01

    def __init__(self, camps: CampaignArrays, specs, config: RunConfig, avg_requests: float):
        self.camps = camps
        camps.eptr[:] = 1.0
        aud = camps.audience
        init = np.where(aud > 0, np.minimum(
            1.0, camps.budget / np.where(aud > 0, aud * config.params.wr_glb, 1.0)), 1.0)
        self.layer_ptr = np.repeat(init[:, None], config.smart_layers, axis=1)
        self.rng = _substream(config.seed, _TAG_RUN, _ALGO_TAGS["smart"])

    def score(self, dp: _DensePeriod):
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


def run_dmd(stream: ImpressionStream, specs, config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _Dmd)


def run_rcpacing(stream: ImpressionStream, specs, config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _RCPacing)


def run_smart_baseline(stream: ImpressionStream, specs, config: RunConfig) -> DeliveryTrace:
    return _drive(stream, specs, config, _Smart)


RUNNERS = {
    "dmd": run_dmd,
    "rcpacing": run_rcpacing,
    "smart": run_smart_baseline,
}
