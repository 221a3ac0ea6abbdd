"""Sequential scalar reference implementations of the three delivery policies
and of the Box-Cox lambda fit, and the request-by-request stream views
they replay.

The engine runs each policy vectorized over a whole period.  The functions
here decide one request at a time and update one campaign at a time, over
the same `CampaignArrays` state, so a replay with them pins the engine's
sequential budget semantics, its draw-consumption order and its array
period updates.  `fit_boxcox_lambda` is the scalar twin of the batched
Newton solve of `gdpacer.quality.fit_boxcox_lambdas`: the same steps on one
sample, with `np.sum` reductions and Python-float bookkeeping, which the
batch matches bit for bit and the replays fit with.  `golden_lambda`, a
golden-section search to a bracket of width tol, is its accuracy
reference, and `fit_moments` is the scalar reference of
`fit_moments_batch`.  `fit_windows` gathers fit windows period by period,
against which the engine's campaign-major layout is checked.  `psi_inverse`
is the sequential bisection that `gdpacer.pacing.psi_inverse` computes as a
verified predicted path, and the replayed adaptive clip runs on it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from gdpacer.engine import (_ALGO_TAGS, _NEUTRAL_SIGMA, _TAG_PRIOR, _TAG_RUN, CampaignArrays,
                            RunConfig, _substream, init_campaign_states)
from gdpacer.pacing import (BISECTION_STEPS, SPEED_FLOOR, PacingHyperParams,
                            apply_dual_clip, dual_step, fp, fv, psi, update_eptr)
from gdpacer.quality import (BoxCoxFit, DegenerateSampleError, DomainError,
                             backward_transform_clipped, boxcox, normal_cdf)
from gdpacer.streams import ImpressionRequest, ImpressionStream, PeriodBatch

SMART_PTR_FLOOR = 0.01


def iter_requests(stream: ImpressionStream):
    """The stream's requests in order, each with its period index and the
    qualities of the campaigns it recalls."""
    for t, p in enumerate(stream.periods):
        starts = np.searchsorted(p.req, np.arange(p.n_requests))
        ends = np.searchsorted(p.req, np.arange(p.n_requests), side="right")
        for r in range(p.n_requests):
            lo, hi = starts[r], ends[r]
            qualities = {int(c): float(q) for c, q in zip(p.camp[lo:hi], p.v[lo:hi])}
            yield ImpressionRequest(int(p.request_ids[r]), t, qualities)


def campaign_ids(stream: ImpressionStream) -> list[int]:
    """The ids of the campaigns the stream recalls, ascending."""
    return sorted(set(np.concatenate([p.camp for p in stream.periods]).tolist()))


def per_impression(stream: ImpressionStream) -> ImpressionStream:
    """Re-chunk the stream so every request forms its own period."""
    periods = []
    for p in stream.periods:
        for r in range(p.n_requests):
            lo = np.searchsorted(p.req, r)
            hi = np.searchsorted(p.req, r, side="right")
            periods.append(PeriodBatch(
                request_ids=p.request_ids[r:r + 1],
                req=np.zeros(hi - lo, dtype=np.int64),
                camp=p.camp[lo:hi].copy(),
                v=p.v[lo:hi].copy(),
            ))
    return ImpressionStream(periods=periods)


def campaigns(n: int = 1, **fields) -> CampaignArrays:
    """Hand-made state for n campaigns with ids 0..n-1; each field is a
    scalar broadcast to all campaigns or a per-campaign sequence."""
    base = dict(budget=100.0, rho=10.0, audience=1000.0, ptr_exp=1.0, ptr_base=1.0,
                alpha_bar=0.9, alpha=0.0, eptr=1.0, exhausted=False,
                lam=np.nan, mu=np.nan, scale=np.nan)
    base.update(fields)
    base.setdefault("remaining", base["budget"])
    arrays = {k: np.array(np.broadcast_to(v, n), dtype=bool if k == "exhausted" else float)
              for k, v in base.items()}
    return CampaignArrays(ids=np.arange(n, dtype=np.int64), **arrays)


@dataclass(frozen=True)
class Decision:
    request_id: int
    winner: int | None              # campaign id
    bid: float | None               # winning score
    throttled: frozenset[int]       # campaigns that failed their throttle draw


def _live(camps: CampaignArrays, i: int) -> bool:
    return not camps.exhausted[i] and camps.remaining[i] >= 1.0


def _award(request, camps: CampaignArrays, best, best_bid, throttled=()) -> Decision:
    if best is None:
        return Decision(request.request_id, None, None, frozenset(throttled))
    camps.remaining[best] -= 1.0
    if camps.remaining[best] < 1.0:
        camps.exhausted[best] = True
    return Decision(request.request_id, int(camps.ids[best]), float(best_bid),
                    frozenset(throttled))


def _recalled(request, camps: CampaignArrays):
    """(index, quality) of the campaigns the request recalls, ascending id."""
    for i, cid in enumerate(camps.ids):
        v = request.qualities.get(int(cid))
        if v is not None:
            yield i, v


def compute_ptr(camps: CampaignArrays, i: int, params: PacingHyperParams,
                v_bar: float) -> float:
    """Pass-through rate for one request: min{1, base * fp * fv} * ePTR."""
    a = camps.alpha_bar[i]
    raw = camps.ptr_base[i] * fp(a, params.p_ub) * fv(a, v_bar, params.slope_k)
    return float(min(1.0, raw) * camps.eptr[i])


def dmd_decide(request, camps: CampaignArrays) -> Decision:
    """Highest premium v - alpha among non-exhausted recalled campaigns wins;
    no positivity requirement; ties break to the lowest campaign id."""
    best, best_bid = None, -np.inf
    for i, v in _recalled(request, camps):
        if not _live(camps, i):
            continue
        bid = v - camps.alpha[i]
        if bid > best_bid:
            best, best_bid = i, bid
    return _award(request, camps, best, best_bid)


def rcp_decide(request, camps: CampaignArrays, params: PacingHyperParams,
               rng: np.random.Generator) -> Decision:
    """Throttled premium auction.

    One uniform draw is consumed per recalled campaign in ascending-id order,
    whether or not the campaign is exhausted.  Winner is the highest strictly
    positive premium among campaigns that passed their draw; ties break to
    the lowest id.
    """
    throttled = set()
    best, best_bid = None, -np.inf
    for i, v in _recalled(request, camps):
        u = float(rng.random())
        if not _live(camps, i):
            continue
        v_bar = normal_cdf((boxcox(camps.lam[i], v) - camps.mu[i]) / camps.scale[i])
        if u >= compute_ptr(camps, i, params, v_bar):
            throttled.add(int(camps.ids[i]))
            continue
        bid = v - camps.alpha[i]
        if bid > 0.0 and bid > best_bid:
            best, best_bid = i, bid
    return _award(request, camps, best, best_bid, throttled)


def smart_decide(request, camps: CampaignArrays, layer_ptr: np.ndarray,
                 rng: np.random.Generator) -> Decision:
    """Layer throttle, then the highest raw quality among passers wins.

    One draw per recalled campaign, as in `rcp_decide`; a campaign passes
    with the pass rate of the equal-width quality layer its quality falls in.
    """
    L = layer_ptr.shape[1]
    throttled = set()
    best, best_bid = None, -np.inf
    for i, v in _recalled(request, camps):
        u = float(rng.random())
        if not _live(camps, i):
            continue
        if u >= layer_ptr[i, min(int(v * L), L - 1)]:
            throttled.add(int(camps.ids[i]))
            continue
        if v > best_bid:
            best, best_bid = i, v
    return _award(request, camps, best, best_bid, throttled)


# --- Box-Cox lambda search ---------------------------------------------------------

def _profile_loglik(lmbda: float, v: np.ndarray, log_sum: float) -> float:
    t = boxcox(lmbda, v)
    var = float(np.var(t))
    if not np.isfinite(var) or var <= 0.0:
        return -np.inf
    return -0.5 * v.size * math.log(var) + (lmbda - 1.0) * log_sum


def profile_loglik(samples, lmbda: float) -> float:
    """The profile log-likelihood that both lambda searches maximize."""
    v = np.asarray(samples, dtype=float)
    return _profile_loglik(lmbda, v, float(np.sum(np.log(v))))


def _check_lambda_samples(v: np.ndarray) -> None:
    if v.size < 30:
        raise DegenerateSampleError(f"need at least 30 samples to fit lambda, got {v.size}")
    if np.any(v <= 0.0):
        raise DomainError("Box-Cox samples must be strictly positive")
    if np.all(v == v[0]):
        raise DegenerateSampleError("all samples identical; lambda is unidentifiable")


def golden_lambda(samples, low: float = -2.0, high: float = 2.0,
                  tol: float = 1e-4) -> float:
    """Golden-section search for the profile-likelihood lambda of one sample:
    within tol/2 of the optimum of a unimodal likelihood."""
    v = np.asarray(samples, dtype=float)
    _check_lambda_samples(v)
    log_sum = float(np.sum(np.log(v)))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(low), float(high)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _profile_loglik(c, v, log_sum)
    fd = _profile_loglik(d, v, log_sum)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _profile_loglik(c, v, log_sum)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _profile_loglik(d, v, log_sum)
    return 0.5 * (a + b)


def fit_boxcox_lambda(samples, low: float = -2.0, high: float = 2.0,
                      tol: float = 1e-4, points: list[tuple] | None = None) -> float:
    """The safeguarded Newton solve of `gdpacer.quality.fit_boxcox_lambdas`
    on one sample, with `np.sum` reductions and Python-float bookkeeping;
    `points`, when given, receives (lambda, score, slope) at each point the
    solve evaluates."""
    v = np.asarray(samples, dtype=float)
    _check_lambda_samples(v)
    n = float(v.size)
    z = np.log(v)
    z = z - float(np.sum(z)) / n
    zz = z * z
    zbar, z2 = float(np.sum(z)) / n, float(np.sum(zz)) / n
    z3, z4 = float(np.sum(zz * z)) / n, float(np.sum(zz * zz)) / n
    spread_z = math.sqrt(z2 - zbar * zbar)
    var, cov = z2 - zbar * zbar, 0.5 * (z3 - zbar * z2)
    score0 = zbar - cov / var
    slope0 = 2.0 * cov * cov / (var * var) - (0.25 * (z4 - z2 * z2) + (z4 - zbar * z3) / 3.0) / var
    lam, a, b = 0.0, float(low), float(high)
    prev_lam = prev_slope = math.nan
    for _ in range(100):
        if abs(lam) < 1e-3:
            score, slope = score0 + slope0 * lam, slope0
        else:
            with np.errstate(all="ignore"):
                d = np.exp(z * lam) - 1.0
                dz = d * z
                m1, a1 = float(np.sum(d)) / n, float(np.sum(dz)) / n
                m2, a2 = float(np.sum(d * d)) / n, float(np.sum(d * dz)) / n
                b1, b2 = float(np.sum(dz * z)) / n, float(np.sum(dz * dz)) / n
            za = zbar + a1
            k = m2 - m1 * m1
            r = _div(2.0 * (a1 + a2 - m1 * za), k)
            k2 = 2.0 * (z2 - za * za - m1 * (z2 + b1)) + 6.0 * b1 + 4.0 * b2
            score = 1.0 / lam - 0.5 * r + zbar
            slope = 0.5 * (r * r - _div(k2, k)) - 1.0 / (lam * lam)
        if points is not None:
            points.append((lam, score, slope))
        finite = math.isfinite(score)
        if score > 0.0 if finite else lam < 0.0:
            a = lam
        if score < 0.0 if finite else lam > 0.0:
            b = lam
        raw = lam - _div(score, slope)
        nxt = min(max(raw, low + 0.5 * tol), high - 0.5 * tol)
        step = nxt - lam
        newton = slope < 0.0 and a < nxt < b
        m = _div(abs(slope - prev_slope), 2.0 * abs(slope) * abs(lam - prev_lam))
        m = spread_z if math.isnan(m) or m < spread_z else m
        if newton and nxt == raw and m * step * step <= 0.25 * tol:
            return nxt
        if b - a <= tol:
            return 0.5 * (a + b)
        prev_lam, prev_slope = lam, slope
        lam = nxt if newton else 0.5 * (a + b)
    return 0.5 * (a + b)


def _div(x: float, y: float) -> float:
    """x / y, with numpy's IEEE result where y is 0."""
    if y != 0.0:
        return x / y
    with np.errstate(all="ignore"):
        return float(np.float64(x) / np.float64(y))


def fit_moments(samples, lmbda: float) -> tuple[float, float]:
    """Mean and population std of the Box-Cox-transformed samples."""
    v = np.asarray(samples, dtype=float)
    if v.size == 0:
        raise DegenerateSampleError("cannot fit moments of an empty sample")
    t = boxcox(lmbda, v)
    mu = float(np.mean(t))
    sigma = float(np.std(t))  # population (N) divisor
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise DegenerateSampleError("transformed samples have zero variance")
    return mu, sigma


def fit_windows(periods, lo: int, hi: int, M: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The own window of each of M campaigns and the pooled window over
    densified periods lo..hi-1, gathered period by period: each period's
    qualities in stable campaign order, sliced per campaign by its counts."""
    window = periods[lo:hi]
    by_camp = [p.v[np.argsort(p.camp, kind="stable")] for p in window]
    counts = [np.bincount(p.camp, minlength=M) for p in window]
    bounds = [np.cumsum(c) - c for c in counts]
    own = [np.concatenate([np.empty(0)] + [v[b[j]:b[j] + c[j]]
                                           for v, b, c in zip(by_camp, bounds, counts)])
           for j in range(M)]
    return own, np.concatenate([np.empty(0)] + by_camp)


def _scalar_fit(samples: np.ndarray, eps: float) -> BoxCoxFit | None:
    try:
        lam = fit_boxcox_lambda(samples)
        mu, sigma = fit_moments(samples, lam)
        return BoxCoxFit(lam, mu, sigma, eps)
    except (DegenerateSampleError, DomainError):
        return None


def log_period(window, camp: np.ndarray, v: np.ndarray, M: int) -> None:
    """Append one period's qualities to `window`, split by campaign index."""
    order = np.argsort(camp, kind="stable")
    window.append(np.split(v[order], np.cumsum(np.bincount(camp, minlength=M))[:-1]))


def assign_fits(window, specs, config: RunConfig, camps: CampaignArrays) -> None:
    """The fit chain of `_FitManager.assign_fits` one campaign at a time, with
    the scalar search, over `window`, a list of periods each holding one
    quality array per campaign: the campaign's own window when it holds
    `min_fit_samples` samples, else the pooled window, else a fit of samples
    drawn from the campaign's quality model, else the neutral fit."""
    eps = config.params.epsilon
    M = camps.ids.size
    window = list(window) or [[np.empty(0)] * M]
    pooled = np.concatenate([np.concatenate(p) for p in window])
    for i in range(M):
        own = np.concatenate([period[i] for period in window])
        fit = _scalar_fit(own, eps) if own.size >= config.min_fit_samples else None
        if fit is None and pooled.size >= config.min_fit_samples:
            fit = _scalar_fit(pooled, eps)
        model = specs[i].quality_model
        if fit is None and model is not None:
            rng = _substream(config.seed, _TAG_PRIOR, i)
            fit = _scalar_fit(rng.beta(model.m, model.n, size=config.prior_fit_samples), eps)
        fit = fit or BoxCoxFit(1.0, -0.5, _NEUTRAL_SIGMA, eps)
        camps.lam[i], camps.mu[i], camps.scale[i] = fit.lambda_star, fit.mu, fit.scale


# --- the psi inverse ------------------------------------------------------------

def psi_inverse(target, ptr_base, params: PacingHyperParams):
    """BISECTION_STEPS sequential bisection steps on [0, 1] for psi(a) = target,
    returning the final bracket's center; targets at or above psi(0) map to
    0 and targets at or below 0 map to 1."""
    t = np.asarray(target, dtype=float)
    base = np.asarray(ptr_base, dtype=float)
    t_b, base_b = np.broadcast_arrays(t, base)
    t_b = t_b.astype(float)
    lo = np.zeros(t_b.shape)
    hi = np.ones(t_b.shape)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        go_right = psi(mid, base_b, params) > t_b
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    top = psi(np.zeros(t_b.shape), base_b, params)
    out = np.where(t_b >= top, 0.0, np.where(t_b <= 0.0, 1.0, out))
    return out if out.ndim else float(out)


def psi_speed_bound(alpha_bar, ptr_base, spd, params: PacingHyperParams):
    """`gdpacer.pacing.psi_speed_bound` over the sequential bisection."""
    s = np.maximum(np.asarray(spd, dtype=float), SPEED_FLOOR)
    return psi_inverse(psi(alpha_bar, ptr_base, params) / s, ptr_base, params)


# --- per-campaign period updates ----------------------------------------------

def _deficit(camps, i, cost, n_requests, avg_requests, gradient_mode) -> float:
    rho_bar = camps.rho[i] / avg_requests
    g = rho_bar - cost[i] / max(1, n_requests)
    return g / rho_bar if gradient_mode == "relative" else g


def dmd_update(camps: CampaignArrays, cost, n_requests: int, avg_requests: float,
               eta: float, gradient_mode: str = "relative") -> None:
    for i in range(camps.ids.size):
        if camps.rho[i] > 0.0:
            g = _deficit(camps, i, cost, n_requests, avg_requests, gradient_mode)
            camps.alpha[i] = max(0.0, camps.alpha[i] - eta * g)


def clip_dual(camps: CampaignArrays, i: int, alpha_tilde_next: float, g_tilde: float,
              spd: float, params: PacingHyperParams, period_scale: bool = True) -> float:
    """Static clip of the divergence step, tightened by the participation
    bound when adaptive clipping is enabled and periods hold many requests."""
    a = camps.alpha_bar[i]
    bound = None
    if params.adaptive_clip_enabled and period_scale:
        bound = psi_speed_bound(a, camps.ptr_base[i], spd, params)
    return float(apply_dual_clip(a, alpha_tilde_next, g_tilde, params.alpha_hat, bound))


def rcp_update(camps: CampaignArrays, cost, n_requests: int, avg_requests: float,
               params: PacingHyperParams, gradient_mode: str = "relative",
               period_scale: bool = True) -> None:
    for i in range(camps.ids.size):
        if camps.rho[i] <= 0.0:
            continue
        a = camps.alpha_bar[i]
        g = _deficit(camps, i, cost, n_requests, avg_requests, gradient_mode)
        spd = cost[i] / camps.rho[i]
        a_tilde = dual_step(a, g, params)
        if params.clip_enabled:
            camps.alpha_bar[i] = clip_dual(camps, i, a_tilde, g, spd, params, period_scale)
        else:
            camps.alpha_bar[i] = min(1.0, max(0.0, a_tilde))
        if period_scale:
            camps.eptr[i] = update_eptr(camps.eptr[i], spd, params.eptr_speed_cap)


def smart_init(camps: CampaignArrays, params: PacingHyperParams, layers: int) -> np.ndarray:
    layer_ptr = np.empty((camps.ids.size, layers))
    for i in range(camps.ids.size):
        aud = camps.audience[i]
        layer_ptr[i, :] = min(1.0, camps.budget[i] / (aud * params.wr_glb)) if aud > 0 else 1.0
    return layer_ptr


def smart_update(camps: CampaignArrays, layer_ptr: np.ndarray, cost) -> None:
    """Open the highest closed layer when underspending, shrink the lowest
    open layer when overspending; exhausted campaigns are left alone."""
    L = layer_ptr.shape[1]
    for i in range(camps.ids.size):
        if camps.rho[i] <= 0.0 or camps.exhausted[i]:
            continue
        spd = cost[i] / camps.rho[i]
        if spd < 1.0:
            boost = 2.0 if spd <= 0.0 else min(2.0, 1.0 / spd)
            for l in range(L - 1, -1, -1):
                if layer_ptr[i, l] < 1.0:
                    layer_ptr[i, l] = min(1.0, layer_ptr[i, l] * boost)
                    break
        elif spd > 1.0:
            shrink = max(0.5, 1.0 / spd)
            for l in range(L):
                if layer_ptr[i, l] > SMART_PTR_FLOOR:
                    layer_ptr[i, l] = max(SMART_PTR_FLOOR, layer_ptr[i, l] * shrink)
                    break


# --- whole-run replay -----------------------------------------------------------

@dataclass
class Replay:
    wins: np.ndarray                # (M, T)
    quality_sum: np.ndarray         # (M, T)
    duals: np.ndarray               # (M, T) dual in effect during each period
    eptr: np.ndarray                # (M, T)
    remaining: np.ndarray           # (M,)


def replay(algorithm: str, stream, specs, config: RunConfig) -> Replay:
    """Run one policy request by request with the scalar functions above."""
    if config.per_impression:
        stream = per_impression(stream)
    params = config.params
    camps = init_campaign_states(specs, stream, params)
    M, T = camps.ids.size, stream.n_periods
    index = {int(c): i for i, c in enumerate(camps.ids)}
    avg = stream.avg_requests_per_period
    rng = _substream(config.seed, _TAG_RUN, _ALGO_TAGS[algorithm])
    out = Replay(np.zeros((M, T), dtype=np.int64), np.zeros((M, T)), np.zeros((M, T)),
                 np.ones((M, T)), camps.remaining)
    if algorithm == "rcpacing":
        window = deque(maxlen=config.refit_window)
        sorted_specs = sorted(specs, key=lambda s: s.id)
    else:
        camps.eptr[:] = 1.0
    if algorithm == "smart":
        layer_ptr = smart_init(camps, params, config.smart_layers)

    requests = [[] for _ in range(T)]
    for r in iter_requests(stream):
        requests[r.period].append(r)

    for t, p in enumerate(stream.periods):
        if algorithm == "rcpacing":
            assign_fits(window, sorted_specs, config, camps)
            for i in range(M):
                camps.alpha[i] = backward_transform_clipped(
                    camps.lam[i], camps.mu[i], camps.scale[i], camps.alpha_bar[i])
        out.duals[:, t] = camps.alpha_bar if algorithm == "rcpacing" else camps.alpha
        out.eptr[:, t] = camps.eptr
        for r in requests[t]:
            if algorithm == "dmd":
                d = dmd_decide(r, camps)
            elif algorithm == "rcpacing":
                d = rcp_decide(r, camps, params, rng)
            else:
                d = smart_decide(r, camps, layer_ptr, rng)
            if d.winner is not None:
                out.wins[index[d.winner], t] += 1
                out.quality_sum[index[d.winner], t] += r.qualities[d.winner]
        cost = out.wins[:, t].astype(float)
        if algorithm == "dmd":
            dmd_update(camps, cost, p.n_requests, avg, params.eta, config.gradient_mode)
        elif algorithm == "rcpacing":
            known = np.isin(p.camp, camps.ids)
            log_period(window, np.searchsorted(camps.ids, p.camp[known]), p.v[known], M)
            rcp_update(camps, cost, p.n_requests, avg, params, config.gradient_mode,
                       period_scale=not config.per_impression)
        else:
            smart_update(camps, layer_ptr, cost)
    return out
