"""Sequential scalar reference implementations of the three delivery policies
and of the Box-Cox lambda fit, the request-by-request stream views they
replay, and the record-based stream CSV reader and writer.

The engine runs each policy vectorized over a whole period.  The functions
here decide one request at a time and update one campaign at a time, over
the same `CampaignArrays` state, so a replay with them pins the engine's
sequential budget semantics, its draw-consumption order and its array
period updates.  The replays start from `init_state`, a run's fresh state
built campaign by campaign with the scalar set-up formulas
(`init_expected_ptr`, `init_dual_percentile`, `init_base_ptr`, each raising
outside its domain), against which `gdpacer.engine.init_campaign_states`
is checked bit for bit.  `boxcox` is the scalar-lambda Box-Cox transform, which
refuses a sample <= 0, and `BoxCoxFit` a fit's parts with its epsilon: the
independent reference that the replays score with and that the per-edge
`gdpacer.quality.forward_transform` is checked against.
`fit_boxcox_lambda` is the scalar twin of the batched Newton solve in
`gdpacer.quality.fit_boxcox_batch`: the same steps on one sample, with
`np.sum` reductions and Python-float bookkeeping, which the batch matches
bit for bit and the replays fit with.  `golden_lambda`, a golden-section
search to a bracket of width tol, is its accuracy reference, and
`fit_moments` is the scalar reference of the batch's moment pass.
`beta_lambda` is the population twin of `golden_lambda`: the same search on
a Beta law's likelihood, its moments integrated by quadrature, against
which the closed-form prior fit `gdpacer.quality.fit_boxcox_beta` is
checked.
`fit_windows` gathers fit windows period by period, against which the
engine's one-sort window gather is checked.  `psi_inverse` is the sequential
bisection that `gdpacer.pacing.psi_inverse` computes as a verified
predicted path, and the replayed adaptive clip runs on it.
`rcp_throttle` is the full-edge throttle of one `rcpacing` period, every
recalled edge given a pass probability, against which the engine's
positive-bid-only throttle is checked; `position_mismatches` checks that
the maps it applies give an element the same bits wherever it sits in its
array, which that check and the subset rely on.
`resolve_winners` is the request-by-request auction of one period that
`gdpacer.engine._resolve_winners` resolves with optimistic passes and cuts,
and `generate_stream` the dense-matrix generator whose draws the flat-index
`gdpacer.simulate.generate_stream` reproduces.
`ImpressionRequest` records build hand-made streams (`from_requests`);
`load_stream_csv` and `save_stream_csv` are the per-request, per-row CSV
reference the columnar `gdpacer.streams` reader and writer are checked
against, message for message and byte for byte.  `load_script` loads a
script of `scripts/`, such as the regret-scaling instance the tests share.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, special

from gdpacer.engine import (_ALGO_TAGS, _NEUTRAL_SIGMA, _REFIT_WINDOW, _TAGS, CampaignArrays,
                            RunConfig, _Smart, _substream)
from gdpacer.pacing import (BISECTION_STEPS, SPEED_FLOOR, PacingHyperParams,
                            apply_dual_clip, dual_step, fp, fv, psi, update_eptr)
from gdpacer.quality import (_LOG_BRANCH_EPS, PERCENTILE_FLOOR, DomainError, backward_transform,
                             fit_boxcox_beta, forward_transform, normal_cdf)
from gdpacer.simulate import _QUALITY_QUANTUM
from gdpacer.streams import ImpressionStream, PeriodBatch, StreamFormatError

SMART_PTR_FLOOR = 0.01
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_CTR_DECIMAL = re.compile(r"[0-9]*\.?[0-9]{0,6}")


@dataclass(frozen=True)
class ImpressionRequest:
    """One ad display opportunity with its recalled campaigns' qualities."""

    request_id: int
    period: int
    qualities: dict[int, float]


def from_requests(requests: list[ImpressionRequest]) -> ImpressionStream:
    """Build a stream from request records; periods keep first-seen order."""
    by_period: dict[int, list[ImpressionRequest]] = {}
    order: list[int] = []
    for r in requests:
        if r.period not in by_period:
            by_period[r.period] = []
            order.append(r.period)
        by_period[r.period].append(r)

    periods = []
    for t in order:
        reqs = by_period[t]
        ids, rpos, camps, vals = [], [], [], []
        for pos, r in enumerate(reqs):
            ids.append(r.request_id)
            for c in sorted(r.qualities):
                rpos.append(pos)
                camps.append(c)
                vals.append(r.qualities[c])
        periods.append(PeriodBatch(
            request_ids=np.asarray(ids, dtype=np.int64),
            req=np.asarray(rpos, dtype=np.int64),
            camp=np.asarray(camps, dtype=np.int64),
            v=np.asarray(vals, dtype=np.float64),
        ))
    return ImpressionStream(periods=periods)


def avg_requests_per_period(stream: ImpressionStream) -> float:
    return stream.total_requests / max(1, stream.n_periods)


def save_stream_csv(stream: ImpressionStream, path) -> None:
    """Write the stream in the 4-column schema, row by row through
    `csv.writer`; requests without edges and empty periods leave no rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["request_id", "period", "campaign_id", "ctr"])
        for t, p in enumerate(stream.periods):
            for e in range(p.n_edges):
                writer.writerow([int(p.request_ids[p.req[e]]), t,
                                 int(p.camp[e]), f"{p.v[e]:.6f}"])


def load_stream_csv(path) -> ImpressionStream:
    """Parse a stream CSV into request records, then `from_requests`.

    Raises StreamFormatError with a line number; ids are whatever `int`
    accepts, and one beyond int64 escapes as OverflowError.
    """
    requests: list[ImpressionRequest] = []
    expected_header = ["request_id", "period", "campaign_id", "ctr"]

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StreamFormatError("line 1: missing header") from None
        if [h.strip() for h in header] != expected_header:
            raise StreamFormatError(f"line 1: expected header {','.join(expected_header)}")

        cur_req = None
        cur_period = None
        cur_map: dict[int, float] = {}
        last_period = None
        seen_in_period: set[int] = set()

        def flush():
            if cur_req is not None:
                requests.append(ImpressionRequest(cur_req, cur_period, dict(cur_map)))

        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise StreamFormatError(f"line {line}: expected 4 fields, got {len(row)}")
            try:
                rid = int(row[0])
                period = int(row[1])
                cid = int(row[2])
                ctr = float(row[3])
            except ValueError as exc:
                raise StreamFormatError(f"line {line}: {exc}") from None
            if not 0.0 < ctr < 1.0:
                raise StreamFormatError(f"line {line}: ctr must lie strictly in (0, 1), got {ctr}")
            if not _CTR_DECIMAL.fullmatch(row[3].strip()):
                raise StreamFormatError(f"line {line}: ctr must be a decimal with at most "
                                        f"6 fractional digits, got {row[3]!r}")
            if last_period is not None and period < last_period:
                raise StreamFormatError(f"line {line}: period {period} after period {last_period}; "
                                        "periods must be grouped in non-decreasing order")
            if period != last_period:
                flush()
                cur_req = None
                cur_map = {}
                seen_in_period = set()
                last_period = period
            if rid != cur_req:
                if rid in seen_in_period:
                    raise StreamFormatError(f"line {line}: request {rid} rows are not contiguous")
                flush()
                seen_in_period.add(rid)
                cur_req = rid
                cur_period = period
                cur_map = {}
            if cid in cur_map:
                raise StreamFormatError(f"line {line}: duplicate campaign {cid} for request {rid}")
            cur_map[cid] = ctr
        flush()

    return from_requests(requests)


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


def generate_stream(config, seed: int | None = None) -> ImpressionStream:
    """The dense-matrix generator `gdpacer.simulate.generate_stream` replaced:
    per period, the recall mask is scanned with two 2-D `np.nonzero` calls
    and the rounded qualities are scattered into a zeroed (R, M) matrix.  It
    makes the same draws in the same order."""
    specs = sorted(config.campaigns, key=lambda s: s.id)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed if seed is not None else config.seed, _TAGS["stream"]])))
    M = len(specs)
    R = config.requests_per_period
    p = np.array([s.recall_prob for s in specs])
    ids = np.asarray([spec.id for spec in specs], dtype=np.int64)
    drift = config.drift_models or {}

    def shapes(models) -> np.ndarray:      # (M, 2): each campaign's beta m, n
        return np.array([(q.m, q.n) for q in models]).reshape(M, 2)
    base = shapes(s.quality_model for s in specs)
    drifted = shapes(drift.get(s.id, s.quality_model) for s in specs)
    periods = []
    next_id = 0
    for t in range(config.num_periods):
        mask = rng.random((R, M)) < p
        mn = drifted if config.drift_period is not None and t >= config.drift_period else base
        cols, rows = np.nonzero(mask.T)        # campaign-major: one campaign's draws after another
        draws = rng.beta(mn[cols, 0], mn[cols, 1])
        v_mat = np.zeros((R, M))
        v_mat[rows, cols] = np.clip(np.round(draws, _QUALITY_QUANTUM), 1e-6, 1.0 - 1e-6)
        rows, cols = np.nonzero(mask)          # row-major: (request, ascending campaign)
        periods.append(PeriodBatch(request_ids=np.arange(next_id, next_id + R, dtype=np.int64),
                                   req=rows.astype(np.int64), camp=ids[cols], v=v_mat[rows, cols]))
        next_id += R
    return ImpressionStream(periods=periods)


def resolve_winners(req, camp, score, elig, remaining) -> np.ndarray:
    """The winning edges of one period's edges (`req`, `camp`, sorted by
    request, then campaign), auctioned one request at a time.  A campaign is
    live while it has budget left after this period's earlier wins.  A
    request with a NaN score on an eligible live edge has no winner;
    otherwise its top score wins, -inf included, and a tie goes to the
    lowest campaign."""
    left = [int(x) for x in remaining]
    winners = []
    for r in sorted(set(int(x) for x in req)):
        live = [i for i in range(len(req))
                if req[i] == r and elig[i] and left[camp[i]] >= 1]
        if not live or any(math.isnan(score[i]) for i in live):
            continue
        best = live[0]
        for i in live[1:]:
            if score[i] > score[best]:
                best = i
        left[camp[best]] -= 1
        winners.append(best)
    return np.array(winners, dtype=np.int64)


def rcp_throttle(camps: CampaignArrays, camp: np.ndarray, v: np.ndarray, u: np.ndarray,
                 params: PacingHyperParams):
    """The quality-space duals, the bids and the pass mask of one `rcpacing`
    period with edges (`camp`, `v`) and throttle draws `u`, in array form:
    every dual inverted with both Box-Cox branches taken, and every recalled
    edge given its pass probability, whether or not it bids.  An edge passes
    when its draw is below that probability and its bid is positive."""
    a = np.clip(camps.alpha_bar, PERCENTILE_FLOOR, 1.0 - PERCENTILE_FLOOR)
    y = camps.mu + special.ndtri(a) * camps.scale
    log_branch = np.abs(camps.lam) < _LOG_BRANCH_EPS
    safe_lam = np.where(log_branch, 1.0, camps.lam)
    alpha = np.where(log_branch, np.exp(y),
                     np.power(np.maximum(camps.lam * y + 1.0, 1e-12), 1.0 / safe_lam))
    v_bar = forward_transform(camps.lam[camp], camps.mu[camp], camps.scale[camp], v)
    raw = camps.ptr_base[camp] * fp(camps.alpha_bar, params.p_ub)[camp] \
        * fv(camps.alpha_bar[camp], v_bar, params.slope_k)
    ptr = np.minimum(1.0, raw) * camps.eptr[camp]
    bid = v - alpha[camp]
    return alpha, bid, (u < ptr) & (bid > 0.0)


def position_mismatches(seed: int) -> list[str]:
    """The throttle's per-edge maps (`forward_transform`, `fp`, `fv`) that
    give some element other bits in a random subset, a permutation or a
    one-element slice of its array than in the whole array.  The arrays
    hold 1 to 257 elements, lambdas on both Box-Cox branches and at the
    exponents -1, 0.5, 1 and 2, and duals on both sides of p_ub."""
    rng = np.random.default_rng(seed)
    out = set()
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257):
        lam = rng.uniform(-2.0, 2.0, n)
        special_lam = rng.random(n) < 0.3
        lam[special_lam] = rng.choice([0.0, 1e-10, -1.0, 0.5, 1.0, 2.0], special_lam.sum())
        mu, scale = rng.normal(-0.5, 0.5, n), rng.uniform(0.05, 1.0, n)
        v, a = rng.uniform(1e-6, 1.0 - 1e-6, n), rng.uniform(0.0, 1.0, n)
        v_bar, p_ub = rng.uniform(0.0, 1.0, n), float(rng.uniform(0.05, 0.95))
        maps = {"forward_transform": lambda i: forward_transform(lam[i], mu[i], scale[i], v[i]),
                "fp": lambda i: fp(a[i], p_ub),
                "fv": lambda i: fv(a[i], v_bar[i], 10.0)}
        picks = [np.flatnonzero(rng.random(n) < 0.5), rng.permutation(n)]
        picks += [np.array([j]) for j in range(n)]
        for name, f in maps.items():
            whole = f(np.arange(n)).view(np.int64)
            if any(not np.array_equal(f(i).view(np.int64), whole[i]) for i in picks):
                out.add(name)
    return sorted(out)


def campaigns(n: int = 1, **fields) -> CampaignArrays:
    """Hand-made state for n campaigns with ids 0..n-1; each field is a
    scalar broadcast to all campaigns or a per-campaign sequence."""
    base = dict(budget=100.0, rho=10.0, audience=1000.0, ptr_base=1.0,
                alpha_bar=0.9, alpha=0.0, eptr=1.0, exhausted=False,
                lam=np.nan, mu=np.nan, scale=np.nan)
    base.update(fields)
    base.setdefault("remaining", base["budget"])
    arrays = {k: np.array(np.broadcast_to(v, n), dtype=bool if k == "exhausted" else float)
              for k, v in base.items()}
    return CampaignArrays(ids=np.arange(n, dtype=np.int64), **arrays)


def load_script(name: str):
    """A fresh module of the script `scripts/<name>.py`."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- campaign set-up ---------------------------------------------------------------

def init_expected_ptr(budget: float, audience: float, p_ub: float) -> float:
    """Pass rate needed to spend the budget using only the top (1-p_ub) slice
    of the campaign's recalled traffic."""
    if budget <= 0.0 or audience <= 0.0:
        raise DomainError("budget and audience must be positive")
    return budget / ((1.0 - p_ub) * audience)


def init_dual_percentile(ptr_exp: float, p_ub: float) -> float:
    """Initial percentile dual: p_ub while ptr_exp <= 1, else 1 - (1-p_ub) ptr_exp,
    clamped to [0, 1]."""
    if ptr_exp <= 0.0:
        raise DomainError("ptr_exp must be positive")
    a0 = p_ub if ptr_exp <= 1.0 else 1.0 - (1.0 - p_ub) * ptr_exp
    return float(min(1.0, max(0.0, a0)))


def init_base_ptr(ptr_exp: float, wr_glb: float) -> float:
    """Base pass rate after discounting by the assumed global win rate."""
    if wr_glb <= 0.0:
        raise DomainError("wr_glb must be positive")
    return float(min(1.0, ptr_exp / wr_glb))


def init_state(specs, stream: ImpressionStream, params: PacingHyperParams) -> CampaignArrays:
    """Fresh state in ascending campaign-id order, campaign by campaign with
    the scalar formulas above; the expected pass rate is 1 where the
    audience is 0."""
    specs = sorted(specs, key=lambda s: s.id)
    rows = []
    for s in specs:
        budget = float(s.budget)
        audience = float(s.recall_prob) * stream.total_requests
        ptr_exp = init_expected_ptr(budget, audience, params.p_ub) if audience > 0.0 else 1.0
        rows.append((budget, budget / stream.n_periods, audience,
                     init_base_ptr(ptr_exp, params.wr_glb),
                     init_dual_percentile(ptr_exp, params.p_ub), budget < 1.0))
    budget, rho, audience, ptr_base, alpha_bar, exhausted = zip(*rows)
    camps = campaigns(len(specs), budget=budget, rho=rho, audience=audience, ptr_base=ptr_base,
                      alpha_bar=alpha_bar, alpha=0.0, eptr=params.initial_trial_rate,
                      exhausted=exhausted)
    camps.ids = np.array([s.id for s in specs], dtype=np.int64)
    return camps


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


# --- scalar Box-Cox transform and fit record ----------------------------------------

class DegenerateSampleError(ValueError):
    """Sample set carries no usable signal (too small or zero variance)."""


def boxcox(lmbda: float, v):
    """Box-Cox power transform; the log branch is taken for |lambda| < 1e-9."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("Box-Cox input must be strictly positive")
    if abs(lmbda) < _LOG_BRANCH_EPS:
        out = np.log(arr)
    else:
        out = (np.power(arr, lmbda) - 1.0) / lmbda
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoxCoxFit:
    """Fitted transform parameters plus the deliberate skew factor epsilon.

    epsilon > 0 widens the assumed normal scale to sigma*(1+epsilon), pulling
    forward-transform outputs toward 0.5 and damping percentile swings.
    """

    lambda_star: float
    mu: float
    sigma: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise DegenerateSampleError(f"sigma must be positive, got {self.sigma}")
        if self.epsilon < 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def scale(self) -> float:
        return self.sigma * (1.0 + self.epsilon)


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


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section search for the maximizer of f on [a, b], to a bracket of
    width tol: within tol/2 of the optimum of a unimodal f."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_lambda(samples, low: float = -2.0, high: float = 2.0,
                  tol: float = 1e-4) -> float:
    """Golden-section search for the profile-likelihood lambda of one sample:
    within tol/2 of the optimum of a unimodal likelihood."""
    v = np.asarray(samples, dtype=float)
    _check_lambda_samples(v)
    log_sum = float(np.sum(np.log(v)))
    return _golden_max(lambda lmbda: _profile_loglik(lmbda, v, log_sum), float(low), float(high),
                       tol)


def beta_lambda(m: float, n: float, tol: float = 1e-8) -> float:
    """The population profile-likelihood lambda of Beta(m, n) on
    [max(-2, -m/2), 2], by golden-section search: the scalar reference of
    `gdpacer.quality.fit_boxcox_beta`.  The likelihood per sample is
    -(1/2) ln Var(boxcox(lambda, V)) + (lambda - 1) E[ln V], each moment a
    `scipy.integrate.quad` integral against the Beta density, whose
    normalizing constant is a quad integral too."""
    def integral(g):
        return integrate.quad(lambda v: g(v) * v ** (m - 1.0) * (1.0 - v) ** (n - 1.0), 0.0, 1.0,
                              epsabs=0.0, epsrel=1e-12, limit=200)[0]

    norm = integral(lambda v: 1.0)
    mean_log = integral(math.log) / norm

    def loglik(lmbda: float) -> float:
        mu = integral(lambda v: (v ** lmbda - 1.0) / lmbda) / norm
        var = integral(lambda v: ((v ** lmbda - 1.0) / lmbda - mu) ** 2) / norm
        return -0.5 * math.log(var) + (lmbda - 1.0) * mean_log

    return _golden_max(loglik, max(-2.0, -0.5 * m), 2.0, tol)


def fit_boxcox_lambda(samples, low: float = -2.0, high: float = 2.0,
                      tol: float = 1e-4, points: list[tuple] | None = None) -> float:
    """The safeguarded Newton solve of `gdpacer.quality.fit_boxcox_batch`
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
    qualities in stable campaign order, sliced per campaign by its counts.
    Campaigns with no edge in the window are not visited: their windows are
    empty."""
    window = periods[lo:hi]
    by_camp = [p.v[np.argsort(p.camp, kind="stable")] for p in window]
    counts = [np.bincount(p.camp, minlength=M) for p in window]
    bounds = [np.cumsum(c) - c for c in counts]
    own = [np.empty(0)] * M
    for j in np.flatnonzero(sum(counts, np.zeros(M, np.int64))).tolist():
        own[j] = np.concatenate([np.empty(0)] + [v[b[j]:b[j] + c[j]]
                                                 for v, b, c in zip(by_camp, bounds, counts)])
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
    quality array per campaign: the campaign's own window when it has a fit,
    else the pooled window, else the exact fit of the campaign's quality
    model (`fit_boxcox_beta` on that model alone), else the neutral fit."""
    eps = config.params.epsilon
    M = camps.ids.size
    window = list(window) or [[np.empty(0)] * M]
    pooled = np.concatenate([np.concatenate(p) for p in window])
    for i in range(M):
        own = np.concatenate([period[i] for period in window])
        fit = _scalar_fit(own, eps) or _scalar_fit(pooled, eps)
        model = specs[i].quality_model
        if fit is None and model is not None:
            fit = BoxCoxFit(*fit_boxcox_beta(model.m, model.n)[:, 0], eps)
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
    camps = init_state(specs, stream, params)
    M, T = camps.ids.size, stream.n_periods
    index = {int(c): i for i, c in enumerate(camps.ids)}
    avg = avg_requests_per_period(stream)
    rng = _substream(config.seed, _TAGS["run"], _ALGO_TAGS[algorithm])
    out = Replay(np.zeros((M, T), dtype=np.int64), np.zeros((M, T)), np.zeros((M, T)),
                 np.ones((M, T)), camps.remaining)
    if algorithm == "rcpacing":
        window = deque(maxlen=_REFIT_WINDOW)
        sorted_specs = sorted(specs, key=lambda s: s.id)
    else:
        camps.eptr[:] = 1.0
    if algorithm == "smart":
        layer_ptr = smart_init(camps, params, _Smart.LAYERS)

    requests = [[] for _ in range(T)]
    for r in iter_requests(stream):
        requests[r.period].append(r)

    for t, p in enumerate(stream.periods):
        if algorithm == "rcpacing":
            assign_fits(window, sorted_specs, config, camps)
            for i in range(M):
                camps.alpha[i] = backward_transform(
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
