"""Pacing control formulas.

Covers the probabilistic-throttling machinery (expected/base pass-through
rates, percentile-gap factors, emergency trial rate), the mirror-descent
dual steps in percentile space, and static/adaptive gradient clipping via
the expected-participation function psi.

Formula functions broadcast over numpy arrays so the delivery engine can
apply them to whole campaign vectors; scalars map to scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .quality import DomainError

# Percentile-gap pass factor endpoints: fp(0) = 50 at full underspend
# pressure, fp(1) = 0.2 at full overspend pressure, fp(p_ub) = 1.
FP_GAIN = 50.0
FP_DECAY = 0.2

SPEED_FLOOR = 1e-3

_DIVERGENCES = ("euclidean", "itakura")


@dataclass
class PacingHyperParams:
    """Controller knobs; defaults follow the reference configuration."""

    epsilon: float = 0.1          # transform skew factor
    eta: float = 0.2              # dual step size
    alpha_hat: float = 0.05       # static clip radius in percentile space
    p_ub: float = 0.9             # upper-bound percentile anchor
    wr_glb: float = 0.15          # assumed global win rate
    slope_k: float = 10.0         # quality-gap slope in the fv factor
    divergence: str = "itakura"
    clip_enabled: bool = True     # master switch for the per-period dual clip
    adaptive_clip_enabled: bool = True
    eptr_speed_cap: float = 2.0
    initial_trial_rate: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        if self.divergence not in _DIVERGENCES:
            raise DomainError(f"divergence must be one of {_DIVERGENCES}, got {self.divergence!r}")
        if not 0.0 < self.p_ub < 1.0:
            raise DomainError(f"p_ub must lie in (0, 1), got {self.p_ub}")
        if self.epsilon < 0.0 or self.eta <= 0.0 or self.alpha_hat <= 0.0:
            raise DomainError("epsilon must be >= 0; eta and alpha_hat must be > 0")
        if self.wr_glb <= 0.0 or self.slope_k < 0.0:
            raise DomainError("wr_glb must be > 0 and slope_k >= 0")
        if self.eptr_speed_cap <= 1.0 or not 0.0 < self.initial_trial_rate <= 1.0:
            raise DomainError("eptr_speed_cap must exceed 1 and initial_trial_rate lie in (0, 1]")


def init_expected_ptr(budget: float, audience: float, p_ub: float) -> float:
    """Pass rate needed to spend the budget using only the top (1-p_ub) slice
    of the campaign's recalled traffic."""
    if budget <= 0.0 or audience <= 0.0:
        raise DomainError("budget and audience must be positive")
    return budget / ((1.0 - p_ub) * audience)


def init_dual_percentile(ptr_exp: float, p_ub: float) -> float:
    """Initial percentile dual: anchor at p_ub while the top slice suffices,
    slide down proportionally once the campaign needs more traffic."""
    if ptr_exp <= 0.0:
        raise DomainError("ptr_exp must be positive")
    a0 = p_ub if ptr_exp <= 1.0 else 1.0 - (1.0 - p_ub) * ptr_exp
    return float(min(1.0, max(0.0, a0)))


def init_base_ptr(ptr_exp: float, wr_glb: float) -> float:
    """Base pass rate after discounting by the assumed global win rate."""
    if wr_glb <= 0.0:
        raise DomainError("wr_glb must be positive")
    return float(min(1.0, ptr_exp / wr_glb))


def fp(alpha_bar, p_ub: float, gain: float = FP_GAIN, decay: float = FP_DECAY):
    """Percentile-gap pass factor: boosts campaigns whose dual sits below the
    anchor p_ub and suppresses those above it; continuous, equal to 1 at p_ub."""
    a = np.asarray(alpha_bar, dtype=float)
    below = np.power(gain, (p_ub - a) / p_ub)
    above = np.power(decay, (p_ub - a) / (p_ub - 1.0))
    out = np.where(a <= p_ub, below, above)
    return out if out.ndim else float(out)


def fv(alpha_bar, v_bar, slope_k: float):
    """Quality-gap pass factor k*(v_bar - alpha_bar) + 1, floored at 0."""
    out = np.maximum(0.0, slope_k * (np.asarray(v_bar, dtype=float) - np.asarray(alpha_bar, dtype=float)) + 1.0)
    return out if out.ndim else float(out)


def update_eptr(eptr, spd, cap: float = 2.0):
    """Emergency pass rate update: eptr * min{cap, cap/spd}, capped at 1.

    spd = 0 maps to the full boost factor cap; growth per call never exceeds
    cap and the result stays in (0, 1] for eptr in (0, 1].
    """
    s = np.asarray(spd, dtype=float)
    e = np.asarray(eptr, dtype=float)
    # speeds below cap/MAX_FLOAT would overflow the division; any s <= 1e-12
    # already takes the capped branch, so the floor never alters the result
    s_safe = np.maximum(np.where(s <= 0.0, 1.0, s), 1e-12)
    factor = np.where(s <= 0.0, cap, np.minimum(cap, cap / s_safe))
    out = np.minimum(1.0, e * factor)
    return out if out.ndim else float(out)


def dual_step_euclidean(alpha_bar, g_tilde, eta: float):
    """Unclipped gradient step alpha_bar - eta * g_tilde, clamped to [0, 1]."""
    out = np.clip(np.asarray(alpha_bar, dtype=float) - eta * np.asarray(g_tilde, dtype=float), 0.0, 1.0)
    return out if out.ndim else float(out)


def dual_step_itakura(alpha_bar, g_tilde, eta: float):
    """Mirror step under the barrier reference h(a) = -ln(1.5 - a).

    Valid while eta * g_tilde * (1.5 - alpha_bar) < 1; where the product
    reaches 1 the gradient is rescaled so the product equals 0.5, which keeps
    the step finite and direction-preserving.  Result clamped to [0, 1].
    """
    a = np.asarray(alpha_bar, dtype=float)
    g = np.asarray(g_tilde, dtype=float)
    w = 1.5 - a
    prod = eta * g * w
    bad = prod >= 1.0
    scale = np.where(bad, 0.5 / np.where(bad, prod, 1.0), 1.0)
    g_eff = g * scale
    step = (w * w / (1.0 - eta * g_eff * w)) * eta * g_eff
    out = np.clip(a - step, 0.0, 1.0)
    return out if out.ndim else float(out)


def dual_step(alpha_bar, g_tilde, params: PacingHyperParams):
    if params.divergence == "euclidean":
        return dual_step_euclidean(alpha_bar, g_tilde, params.eta)
    return dual_step_itakura(alpha_bar, g_tilde, params.eta)


def psi(alpha_bar, ptr_base, params: PacingHyperParams):
    """Expected participation at dual alpha_bar over a uniform percentile.

    psi(a) = integral over x in (a, 1] of min{1, ptr_base * fp(a) * fv(a, x)},
    i.e. throttle pass probability times the participation indicator x > a,
    with the emergency rate excluded.  Closed form: the integrand is linear
    in x with slope ptr_base*fp*k until it saturates at 1.
    """
    a = np.asarray(alpha_bar, dtype=float)
    base = np.asarray(ptr_base, dtype=float)
    k = float(params.slope_k)
    c = base * fp(a, params.p_ub)          # integrand value at x = a
    span = 1.0 - a
    slope = c * k
    full = c * span + 0.5 * slope * span * span
    # distance from a to the saturation point of the integrand; a subnormal
    # slope overflows it to inf, which takes the unsaturated branch
    with np.errstate(over="ignore"):
        d = np.where(slope > 0.0, (1.0 - c) / np.where(slope > 0.0, slope, 1.0), np.inf)
    d_safe = np.where(np.isfinite(d), d, 0.0)   # branch below only used when d < span
    capped = c * d_safe + 0.5 * slope * d_safe * d_safe + (span - d_safe)
    out = np.where(c >= 1.0, span, np.where(d >= span, full, capped))
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


# psi_inverse returns what this many bisection steps on [0, 1] return
BISECTION_STEPS = 60
_LEVELS = np.arange(BISECTION_STEPS + 1)
_SCALE = np.ldexp(1.0, _LEVELS)             # 2^k: the level-k bracket is [m, m + 1] / 2^k
_HALF = np.ldexp(1.0, -(_LEVELS + 1))       # half the level-k bracket width
_STEPPED = _LEVELS < BISECTION_STEPS        # the last level is the final bracket
_GRID = np.arange(33) / 32.0                # its psi also gives psi(0)
_NEWTON_STEPS = 4
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _psi_and_slope(a, base, params: PacingHyperParams):
    """psi and its derivative in alpha_bar, used only to estimate a root.

    With c = ptr_base * fp(a) and d the length of (a, 1] over which the
    integrand c * (1 + k (x - a)) stays below 1 (0 when saturated, 1 - a
    when it never saturates), psi = c (d + k d^2 / 2) + (1 - a - d) and
    psi' = c' (d + k d^2 / 2) - min(1, c) - c k d, where c' = c * d ln fp / da
    is -c ln(FP_GAIN) / p_ub below p_ub and c ln(FP_DECAY) / (1 - p_ub) above.
    """
    k = float(params.slope_k)
    p_ub = params.p_ub
    dlog = np.where(a <= p_ub, -math.log(FP_GAIN) / p_ub, math.log(FP_DECAY) / (1.0 - p_ub))
    c = base * np.exp((a - p_ub) * dlog)
    span = 1.0 - a
    ck = c * k
    d = np.fmin(np.fmax((1.0 - c) / ck, 0.0), span)
    w = d + (0.5 * k) * d * d
    return c * w + span - d, c * dlog * w - np.minimum(c, 1.0) - ck * d


def _root_estimate(t, grid_psi, base, params: PacingHyperParams):
    """Each root of psi(a) = t, bracketed on the 1/32 grid, interpolated
    there and refined by safeguarded Newton steps, in [0, 1); and the slope
    of psi at the last iterate.  A Newton iterate outside its bracket falls
    back to the bracket's midpoint; one on a bracket end is kept."""
    j = np.sum(grid_psi[:, 1:-1] > t[:, None], axis=1)
    rows = np.arange(t.size)
    g_lo, g_hi = grid_psi[rows, j], grid_psi[rows, j + 1]
    lo, hi = _GRID[j], _GRID[j + 1]
    x = lo + (g_lo - t) / (g_lo - g_hi) * (hi - lo)
    for _ in range(_NEWTON_STEPS):
        x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
        value, slope = _psi_and_slope(x, base, params)
        f = value - t
        right = f > 0.0
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        x = x - f / slope
    x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
    return np.fmin(np.fmax(x, 0.0), _BELOW_ONE), slope


def psi_inverse(target, ptr_base, params: PacingHyperParams):
    """Inverse of psi in its first argument: the result of BISECTION_STEPS
    bisection steps on [0, 1], bit for bit.

    psi is strictly decreasing for ptr_base > 0, so the root is unique and
    the bracket of 60 steps leaves |psi(result) - target| well under 1e-8.
    Targets at or above psi(0) map to 0; targets at or below 0 map to 1.

    The bisection is computed as a verified predicted path.  After k steps
    the bracket [lo, hi] is [m, m + 1] / 2^k for an integer m, and its
    midpoint is exact, until lo and hi are adjacent doubles.  From then on
    the midpoint rounds to lo or hi, whose comparison is already made, so
    the bracket no longer moves: lo = 0 is never adjacent within 60 steps,
    and at hi = 1, psi(1) = 0 is not above any target left to solve.  So a
    guess r in [0, 1) predicts every bracket, lo_k = floor(r 2^k) / 2^k, and
    one psi call over all predicted midpoints checks them: if each step goes
    the way r predicts, by induction on k the bisection took this path.  A
    campaign whose check fails at step k knows its true bracket after step
    k and starts again from a guess inside it, so every round settles at
    least one more step.  The guess comes from a grid and Newton steps on
    the analytic slope of psi, and on a restart from a Newton step at the
    mismatched midpoint; it decides how many rounds a call takes, never its
    result.  This relies on psi giving an element the same bits wherever it
    sits in an array, which the tests check.
    """
    t = np.asarray(target, dtype=float)
    base = np.asarray(ptr_base, dtype=float)
    t_b, base_b = np.broadcast_arrays(t, base)
    t1 = t_b.ravel()
    base1 = base_b.ravel()
    grid_psi = psi(_GRID, base1[:, None], params)
    top = grid_psi[:, 0]
    out = np.where(t1 >= top, 0.0, np.where(t1 <= 0.0, 1.0, np.nan))
    idx = np.flatnonzero(np.isnan(out))
    t1, base1 = t1[idx], base1[idx]
    with np.errstate(all="ignore"):
        r, slope = _root_estimate(t1, grid_psi[idx], base1, params)
        for _ in range(BISECTION_STEPS + 1):     # each round settles a step
            if not idx.size:
                break
            lo = np.floor(r[:, None] * _SCALE) / _SCALE
            mid = lo + _HALF
            value = psi(mid, base1[:, None], params)
            right = value > t1[:, None]
            # a rounded midpoint means lo and hi are adjacent doubles
            exact = (mid - lo == _HALF) & _STEPPED
            step = np.argmax((right != (r[:, None] >= mid)) | ~exact, axis=1)
            rows = np.arange(idx.size)
            lo, mid, right = lo[rows, step], mid[rows, step], right[rows, step]
            hi = lo + 2.0 * _HALF[step]
            done = ~exact[rows, step]
            out[idx[done]] = 0.5 * (lo + hi)[done]
            guess = mid - (value[rows, step] - t1) / slope
            r = np.fmin(np.fmax(guess, np.where(right, mid, lo)),
                        np.nextafter(np.where(right, hi, mid), 0.0))
            idx, r, t1, base1, slope = (x[~done] for x in (idx, r, t1, base1, slope))
    out = out.reshape(t_b.shape)
    return out if out.ndim else float(out)


def psi_speed_bound(alpha_bar, ptr_base, spd, params: PacingHyperParams):
    """Dual value whose expected participation equals psi(alpha_bar)/spd.

    Scales next-period participation by the realized spending speed: an
    underspending campaign (spd < 1) gets a bound below alpha_bar, an
    overspending one (spd > 1) a bound above it.  spd is floored at 1e-3.
    """
    s = np.maximum(np.asarray(spd, dtype=float), SPEED_FLOOR)
    return psi_inverse(psi(alpha_bar, ptr_base, params) / s, ptr_base, params)


def apply_dual_clip(alpha_bar, alpha_tilde, g_tilde, alpha_hat: float, psi_bound=None):
    """Clip a proposed dual step around alpha_bar.

    For g_tilde >= 0 (step moves down) the result is max{alpha_tilde,
    alpha_bar - alpha_hat, psi_bound}; for g_tilde < 0 the min-side mirror.
    With psi_bound None this is the pure static clip.  Result in [0, 1].
    """
    a = np.asarray(alpha_bar, dtype=float)
    at = np.asarray(alpha_tilde, dtype=float)
    g = np.asarray(g_tilde, dtype=float)
    down = np.maximum(at, a - alpha_hat)
    up = np.minimum(at, a + alpha_hat)
    if psi_bound is not None:
        pb = np.asarray(psi_bound, dtype=float)
        down = np.maximum(down, pb)
        up = np.minimum(up, pb)
    out = np.clip(np.where(g >= 0.0, down, up), 0.0, 1.0)
    return out if out.ndim else float(out)

