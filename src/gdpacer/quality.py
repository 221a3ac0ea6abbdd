"""Impression-quality modeling and percentile transforms.

Campaign impression quality is modeled as a beta law.  A fitted Box-Cox
power transform composed with the standard normal CDF maps raw qualities
into percentile space, where the pacing controller keeps its dual
variables, and the inverse composition maps a percentile dual back into
an auction threshold in quality units.

All transform functions broadcast over numpy arrays; scalar in, scalar out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

PERCENTILE_FLOOR = 1e-6
_LOG_BRANCH_EPS = 1e-9
_SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """Input lies outside the mathematical domain of a transform."""


class DegenerateSampleError(ValueError):
    """Sample set carries no usable signal (too small or zero variance)."""


@dataclass(frozen=True)
class BetaQualityModel:
    """Beta(m, n) quality law; shapes >= 2 keep the density unimodal with
    vanishing mass at both endpoints."""

    m: float
    n: float

    def __post_init__(self):
        if not (self.m >= 2.0 and self.n >= 2.0):
            raise DomainError(
                f"beta shape parameters must both be >= 2, got ({self.m}, {self.n})"
            )

    @property
    def mean(self) -> float:
        return self.m / (self.m + self.n)


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


def inverse_boxcox(lmbda: float, y):
    """Inverse of :func:`boxcox`; raises DomainError when lambda*y + 1 <= 0."""
    arr = np.asarray(y, dtype=float)
    if abs(lmbda) < _LOG_BRANCH_EPS:
        out = np.exp(arr)
    else:
        base = lmbda * arr + 1.0
        if np.any(base <= 0.0):
            raise DomainError("inverse Box-Cox undefined where lambda*y + 1 <= 0")
        out = np.power(base, 1.0 / lmbda)
    return out if out.ndim else float(out)


MIN_LAMBDA_SAMPLES = 30
# below this |lambda| the score and its slope come from their series at 0
_SERIES_LAMBDA = 1e-3
# a bound for malformed input; bisection alone narrows [-2, 2] to 1e-4 in 16 steps
_MAX_STEPS = 100
_ONE = np.ones(1)


def fit_boxcox_lambdas(segments, low: float = -2.0, high: float = 2.0,
                       tol: float = 1e-4) -> np.ndarray:
    """Profile-likelihood lambda of each sample segment: one safeguarded
    Newton solve of the profile score on [low, high] run on all segments at
    once.

    A segment's objective is -(N/2) ln Var(boxcox(lambda, v)) + (lambda-1) sum ln v,
    whose maximizer does not change when v is rescaled.  So the solve works
    on z = ln v less its mean.  With d = exp(lambda z) - 1 and K = Var(d),
    the score (the objective's derivative over N) is
    1/lambda - K'/(2K) + mean z, where K' = 2 Cov(1 + d, (1 + d) z).  A
    step takes one exp over the concatenated samples and reduces d, dz,
    d^2, d^2 z, d z^2 and d^2 z^2 per segment with `np.add.reduceat`; they
    give K, K' and K'', so the score and its slope.  Below |lambda| = 1e-3,
    where 1/lambda cancels against K'/(2K), the score is its first-order
    series at 0, from the moments of z.

    Each segment starts at lambda = 0, where the series needs no exp, with
    the bracket [low, high], which the sign of each score narrows.  A Newton
    step that leaves the bracket, or one taken where the slope is not
    negative, becomes a bisection.  A Newton point is kept tol/2 inside
    [low, high], and one moved there is evaluated, not returned: an optimum
    past an end takes one point there to find.  The error of a Newton step
    s is about M s^2, with M the third derivative of the objective over
    twice its second.  M is estimated from the slopes at the segment's last
    two points and taken no smaller than the spread of z, the scale M has
    on these samples.  A segment stops once M s^2 <= tol/4 and returns its
    Newton point, or once its bracket is narrower than `tol` and returns the
    bracket's midpoint: either way within tol/2 of the optimum on
    [low, high], as a golden-section search to a bracket of width `tol` is.
    A segment that stops leaves the batch.

    Each segment sits behind a slot whose z is 0, so its d is 0 for every
    lambda, and a reduction adds the segment to that 0 with numpy's pairwise
    summation, as `np.sum` does.  With a fixed start, a segment's lambda is
    the same bit for bit fitted alone or in a batch.

    Raises if a segment has fewer than 30 samples, a sample <= 0, or all
    samples equal; a batch caller filters those out first.
    """
    segs = [np.asarray(s, dtype=float).ravel() for s in segments]
    sizes = np.array([s.size for s in segs], dtype=np.int64)
    if sizes.size == 0:
        return np.empty(0)
    if np.any(sizes < MIN_LAMBDA_SAMPLES):
        raise DegenerateSampleError(f"need at least {MIN_LAMBDA_SAMPLES} samples to fit "
                                    f"lambda, got {sizes.min()}")
    # the slot first repeats the segment's first sample, keeping its range
    v = np.concatenate([part for s in segs for part in (s[:1], s)])
    reps = sizes + 1
    starts = np.cumsum(reps) - reps
    if np.any(v <= 0.0):
        raise DomainError("Box-Cox samples must be strictly positive")
    if np.any(np.maximum.reduceat(v, starts) == np.minimum.reduceat(v, starts)):
        raise DegenerateSampleError("all samples identical; lambda is unidentifiable")
    v[starts] = 1.0

    n = sizes.astype(float)
    z = np.log(v, out=v)
    z -= np.repeat(np.add.reduceat(z, starts) / n, reps)
    z[starts] = 0.0
    buf = np.empty((3, z.size))     # d, dz and a product, over the live segments
    zz = np.multiply(z, z, out=buf[0])
    zbar, z2 = np.add.reduceat(z, starts) / n, np.add.reduceat(zz, starts) / n
    z3 = np.add.reduceat(np.multiply(zz, z, out=buf[1]), starts) / n
    z4 = np.add.reduceat(np.multiply(zz, zz, out=buf[1]), starts) / n
    spread_z = np.sqrt(z2 - zbar * zbar)
    # the score at 0 and its slope: with t = z, t' = z^2/2 and t'' = z^3/3 (the
    # derivatives in lambda), mean z - Cov(t, t')/Var(t) and
    # 2 Cov(t, t')^2/Var(t)^2 - (Var(t') + Cov(t, t''))/Var(t)
    var, cov = z2 - zbar * zbar, 0.5 * (z3 - zbar * z2)
    score0 = zbar - cov / var
    slope0 = 2.0 * cov * cov / (var * var) - (0.25 * (z4 - z2 * z2) + (z4 - zbar * z3) / 3.0) / var

    seg = np.arange(sizes.size)     # the live segments
    out = np.empty(sizes.size)
    lam, a, b = np.zeros(seg.size), np.full(seg.size, float(low)), np.full(seg.size, float(high))
    prev_lam = prev_slope = np.full(seg.size, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_STEPS):
            near0 = np.abs(lam) < _SERIES_LAMBDA
            if near0.all():
                score, slope = score0 + slope0 * lam, slope0
            else:
                d, dz, w = buf[:, :z.size]
                np.exp(np.multiply(z, np.repeat(lam, reps), out=d), out=d)
                d -= 1.0
                np.multiply(d, z, out=dz)
                sums = np.empty((6, seg.size))
                np.add.reduceat(buf[:2, :z.size], starts, axis=1, out=sums[:2])
                for row, (x, y) in zip(sums[2:], ((d, d), (d, dz), (dz, z), (dz, dz))):
                    np.add.reduceat(np.multiply(x, y, out=w), starts, out=row)
                m1, a1, m2, a2, b1, b2 = sums / n
                za = zbar + a1
                k = m2 - m1 * m1
                r = 2.0 * (a1 + a2 - m1 * za) / k       # K'/K
                k2 = 2.0 * (z2 - za * za - m1 * (z2 + b1)) + 6.0 * b1 + 4.0 * b2
                score = 1.0 / lam - 0.5 * r + zbar
                slope = 0.5 * (r * r - k2 / k) - 1.0 / (lam * lam)
                if near0.any():
                    score = np.where(near0, score0 + slope0 * lam, score)
                    slope = np.where(near0, slope0, slope)
            up, down = score > 0.0, score < 0.0
            finite = np.isfinite(score)
            if not finite.all():        # an exp overflowed: the root is nearer 0
                up, down = np.where(finite, up, lam < 0.0), np.where(finite, down, lam > 0.0)
            a, b = np.where(up, lam, a), np.where(down, lam, b)
            # a Newton point lands no nearer an end of [low, high] than tol/2,
            # and one moved there is evaluated, not returned
            raw = lam - score / slope
            nxt = np.minimum(np.maximum(raw, low + 0.5 * tol), high - 0.5 * tol)
            step = nxt - lam
            newton = (slope < 0.0) & (nxt > a) & (nxt < b)
            m = np.fmax(np.abs(slope - prev_slope) / (2.0 * np.abs(slope) * np.abs(lam - prev_lam)),
                        spread_z)
            converged = newton & (nxt == raw) & (m * step * step <= 0.25 * tol)
            mid = 0.5 * (a + b)
            stop = converged | (b - a <= tol)
            if stop.any():
                out[seg[stop]] = np.where(converged, nxt, mid)[stop]
                if stop.all():
                    return out
                keep = ~stop
                z = z[np.repeat(keep, reps)]
                reps = reps[keep]
                starts = np.cumsum(reps) - reps
                (n, zbar, z2, spread_z, score0, slope0, seg, a, b, lam, slope, nxt, newton,
                 mid) = (x[keep] for x in (n, zbar, z2, spread_z, score0, slope0, seg, a, b, lam,
                                           slope, nxt, newton, mid))
            prev_lam, prev_slope = lam, slope
            lam = np.where(newton, nxt, mid)
    out[seg] = 0.5 * (a + b)
    return out


def fit_boxcox_lambda(samples, low: float = -2.0, high: float = 2.0,
                      tol: float = 1e-4) -> float:
    """Profile-likelihood lambda estimate by a safeguarded Newton solve on
    [low, high]: :func:`fit_boxcox_lambdas` on one segment.

    A two-point sample's profile likelihood peaks at lambda = 0 and is flat
    there down to rounding.  The solve starts at 0, where the score comes
    from the moments of ln v, so on `[0.2, 0.6] * 20` it returns 0 up to
    rounding; a search that compares likelihood values returns any point
    near 0 that rounding favours.
    """
    return float(fit_boxcox_lambdas([samples], low, high, tol)[0])


def fit_moments_batch(segments, lambdas) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of each segment's Box-Cox transform at its
    own lambda, in one pass.  The segments take the layout of
    :func:`fit_boxcox_lambdas`, each behind a slot holding 1.0 whose
    transform is 0, so each `np.add.reduceat` sum adds the segment to 0 as
    `np.mean` and `np.std` do on `boxcox(lambda, segment)`, bit for bit.
    The exception is a lambda of exactly -1, 0.5 or 2, where numpy's
    scalar-exponent fast paths in `boxcox` can round a transform one ulp
    apart.  A fitted lambda is a Newton point strictly inside its bracket or
    the midpoint of a bracket narrower than `tol`, so never 2 (or -2), and
    -1 or 0.5 only by a coincidence of rounding that the tests check does
    not happen on their samples.  A sigma that is 0
    or not finite is returned as it is; the caller checks it.  Every
    segment must be non-empty and strictly positive.
    """
    segs = [np.asarray(s, dtype=float).ravel() for s in segments]
    if not segs:
        return np.empty(0), np.empty(0)
    reps = np.array([s.size + 1 for s in segs], dtype=np.int64)
    starts = np.cumsum(reps) - reps
    n = reps - 1.0
    v = np.concatenate([part for s in segs for part in (_ONE, s)])
    lam = np.repeat(np.asarray(lambdas, dtype=float), reps)
    with np.errstate(all="ignore"):
        t = np.power(v, lam)
        t -= 1.0
        t /= lam
        log_branch = np.abs(lam) < _LOG_BRANCH_EPS
        if log_branch.any():
            np.copyto(t, np.log(v), where=log_branch)
        mu = np.add.reduceat(t, starts) / n
        t -= np.repeat(mu, reps)
        t *= t
        t[starts] = 0.0
        sigma = np.sqrt(np.add.reduceat(t, starts) / n)
    return mu, sigma


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


def fit_boxcox(samples, epsilon: float = 0.0) -> BoxCoxFit:
    """Lambda search plus moment fit of one sample: the one-segment case of
    :func:`fit_boxcox_lambdas` and :func:`fit_moments_batch`."""
    lam = fit_boxcox_lambdas([samples])
    mu, sigma = fit_moments_batch([samples], lam)
    return BoxCoxFit(float(lam[0]), float(mu[0]), float(sigma[0]), epsilon)


def normal_cdf(x):
    """Standard normal CDF via erf."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + special.erf(arr / _SQRT2))
    return out if out.ndim else float(out)


def normal_quantile(p):
    """Standard normal quantile on the open interval (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError("normal quantile defined on the open interval (0, 1)")
    x = special.ndtri(arr)
    return x if x.ndim else float(x)


def forward_transform(fit: BoxCoxFit, v):
    """Quality -> percentile: Phi((boxcox(lambda*, v) - mu) / (sigma*(1+eps)))."""
    t = boxcox(fit.lambda_star, v)
    return normal_cdf((t - fit.mu) / fit.scale)


def backward_transform(fit: BoxCoxFit, alpha_bar):
    """Percentile -> quality threshold; inverse of the forward map.

    The percentile is clamped to [1e-6, 1 - 1e-6] before inversion.  A
    DomainError from inverse_boxcox after clamping signals a lambda fit whose
    image does not cover the requested tail.
    """
    a = np.clip(np.asarray(alpha_bar, dtype=float), PERCENTILE_FLOOR, 1.0 - PERCENTILE_FLOOR)
    y = fit.mu + normal_quantile(a) * fit.scale
    return inverse_boxcox(fit.lambda_star, y)


def backward_transform_clipped(lmbda, mu, scale, alpha_bar):
    """Backward transform that saturates instead of raising.

    Takes the fit as its parts (Box-Cox lambda, mean, and normal scale
    sigma * (1 + epsilon)), so one call broadcasts over per-campaign fits.
    Inside the delivery loop a clamped percentile near 0 or 1 can land
    outside the Box-Cox image for the fitted lambda; the correct threshold
    semantics there is the edge of the representable quality range, so the
    inverse power base is floored at a tiny positive value.
    """
    a = np.clip(np.asarray(alpha_bar, dtype=float), PERCENTILE_FLOOR, 1.0 - PERCENTILE_FLOOR)
    y = mu + normal_quantile(a) * scale
    lam = np.asarray(lmbda, dtype=float)
    log_branch = np.abs(lam) < _LOG_BRANCH_EPS
    safe_lam = np.where(log_branch, 1.0, lam)
    out = np.where(log_branch, np.exp(y),
                   np.power(np.maximum(lam * y + 1.0, 1e-12), 1.0 / safe_lam))
    return out if out.ndim else float(out)
