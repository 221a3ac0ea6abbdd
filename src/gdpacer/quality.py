"""Impression-quality modeling and percentile transforms.

Campaign impression quality is modeled as a beta law.  A fitted Box-Cox
power transform composed with the standard normal CDF maps raw qualities
into percentile space, where the pacing controller keeps its dual
variables, and the inverse composition maps a percentile dual back into
an auction threshold in quality units.

All transform functions broadcast over numpy arrays; scalar in, scalar out.
"""

from __future__ import annotations

import functools
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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ONE = np.ones(1)


def fit_boxcox_lambdas(segments, low: float = -2.0, high: float = 2.0,
                       tol: float = 1e-4) -> np.ndarray:
    """Profile-likelihood lambda of each sample segment: one golden-section
    search on [low, high] run on all segments at once.

    A segment's objective is -(N/2) ln Var(boxcox(lambda, v)) + (lambda-1) sum ln v,
    which is unimodal in lambda for the sample classes seen here.  Each
    segment stops once its own bracket is narrower than `tol`.  A step makes
    one power over the concatenated samples and reduces it per segment with
    `np.add.reduceat`.  Each segment sits behind a slot holding 1.0, whose
    transform is 0 for every lambda, so its reduction adds the segment to 0
    with numpy's pairwise summation, as `np.sum` does: a segment's lambda is
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
    half_n = -0.5 * n
    log_sum = np.add.reduceat(np.log(v), starts)
    # `spread` gives each sample its segment's value; `np.repeat` takes less
    # than half the time of an indexed gather into a reused buffer.  A single
    # segment broadcasts instead.
    work = np.empty_like(v)
    spread = np.asarray if sizes.size == 1 else functools.partial(np.repeat, repeats=reps)

    def loglik(lmbda: np.ndarray) -> np.ndarray:
        t = work
        lam = spread(lmbda)
        np.power(v, lam, out=t)
        t -= 1.0
        t /= lam
        log_branch = np.abs(lmbda) < _LOG_BRANCH_EPS
        if log_branch.any():
            np.copyto(t, np.log(v), where=spread(log_branch))
        t -= spread(np.add.reduceat(t, starts) / n)
        np.square(t, out=t)
        t[starts] = 0.0
        var = np.add.reduceat(t, starts) / n
        # a zero or NaN variance scores -inf, as an infinite one does
        return np.where(var > 0.0, half_n * np.log(var) + (lmbda - 1.0) * log_sum, -np.inf)

    with np.errstate(all="ignore"):
        a = np.full(sizes.size, float(low))
        b = np.full(sizes.size, float(high))
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = loglik(c), loglik(d)
        live = b - a > tol
        while live.any():
            # keep [a, d] and probe c when f(c) > f(d), else keep [c, b] and
            # probe d; a stopped segment's bracket stays put, and its probes,
            # still computed, no longer matter
            left = fc > fd
            a = np.where(live & ~left, c, a)
            b = np.where(live & left, d, b)
            step = _INVPHI * (b - a)
            x = np.where(left, b - step, a + step)
            fx = loglik(x)
            c, d = np.where(left, x, d), np.where(left, c, x)
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            live = b - a > tol
    return 0.5 * (a + b)


def fit_boxcox_lambda(samples, low: float = -2.0, high: float = 2.0,
                      tol: float = 1e-4) -> float:
    """Profile-likelihood lambda estimate by golden-section search on [low, high]:
    :func:`fit_boxcox_lambdas` on one segment.

    Where the profile likelihood is flat near its optimum down to rounding (a
    two-point sample, for one), rounding decides which probe wins, and lambda
    is any point within `tol` of the optimum: on `[0.2, 0.6] * 20` a search
    that sums in another order returns -1.19e-5 where this one returns
    +1.19e-5.
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
    apart; a golden-section fit lands on none of them.  A sigma that is 0
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
