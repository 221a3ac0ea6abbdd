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
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _profile_loglik(lmbda: float, v: np.ndarray, log_sum: float) -> float:
    t = boxcox(lmbda, v)
    var = float(np.var(t))
    if not np.isfinite(var) or var <= 0.0:
        return -np.inf
    return -0.5 * v.size * math.log(var) + (lmbda - 1.0) * log_sum


def fit_boxcox_lambda(samples, low: float = -2.0, high: float = 2.0,
                      tol: float = 1e-4) -> float:
    """Profile-likelihood lambda estimate by golden-section search on [low, high].

    The profile objective is -(N/2) ln Var(boxcox(lambda, v)) + (lambda-1) sum ln v,
    which is unimodal in lambda for the sample classes seen here.
    """
    v = np.asarray(samples, dtype=float)
    if v.size < 30:
        raise DegenerateSampleError(f"need at least 30 samples to fit lambda, got {v.size}")
    if np.any(v <= 0.0):
        raise DomainError("Box-Cox samples must be strictly positive")
    if np.all(v == v[0]):
        raise DegenerateSampleError("all samples identical; lambda is unidentifiable")

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
    """Convenience: lambda search plus moment fit in one call."""
    lam = fit_boxcox_lambda(samples)
    mu, sigma = fit_moments(samples, lam)
    return BoxCoxFit(lam, mu, sigma, epsilon)


def normal_cdf(x):
    """Standard normal CDF via erf."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + special.erf(arr / _SQRT2))
    return out if out.ndim else float(out)


# Acklam's rational approximation to the standard normal quantile.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_SPLIT = 0.02425


def _acklam(p: np.ndarray) -> np.ndarray:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    out = np.empty_like(p)

    lo = p < _ACK_SPLIT
    hi = p > 1.0 - _ACK_SPLIT
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p[lo]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[lo] = num / den
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[hi] = -num / den
    return out


def normal_quantile(p):
    """Standard normal quantile: rational approximation plus one Newton step."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError("normal quantile defined on the open interval (0, 1)")
    x = _acklam(np.atleast_1d(arr).astype(float))
    pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
    err = 0.5 * (1.0 + special.erf(x / _SQRT2)) - np.atleast_1d(arr)
    # skip refinement where the density underflows (|x| > ~38)
    x = np.where(pdf > 1e-300, x - err / np.where(pdf > 1e-300, pdf, 1.0), x)
    x = x.reshape(np.shape(arr))
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
