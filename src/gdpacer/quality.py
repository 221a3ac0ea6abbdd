"""Impression-quality modeling and percentile transforms.

Campaign impression quality is modeled as a beta law.  A fitted Box-Cox
power transform composed with the standard normal CDF maps raw qualities
into percentile space, where the pacing controller keeps its dual
variables, and the inverse composition maps a percentile dual back into
an auction threshold in quality units.  A fit comes from logged samples
(`fit_boxcox_batch`) or, for a campaign's prior, in closed form from its
beta law (`fit_boxcox_beta`).

`forward_transform` and `backward_transform` are the one map in each
direction: the engine's throttle and threshold, and the `validate` round
trip, all call them.  They take a fit as its parts (lambda, mu and the
normal scale), broadcast over numpy arrays and return what numpy returns.
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


@dataclass(frozen=True)
class BetaQualityModel:
    """Beta(m, n) quality law; finite shapes >= 2 keep the density unimodal
    with vanishing mass at both endpoints."""

    m: float
    n: float

    def __post_init__(self):
        if not (2.0 <= self.m < math.inf and 2.0 <= self.n < math.inf):
            raise DomainError(
                f"beta shape parameters must both be finite and >= 2, got ({self.m}, {self.n})"
            )

    @property
    def mean(self) -> float:
        return self.m / (self.m + self.n)


def boxcox(lam, v):
    """Box-Cox power transform with a lambda per element of `v` (broadcast):
    (v^lambda - 1) / lambda, computed in place, and ln v where |lambda| <
    1e-9, computed only when some lambda takes that branch."""
    log_branch = np.abs(lam) < _LOG_BRANCH_EPS
    some_log = log_branch.any()
    if some_log:
        lam = np.where(log_branch, 1.0, lam)
    t = np.power(v, lam)
    t -= 1.0
    t /= lam
    return np.where(log_branch, np.log(v), t) if some_log else t


MIN_LAMBDA_SAMPLES = 30
# below this |lambda| the score and its slope come from their series at 0
_SERIES_LAMBDA = 1e-3
# a bound for malformed input; bisection alone narrows [-2, 2] to 1e-4 in 16 steps
_MAX_STEPS = 100
_ONE = np.ones(1)


def fit_boxcox_batch(segments) -> np.ndarray:
    """(3, n) Box-Cox lambda, mean and population std of each of n sample
    segments, fitted in one batch; NaN where a segment has fewer than 30
    samples, a sample <= 0, all samples equal, or a transformed sigma that
    is 0 or not finite.

    The segments are laid out once, each behind a slot holding 1.0, whose
    log and transform are 0 for every lambda, so each `np.add.reduceat` sum
    adds the segment to 0 with numpy's pairwise summation, as `np.sum`
    does.  The checks run on that layout; the lambda solve
    (:func:`_fit_lambdas`) on the log of its fittable segments, and the
    moment pass (:func:`_fit_moments`) on the layout itself.  A segment's
    fit is the same bit for bit fitted alone or in a batch.
    """
    segs = [np.asarray(s, dtype=float).ravel() for s in segments]
    out = np.full((3, len(segs)), np.nan)
    if not segs:
        return out
    reps = np.array([s.size + 1 for s in segs], dtype=np.int64)
    starts = np.cumsum(reps) - reps
    # the slot first repeats the segment's first sample, keeping its range
    v = np.concatenate([part for s in segs for part in (s[:1] if s.size else _ONE, s)])
    vmin = np.minimum.reduceat(v, starts)
    fit = (reps > MIN_LAMBDA_SAMPLES) & (vmin > 0.0) & (np.maximum.reduceat(v, starts) > vmin)
    v[starts] = 1.0
    if fit.any():
        lam = np.full(len(segs), np.nan)
        lam[fit] = _fit_lambdas(np.log(v if fit.all() else v[np.repeat(fit, reps)]), reps[fit])
        mu, sigma = _fit_moments(v, starts, reps, lam)
        ok = np.isfinite(sigma) & (sigma > 0.0)
        out[:, ok] = lam[ok], mu[ok], sigma[ok]
    return out


def _fit_lambdas(z: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Profile-likelihood lambda of each segment of the log layout `z` (the
    layout of :func:`fit_boxcox_batch` with its slots at 0; segment k and
    its slot span `reps[k]` entries), by one safeguarded Newton solve of the
    profile score on [low, high] = [-2, 2], to a width tol = 1e-4, run on all
    segments at once.  `z` is overwritten.

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
    A segment that stops leaves the batch.  With a fixed start, a segment's
    lambda does not depend on the other segments.
    """
    starts = np.cumsum(reps) - reps
    n = (reps - 1).astype(float)
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

    low, high, tol = -2.0, 2.0, 1e-4
    seg = np.arange(reps.size)      # the live segments
    out = np.empty(reps.size)
    lam, a, b = np.zeros(seg.size), np.full(seg.size, low), np.full(seg.size, high)
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


def _fit_moments(v: np.ndarray, starts: np.ndarray, reps: np.ndarray,
                 lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of each segment's Box-Cox transform at its
    own lambda, in one pass over the layout `v` of :func:`fit_boxcox_batch`
    (slots at 1.0), transformed by one `boxcox` call with a lambda per
    element.  Each sum adds the segment to its slot's transform, 0,
    as `np.mean` and `np.std` do on `boxcox(lambda, segment)`, bit for bit.
    The exception is a lambda of exactly -1, 0.5 or 2, where numpy's
    scalar-exponent fast paths in `boxcox` at one scalar lambda can round a
    transform one ulp apart.  A fitted lambda is a Newton point strictly
    inside its bracket or the midpoint of a bracket narrower than 1e-4, so
    never 2 (or -2), and -1 or 0.5 only by a coincidence of rounding that
    the tests check does not happen on their samples.  A segment's sigma that is 0 or not finite
    is returned as it is, and a NaN lambda gives NaN moments.
    """
    n = reps - 1.0
    with np.errstate(all="ignore"):
        t = boxcox(np.repeat(lambdas, reps), v)
        mu = np.add.reduceat(t, starts) / n
        t -= np.repeat(mu, reps)
        t *= t
        t[starts] = 0.0
        sigma = np.sqrt(np.add.reduceat(t, starts) / n)
    return mu, sigma


_BETA_TOL = 1e-9                # Newton step or bracket width at which a law's fit stops


@np.errstate(all="ignore")
def fit_boxcox_beta(m, n) -> np.ndarray:
    """(3, k) Box-Cox lambda, mean and population std of each of k
    Beta(m, n) laws (`m` and `n` broadcast to one dimension): the exact fit
    that :func:`fit_boxcox_batch` tends to on ever more samples of the law.

    For V ~ Beta(m, n) and s > -m, E[V^s] = exp(betaln(m + s, n) -
    betaln(m, n)), and its derivative in s is E[V^s ln V] = E[V^s] (psi(m + s)
    - psi(m + n + s)).  With K = E[V^(2 lambda)] - E[V^lambda]^2, the variance
    of boxcox(lambda, V) times lambda^2, the population profile likelihood
    -(1/2) ln K + ln|lambda| + (lambda - 1) E[ln V] has the score
    1/lambda - K'/(2K) + E[ln V], and its slope, in closed form from
    `betaln`, `digamma` and psi' = `zeta(2, .)`.  Below |lambda| = 1e-3,
    where 1/lambda cancels against K'/(2K), the score is its first-order
    series at 0, -k3/(2 k2) + lambda (6 k3^2 - 7 k2 k4 - 18 k2^3) / (12 k2^2),
    from the cumulants k_j = psi^(j-1)(m) - psi^(j-1)(m + n) of ln V
    (`polygamma`).

    The solve runs on [max(-2, -m/2), 2]: K is infinite at lambda <= -m/2.
    Each law starts at lambda = 0, where the score -k3/(2 k2) is positive
    (psi'' increases, so k3 < 0), and takes safeguarded Newton steps as
    :func:`_fit_lambdas` does: a Newton point past 2 is evaluated at 2, and
    one outside the bracket, or taken where the slope is not negative,
    becomes a bisection.  Where the score stays positive up to 2 the bracket
    closes on its end, and lambda is 2.  A law stops once its Newton step or
    its bracket is at most 1e-9 wide, and every operation is elementwise, so
    a law's fit is the same bit for bit fitted alone or in a batch.  Then
    mu = (E[V^lambda] - 1)/lambda and sigma = sqrt(K)/|lambda|.
    """
    m, n = np.broadcast_arrays(np.atleast_1d(np.asarray(m, dtype=float)),
                               np.asarray(n, dtype=float))
    b0, mean_log = special.betaln(m, n), special.digamma(m) - special.digamma(m + n)
    k2, k3, k4 = special.polygamma([[1], [2], [3]], m) - special.polygamma([[1], [2], [3]], m + n)
    score0 = -k3 / (2.0 * k2)
    slope0 = (6.0 * k3 * k3 - 7.0 * k2 * k4 - 18.0 * k2 ** 3) / (12.0 * k2 * k2)

    high = 2.0
    a, b = np.maximum(-2.0, -0.5 * m), np.full(m.shape, high)
    lam, out, live = np.zeros(m.shape), np.empty(m.shape), np.ones(m.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        near0 = np.abs(lam) < _SERIES_LAMBDA
        score, slope = score0 + slope0 * lam, slope0
        if not near0.all():
            x = m + np.multiply.outer((1.0, 2.0), lam)      # rows lambda and 2 lambda
            e = np.exp(special.betaln(x, n) - b0)           # E[V^s]
            d = special.digamma(x) - special.digamma(x + n)     # E[V^s ln V] / E[V^s]
            t = special.zeta(2.0, x) - special.zeta(2.0, x + n)  # d' in s
            u = e[0] * e[0]
            k = e[1] - u
            r = (e[1] * d[1] - u * d[0]) / k                # K'/(2K)
            r1 = (2.0 * e[1] * (d[1] * d[1] + t[1]) - u * (2.0 * d[0] * d[0] + t[0])) / k
            score = np.where(near0, score, 1.0 / lam - r + mean_log)
            slope = np.where(near0, slope, 2.0 * r * r - r1 - 1.0 / (lam * lam))
        a, b = np.where(score > 0.0, lam, a), np.where(score < 0.0, lam, b)
        raw = lam - score / slope
        nxt = np.minimum(raw, high)
        newton = (slope < 0.0) & (nxt > a) & (nxt <= b)
        nxt = np.where(newton, nxt, 0.5 * (a + b))
        stop = live & (newton & (np.abs(raw - lam) <= _BETA_TOL) | (b - a <= _BETA_TOL))
        out[stop] = nxt[stop]
        live &= ~stop
        if not live.any():
            break
        lam = np.where(live, nxt, lam)
    out[live] = 0.5 * (a + b)[live]
    e = np.exp(special.betaln(m + np.multiply.outer((1.0, 2.0), out), n) - b0)
    return np.array([out, (e[0] - 1.0) / out, np.sqrt(e[1] - e[0] * e[0]) / np.abs(out)])


def normal_cdf(x):
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + special.erf(x / _SQRT2))


def normal_quantile(p):
    """Standard normal quantile on the open interval (0, 1); anything else,
    NaN included, is a DomainError."""
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("normal quantile defined on the open interval (0, 1)")
    return special.ndtri(p)


def forward_transform(lam, mu, scale, v):
    """Quality -> percentile: Phi((boxcox(lambda, v) - mu) / scale).

    The fit comes as its parts: the Box-Cox lambda, the mean mu of the
    transformed samples, and the normal scale sigma * (1 + epsilon), where
    epsilon > 0 widens the scale and pulls percentiles toward 0.5.  Each
    part broadcasts against `v`, so one call maps every edge of a period
    under its own campaign's fit.
    """
    return normal_cdf((boxcox(lam, v) - mu) / scale)


def backward_transform(lam, mu, scale, alpha_bar):
    """Percentile -> quality threshold, the inverse of :func:`forward_transform`
    on the same fit parts, broadcast over per-campaign fits.

    The percentile is clamped to [1e-6, 1 - 1e-6] before inversion, so it
    needs no domain check; a NaN percentile gives a NaN threshold.  A
    clamped percentile near 0 or 1 can still land outside the Box-Cox image
    for the fitted lambda; the threshold there is the edge of the
    representable quality range, so the inverse power base is floored at a
    tiny positive value instead of raising.  ln's inverse, exp, is computed
    only when some lambda takes that branch.
    """
    a = np.minimum(np.maximum(alpha_bar, PERCENTILE_FLOOR), 1.0 - PERCENTILE_FLOOR)
    y = mu + special.ndtri(a) * scale
    log_branch = np.abs(lam) < _LOG_BRANCH_EPS
    some_log = log_branch.any()
    if some_log:
        lam = np.where(log_branch, 1.0, lam)
    t = np.power(np.maximum(lam * y + 1.0, 1e-12), 1.0 / lam)
    return np.where(log_branch, np.exp(y), t) if some_log else t
