"""Numeric property checks behind the `validate` command.

Each check turns one of the distributional claims the pacing design leans on
into a computation over a grid, so a regression in the transform or
threshold machinery shows up as a named failing grid point rather than a
silent drift.  Beta CDFs and survival functions are scipy's regularized
incomplete beta functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .quality import backward_transform, boxcox, forward_transform, normal_cdf, normal_quantile

QUAD_TOL = 1e-8
SHAPE_STEP = 0.5            # the shape increment of the participation-shape check
LINEAR_BOUND_POINTS = 1000  # the grid on which K1 of the percentile bound is found
SHAPE_GRID = ((2.0, 2.0), (3.0, 2.0), (2.0, 5.0))
ALPHA_GRID = np.linspace(0.1, 0.9, 9)


def beta_cdf(m: float, n: float, x):
    """P(V <= x) for V ~ Beta(m, n), elementwise; 0 below the support and 1
    above it."""
    return special.betainc(m, n, np.clip(x, 0.0, 1.0))


def participation_rate(m: float, n: float, alpha):
    """Probability a quality draw clears the threshold alpha, elementwise."""
    return special.betaincc(m, n, np.clip(alpha, 0.0, 1.0))


def fluctuation_ratio(m: float, n: float, alpha, delta: float = 0.05):
    """How much the participation rate grows when the threshold drops by
    delta; its monotone growth in alpha is what makes high thresholds
    twitchy."""
    return participation_rate(m, n, alpha - delta) / participation_rate(m, n, alpha)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_ratio_monotone(name: str, ratio, holds: str) -> CheckResult:
    """`ratio(m, n)`, a ratio over ALPHA_GRID, must not fall for any shape pair."""
    for m, n in SHAPE_GRID:
        vals = ratio(m, n)
        bad = np.flatnonzero(np.diff(vals) < -QUAD_TOL)
        if bad.size:
            i = int(bad[0])
            return CheckResult(name, False,
                               f"ratio decreases at (m={m}, n={n}, "
                               f"alpha={ALPHA_GRID[i + 1]:.2f}): "
                               f"{vals[i]:.10f} -> {vals[i + 1]:.10f}")
    return CheckResult(name, True, holds)


def _check_participation_shape_monotone() -> CheckResult:
    name = "participation-shape-monotonicity"
    for m, n in SHAPE_GRID:
        for a in ALPHA_GRID:
            base = participation_rate(m, n, a)
            up_m = participation_rate(m + SHAPE_STEP, n, a)
            up_n = participation_rate(m, n + SHAPE_STEP, a)
            if up_m - base < QUAD_TOL:
                return CheckResult(name, False,
                                   f"not increasing in m at (m={m}, n={n}, alpha={a:.2f}): "
                                   f"{base:.10f} -> {up_m:.10f}")
            if base - up_n < QUAD_TOL:
                return CheckResult(name, False,
                                   f"not decreasing in n at (m={m}, n={n}, alpha={a:.2f}): "
                                   f"{base:.10f} -> {up_n:.10f}")
    return CheckResult(name, True, "rate rises with m and falls with n at every grid point")


def _check_percentile_linear_bound() -> CheckResult:
    """CDF(alpha) <= K1 * alpha with a finite K1 attained strictly inside
    (0, 1); verified on an offset grid finer than the one K1 came from."""
    name = "percentile-linear-bound"
    grid = np.linspace(1.0 / LINEAR_BOUND_POINTS, 1.0, LINEAR_BOUND_POINTS)
    probe = np.linspace(0.0007, 0.9993, 1000)
    for m, n in SHAPE_GRID:
        ratio = beta_cdf(m, n, grid) / grid
        k1 = float(ratio.max())
        arg = int(ratio.argmax())
        if not np.isfinite(k1):
            return CheckResult(name, False, f"K1 diverges for (m={m}, n={n})")
        if arg in (0, grid.size - 1):
            return CheckResult(name, False,
                               f"K1 attained at the boundary alpha={grid[arg]:.4f} "
                               f"for (m={m}, n={n})")
        cdf_p = beta_cdf(m, n, probe)
        slack = cdf_p - k1 * (1.0 + 1e-6) * probe
        if (slack > QUAD_TOL).any():
            i = int(np.argmax(slack))
            return CheckResult(name, False,
                               f"bound violated at (m={m}, n={n}, alpha={probe[i]:.4f}): "
                               f"CDF={cdf_p[i]:.10f} > K1*alpha={k1 * probe[i]:.10f}")
    return CheckResult(name, True, "finite interior K1 bounds the percentile map")


def _check_transform_round_trip() -> CheckResult:
    """The engine's forward and backward maps invert each other to 1e-6 over
    a grid of lambdas, epsilons and qualities."""
    name = "transform-round-trip"
    vgrid = np.linspace(0.01, 0.99, 99)
    for lam in (-1.0, 0.0, 0.5, 1.0):
        y = boxcox(lam, vgrid)
        mu = float((y.max() + y.min()) / 2.0)
        sigma = float((y.max() - y.min()) / 6.0)
        for eps in (0.0, 0.1, 1.0):
            scale = sigma * (1.0 + eps)
            back = backward_transform(lam, mu, scale, forward_transform(lam, mu, scale, vgrid))
            err = np.abs(back - vgrid)
            if err.max() > 1e-6:
                i = int(err.argmax())
                return CheckResult(name, False,
                                   f"round-trip error {err[i]:.3e} at "
                                   f"(lambda={lam}, eps={eps}, v={vgrid[i]:.2f})")
    return CheckResult(name, True, "percentile round trip exact to 1e-6 on all grids")


def _check_normal_inverse() -> CheckResult:
    name = "normal-inverse-consistency"
    xs = np.linspace(-6.0, 6.0, 241)
    for x in xs:
        p = normal_cdf(x)
        if not 0.0 < p < 1.0:
            continue
        err = abs(normal_quantile(p) - x)
        if err > 1e-6:
            return CheckResult(name, False,
                               f"quantile(cdf(x)) off by {err:.3e} at x={x:.3f}")
    spot = abs(normal_cdf(1.959964) - 0.975)
    if spot > 1e-6:
        return CheckResult(name, False,
                           f"cdf(1.959964) misses 0.975 by {spot:.3e}")
    return CheckResult(name, True, "quantile inverts cdf to 1e-6 over |x| <= 6")


def run_validation_suite() -> list[CheckResult]:
    """All distribution and transform checks, in their report order."""
    return [
        _check_ratio_monotone("survival-ratio-monotonicity",
                              lambda m, n: fluctuation_ratio(m, n, ALPHA_GRID, 0.05),
                              f"non-decreasing over alpha grid for {len(SHAPE_GRID)} shape pairs"),
        _check_participation_shape_monotone(),
        _check_ratio_monotone("drift-ratio-monotonicity",
                              lambda m, n: participation_rate(m + 0.5, n, ALPHA_GRID)
                              / participation_rate(m, n, ALPHA_GRID),
                              "shape-shift ratio non-decreasing in alpha"),
        _check_percentile_linear_bound(),
        _check_transform_round_trip(),
        _check_normal_inverse(),
    ]
