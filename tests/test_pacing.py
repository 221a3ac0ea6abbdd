"""Pacing-control formula tests.

The expected-participation function psi is checked against a midpoint
quadrature oracle written here; its inverse against a brute-force grid
scan and, bit for bit, against the sequential bisection in `oracle`.
Scalar expectations are frozen from hand arithmetic on the stated
formulas.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from gdpacer.pacing import (BISECTION_STEPS, PacingHyperParams, apply_dual_clip, dual_step,
                            dual_step_euclidean, dual_step_itakura, fp, fv,
                            init_base_ptr, init_dual_percentile,
                            init_expected_ptr, psi, psi_inverse,
                            psi_speed_bound, update_eptr)
from gdpacer.quality import DomainError
from oracle import campaigns, clip_dual, compute_ptr

DEFAULTS = PacingHyperParams()


def psi_oracle(alpha_bar: float, ptr_base: float, params: PacingHyperParams,
               n: int = 1_000_000) -> float:
    """Midpoint quadrature of min{1, base*fp(a)*fv(a,x)} over x in (a, 1]."""
    if alpha_bar >= 1.0:
        return 0.0
    x = alpha_bar + (1.0 - alpha_bar) * (np.arange(n) + 0.5) / n
    integrand = np.minimum(1.0, ptr_base * fp(alpha_bar, params.p_ub)
                           * fv(alpha_bar, x, params.slope_k))
    return float(integrand.mean() * (1.0 - alpha_bar))


def _state(**kw):
    base = dict(budget=100.0, rho=2.0, audience=1000.0, ptr_exp=0.5, ptr_base=1.0,
                alpha_bar=0.9, alpha=0.5, eptr=1.0)
    base.update(kw)
    return campaigns(1, **base)


# --- initialization formulas ----------------------------------------------------

def test_init_expected_ptr_values():
    assert init_expected_ptr(1000, 100_000, 0.9) == pytest.approx(0.1)
    assert init_expected_ptr(10_000, 100_000, 0.9) == pytest.approx(1.0)
    assert init_expected_ptr(20_000, 100_000, 0.9) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        init_expected_ptr(0.0, 100.0, 0.9)
    with pytest.raises(DomainError):
        init_expected_ptr(10.0, 0.0, 0.9)


def test_init_dual_percentile_values():
    assert init_dual_percentile(0.1, 0.9) == pytest.approx(0.9)
    assert init_dual_percentile(2.0, 0.9) == pytest.approx(0.8)
    # 1 - 0.1*12 = -0.2 clamps to the percentile floor
    assert init_dual_percentile(12.0, 0.9) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        init_dual_percentile(0.0, 0.9)


def test_init_base_ptr_values():
    assert init_base_ptr(0.1, 0.15) == pytest.approx(0.6667, abs=1e-4)
    assert init_base_ptr(0.2, 0.15) == pytest.approx(1.0)
    assert init_base_ptr(0.15, 1.0) == pytest.approx(0.15)
    with pytest.raises(DomainError):
        init_base_ptr(0.1, 0.0)


def test_hyperparam_validation():
    with pytest.raises(DomainError):
        PacingHyperParams(divergence="cosine")
    with pytest.raises(DomainError):
        PacingHyperParams(p_ub=1.0)
    with pytest.raises(DomainError):
        PacingHyperParams(eta=0.0)
    with pytest.raises(DomainError):
        PacingHyperParams(alpha_hat=0.0)
    with pytest.raises(DomainError):
        PacingHyperParams(wr_glb=0.0)
    with pytest.raises(DomainError):
        PacingHyperParams(slope_k=-1.0)
    with pytest.raises(DomainError):
        PacingHyperParams(eptr_speed_cap=1.0)
    with pytest.raises(DomainError):
        PacingHyperParams(initial_trial_rate=0.0)


@pytest.mark.parametrize("name", ["epsilon", "eta", "alpha_hat", "p_ub", "wr_glb", "slope_k",
                                  "eptr_speed_cap", "initial_trial_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_non_finite(name, value):
    # every comparison with NaN is false, so range checks alone let it through
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        PacingHyperParams(**{name: value})


# --- throttle factors ------------------------------------------------------------

def test_fp_endpoints_and_anchor():
    assert fp(0.9, 0.9) == pytest.approx(1.0)
    assert fp(0.0, 0.9) == pytest.approx(50.0)
    assert fp(1.0, 0.9) == pytest.approx(0.2)


def test_fp_continuity_and_bounds():
    assert abs(fp(0.9 - 1e-9, 0.9) - fp(0.9 + 1e-9, 0.9)) <= 1e-6
    grid = fp(np.linspace(0.0, 1.0, 1001), 0.9)
    assert np.all((grid >= 0.2) & (grid <= 50.0))
    assert np.all(np.diff(grid) < 0.0)   # strictly decreasing pressure


def test_fv_values():
    assert fv(0.37, 0.37, 123.0) == pytest.approx(1.0)
    assert fv(0.5, 0.6, 10.0) == pytest.approx(2.0)
    assert fv(0.5, 0.3, 10.0) == pytest.approx(0.0)   # floored


def test_compute_ptr_examples():
    p = PacingHyperParams(slope_k=10.0)
    assert compute_ptr(_state(ptr_base=1.0, alpha_bar=0.9, eptr=1.0), 0, p, 0.9) \
        == pytest.approx(1.0)
    s = _state(ptr_base=0.667, alpha_bar=0.9, eptr=1.0)
    assert compute_ptr(s, 0, p, 0.95) == pytest.approx(1.0)   # 0.667*1*1.5 capped
    s.eptr[0] = 0.5
    assert compute_ptr(s, 0, p, 0.95) == pytest.approx(0.5)


def test_compute_ptr_range_and_monotone_in_quality():
    p = PacingHyperParams()
    s = _state(ptr_base=0.4, alpha_bar=0.55, eptr=0.8)
    vals = [compute_ptr(s, 0, p, v) for v in np.linspace(0.0, 1.0, 101)]
    assert all(0.0 <= x <= 1.0 for x in vals)
    assert np.all(np.diff(vals) >= 0.0)


# --- spend speed and emergency throttle -------------------------------------------

def test_update_eptr_values():
    assert update_eptr(1.0, 4.0) == pytest.approx(0.5)
    assert update_eptr(1.0, 1.0) == pytest.approx(1.0)
    assert update_eptr(0.25, 0.5) == pytest.approx(0.5)
    # zero speed takes the capped boost branch
    assert update_eptr(0.3, 0.0) == pytest.approx(0.6)


@given(eptr=st.floats(1e-6, 1.0), spd=st.floats(0.0, 50.0))
def test_update_eptr_bounds_property(eptr, spd):
    out = update_eptr(eptr, spd)
    assert 0.0 < out <= 1.0
    assert out <= eptr * 2.0 + 1e-15


def test_update_eptr_monotone_in_speed():
    outs = update_eptr(0.5, np.linspace(0.0, 8.0, 200))
    assert np.all(np.diff(outs) <= 1e-15)


# --- dual steps ------------------------------------------------------------------

def test_euclidean_step_values():
    assert dual_step_euclidean(0.42, 0.0, 0.2) == pytest.approx(0.42)
    assert dual_step_euclidean(0.5, 1.0, 0.2) == pytest.approx(0.3)
    assert dual_step_euclidean(0.05, 1.0, 0.2) == pytest.approx(0.0)
    assert dual_step_euclidean(0.95, -1.0, 0.2) == pytest.approx(1.0)


def test_itakura_step_values():
    assert dual_step_itakura(0.42, 0.0, 0.2) == pytest.approx(0.42)
    # (1.5-0.5)^2 = 1, denominator 1 - 0.2: step 0.25
    assert dual_step_itakura(0.5, 1.0, 0.2) == pytest.approx(0.25)
    step_mid = 0.5 - dual_step_itakura(0.5, 1.0, 0.2)
    step_high = 0.9 - dual_step_itakura(0.9, 1.0, 0.2)
    assert 0.0 < step_high < step_mid


def test_itakura_damping_strictly_decreasing():
    # eta small enough that no endpoint clamps on these grids
    eta = 0.05
    down = np.linspace(0.15, 1.0, 18)
    mags = np.abs(dual_step_itakura(down, 1.0, eta) - down)
    assert np.all(np.diff(mags) < 0.0)
    up = np.linspace(0.0, 0.8, 17)
    mags = np.abs(dual_step_itakura(up, -1.0, eta) - up)
    assert np.all(np.diff(mags) < 0.0)


def test_itakura_barrier_rescale_keeps_step_finite():
    # eta*g*(1.5-a) = 15 trips the rescale: g_eff makes the product 0.5,
    # step = (w^2/0.5)*eta*g_eff with w=0.6 gives exactly 0.6
    assert dual_step_itakura(0.9, 10.0, 1.0) == pytest.approx(0.3)
    assert dual_step_itakura(0.0, 10.0, 1.0) == pytest.approx(0.0)   # clamped at floor


@given(a=st.floats(0.0, 1.0), g=st.floats(-5.0, 5.0), eta=st.floats(1e-3, 1.0))
def test_dual_steps_direction_and_range_property(a, g, eta):
    for stepper in (dual_step_euclidean, dual_step_itakura):
        out = stepper(a, g, eta)
        assert 0.0 <= out <= 1.0
        if g > 0.0:
            assert out <= a + 1e-12
        elif g < 0.0:
            assert out >= a - 1e-12


def test_dual_step_dispatch():
    p_e = PacingHyperParams(divergence="euclidean", eta=0.2)
    p_i = PacingHyperParams(divergence="itakura", eta=0.2)
    assert dual_step(0.5, 1.0, p_e) == pytest.approx(0.3)
    assert dual_step(0.5, 1.0, p_i) == pytest.approx(0.25)


# --- expected participation psi ---------------------------------------------------

def test_psi_frozen_example_and_oracle():
    p = PacingHyperParams(slope_k=10.0, p_ub=0.9)
    # integrand 0.5*(10(x-0.9)+1) rises from 0.5 at x=0.9 with slope 5 and
    # reaches 1 exactly at x=1, so the cap never binds:
    # integral = 0.1 * (0.5+1)/2 = 0.075
    val = psi(0.9, 0.5, p)
    assert val == pytest.approx(0.075, abs=1e-12)
    assert val == pytest.approx(psi_oracle(0.9, 0.5, p), abs=1e-6)


def test_psi_degenerate_branches():
    p = PacingHyperParams()
    assert psi(1.0, 0.5, p) == pytest.approx(0.0)
    # base*fp >= 1 saturates the throttle: integral of 1 over (a, 1]
    assert psi(0.0, 1.0, p) == pytest.approx(1.0)
    assert psi(0.3, 1.0, p) == pytest.approx(0.7)


def test_psi_subnormal_base_takes_the_full_branch_without_warning():
    # a subnormal ptr_base makes the slope subnormal and the distance to the
    # saturation point overflow to inf, which selects the unsaturated branch
    p = PacingHyperParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = psi(0.5, 5e-324, p)
        inv = psi_inverse(val, 5e-324, p)
    c = 5e-324 * fp(0.5, p.p_ub)
    assert val == c * 0.5 + 0.5 * (c * p.slope_k) * 0.5 * 0.5
    assert inv == oracle.psi_inverse(val, 5e-324, p)


@pytest.mark.parametrize("a,base", [(0.1, 0.05), (0.25, 0.3), (0.5, 0.1),
                                    (0.6, 0.9), (0.85, 0.5), (0.95, 0.2)])
def test_psi_matches_quadrature_oracle(a, base):
    p = PacingHyperParams()
    assert psi(a, base, p) == pytest.approx(psi_oracle(a, base, p), abs=1e-6)


def test_psi_oracle_agreement_with_zero_slope():
    p = PacingHyperParams(slope_k=0.0)
    for a, base in [(0.2, 0.4), (0.7, 0.05)]:
        assert psi(a, base, p) == pytest.approx(psi_oracle(a, base, p), abs=1e-6)


@pytest.mark.parametrize("base", [0.1, 0.5, 1.0])
def test_psi_strictly_decreasing(base):
    p = PacingHyperParams()
    grid = psi(np.linspace(0.0, 1.0, 201), base, p)
    assert np.all(np.diff(grid) < 0.0)


def test_psi_inverse_round_trip_grid():
    p = PacingHyperParams()
    for base in (0.1, 0.5, 1.0):
        top = psi(0.0, base, p)
        targets = np.linspace(top * 1e-3, top * 0.999, 100)
        a = psi_inverse(targets, base, p)
        assert np.max(np.abs(psi(a, base, p) - targets)) <= 1e-6


def test_psi_inverse_composition_and_saturation():
    p = PacingHyperParams()
    assert psi_inverse(psi(0.7, 0.5, p), 0.5, p) == pytest.approx(0.7, abs=1e-6)
    assert psi_inverse(psi(0.0, 0.5, p) + 0.1, 0.5, p) == pytest.approx(0.0)
    assert psi_inverse(0.0, 0.5, p) == pytest.approx(1.0)
    assert psi_inverse(-0.3, 0.5, p) == pytest.approx(1.0)


def test_psi_inverse_against_grid_scan():
    # half the frozen-example participation; brute-force scan as the oracle
    p = PacingHyperParams(slope_k=10.0, p_ub=0.9)
    target = 0.075 / 2.0
    grid = np.linspace(0.0, 1.0, 100_001)
    vals = psi(grid, 0.5, p)
    scan = grid[int(np.argmin(np.abs(vals - target)))]
    assert psi_inverse(target, 0.5, p) == pytest.approx(scan, abs=1e-4)


def _mix(rng, n, *choices):
    """n values, each drawn from one of the choices picked at random."""
    return np.choose(rng.integers(0, len(choices), n), [np.broadcast_to(c, n) for c in choices])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@example(seed=0, n=1, slope_k=10.0, p_ub=0.9)
@example(seed=1, n=700, slope_k=0.0, p_ub=0.5)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 700),
       slope_k=st.sampled_from([0.0, 0.5, 10.0, 40.0]),
       p_ub=st.sampled_from([0.05, 0.5, 0.9, 0.99]))
def test_psi_inverse_matches_sequential_bisection(seed, n, slope_k, p_ub):
    # every size from 1 to 700 also checks that psi gives an element the same
    # bits wherever it sits in an array: the fast path evaluates psi on
    # arrays of other shapes than the bisection does
    rng = np.random.default_rng(seed)
    p = PacingHyperParams(slope_k=slope_k, p_ub=p_ub)
    a = _mix(rng, n, rng.random(n), 0.0, p_ub, 1.0)
    base = _mix(rng, n, rng.random(n), 10.0 ** rng.uniform(-300, -6, n), 1e-9, 1.0,
                rng.uniform(1.0, 50.0, n))
    spd = _mix(rng, n, rng.lognormal(0.0, 1.5, n), 0.0, 1e-3, 1e6)
    top = psi(np.zeros(n), base, p)
    t = _mix(rng, n, psi(a, base, p) / np.maximum(spd, 1e-3), top, top * (1.0 + 1e-3),
             top * rng.random(n), 0.0, -0.5, 5e-324, psi(np.nextafter(1.0, 0.0), base, p) / 2.0)
    assert np.array_equal(_bits(psi_inverse(t, base, p)), _bits(oracle.psi_inverse(t, base, p)))
    assert np.array_equal(_bits(psi_speed_bound(a, base, spd, p)),
                          _bits(oracle.psi_speed_bound(a, base, spd, p)))
    assert _bits(psi_inverse(t[0], base[0], p)) == _bits(oracle.psi_inverse(t[0], base[0], p))


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(0.0, 1.0, exclude_max=True), base=st.floats(0.0, 1e6))
def test_bisection_bracket_of_adjacent_doubles_stays_put(lo, base):
    # psi_inverse stops a campaign once lo and hi are adjacent doubles: the
    # midpoint then rounds onto one of them, whose comparison is made
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) in (lo, hi)
    # the two ends never evaluated: hi = 1 sends every target above 0 left,
    # as its comparison would, and lo = 0 never gets an adjacent hi
    assert psi(1.0, base, DEFAULTS) == 0.0
    assert np.ldexp(1.0, -BISECTION_STEPS) > np.nextafter(0.0, 1.0)


# --- gradient clipping ------------------------------------------------------------

def test_apply_dual_clip_static_example():
    # static radius binds against a long downward step
    assert apply_dual_clip(0.5, 0.2, 1.0, 0.05, psi_bound=0.3) == pytest.approx(0.45)


def test_apply_dual_clip_pass_through_and_sides():
    assert apply_dual_clip(0.5, 0.47, 1.0, 0.05) == pytest.approx(0.47)
    assert apply_dual_clip(0.5, 0.53, -1.0, 0.05) == pytest.approx(0.53)
    # psi bound can demand more than the static radius in the up direction
    assert apply_dual_clip(0.5, 0.7, -1.0, 0.05, psi_bound=0.6) == pytest.approx(0.55)
    assert apply_dual_clip(0.5, 0.7, -1.0, 0.05, psi_bound=0.52) == pytest.approx(0.52)


def test_clip_dual_speed_semantics():
    p = PacingHyperParams(alpha_hat=0.05)
    s = _state(alpha_bar=0.5, ptr_base=0.4)
    # on-pace: the participation bound pins the dual in place
    assert clip_dual(s, 0, 0.4, 1.0, 1.0, p) == pytest.approx(0.5, abs=1e-7)
    # underspend halves the speed: bound drops below alpha_bar, step allowed
    out = clip_dual(s, 0, 0.4, 1.0, 0.5, p)
    assert out < 0.5
    bound = psi_speed_bound(0.5, 0.4, 0.5, p)
    assert out == pytest.approx(max(0.4, 0.5 - 0.05, bound))
    # overspend: upward move capped by the tighter of radius and bound
    out = clip_dual(s, 0, 0.9, -1.0, 4.0, p)
    bound = psi_speed_bound(0.5, 0.4, 4.0, p)
    assert out == pytest.approx(min(0.9, 0.5 + 0.05, bound))


def test_clip_dual_static_only_when_adaptive_disabled():
    p = PacingHyperParams(alpha_hat=0.05, adaptive_clip_enabled=False)
    s = _state(alpha_bar=0.5)
    assert clip_dual(s, 0, 0.2, 1.0, 0.1, p) == pytest.approx(0.45)
    assert clip_dual(s, 0, 0.9, -1.0, 9.0, p) == pytest.approx(0.55)


def test_psi_speed_bound_direction():
    p = PacingHyperParams()
    assert psi_speed_bound(0.5, 0.4, 0.5, p) < 0.5   # underspend opens traffic
    assert psi_speed_bound(0.5, 0.4, 4.0, p) > 0.5   # overspend restricts it
    assert psi_speed_bound(0.5, 0.4, 1.0, p) == pytest.approx(0.5, abs=1e-7)


@settings(max_examples=80)
@given(a=st.floats(0.0, 1.0), g=st.floats(-3.0, 3.0))
def test_static_clip_radius_property(a, g):
    p = PacingHyperParams(alpha_hat=0.05, adaptive_clip_enabled=False)
    proposed = dual_step(a, g, p)
    s = _state(alpha_bar=a)
    out = clip_dual(s, 0, proposed, g, 1.0, p)
    assert 0.0 <= out <= 1.0
    assert abs(out - a) <= 0.05 + 1e-12
