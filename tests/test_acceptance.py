"""Acceptance suite: one test per release criterion.

Each test is self-contained, prints the measured quantities it gates on, and
fails only on the criterion's own threshold.  Thresholds and grids are pinned
here on purpose; loosening one is a release decision, not a test fix.
"""

import json
import time

import numpy as np
import scipy.special

from gdpacer.cli import main
from gdpacer.engine import RunConfig, prepare, run_dmd, run_rcpacing, run_seed
from gdpacer.metrics import aggregate_rounds, hindsight_optimum, regret, unsmoothness
from gdpacer.pacing import PacingHyperParams, fp, fv, psi, psi_inverse
from gdpacer.quality import (BetaQualityModel, backward_transform, boxcox, forward_transform,
                             normal_cdf, normal_quantile)
from gdpacer.simulate import (default_scenario, generate_stream, run_ablation, run_experiment,
                              run_experiment_detailed)
from oracle import load_script

N_SEEDS = 20
N_ROUNDS = 20


def _agg(config):
    return aggregate_rounds(run_experiment(config))


# criterion 1: hard feasibility everywhere; near-full delivery for the dual
# methods when supply covers demand 3x over; 20 desk-scale seeds in 60 s
def test_criterion_1_feasibility_and_delivery():
    t0 = time.perf_counter()
    worst_delivery = {"dmd": 1.0, "rcpacing": 1.0}
    worst_margin = np.inf
    for seed in range(N_SEEDS):
        cfg = default_scenario(seed=seed, rounds=1)
        reports, traces = run_experiment_detailed(cfg)
        supply = sum(c.recall_prob for c in cfg.campaigns) * cfg.total_requests
        demand = float(np.sum(traces["dmd"].budgets))
        worst_margin = min(worst_margin, supply / demand)
        for algo, tr in traces.items():
            assert np.all(tr.wins.sum(axis=1) <= tr.budgets + 1e-9), \
                f"seed {seed}: {algo} overspends a budget"
        for rep in reports:
            if rep.algorithm in worst_delivery:
                worst_delivery[rep.algorithm] = min(worst_delivery[rep.algorithm],
                                                    rep.delivery_rate)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: min delivery dmd={worst_delivery['dmd']:.4f} "
          f"rcpacing={worst_delivery['rcpacing']:.4f}, "
          f"min supply/demand={worst_margin:.2f}, {elapsed:.1f}s")
    assert worst_margin >= 3.0
    assert worst_delivery["dmd"] >= 0.99
    assert worst_delivery["rcpacing"] >= 0.99
    assert elapsed <= 60.0


# criterion 2: pacing quality ordering over budget-scaled rounds
def test_criterion_2_method_ordering():
    cfg = default_scenario(seed=0, rounds=N_ROUNDS, algorithms=("dmd", "rcpacing"))
    table = _agg(cfg)
    ui_ratio = table["rcpacing"]["unsmoothness"][0] / table["dmd"]["unsmoothness"][0]
    ctr_ratio = table["rcpacing"]["avg_ctr"][0] / table["dmd"]["avg_ctr"][0]
    print(f"criterion 2: UI ratio {ui_ratio:.3f} (need <= 0.6), "
          f"CTR ratio {ctr_ratio:.3f} (need >= 1.15)")
    assert ui_ratio <= 0.6
    assert ctr_ratio >= 1.15


def _rcp_scenario(**hyper):
    return default_scenario(seed=0, rounds=N_ROUNDS, algorithms=("rcpacing",),
                            hyperparams=PacingHyperParams(**hyper))


def _rcp_cells(axis, values, **hyper):
    """The rcpacing row of `aggregate_rounds` for each value of one ablation
    axis, in order; every cell runs on each round's one prepared stream."""
    cfg = _rcp_scenario(**hyper)
    cfg.ablation = {axis: list(values)}
    return [aggregate_rounds(reports)["rcpacing"] for _, reports in run_ablation(cfg)]


# criterion 3a: steeper quality weighting never lowers mean CTR
def test_criterion_3a_slope_direction():
    means = [row["avg_ctr"][0] for row in _rcp_cells("slope_k", (0.0, 10.0, 100.0))]
    print(f"criterion 3a: mean CTR over k grid {[f'{m:.4f}' for m in means]}")
    assert means[0] <= means[1] <= means[2]


# criterion 3b: at a hot step size, clipping buys >= 10% smoothness
def test_criterion_3b_clipping_helps_at_high_eta():
    on, off = (row["unsmoothness"][0]
               for row in _rcp_cells("clip_enabled", (True, False), eta=0.8))
    print(f"criterion 3b: UI clip-on {on:.3f} vs clip-off {off:.3f} "
          f"({100 * (1 - on / off):.1f}% reduction, need >= 10%)")
    assert on <= 0.9 * off


# criterion 3c: boundary-damped divergence no worse than euclidean
def test_criterion_3c_divergence_comparison():
    it, eu = (row["unsmoothness"] for row in _rcp_cells("divergence", ("itakura", "euclidean")))
    pooled = float(np.sqrt((it[1] ** 2 + eu[1] ** 2) / 2.0))
    print(f"criterion 3c: UI itakura {it[0]:.4f}+/-{it[1]:.4f} vs "
          f"euclidean {eu[0]:.4f}+/-{eu[1]:.4f}, pooled std {pooled:.4f}")
    assert it[0] <= eu[0] + pooled


# criterion 4: per-impression regret grows sublinearly (ratio <= 3 per 4x T)
def test_criterion_4_regret_sublinearity():
    t0 = time.perf_counter()
    scaling = load_script("run_regret_scaling")
    regrets = {"dmd": [], "rcpacing": []}
    for T in (1000, 4000, 16000):
        cfg = scaling.instance(T, 0)
        specs = cfg.campaigns
        stream = generate_stream(cfg)
        opt = hindsight_optimum(stream, {s.id: s.budget for s in specs})
        hyper = PacingHyperParams(eta=2.0 / np.sqrt(T), initial_trial_rate=1.0)
        for algo, runner in (("dmd", run_dmd), ("rcpacing", run_rcpacing)):
            rc = RunConfig(params=hyper, seed=run_seed(0, algo, 0),
                           per_impression=True, gradient_mode="absolute")
            regrets[algo].append(regret(runner(stream, specs, rc), opt))
    elapsed = time.perf_counter() - t0
    for algo, (r1, r2, r3) in regrets.items():
        ratios = (r2 / r1, r3 / r2)
        print(f"criterion 4: {algo} regrets {r1:.1f}/{r2:.1f}/{r3:.1f}, "
              f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (need <= 3.0)")
        assert ratios[0] <= 3.0 and ratios[1] <= 3.0
    print(f"criterion 4: {elapsed:.1f}s")
    assert elapsed <= 300.0


# criterion 5: the numeric validation command passes, quickly
def test_criterion_5_validate_command(capsys):
    t0 = time.perf_counter()
    code = main(["validate"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    print(f"criterion 5: exit {code}, {out.count('PASS')} checks, {elapsed:.1f}s")
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert elapsed <= 10.0


# criterion 6: transform stack correctness at pinned tolerances; the round trip
# runs the engine's own forward and backward maps
def test_criterion_6_transform_correctness():
    # percentile round trip over the full grid cross product
    vgrid = np.linspace(0.01, 0.99, 99)
    worst_rt = 0.0
    for lam in (-1.0, 0.0, 0.5, 1.0):
        y = boxcox(lam, vgrid)
        mu = float((y.max() + y.min()) / 2.0)
        sigma = float((y.max() - y.min()) / 6.0)
        for eps in (0.0, 0.1, 1.0):
            scale = sigma * (1.0 + eps)
            back = backward_transform(lam, mu, scale, forward_transform(lam, mu, scale, vgrid))
            worst_rt = max(worst_rt, float(np.max(np.abs(back - vgrid))))
    assert worst_rt <= 1e-6

    # closed-form psi vs 1e6-point midpoint quadrature over (a, 1]
    params = PacingHyperParams()
    mids = (np.arange(1_000_000) + 0.5) / 1_000_000
    worst_psi = 0.0
    for base in (0.1, 0.4, 1.0):
        for a in (0.0, 0.3, 0.62, 0.9):
            xs = a + (1.0 - a) * mids
            integrand = np.minimum(1.0, base * fp(a, params.p_ub)
                                   * fv(a, xs, params.slope_k))
            ref = float(integrand.mean() * (1.0 - a))
            worst_psi = max(worst_psi, abs(float(psi(a, base, params)) - ref))
    assert worst_psi <= 1e-6

    # psi_inverse right-inverse over 100 targets spanning (0, psi(0))
    top = float(psi(0.0, 0.4, params))
    targets = np.linspace(top * 1e-3, top * 0.999, 100)
    backs = np.array([float(psi(float(psi_inverse(t, 0.4, params)), 0.4, params))
                      for t in targets])
    worst_inv = float(np.max(np.abs(backs - targets)))
    assert worst_inv <= 1e-6

    # normal cdf within 1e-7 everywhere, quantile round trip 1e-6 on |x| <= 6
    xs = np.linspace(-10.0, 10.0, 4001)
    worst_cdf = float(np.max(np.abs(normal_cdf(xs) - scipy.special.ndtr(xs))))
    assert worst_cdf <= 1e-7
    xs6 = np.linspace(-6.0, 6.0, 2401)
    worst_q = max(abs(float(normal_quantile(float(normal_cdf(x)))) - float(x))
                  for x in xs6)
    assert worst_q <= 1e-6
    assert abs(float(normal_cdf(1.959964)) - 0.975) <= 1e-6
    print(f"criterion 6: round-trip {worst_rt:.2e}, psi {worst_psi:.2e}, "
          f"psi-inverse {worst_inv:.2e}, cdf {worst_cdf:.2e}, quantile {worst_q:.2e}")


# criterion 7: the run command is byte-reproducible
def test_criterion_7_cli_determinism(tmp_path):
    config = {
        "num_periods": 20, "requests_per_period": 300, "rounds": 2, "seed": 11,
        "campaigns": {"count": 12},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    same_rounds = (outs[0] / "rounds.csv").read_bytes() == (outs[1] / "rounds.csv").read_bytes()
    same_series = (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
    print(f"criterion 7: rounds.csv identical={same_rounds}, "
          f"series.csv identical={same_series}")
    assert same_rounds and same_series


# criterion 8: the skew guard keeps smoothness under mid-run drift
def test_criterion_8_drift_robustness():
    uis = {0.0: [], 0.1: []}
    for seed in range(N_SEEDS):
        cfg = default_scenario(seed=seed, rounds=1, drift_period=25)
        cfg.drift_models = {c.id: BetaQualityModel(c.quality_model.n, c.quality_model.m)
                            for c in cfg.campaigns}
        stream = prepare(generate_stream(cfg), [c.id for c in cfg.campaigns])
        for eps in (0.0, 0.1):
            rc = RunConfig(params=PacingHyperParams(epsilon=eps),
                           seed=run_seed(seed, "rcpacing", 0))
            uis[eps].append(unsmoothness(run_rcpacing(stream, cfg.campaigns, rc)))
    m0, s0 = float(np.mean(uis[0.0])), float(np.std(uis[0.0]))
    m1, s1 = float(np.mean(uis[0.1])), float(np.std(uis[0.1]))
    pooled = float(np.sqrt((s0 ** 2 + s1 ** 2) / 2.0))
    print(f"criterion 8: UI eps=0.1 {m1:.4f}+/-{s1:.4f} vs eps=0 {m0:.4f}+/-{s0:.4f}, "
          f"pooled std {pooled:.4f}")
    assert m1 <= m0 + pooled
