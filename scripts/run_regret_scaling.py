#!/usr/bin/env python3
"""Regret-vs-horizon experiment in per-impression mode.

Budgets scale proportionally with the horizon T and the step size as 1/sqrt(T),
so sublinear regret shows up as Regret(4T)/Regret(T) staying near 2.  Total
demand slightly oversubscribes feasible supply; with spare budget everywhere
the always-allocate baseline degenerates to dropping a constant fraction of
requests and its regret turns linear, which says nothing about dual learning.

Regret is measured against the exact hindsight optimum (min-cost flow).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gdpacer.engine import RunConfig, prepare, run_dmd, run_rcpacing, run_seed
from gdpacer.metrics import hindsight_optimum, regret
from gdpacer.pacing import PacingHyperParams
from gdpacer.quality import BetaQualityModel
from gdpacer.simulate import (CampaignSpec, ConfigError, ScenarioConfig, generate_stream,
                              read_decimal)

SHARES = (0.28, 0.24, 0.20, 0.16, 0.12)        # of T, sums to 1.0
MODELS = ((2, 5), (2, 2), (5, 2), (3, 3), (2, 8))
RECALL = 0.4                                   # P(recalled by >= 1 campaign) = 0.922
RUNNERS = (("dmd", run_dmd), ("rcpacing", run_rcpacing))


def instance(T: int, seed: int) -> ScenarioConfig:
    """The scenario at horizon T: campaign j has budget SHARES[j] * T, quality
    law Beta(MODELS[j]) and recall RECALL, over 50 periods of T / 50 requests."""
    specs = [CampaignSpec(id=j, budget=max(1, round(sh * T)), recall_prob=RECALL,
                          quality_model=BetaQualityModel(m, n))
             for j, (sh, (m, n)) in enumerate(zip(SHARES, MODELS))]
    return ScenarioConfig(num_periods=50, requests_per_period=T // 50, campaigns=specs,
                          seed=seed)


def run_once(T: int, seed: int, eta_coeff: float) -> dict[str, float]:
    cfg = instance(T, seed)
    specs = cfg.campaigns
    stream = generate_stream(cfg)
    opt = hindsight_optimum(stream, {s.id: s.budget for s in specs})
    prepared = prepare(stream, [s.id for s in specs], per_impression=True)
    hyper = PacingHyperParams(eta=eta_coeff / np.sqrt(T), initial_trial_rate=1.0)
    out = {}
    for algo, runner in RUNNERS:
        rc = RunConfig(params=hyper, seed=run_seed(seed, algo, 0),
                       per_impression=True, gradient_mode="absolute")
        out[algo] = regret(runner(prepared, specs, rc), opt)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizons", nargs="+", default=["1000", "4000", "16000"])
    ap.add_argument("--seed", default="0")
    ap.add_argument("--eta-coeff", type=float, default=2.0)
    ap.add_argument("--out", default="out/regret")
    args = ap.parse_args(argv)
    try:
        seed = read_decimal(args.seed, "--seed")
        horizons = [read_decimal(T, "horizon") for T in args.horizons]
    except ConfigError as exc:
        ap.error(str(exc))
    if seed < 0:
        ap.error(f"--seed must be >= 0, got {seed}")
    if not (np.isfinite(args.eta_coeff) and args.eta_coeff > 0.0):
        ap.error(f"--eta-coeff must be finite and > 0, got {args.eta_coeff}")
    for T in horizons:
        if T <= 0 or T % 50:
            ap.error(f"horizon {T} must be a positive multiple of the 50-period grid")

    rows = {algo: [] for algo, _ in RUNNERS}
    for T in horizons:
        res = run_once(T, seed, args.eta_coeff)
        for algo, r in res.items():
            rows[algo].append(r)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["algorithm,T,regret,ratio_vs_prev"]
    print(f"{'algorithm':<10} {'T':>7} {'regret':>10} {'ratio':>7}")
    for algo, regs in rows.items():
        for i, (T, r) in enumerate(zip(horizons, regs)):
            ratio = "" if i == 0 else f"{regs[i] / regs[i - 1]:.3f}"
            print(f"{algo:<10} {T:>7} {r:>10.2f} {ratio:>7}")
            lines.append(f"{algo},{T},{r:.6f},{ratio}")
    (out / "regret.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"\nwrote {out}/regret.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
