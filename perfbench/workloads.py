"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in its constructor (the
set-up the benchmark times as `setup_s`), does a fixed amount of work in
`run_pass` (timed as `wall_s`) and lists, for the correctness checks made
after timing, the instances whose exact optimum bounds the achieved quality.
The program receives only the generated scenario and stream.  Every
algorithm run goes through `gdpacer.engine.RUNNERS`, where the benchmark
captures the traces.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

from gdpacer import cli, engine, metrics, simulate
from gdpacer.pacing import PacingHyperParams
from gdpacer.quality import BetaQualityModel

HERE = Path(__file__).resolve().parent
# The default desk scenario (30 campaigns, 50 periods x 1200 requests) with
# its campaign population pinned to default_scenario(seed=0)'s.  Drawing the
# population from the run seed swings cost by ~6% and outcomes by ~10% per
# seed, more than a run can average out; the seed still drives the streams,
# the budget scaling and every throttle draw.
SCENARIO = HERE / "scenario.json"


def _scenario_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _round_budgets(cfg, round_index: int) -> dict[int, int]:
    specs = simulate.scale_budgets(cfg.campaigns, round_index, cfg.seed, cfg.budget_scale_range)
    return {s.id: s.budget for s in specs}


class Desk:
    """Criterion-1 shape: desk-scale scenarios, one round each, all three
    algorithms through `simulate.run_experiment_detailed`; each scenario
    seed pays stream generation once."""

    SEEDS = 3

    def __init__(self, seed: int, workdir: Path):
        raw = json.loads(SCENARIO.read_text(encoding="utf-8"))
        self.configs = [
            simulate.scenario_from_dict(dict(raw, seed=_scenario_seed(seed, k), rounds=1))
            for k in range(self.SEEDS)]
        self.expected_runs = self.SEEDS * len(self.configs[0].algorithms)

    def run_pass(self) -> dict[str, str]:
        for cfg in self.configs:
            simulate.run_experiment_detailed(cfg)
        return {}

    def instances(self):
        for cfg in self.configs:
            yield simulate.generate_stream(cfg), _round_budgets(cfg, 0)


class CliRun:
    """`gdpacer run --config scenario.json --seed <seed> --jobs 1`, in process
    through `cli.main`: 3 budget-scaled rounds on one shared stream, so that
    a run holds several passes, then the CSV writers."""

    OUTPUTS = ("rounds.csv", "series.csv", "aggregate.csv")

    def __init__(self, seed: int, workdir: Path):
        raw = json.loads(SCENARIO.read_text(encoding="utf-8"))
        # the scenario the command builds; used only for the optimum check
        self.scenario = simulate.scenario_from_dict(dict(raw, seed=seed))
        self.out = workdir / f"cli_run-{seed}"
        self.argv = ["run", "--config", str(SCENARIO), "--seed", str(seed),
                     "--jobs", "1", "--out", str(self.out), "--force"]
        self.expected_runs = self.scenario.rounds * len(self.scenario.algorithms)

    def run_pass(self) -> dict[str, str]:
        with redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"gdpacer run exited with code {code}")
        return {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                for name in self.OUTPUTS}

    def instances(self):
        # round 0 only: one exact solve per run keeps the run short
        yield simulate.generate_stream(self.scenario), _round_budgets(self.scenario, 0)


class PerImpression:
    """Criterion-4 / run_regret_scaling.py shape: 5 campaigns, one request
    per period, absolute gradients, eta = 2/sqrt(T), `dmd` and `rcpacing`,
    and regret against `metrics.hindsight_optimum`.  One-request periods
    make per-period fixed costs dominate, and each instance stays far below
    the exact solver's 50k-edge cap.  Regret varies by ~10% from instance to
    instance at any horizon, so a pass holds twelve short instances rather
    than one long one."""

    HORIZON = 500
    INSTANCES = 12
    SHARES = (0.28, 0.24, 0.20, 0.16, 0.12)
    MODELS = ((2, 5), (2, 2), (5, 2), (3, 3), (2, 8))
    RECALL = 0.4
    ALGORITHMS = ("dmd", "rcpacing")

    def __init__(self, seed: int, workdir: Path):
        T = self.HORIZON
        self.specs = [simulate.CampaignSpec(id=j, budget=max(1, round(sh * T)),
                                            recall_prob=self.RECALL,
                                            quality_model=BetaQualityModel(m, n))
                      for j, (sh, (m, n)) in enumerate(zip(self.SHARES, self.MODELS))]
        self.budgets = {s.id: s.budget for s in self.specs}
        hyper = PacingHyperParams(eta=2.0 / math.sqrt(T), initial_trial_rate=1.0)
        self.configs = [simulate.ScenarioConfig(num_periods=50, requests_per_period=T // 50,
                                                campaigns=self.specs,
                                                seed=_scenario_seed(seed, k))
                        for k in range(self.INSTANCES)]
        self.run_configs = [{algo: engine.RunConfig(params=hyper,
                                                    seed=engine.run_seed(cfg.seed, algo, 0),
                                                    per_impression=True,
                                                    gradient_mode="absolute")
                             for algo in self.ALGORITHMS} for cfg in self.configs]
        self.expected_runs = self.INSTANCES * len(self.ALGORITHMS)
        self.program_optima: dict[tuple, float] = {}

    def run_pass(self) -> dict[str, str]:
        for cfg, run_configs in zip(self.configs, self.run_configs):
            stream = simulate.generate_stream(cfg)
            opt = metrics.hindsight_optimum(stream, self.budgets)
            self.program_optima[(opt.stream_id, opt.budgets)] = opt.value
            for algo, rc in run_configs.items():
                trace = engine.RUNNERS[algo](stream, self.specs, rc)
                metrics.build_report(trace, self.specs, algo, 0, opt)   # raises if above opt
        return {}

    def instances(self):
        for cfg in self.configs:
            yield simulate.generate_stream(cfg), self.budgets


WORKLOADS = {"desk": Desk, "cli_run": CliRun, "per_impression": PerImpression}
