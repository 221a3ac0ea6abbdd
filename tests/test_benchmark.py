"""The benchmark's workloads run against the package.

`perfbench/workloads.py` calls the package the way the benchmark does:
`RunConfig(..., gradient_mode=...)`, `simulate.scale_budgets`,
`hindsight_optimum(stream, budgets)`, `cli.main` and the runners of
`engine.RUNNERS`.  One small pass of each workload here makes a change that
breaks one of those calls fail the tests, not only the benchmark.  The
same holds for `perfbench/tracer.py`: its layer hooks must bind, and its
optimum counter must read a real `HindsightOptimum`.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from gdpacer import engine
from gdpacer.metrics import hindsight_optimum
from gdpacer.quality import BetaQualityModel
from gdpacer.simulate import CampaignSpec
from gdpacer.streams import ImpressionStream, PeriodBatch
from oracle import load_script

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# hook targets that resolve to nothing today (ROADMAP open item 2); a hook
# re-pointed at a live name leaves this set, and no other may join it
DEAD_HOOKS = {"gdpacer.streams:ImpressionStream.per_impression", "gdpacer.engine:fit_boxcox",
              "gdpacer.engine:_boxcox_edges", "gdpacer.engine:normal_cdf",
              "gdpacer.engine:backward_transform_clipped"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_tracer_hooks_bind(tracer):
    dead = {target for _, target, _ in tracer.HOOKS if tracer.bind(target) is None}
    assert dead <= DEAD_HOOKS, sorted(dead - DEAD_HOOKS)


def test_tracer_counts_a_real_optimum(tracer):
    # two requests both campaigns recall, and one only campaign 1 recalls
    stream = ImpressionStream([PeriodBatch(np.arange(3), np.array([0, 0, 1, 1, 2]),
                                           np.array([0, 1, 0, 1, 1]),
                                           np.array([0.5, 0.4, 0.3, 0.6, 0.2]))])
    budgets = {0: 1, 1: 5}
    opt = hindsight_optimum(stream, budgets)
    counts = defaultdict(float)
    tracer._count_optimum(counts, (stream, budgets), opt)
    assert counts == {"metrics.hindsight_optimum.edges": 5,
                      "metrics.hindsight_optimum.augmentations": 3}
    assert opt.assigned == 3 and opt.value == pytest.approx(0.5 + 0.6 + 0.2)


def test_tracer_counts_the_winners_and_exhaustions_of_a_run(tracer):
    # the resolve counter reads the period's budgets left after the call
    # returns, before the loop charges the period; they are the loop's own
    # array, no longer a copy, so a charge or an exhaustion update made
    # before the counter runs would show here.  Every request recalls all 3
    # campaigns, and campaigns 0 and 1 run out mid-period
    rng = np.random.default_rng(3)
    R, M = 30, 3
    req, camp = np.repeat(np.arange(R), M), np.tile(np.arange(M), R)
    stream = ImpressionStream([PeriodBatch(np.arange(t * R, (t + 1) * R), req, camp,
                                           rng.uniform(0.05, 0.95, R * M)) for t in range(4)])
    specs = [CampaignSpec(id=j, budget=b, recall_prob=1.0, quality_model=BetaQualityModel(2, 5))
             for j, b in enumerate([7, 13, 500])]
    traced = tracer.Tracer()
    with tracer.Installed(traced):
        trace = engine.run_dmd(stream, specs, engine.RunConfig())
    counts = traced.counts
    assert trace.remaining.tolist()[:2] == [0.0, 0.0]
    assert counts["engine._resolve_winners.winners"] == trace.wins.sum() == R * 4
    assert counts["engine._resolve_winners.exhaustions"] == np.sum(trace.remaining == 0) == 2
    assert traced.uncounted == set()


@pytest.mark.parametrize("name", ["desk", "cli_run", "per_impression"])
def test_workload_runs_one_pass(workloads, name, tmp_path, monkeypatch):
    # one desk scenario and one per-impression instance keep the pass short
    monkeypatch.setattr(workloads.Desk, "SEEDS", 1)
    monkeypatch.setattr(workloads.PerImpression, "INSTANCES", 1)
    traces = []
    for algo, runner in engine.RUNNERS.items():
        monkeypatch.setitem(engine.RUNNERS, algo,
                            lambda *args, runner=runner: traces.append(runner(*args)) or traces[-1])
    workload = workloads.WORKLOADS[name](0, tmp_path)
    artifacts = workload.run_pass()
    assert len(traces) == workload.expected_runs
    assert all(np.all(t.wins.sum(axis=1) <= t.budgets) for t in traces)
    if name == "cli_run":
        assert sorted(artifacts) == sorted(workload.OUTPUTS)
    # the instances the benchmark bounds the achieved quality with
    for stream, budgets in workload.instances():
        assert stream.total_edges > 0 and min(budgets.values()) >= 1


def test_per_impression_workload_is_the_regret_scaling_instance(workloads, tmp_path):
    # the benchmark keeps its own copy of the criterion-4 instance, which
    # must not drift from the one the script and the tests share
    script = load_script("run_regret_scaling")
    wl = workloads.PerImpression
    assert (wl.SHARES, wl.MODELS, wl.RECALL) == (script.SHARES, script.MODELS, script.RECALL)
    assert wl(0, tmp_path).specs == script.instance(wl.HORIZON, 0).campaigns
