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
