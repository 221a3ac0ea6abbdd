"""The benchmark's workloads run against the package.

`perfbench/workloads.py` calls the package the way the benchmark does:
`RunConfig(..., gradient_mode=...)`, `simulate.scale_budgets`,
`hindsight_optimum(stream, budgets)`, `cli.main` and the runners of
`engine.RUNNERS`.  One small pass of each workload here makes a change that
breaks one of those calls fail the tests, not only the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gdpacer import engine

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
