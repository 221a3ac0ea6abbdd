"""Metric and hindsight-optimum tests.

The flow solver gets an independent oracle: exhaustive dynamic programming
over (request prefix, remaining budget vector), exact for any instance small
enough to enumerate.  Random micro-instances must agree to 1e-9.  Larger
instances are checked against scipy's HiGHS LP.
"""

import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from gdpacer import metrics
from gdpacer.engine import RunConfig, prepare, run_dmd, run_rcpacing, run_smart_baseline
from gdpacer.metrics import (ALGORITHM_ORDER, HindsightOptimum, InstanceMismatchError,
                             InstanceTooLargeError, MetricsReport, aggregate_rounds,
                             average_ctr, build_report, delivery_rate,
                             hindsight_optimum, regret, unsmoothness)
from gdpacer.quality import BetaQualityModel, DomainError
from gdpacer.simulate import CampaignSpec, generate_stream
from gdpacer.streams import ImpressionStream, PeriodBatch
from oracle import ImpressionRequest, from_requests


def _trace(wins, budgets, quality=None, stream_id="s", campaign_ids=None):
    wins = np.asarray(wins, dtype=np.int64)
    return SimpleNamespace(
        wins=wins,
        budgets=np.asarray(budgets, dtype=float),
        quality_sum=np.asarray(quality, dtype=float) if quality is not None
        else np.zeros_like(wins, dtype=float),
        stream_id=stream_id,
        campaign_ids=campaign_ids or list(range(wins.shape[0])),
    )


def brute_force_opt(stream, budgets: dict[int, int]) -> float:
    """Exact reference by prefix DP over remaining-budget vectors."""
    ids = sorted(budgets)
    reqs = [(r.qualities) for r in oracle.iter_requests(stream)]

    @lru_cache(maxsize=None)
    def best(i: int, rem: tuple) -> float:
        if i == len(reqs):
            return 0.0
        out = best(i + 1, rem)
        for k, cid in enumerate(ids):
            v = reqs[i].get(cid)
            if v is not None and rem[k] > 0:
                nxt = rem[:k] + (rem[k] - 1,) + rem[k + 1:]
                out = max(out, v + best(i + 1, nxt))
        return out

    return best(0, tuple(int(budgets[c]) for c in ids))


# --- scalar metrics ---------------------------------------------------------------

def test_delivery_rate_examples():
    assert delivery_rate(_trace([[2, 2]], [4])) == 1.0
    assert delivery_rate(_trace([[2, 1]], [4])) == 0.75
    assert delivery_rate(_trace([[0, 0]], [4])) == 0.0


def test_delivery_rate_zero_budget_rejected():
    with pytest.raises(ValueError, match="zero total budget"):
        delivery_rate(_trace([[0, 0]], [0]))


def test_unsmoothness_uniform_spend_is_zero():
    assert unsmoothness(_trace([[2, 2]], [4])) == 0.0


def test_unsmoothness_front_loaded_example():
    # rho = 1; deviations (+1, -1) -> RMS 1
    assert unsmoothness(_trace([[2, 0]], [2])) == pytest.approx(1.0)


def test_unsmoothness_averages_over_campaigns():
    ui = unsmoothness(_trace([[2, 0], [1, 1]], [2, 2]))
    assert ui == pytest.approx(0.5)


def test_unsmoothness_positive_homogeneity():
    base = _trace([[3, 0, 1], [2, 2, 2]], [4, 6])
    scaled = _trace(np.asarray(base.wins) * 3, np.asarray(base.budgets) * 3)
    assert unsmoothness(scaled) == pytest.approx(3.0 * unsmoothness(base))


def test_unsmoothness_period_permutation_invariant():
    a = _trace([[3, 0, 1]], [4])
    b = _trace([[0, 1, 3]], [4])
    assert unsmoothness(a) == pytest.approx(unsmoothness(b))


def test_average_ctr_examples():
    t = _trace([[2, 1]], [4], quality=[[0.14, 0.07]])
    assert average_ctr(t) == pytest.approx(0.07)
    t = _trace([[5, 5]], [20], quality=[[0.5, 0.5]])
    assert average_ctr(t) == pytest.approx(0.10)


def test_average_ctr_zero_wins_rejected():
    with pytest.raises(ValueError, match="no wins"):
        average_ctr(_trace([[0, 0]], [4]))


# --- hindsight optimum -------------------------------------------------------------

def test_hindsight_singleton_picks_best_campaign():
    stream = from_requests([ImpressionRequest(0, 0, {0: 0.5, 1: 0.9})])
    opt = hindsight_optimum(stream, {0: 1, 1: 1})
    assert opt.value == pytest.approx(0.9)
    assert opt.assigned == 1


def test_hindsight_transfer_beats_greedy():
    # campaign 0 must surrender the 0.9 request to let 1 play: 0.7 + 0.8 = 1.5
    stream = from_requests([
        ImpressionRequest(0, 0, {0: 0.9, 1: 0.8}),
        ImpressionRequest(1, 0, {0: 0.7}),
    ])
    opt = hindsight_optimum(stream, {0: 1, 1: 1})
    assert opt.value == pytest.approx(1.5)
    assert opt.assigned == 2


def test_hindsight_budget_binds_to_top_values():
    stream = from_requests([
        ImpressionRequest(i, 0, {0: v}) for i, v in enumerate([0.2, 0.8, 0.5])
    ])
    opt = hindsight_optimum(stream, {0: 2})
    assert opt.value == pytest.approx(1.3)


def test_hindsight_empty_inputs():
    stream = from_requests([ImpressionRequest(0, 0, {})])
    assert hindsight_optimum(stream, {0: 3}).value == 0.0
    with pytest.raises(ValueError, match="no campaign budgets"):
        hindsight_optimum(stream, {})
    with pytest.raises(DomainError, match="no periods"):
        hindsight_optimum(from_requests([]), {0: 3})


def test_hindsight_edge_cap(monkeypatch):
    stream = from_requests([
        ImpressionRequest(i, 0, {0: 0.5, 1: 0.5}) for i in range(3)
    ])
    monkeypatch.setattr(metrics, "MAX_EXACT_EDGES", 5)
    with pytest.raises(InstanceTooLargeError, match="6 edges exceed the exact-solver cap of 5"):
        hindsight_optimum(stream, {0: 1, 1: 1})



@pytest.mark.parametrize("seed", range(8))
def test_hindsight_drops_unbudgeted_campaigns_as_runners_do(seed, monkeypatch):
    # campaign 1 has no budget: the optimum drops its edges as `prepare`
    # does for a run, so the edge cap counts the runners' edges, the value
    # is the brute force over campaigns 0 and 2, and the optimum carries the
    # stream id a run on the same stream records
    rng = np.random.default_rng(seed)
    stream = from_requests([
        ImpressionRequest(i, i // 6, {j: float(rng.uniform(0.01, 0.99))
                                      for j in range(3) if rng.random() < 0.6})
        for i in range(18)])
    budgets = {0: int(rng.integers(1, 4)), 2: int(rng.integers(1, 4))}
    prepared = prepare(stream, sorted(budgets))
    edges = sum(p.v.size for p in prepared.periods)
    monkeypatch.setattr(metrics, "MAX_EXACT_EDGES", edges)
    opt = hindsight_optimum(stream, budgets)
    assert opt.value == pytest.approx(brute_force_opt(stream, budgets), abs=1e-9)
    assert opt.stream_id == prepared.stream_id
    monkeypatch.setattr(metrics, "MAX_EXACT_EDGES", edges - 1)
    with pytest.raises(InstanceTooLargeError):
        hindsight_optimum(stream, budgets)
    specs = [CampaignSpec(id=j, budget=b, recall_prob=0.6, quality_model=BetaQualityModel(2, 4))
             for j, b in budgets.items()]
    assert regret(run_dmd(stream, specs, RunConfig()), opt) >= 0.0


def test_hindsight_refuses_an_unsorted_stream_as_runners_do():
    p = from_requests([ImpressionRequest(0, 0, {0: 0.4, 1: 0.6})]).periods[0]
    unsorted = ImpressionStream([PeriodBatch(p.request_ids, p.req, p.camp[::-1], p.v[::-1])])
    specs = [CampaignSpec(id=j, budget=1, recall_prob=1.0, quality_model=BetaQualityModel(2, 4))
             for j in (0, 1)]
    with pytest.raises(DomainError, match="not sorted"):
        hindsight_optimum(unsorted, {0: 1, 1: 1})
    with pytest.raises(DomainError, match="not sorted"):
        run_dmd(unsorted, specs, RunConfig())

def _micro_instance(seed):
    """1-3 campaigns over 20 requests; every other seed quantizes qualities
    to a 0.1 grid (ties), budgets may be zero, and about a quarter of the
    requests are recalled by no campaign."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 4))
    reqs = []
    for i in range(20):
        recall = rng.random(M) < 0.6 * (rng.random() < 0.75)
        quals = {j: float(rng.uniform(0.01, 0.99)) for j in range(M) if recall[j]}
        if seed % 2:
            quals = {j: round(max(q, 0.1), 1) for j, q in quals.items()}
        reqs.append(ImpressionRequest(i, i // 10, quals))
    budgets = {j: int(rng.integers(0, 5)) for j in range(M)}
    return from_requests(reqs), budgets


@pytest.mark.parametrize("seed", range(40))
def test_hindsight_matches_brute_force(seed):
    stream, budgets = _micro_instance(seed)
    opt = hindsight_optimum(stream, budgets)
    assert opt.value == pytest.approx(brute_force_opt(stream, budgets), abs=1e-9)


@pytest.mark.parametrize("T", [1000, 4000])
def test_hindsight_matches_lp_at_regret_scaling_size(T):
    # the transportation LP is totally unimodular, so HiGHS's optimum is the
    # integral one; this checks the flow solver far beyond brute-force size
    from scipy import sparse
    from scipy.optimize import linprog
    cfg = oracle.load_script("run_regret_scaling").instance(T, T)
    stream = generate_stream(cfg)
    budgets = {s.id: s.budget for s in cfg.campaigns}
    offsets = np.cumsum([0] + [p.n_requests for p in stream.periods])
    req = np.concatenate([p.req + o for p, o in zip(stream.periods, offsets)])
    camp = np.concatenate([p.camp for p in stream.periods])
    v = np.concatenate([p.v for p in stream.periods])
    n, R = v.size, int(req.max()) + 1
    A = sparse.csr_matrix((np.ones(2 * n), (np.concatenate([req, R + camp]),
                                            np.tile(np.arange(n), 2))), shape=(R + 5, n))
    b = np.concatenate([np.ones(R), [budgets[j] for j in range(5)]])
    lp = linprog(-v, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert lp.status == 0
    assert hindsight_optimum(stream, budgets).value == pytest.approx(-lp.fun, rel=1e-9)


@pytest.mark.parametrize("T, seed, value, assigned", [
    (1000, 0, "0x1.0098c03ff68fcp+9", 911),        # criterion 4's first horizon
    (500, 0, "0x1.f476013660e54p+7", 452),         # the per_impression workload's shape
    (500, 1, "0x1.f226ee73e6820p+7", 456),
    (500, 2, "0x1.ee22281344810p+7", 450),
])
def test_hindsight_optimum_is_pinned(T, seed, value, assigned):
    # the solver's arithmetic is pure Python floats in a fixed arc order, so
    # its bits do not depend on the platform's SIMD level; a refactor of the
    # solver must keep them
    cfg = oracle.load_script("run_regret_scaling").instance(T, seed)
    opt = hindsight_optimum(generate_stream(cfg), {s.id: s.budget for s in cfg.campaigns})
    assert (opt.value.hex(), opt.assigned) == (value, assigned)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 23 MB of resident memory and 80 ms to any
    # process that imports it; the package itself must not need it
    import gdpacer
    src = str(Path(gdpacer.__file__).resolve().parents[1])
    code = "import sys, gdpacer; sys.exit('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_hindsight_dominates_every_policy():
    rng = np.random.default_rng(21)
    reqs = []
    for i in range(200):
        quals = {j: float(np.clip(rng.beta(2, 4), 1e-6, 1 - 1e-6))
                 for j in range(3) if rng.random() < 0.6}
        reqs.append(ImpressionRequest(i, i // 40, quals))
    stream = from_requests(reqs)
    specs = [CampaignSpec(id=j, budget=20, recall_prob=0.6,
                          quality_model=BetaQualityModel(2, 4)) for j in range(3)]
    opt = hindsight_optimum(stream, {j: 20 for j in range(3)})
    for runner in (run_dmd, run_rcpacing, run_smart_baseline):
        trace = runner(stream, specs, RunConfig(seed=3))
        assert regret(trace, opt) >= 0.0


# --- regret -----------------------------------------------------------------------

def _uncontested():
    rng = np.random.default_rng(17)
    reqs = [ImpressionRequest(i, i // 20,
                              {0: float(np.clip(rng.beta(2, 4), 1e-6, 1 - 1e-6))})
            for i in range(100)]
    stream = from_requests(reqs)
    spec = CampaignSpec(id=0, budget=100, recall_prob=1.0,
                        quality_model=BetaQualityModel(2, 4))
    return stream, spec


def test_regret_zero_when_budget_covers_supply():
    stream, spec = _uncontested()
    trace = run_dmd(stream, [spec], RunConfig())
    opt = hindsight_optimum(stream, {0: 100})
    assert regret(trace, opt) == pytest.approx(0.0, abs=1e-9)


def test_regret_rejects_foreign_instance():
    stream, spec = _uncontested()
    trace = run_dmd(stream, [spec], RunConfig())
    other = HindsightOptimum(1.0, "deadbeef", ((0, 100),))
    with pytest.raises(InstanceMismatchError):
        regret(trace, other)
    wrong_budget = HindsightOptimum(1.0, trace.stream_id, ((0, 99),))
    with pytest.raises(InstanceMismatchError):
        regret(trace, wrong_budget)


def test_regret_flags_impossible_achievement():
    stream, spec = _uncontested()
    trace = run_dmd(stream, [spec], RunConfig())
    opt = hindsight_optimum(stream, {0: 100})
    trace.quality_sum[0, 0] += 5.0
    with pytest.raises(AssertionError, match="exceeds the exact optimum"):
        regret(trace, opt)


# --- reporting --------------------------------------------------------------------

def _report(algo, delivery=1.0, ui=0.0, ctr=0.1, reg=None, rnd=0):
    return MetricsReport(delivery_rate=delivery, unsmoothness=ui, avg_ctr=ctr,
                         regret=reg, per_period_spend=np.zeros((1, 1)),
                         algorithm=algo, round_index=rnd)


def test_build_report_fields():
    stream, spec = _uncontested()
    trace = run_dmd(stream, [spec], RunConfig())
    opt = hindsight_optimum(stream, {0: 100})
    rep = build_report(trace, [spec], "dmd", 3, opt)
    assert rep.algorithm == "dmd" and rep.round_index == 3
    assert rep.delivery_rate == pytest.approx(1.0)
    assert rep.regret == pytest.approx(0.0, abs=1e-9)
    assert rep.per_period_spend.shape == trace.wins.shape


def test_aggregate_mean_and_population_std():
    reports = [_report("dmd", delivery=4.0, rnd=0), _report("dmd", delivery=6.0, rnd=1)]
    table = aggregate_rounds(reports)
    mean, std = table["dmd"]["delivery_rate"]
    assert mean == pytest.approx(5.0)
    assert std == pytest.approx(1.0)      # population convention, not n-1


def test_aggregate_orders_algorithms_baseline_first():
    reports = [_report("rcpacing"), _report("dmd"), _report("smart")]
    assert list(aggregate_rounds(reports)) == list(ALGORITHM_ORDER)


def test_aggregate_omits_partial_regret():
    reports = [_report("dmd", reg=1.0, rnd=0), _report("dmd", reg=None, rnd=1),
               _report("smart", reg=2.0, rnd=0), _report("smart", reg=4.0, rnd=1)]
    table = aggregate_rounds(reports)
    assert "regret" not in table["dmd"]
    assert table["smart"]["regret"] == (pytest.approx(3.0), pytest.approx(1.0))


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="no reports"):
        aggregate_rounds([])


def test_aggregate_keeps_unknown_algorithms_last():
    reports = [_report("custom"), _report("dmd")]
    assert list(aggregate_rounds(reports)) == ["dmd", "custom"]
