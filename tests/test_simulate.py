"""Scenario construction, stream synthesis, and experiment-driver tests."""

import copy
import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle

from gdpacer.metrics import MetricsReport
from gdpacer.pacing import PacingHyperParams
from gdpacer.quality import BetaQualityModel
from gdpacer.simulate import (CampaignSpec, ConfigError, ScenarioConfig, ablation_cells,
                              default_scenario, generate_stream,
                              load_scenario_config, run_ablation, run_experiment,
                              run_experiment_detailed, scale_budgets,
                              scenario_from_dict, synth_campaigns)


def _spec(j, budget=50, recall=0.5, m=2.0, n=5.0):
    return CampaignSpec(id=j, budget=budget, recall_prob=recall,
                        quality_model=BetaQualityModel(m, n))


def _tiny_config(**overrides):
    base = dict(num_periods=6, requests_per_period=40, rounds=2,
                campaigns=[_spec(0, 20), _spec(1, 30, m=3, n=3), _spec(2, 60, m=5, n=2)])
    base.update(overrides)
    return ScenarioConfig(**base)


# --- validation -----------------------------------------------------------------

def test_campaign_spec_validation():
    with pytest.raises(ConfigError, match="budget"):
        _spec(0, budget=0)
    with pytest.raises(ConfigError, match="recall_prob"):
        _spec(0, recall=0.0)
    with pytest.raises(ConfigError, match="recall_prob"):
        _spec(0, recall=1.2)


def test_scenario_validation_errors():
    with pytest.raises(ConfigError, match="no campaigns"):
        ScenarioConfig().validate()
    with pytest.raises(ConfigError, match="unique"):
        _tiny_config(campaigns=[_spec(0), _spec(0)]).validate()
    with pytest.raises(ConfigError, match="budget_scale_range"):
        _tiny_config(budget_scale_range=(0.0, 1.0)).validate()
    with pytest.raises(ConfigError, match="unknown algorithms"):
        _tiny_config(algorithms=("dmd", "magic")).validate()
    with pytest.raises(ConfigError, match="drift_period"):
        _tiny_config(drift_period=6).validate()
    with pytest.raises(ConfigError, match="rounds"):
        _tiny_config(rounds=0).validate()
    with pytest.raises(ConfigError, match=">= 1"):
        _tiny_config(num_periods=0).validate()
    _tiny_config().validate()


# --- stream synthesis --------------------------------------------------------------

def test_generate_stream_shape_and_ids():
    cfg = _tiny_config()
    s = generate_stream(cfg)
    assert s.n_periods == 6
    assert all(p.n_requests == 40 for p in s.periods)
    assert s.total_requests == 240
    ids = np.concatenate([p.request_ids for p in s.periods])
    assert np.array_equal(ids, np.arange(240))


def test_generate_stream_deterministic():
    cfg = _tiny_config()
    assert generate_stream(cfg) == generate_stream(cfg)
    assert generate_stream(cfg).fingerprint() != \
        generate_stream(replace(cfg, seed=99)).fingerprint()


def test_generate_stream_recall_fraction():
    cfg = ScenarioConfig(num_periods=10, requests_per_period=10_000,
                         campaigns=[_spec(0, 50, recall=0.35)])
    s = generate_stream(cfg)
    assert s.total_edges / s.total_requests == pytest.approx(0.35, abs=0.01)


def test_generate_stream_quality_law():
    cfg = ScenarioConfig(num_periods=5, requests_per_period=10_000,
                         campaigns=[_spec(0, 50, recall=0.7, m=2, n=5)])
    s = generate_stream(cfg)
    v = np.concatenate([p.v for p in s.periods])
    assert v.mean() == pytest.approx(2.0 / 7.0, abs=0.01)
    assert np.all((v > 0.0) & (v < 1.0))
    # generated at the stream-file quantum, so a CSV round trip is exact
    assert np.allclose(v * 1e6, np.round(v * 1e6), atol=1e-3)


def test_generate_stream_drift_switches_law():
    drift = {0: BetaQualityModel(8.0, 2.0)}
    cfg = ScenarioConfig(num_periods=4, requests_per_period=4000,
                         campaigns=[_spec(0, 50, recall=0.8, m=2, n=5),
                                    _spec(1, 50, recall=0.8, m=2, n=5)],
                         drift_period=2, drift_models=drift)
    s = generate_stream(cfg)

    def mean_v(period, cid):
        p = s.periods[period]
        return float(p.v[p.camp == cid].mean())

    assert mean_v(0, 0) == pytest.approx(2.0 / 7.0, abs=0.02)
    assert mean_v(2, 0) == pytest.approx(0.8, abs=0.02)       # drifted law
    assert mean_v(3, 1) == pytest.approx(2.0 / 7.0, abs=0.02)  # unlisted: unchanged


def _generator_config(ids, recalls, T, R, drift_period, drifted, seed) -> ScenarioConfig:
    # campaigns as plain records: the generator reads id, recall_prob and
    # quality_model, and a recall_prob of 0 is what CampaignSpec refuses
    camps = [SimpleNamespace(id=j, recall_prob=p, quality_model=BetaQualityModel(2.0 + k, 5.0))
             for k, (j, p) in enumerate(zip(ids, recalls))]
    return ScenarioConfig(num_periods=T, requests_per_period=R, campaigns=camps, seed=seed,
                          drift_period=drift_period,
                          drift_models={j: BetaQualityModel(8.0, 2.0) for j in drifted})


@st.composite
def _generator_configs(draw):
    """1-4 campaigns with non-contiguous ids in any order, recall
    probabilities with 0 and 1 among them, 1-30 requests per period, and
    drift from period 0, from mid-horizon, or none."""
    M, T = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(-50, 10 ** 6), min_size=M, max_size=M, unique=True))
    recalls = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                            min_size=M, max_size=M))
    drift_period = draw(st.none() | st.integers(0, T - 1))
    drifted = draw(st.lists(st.sampled_from(ids), unique=True))
    return _generator_config(ids, recalls, T, draw(st.integers(1, 30)), drift_period, drifted,
                             draw(st.integers(0, 2 ** 63 - 1)))


@settings(max_examples=100, deadline=None)
@given(cfg=_generator_configs())
@example(cfg=_generator_config([7], [1.0], 3, 1, 0, [7], 1))              # M = 1, R = 1
@example(cfg=_generator_config([40, -3, 5], [0.0, 0.5, 1.0], 4, 9, 2, [5, -3], 2))
def test_generate_stream_matches_dense_matrix_generator(cfg):
    got, ref = generate_stream(cfg), oracle.generate_stream(cfg)
    assert got == ref and got.fingerprint() == ref.fingerprint()
    for p, q in zip(got.periods, ref.periods):
        for name in ("request_ids", "req", "camp", "v"):
            assert getattr(p, name).dtype == getattr(q, name).dtype, name
    assert generate_stream(replace(cfg, seed=5)) == oracle.generate_stream(cfg, seed=5)


# --- budget scaling ------------------------------------------------------------------

def test_scale_budgets_deterministic_and_bounded():
    specs = [_spec(j, budget=100) for j in range(8)]
    a = scale_budgets(specs, round_index=1, seed=5)
    b = scale_budgets(specs, round_index=1, seed=5)
    assert [s.budget for s in a] == [s.budget for s in b]
    assert all(80 <= s.budget <= 120 for s in a)
    assert all(s.recall_prob == 0.5 for s in a)    # only budgets change
    c = scale_budgets(specs, round_index=2, seed=5)
    assert [s.budget for s in a] != [s.budget for s in c]


def test_scale_budgets_unit_range_is_identity():
    specs = [_spec(j, budget=37) for j in range(4)]
    out = scale_budgets(specs, 0, 0, scale_range=(1.0, 1.0))
    assert [s.budget for s in out] == [37] * 4


def test_scale_budgets_floors_at_one():
    out = scale_budgets([_spec(0, budget=1)], 0, 0, scale_range=(0.1, 0.2))
    assert out[0].budget == 1


# --- experiment driver -----------------------------------------------------------------

def test_run_experiment_shape_and_order():
    cfg = _tiny_config()
    reports = run_experiment(cfg)
    assert len(reports) == 2 * 3
    assert [(r.round_index, r.algorithm) for r in reports] == [
        (0, "dmd"), (0, "smart"), (0, "rcpacing"),
        (1, "dmd"), (1, "smart"), (1, "rcpacing")]
    assert all(isinstance(r, MetricsReport) for r in reports)
    assert all(r.regret is None for r in reports)


def test_run_experiment_deterministic():
    vals = []
    for _ in range(2):
        reports = run_experiment(_tiny_config())
        vals.append([(r.delivery_rate, r.unsmoothness, r.avg_ctr) for r in reports])
    assert vals[0] == vals[1]


def test_round_reports_independent_of_round_count():
    full = run_experiment(_tiny_config(rounds=3))
    solo = run_experiment(_tiny_config(rounds=1))
    assert [(r.delivery_rate, r.avg_ctr) for r in full[:3]] == \
        [(r.delivery_rate, r.avg_ctr) for r in solo]


def test_run_experiment_detailed_returns_round0_traces():
    cfg = _tiny_config(algorithms=("dmd", "rcpacing"))
    reports, traces = run_experiment_detailed(cfg)
    assert set(traces) == {"dmd", "rcpacing"}
    assert traces["dmd"].wins.shape == (3, 6)
    assert len(reports) == 4


def test_regenerated_streams_are_keyed_on_seed_and_round(monkeypatch):
    # round r's stream comes from the substream (seed, stream tag, r); with
    # seed + r as its seed, seed 5 round 1 replayed seed 6 round 0
    import gdpacer.simulate as simulate
    ids, real = [], simulate._prepared_stream

    def recorded(config, *args):
        stream = real(config, *args)
        ids.append((config.seed, stream.stream_id))
        return stream
    monkeypatch.setattr(simulate, "_prepared_stream", recorded)
    for seed in (5, 6):
        run_experiment(_tiny_config(seed=seed, algorithms=("dmd",),
                                    regenerate_stream_per_round=True))
    assert len({sid for _, sid in ids}) == len(ids) == 4
    cfg = _tiny_config(seed=5)
    assert ids[1] == (5, generate_stream(cfg, round_index=1).fingerprint())


@pytest.mark.parametrize("regenerate", [False, True])
def test_rounds_share_one_prepared_stream(monkeypatch, regenerate):
    # the shared stream is densified once, and each period's own-window fit
    # is made once for all rounds; a stream regenerated per round is
    # prepared per round
    import gdpacer.engine as engine
    calls = {"densify": 0, "window_fits": 0}

    def counted(key, fn):
        return lambda *a: calls.__setitem__(key, calls[key] + 1) or fn(*a)
    monkeypatch.setattr(engine, "_densify", counted("densify", engine._densify))
    monkeypatch.setattr(engine, "_fit_window", counted("window_fits", engine._fit_window))
    cfg = _tiny_config(rounds=3, regenerate_stream_per_round=regenerate)
    run_experiment_detailed(cfg)
    streams = cfg.rounds if regenerate else 1
    assert calls["densify"] == streams
    assert 0 < calls["window_fits"] <= streams * cfg.num_periods


def _report_key(r):
    return (r.round_index, r.algorithm, r.delivery_rate, r.unsmoothness, r.avg_ctr,
            r.regret, r.per_period_spend.tobytes())


def test_jobs_take_round0_traces_from_the_pool(monkeypatch):
    import gdpacer.simulate as simulate
    cfg = _tiny_config(rounds=3)
    serial_reports, serial_traces = run_experiment_detailed(cfg, jobs=1)
    parent_rounds = []
    real = simulate.scale_budgets       # called once per round run in this process
    monkeypatch.setattr(simulate, "scale_budgets",
                        lambda specs, r, *a: parent_rounds.append(r) or real(specs, r, *a))
    reports, traces = run_experiment_detailed(cfg, jobs=2)
    assert parent_rounds == []       # every round ran in a worker, round 0 once
    assert [_report_key(r) for r in reports] == [_report_key(r) for r in serial_reports]
    assert {a: t.tobytes() for a, t in traces.items()} == \
        {a: t.tobytes() for a, t in serial_traces.items()}
    run_experiment_detailed(cfg, jobs=1)
    assert parent_rounds == [0, 1, 2]


def test_ablation_cells_follow_product_order():
    cfg = _tiny_config(ablation={"slope_k": [0.0, 10.0], "eta": [0.1, 0.3]})
    assert ablation_cells(cfg) == [{"slope_k": 0.0, "eta": 0.1}, {"slope_k": 0.0, "eta": 0.3},
                                   {"slope_k": 10.0, "eta": 0.1}, {"slope_k": 10.0, "eta": 0.3}]
    assert ablation_cells(_tiny_config()) == [{}]


@pytest.mark.parametrize("regenerate", [False, True])
def test_ablation_cells_share_each_rounds_stream(monkeypatch, regenerate):
    # every cell runs on one generated and prepared stream, or one per round
    # when the stream is regenerated per round
    import gdpacer.engine as engine
    import gdpacer.simulate as simulate
    calls = {"generate": 0, "densify": 0}

    def counted(key, fn):
        return lambda *a, **kw: calls.__setitem__(key, calls[key] + 1) or fn(*a, **kw)
    monkeypatch.setattr(simulate, "generate_stream",
                        counted("generate", simulate.generate_stream))
    monkeypatch.setattr(engine, "_densify", counted("densify", engine._densify))
    cfg = _tiny_config(rounds=2, regenerate_stream_per_round=regenerate,
                       ablation={"eta": [0.1, 0.2, 0.4]})
    assert len(run_ablation(cfg)) == 3
    streams = cfg.rounds if regenerate else 1
    assert calls == {"generate": streams, "densify": streams}


@pytest.mark.parametrize("regenerate", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_ablation_cells_match_run_experiment(jobs, regenerate):
    cfg = _tiny_config(rounds=3, regenerate_stream_per_round=regenerate,
                       ablation={"slope_k": [0.0, 10.0], "eta": [0.1, 0.3]})
    results = run_ablation(cfg, jobs=jobs)
    assert [overrides for overrides, _ in results] == ablation_cells(cfg)
    for overrides, reports in results:
        cell = replace(cfg, hyperparams=replace(cfg.hyperparams, **overrides), ablation=None)
        assert [_report_key(r) for r in reports] == \
            [_report_key(r) for r in run_experiment(cell)], overrides


def test_run_experiment_validates_config():
    with pytest.raises(ConfigError):
        run_experiment(ScenarioConfig())


# --- config files ------------------------------------------------------------------------

def _valid_dict():
    return {
        "num_periods": 6,
        "requests_per_period": 40,
        "rounds": 2,
        "seed": 3,
        "campaigns": [
            {"id": 0, "budget": 20, "recall_prob": 0.5, "quality_model": {"m": 2, "n": 5}},
            {"id": 1, "budget": 30, "recall_prob": 0.4, "quality_model": {"m": 3, "n": 3}},
        ],
    }


def test_scenario_from_dict_round_trip():
    cfg = scenario_from_dict(_valid_dict())
    assert cfg.num_periods == 6 and cfg.seed == 3
    assert [c.id for c in cfg.campaigns] == [0, 1]
    assert cfg.campaigns[1].quality_model.m == 3.0


def test_scenario_from_dict_generator_campaigns():
    data = {"num_periods": 4, "requests_per_period": 100, "rounds": 1,
            "campaigns": {"count": 5, "budget_range": [10, 40]}}
    cfg = scenario_from_dict(data)
    assert len(cfg.campaigns) == 5
    assert all(10 * 0.9 <= c.budget <= 40 * 1.1 for c in cfg.campaigns)


def test_scenario_from_dict_hyperparams_and_ablation():
    data = _valid_dict()
    data["hyperparams"] = {"eta": 0.5, "divergence": "euclidean"}
    data["ablation"] = {"slope_k": [0.0, 10.0]}
    cfg = scenario_from_dict(data)
    assert cfg.hyperparams.eta == 0.5
    assert cfg.hyperparams.divergence == "euclidean"
    assert cfg.ablation == {"slope_k": [0.0, 10.0]}


def test_scenario_from_dict_drift_models():
    data = _valid_dict()
    data["drift_period"] = 3
    data["drift_models"] = {"0": {"m": 8, "n": 2}}
    cfg = scenario_from_dict(data)
    assert cfg.drift_models[0].m == 8.0


@pytest.mark.parametrize("drift, missing", [
    ({"drift_models": {"0": {"m": 8, "n": 2}}}, "drift_period"),
    ({"drift_period": None, "drift_models": {"0": {"m": 8, "n": 2}}}, "drift_period"),
    ({"drift_period": 3}, "drift_models"),
    ({"drift_period": 3, "drift_models": None}, "drift_models"),
    ({"drift_period": 3, "drift_models": {}}, "drift_models"),
], ids=["models-alone", "models-null-period", "period-alone", "period-null-models",
        "period-empty-models"])
def test_half_specified_drift_is_refused(drift, missing):
    # either key alone used to pass and generate the undrifted stream
    with pytest.raises(ConfigError, match=f"needs a (non-empty )?{missing}"):
        scenario_from_dict(dict(_valid_dict(), **drift))
    # no drift at all is the undrifted stream
    scenario_from_dict(dict(_valid_dict(), drift_models={}))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(bogus=1), "unknown scenario keys"),
    (lambda d: d.update(hyperparams={"nope": 1}), "unknown hyperparameter keys"),
    (lambda d: d.update(hyperparams={"eta": -1.0}), "eta"),
    (lambda d: d.update(ablation={"nope": [1]}), "ablation"),
    (lambda d: d.update(budget_scale_range=[1.0]), "budget_scale_range"),
    (lambda d: d.update(campaigns=3), "campaigns must be"),
    (lambda d: d["campaigns"][0].update(extra=1), "unknown keys"),
    (lambda d: d["campaigns"][0].pop("budget"), "missing keys"),
    (lambda d: d["campaigns"][0].update(quality_model={"m": 2}), "keys m, n"),
    (lambda d: d["campaigns"].__setitem__(0, "x"), "expected an object"),
    (lambda d: d.update(campaigns={"budget_range": [1, 2]}), "requires a count"),
    (lambda d: d.update(campaigns={"count": 2, "weird": 1}), "unknown generator keys"),
    (lambda d: d.update(campaigns={"count": 2, "budget_range": [-5, 50]}), "budget_range"),
    (lambda d: d.update(campaigns={"count": 2, "budget_range": [50, 10]}), "budget_range"),
    (lambda d: d.update(campaigns={"count": 2, "budget_range": [1, float("inf")]}),
     "budget_range"),
    (lambda d: d.update(campaigns={"count": 2, "budget_range": "ab"}), "budget_range"),
    (lambda d: d.update(campaigns={"count": 2, "recall_range": [0.5]}), "recall_range"),
    (lambda d: d.update(campaigns={"count": 2, "recall_range": [0.5, -1]}), "recall_range"),
    (lambda d: d.update(campaigns={"count": 2, "recall_range": [0.2, 1.5]}), "recall_range"),
    (lambda d: d.update(campaigns={"count": 2, "recall_range": [0, 0.5]}), "recall_range"),
    (lambda d: d.update(campaigns={"count": 2, "supply_margin": 0}), "supply_margin"),
    (lambda d: d.update(campaigns={"count": 2, "supply_margin": float("nan")}), "supply_margin"),
    (lambda d: d.update(campaigns={"count": 2, "supply_margin": "3"}), "supply_margin"),
])
def test_scenario_from_dict_rejects_malformed(mutate, msg):
    data = _valid_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=msg):
        scenario_from_dict(data)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(num_periods=5.7), "num_periods"),
    (lambda d: d.update(requests_per_period=40.5), "requests_per_period"),
    (lambda d: d.update(seed=2.9), "seed"),
    (lambda d: d.update(rounds=1.5), "rounds"),
    (lambda d: d.update(rounds=float("nan")), "rounds"),
    (lambda d: d.update(seed=True), "seed"),
    (lambda d: d["campaigns"][0].update(budget=2.9), r"campaigns\[0\]\.budget"),
    (lambda d: d["campaigns"][1].update(id=1.5), r"campaigns\[1\]\.id"),
])
def test_scenario_from_dict_rejects_non_integral_counts(mutate, field):
    data = _valid_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        scenario_from_dict(data)


def test_scenario_from_dict_accepts_integral_floats():
    data = _valid_dict()
    data.update(num_periods=6.0)
    data["campaigns"][0]["budget"] = 20.0
    cfg = scenario_from_dict(data)
    assert cfg.num_periods == 6 and cfg.campaigns[0].budget == 20


def test_load_scenario_config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_valid_dict()))
    cfg = load_scenario_config(path)
    assert cfg.rounds == 2


def test_load_scenario_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario_config(path)


def test_scenario_from_dict_reads_values_by_their_field_kind():
    # an integral float is an int, an int is a float where the field is one,
    # and a drift_models key is a canonical decimal
    data = _valid_dict()
    data.update(seed=4.0, hyperparams={"eta": 1, "clip_enabled": False},
                ablation={"slope_k": [0, 10]}, drift_period=2,
                drift_models={"-0": {"m": 8, "n": 2}})
    with pytest.raises(ConfigError, match="drift_models key '-0' is not a campaign id"):
        scenario_from_dict(data)
    data["drift_models"] = {"1": {"m": 8, "n": 2}}
    cfg = scenario_from_dict(data)
    assert type(cfg.seed) is int and cfg.seed == 4
    assert type(cfg.hyperparams.eta) is float and cfg.hyperparams.clip_enabled is False
    assert cfg.ablation == {"slope_k": [0.0, 10.0]} and type(cfg.ablation["slope_k"][0]) is float
    assert list(cfg.drift_models) == [1]


# --- any JSON value at any key path ---------------------------------------------------

def _kitchen_sink() -> list[dict]:
    """Two valid configs that use every key: listed campaigns, and generated ones."""
    listed = dict(_valid_dict(), drift_period=3, drift_models={"1": {"m": 8, "n": 2}},
                  hyperparams={"eta": 0.5, "clip_enabled": False, "divergence": "euclidean"},
                  ablation={"slope_k": [0.0, 10.0], "adaptive_clip_enabled": [True, False]},
                  algorithms=["dmd", "rcpacing"], budget_scale_range=[0.9, 1.1],
                  regenerate_stream_per_round=False)
    generated = dict(listed, campaigns={"count": 3, "budget_range": [10, 40],
                                        "recall_range": [0.1, 0.5], "supply_margin": 2.0})
    return [listed, generated]


_KEYS = st.sampled_from(["0", "00", "-0", "1", " 1", "+1", "\u0663", "x", "9" * 19, "9" * 25,
                         "eta", "count", "m"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.sampled_from(["", "1", "2.5", "-3", "nan", "inf", "1e3", "true", "dmd", "itakura"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_json_value_at_any_key_path_is_read_or_refused(data):
    # a config with one or two values replaced by arbitrary JSON, including
    # the root, every list entry and every key of every object, gives a
    # config whose values have their fields' kinds, or a ConfigError
    cfg = copy.deepcopy(data.draw(st.sampled_from(_kitchen_sink())))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        value = data.draw(_JSON)
        if not path:
            cfg = value
            continue
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        out = scenario_from_dict(cfg)
    except ConfigError:
        return
    out.validate()
    for name in ("num_periods", "requests_per_period", "seed", "rounds"):
        assert type(getattr(out, name)) is int and 0 <= getattr(out, name) < 2 ** 63
    assert all(type(getattr(out.hyperparams, f.name)) is type(f.default)
               for f in fields(PacingHyperParams))
    assert type(out.regenerate_stream_per_round) is bool
    assert all(type(c.id) is int and type(c.budget) is int and type(c.recall_prob) is float
               for c in out.campaigns)


# --- synthetic populations ------------------------------------------------------------------

def test_synth_campaigns_population():
    total = 60_000
    specs = synth_campaigns(30, total, seed=0)
    assert [s.id for s in specs] == list(range(30))
    for s in specs:
        assert 1 <= s.budget <= 2500 * 1.01
        assert 0.05 <= s.recall_prob <= 0.8
        # recall floor keeps expected recalled supply >= 3.3x the budget
        assert s.recall_prob * total >= 3.3 * s.budget * 0.999
        assert s.quality_model.m >= 2.0 and s.quality_model.n >= 2.0
    again = synth_campaigns(30, total, seed=0)
    assert [(s.budget, s.recall_prob) for s in again] == \
        [(s.budget, s.recall_prob) for s in specs]
    other = synth_campaigns(30, total, seed=1)
    assert [s.budget for s in other] != [s.budget for s in specs]


def test_default_scenario_demand_sits_below_supply():
    for seed in (0, 1, 7):
        cfg = default_scenario(seed=seed)
        cfg.validate()
        assert len(cfg.campaigns) == 30
        demand = sum(c.budget for c in cfg.campaigns)
        frac = demand / cfg.total_requests
        assert 0.15 < frac < 0.40
