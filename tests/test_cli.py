"""Command-line behaviour: files written, exit codes, seed precedence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gdpacer.cli
import gdpacer.theory as theory
from gdpacer.cli import (ROUNDS_HEADER, SERIES_HEADER, main, render_aggregate_table)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("GDPACER_SEED", raising=False)


def _config_dict(seed=3):
    data = {
        "num_periods": 6,
        "requests_per_period": 40,
        "rounds": 2,
        "campaigns": [
            {"id": 0, "budget": 20, "recall_prob": 0.5, "quality_model": {"m": 2, "n": 5}},
            {"id": 1, "budget": 30, "recall_prob": 0.4, "quality_model": {"m": 3, "n": 3}},
            {"id": 2, "budget": 60, "recall_prob": 0.6, "quality_model": {"m": 5, "n": 2}},
        ],
    }
    if seed is not None:
        data["seed"] = seed
    return data


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_config_dict()))
    return str(path)


def _run(tmp_path, config_path, name, *extra):
    out = tmp_path / name
    code = main(["run", "--config", config_path, "--out", str(out), *extra])
    return code, out


# --- run ---------------------------------------------------------------------------

def test_run_writes_outputs(tmp_path, config_path, capsys):
    code, out = _run(tmp_path, config_path, "o1")
    assert code == 0
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0] == ROUNDS_HEADER
    assert len(rounds) == 1 + 2 * 3        # 2 rounds x 3 algorithms
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == SERIES_HEADER
    assert (out / "aggregate.csv").read_text().startswith("algorithm,metric,mean,std")
    table = capsys.readouterr().out
    assert "rcpacing" in table and "delivery_rate" in table and "*" in table


def test_run_reruns_byte_identical(tmp_path, config_path):
    _, o1 = _run(tmp_path, config_path, "o1")
    _, o2 = _run(tmp_path, config_path, "o2")
    for name in ("rounds.csv", "series.csv", "aggregate.csv"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


def test_run_force_writes_each_output_as_a_new_file(tmp_path, config_path):
    # a --force rerun writes identical bytes to a new file rather than
    # truncating the old one in place; a symlinked output is replaced
    names = ("rounds.csv", "series.csv", "aggregate.csv")
    _, out = _run(tmp_path, config_path, "o1")
    for name in names:
        os.link(out / name, tmp_path / name)      # keeps the old inode allocated
    elsewhere = tmp_path / "elsewhere.csv"
    elsewhere.write_text("keep\n")
    (out / "series.csv").unlink()
    (out / "series.csv").symlink_to(elsewhere)
    code, _ = _run(tmp_path, config_path, "o1", "--force")
    assert code == 0
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert not (out / name).is_symlink()
        assert not os.path.samefile(out / name, tmp_path / name)
    assert elsewhere.read_text() == "keep\n"


def test_run_json_format(tmp_path, config_path):
    code, out = _run(tmp_path, config_path, "oj", "--format", "json")
    assert code == 0
    rounds = json.loads((out / "rounds.json").read_text())
    assert len(rounds) == 6
    assert {"algorithm", "round_index", "delivery_rate", "per_period_spend"} <= set(rounds[0])
    agg = json.loads((out / "aggregate.json").read_text())
    assert "rcpacing" in agg and "mean" in agg["rcpacing"]["avg_ctr"]
    assert (out / "series.csv").exists()


def test_run_seed_flag_overrides_config(tmp_path, config_path):
    _, base = _run(tmp_path, config_path, "base")               # config seed 3
    _, flagged = _run(tmp_path, config_path, "flag", "--seed", "5")
    assert (base / "rounds.csv").read_bytes() != (flagged / "rounds.csv").read_bytes()

    path5 = tmp_path / "seed5.json"
    path5.write_text(json.dumps(_config_dict(seed=5)))
    _, cfg5 = _run(tmp_path, str(path5), "cfg5")
    assert (flagged / "rounds.csv").read_bytes() == (cfg5 / "rounds.csv").read_bytes()


def test_run_env_seed_used_when_config_has_none(tmp_path, monkeypatch):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_config_dict(seed=None)))
    monkeypatch.setenv("GDPACER_SEED", "5")
    _, env_out = _run(tmp_path, str(bare), "env")
    monkeypatch.delenv("GDPACER_SEED")
    _, flag_out = _run(tmp_path, str(bare), "flag", "--seed", "5")
    assert (env_out / "rounds.csv").read_bytes() == (flag_out / "rounds.csv").read_bytes()


def test_run_config_seed_beats_env(tmp_path, config_path, monkeypatch):
    monkeypatch.setenv("GDPACER_SEED", "5")
    _, env_out = _run(tmp_path, config_path, "env")             # config seed 3 wins
    monkeypatch.delenv("GDPACER_SEED")
    _, plain = _run(tmp_path, config_path, "plain")
    assert (env_out / "rounds.csv").read_bytes() == (plain / "rounds.csv").read_bytes()


def test_run_invalid_env_seed(tmp_path, config_path, monkeypatch, capsys):
    monkeypatch.setenv("GDPACER_SEED", "five")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_config_dict(seed=None)))
    code, _ = _run(tmp_path, str(bare), "x")
    assert code == 1
    assert "GDPACER_SEED" in capsys.readouterr().err


def test_run_algorithms_filter(tmp_path, config_path):
    code, out = _run(tmp_path, config_path, "only", "--algorithms", "dmd")
    assert code == 0
    rows = (out / "rounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(r.startswith("dmd,") for r in rows)


def test_run_unknown_algorithm_rejected(tmp_path, config_path, capsys):
    code, _ = _run(tmp_path, config_path, "bad", "--algorithms", "magic")
    assert code == 1
    assert "unknown algorithms" in capsys.readouterr().err


def test_run_refuses_overwrite_without_force(tmp_path, config_path, capsys):
    _, out = _run(tmp_path, config_path, "same")
    code = main(["run", "--config", config_path, "--out", str(out)])
    assert code == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    code = main(["run", "--config", config_path, "--out", str(out), "--force"])
    assert code == 0


def test_run_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_run_rejects_non_finite_hyperparameter(tmp_path, literal, capsys):
    path = tmp_path / "nan.json"
    text = json.dumps(dict(_config_dict(), hyperparams={"eta": 0.2}))
    path.write_text(text.replace('"eta": 0.2', f'"eta": {literal}'))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "eta must be finite" in capsys.readouterr().err


def test_run_rejects_fractional_config_seed(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(_config_dict(seed=2.9)))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "seed must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, needle", [("x", "is not a campaign id"),
                                         ("7", "unknown campaigns [7]")],
                         ids=["non-integer", "unknown-campaign"])
def test_run_rejects_bad_drift_models_key(tmp_path, key, needle, capsys):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(dict(_config_dict(), drift_period=2,
                                    drift_models={key: {"m": 5, "n": 2}})))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("drift, needle", [
    ({"drift_models": {"0": {"m": 5, "n": 2}}}, "drift_models needs a drift_period"),
    ({"drift_period": 2}, "drift_period needs a non-empty drift_models"),
], ids=["models-without-period", "period-without-models"])
def test_run_refuses_half_specified_drift(tmp_path, drift, needle, capsys):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(dict(_config_dict(), **drift)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_BIG = "1" + "0" * 400       # a 401-digit integer, past any float


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.update(budget_scale_range=["a", 1]), "budget_scale_range[0] must be finite"),
    (lambda d: d.update(algorithms=5), "algorithms must be a list"),
    (lambda d: d["campaigns"][0].update(recall_prob="x"), "campaigns[0].recall_prob must be"),
    (lambda d: d.update(num_periods="BIG"), "num_periods must be an integer"),
    (lambda d: d.update(seed=-1), "seed must lie in [0, 2^63)"),
    (lambda d: d.update(seed=2 ** 63), "seed must be an integer within int64"),
    (lambda d: d.update(algorithms=[]), "algorithms must name at least one"),
    (lambda d: d.update(algorithms=["dmd", "dmd"]), "algorithms must not repeat"),
    (lambda d: d.update(regenerate_stream_per_round="no"),
     "regenerate_stream_per_round must be a JSON boolean"),
    (lambda d: d.update(hyperparams={"clip_enabled": "no"}),
     "hyperparams.clip_enabled must be a JSON boolean"),
    (lambda d: d["campaigns"][0].update(quality_model={"m": "2", "n": 5}),
     "campaigns[0].quality_model.m must be finite"),
    (lambda d: d["campaigns"][0].update(id=10 ** 30 - 1), "campaigns[0].id must be an integer"),
    (lambda d: d.update(campaigns={"count": 3}, seed=-1), "seed must lie in [0, 2^63)"),
    (lambda d: d.update(campaigns={"count": 3}, num_periods=0), "num_periods"),
    (lambda d: d.update(drift_period=2, drift_models={"0": {"m": 5, "n": 2},
                                                       "00": {"m": 2, "n": 5}}),
     "drift_models key '00' is not a campaign id"),
], ids=["range-end", "algorithms-kind", "recall-kind", "huge-int", "negative-seed", "seed-2^63",
        "no-algorithms", "repeated-algorithm", "bool-scenario", "bool-hyperparam", "model-kind",
        "huge-id", "generator-negative-seed", "generator-empty-horizon", "drift-key-zeros"])
def test_run_refuses_mistyped_config_values(tmp_path, capsys, edit, needle):
    data = _config_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace('"BIG"', _BIG))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("config error: ") and needle in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, env, needle", [
    (["--seed", "-1"], None, "seed must lie in [0, 2^63)"),
    (["--seed", str(2 ** 63)], None, "seed must "),
    ([], "-1", "seed must lie in [0, 2^63)"),
    (["--algorithms", ","], None, "algorithms must name at least one"),
    (["--algorithms", "dmd,dmd"], None, "algorithms must not repeat"),
    (["--jobs", "0"], None, "--jobs must be >= 1, got 0"),
    (["--jobs", "-3"], None, "--jobs must be >= 1, got -3"),
], ids=["flag-seed", "flag-seed-2^63", "env-seed", "no-algorithms", "repeated-algorithm",
        "jobs-0", "jobs-neg"])
@pytest.mark.parametrize("with_config", [True, False], ids=["config", "built-in"])
def test_flags_and_environment_pass_the_config_checks(tmp_path, monkeypatch, capsys,
                                                      argv, env, needle, with_config):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_config_dict(seed=None)))
    if env is not None:
        monkeypatch.setenv("GDPACER_SEED", env)
    config = ["--config", str(bare)] if with_config else []
    code = main(["run", *config, "--out", str(tmp_path / "o"), *argv])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("config error: ") and needle in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, env", [
    (["--seed", "\u0665"], None), (["--seed", "1_0"], None), (["--seed", " 5 "], None),
    ([], "\u0665"), ([], "1_0"), ([], " 5 "),
], ids=["flag-arabic-indic", "flag-underscore", "flag-spaces", "env-arabic-indic",
        "env-underscore", "env-spaces"])
def test_seed_text_is_a_canonical_ascii_decimal(tmp_path, monkeypatch, capsys, argv, env):
    # Python's int() takes all three; the config file and stream CSV do not
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_config_dict(seed=None)))
    if env is not None:
        monkeypatch.setenv("GDPACER_SEED", env)
    code = main(["run", "--config", str(bare), "--out", str(tmp_path / "o"), *argv])
    err = capsys.readouterr().err
    name = "--seed" if argv else "GDPACER_SEED"
    assert code == 1 and err.startswith(f"config error: {name} ") and "canonical decimal" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, key", [
    ('"seed": 3', '"seed": 1, "seed": 2', "seed"),
    ('"eta": 0.2', '"eta": 0.2, "eta": 0.5', "eta"),
    ('"budget": 20', '"budget": 20, "budget": 25', "budget"),
    ('"slope_k": [0, 10]', '"slope_k": [0], "slope_k": [10]', "slope_k"),
], ids=["top-level", "hyperparams", "campaign", "ablation"])
def test_run_refuses_a_repeated_config_key(tmp_path, capsys, old, new, key):
    # json keeps the last of two equal keys, so the first would be ignored
    path = tmp_path / "dup.json"
    text = json.dumps(dict(_config_dict(), hyperparams={"eta": 0.2},
                           ablation={"slope_k": [0, 10]}))
    assert old in text
    path.write_text(text.replace(old, new, 1))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("config error: ") and f"repeated key '{key}'" in err
    assert not (tmp_path / "o").exists()


def test_ablate_refuses_an_empty_axis(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(dict(_config_dict(), ablation={"eta": [0.2], "slope_k": []})))
    code = main(["ablate", "--config", str(path), "--out", str(tmp_path / "ab")])
    assert code == 1
    assert "ablation.slope_k must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "ab").exists()


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


# --- validate ------------------------------------------------------------------------

def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert "survival-ratio-monotonicity" in out


def test_validate_has_no_narrow_subset(capsys):
    # the full suite is the only one: `--narrow` is a usage error
    assert main(["validate", "--narrow"]) == 1
    assert "unrecognized arguments: --narrow" in capsys.readouterr().err


def test_validate_broken_check_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(theory, "fluctuation_ratio",
                        lambda m, n, a, delta=0.05: 2.0 - a)
    assert main(["validate"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  survival-ratio-monotonicity" in out
    assert out.count("PASS") == 5


# --- ablate --------------------------------------------------------------------------

def test_ablate_grid(tmp_path, capsys):
    data = _config_dict()
    data["ablation"] = {"slope_k": [0.0, 10.0]}
    data["algorithms"] = ["dmd", "rcpacing"]
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("slope_k,algorithm,delivery_rate_mean,delivery_rate_std")
    assert len(lines) == 1 + 2 * 2          # 2 cells x 2 algorithms
    assert {l.split(",")[0] for l in lines[1:]} == {"0.0", "10.0"}
    assert "[slope_k=0.0]" in capsys.readouterr().out


@pytest.mark.parametrize("extra, needle", [
    ({"hyperparams": {"eta": "fast"}}, "hyperparams.eta must be finite and numeric"),
    ({"ablation": {"eta": 0.2}}, "list of values"),
    ({"ablation": {"eta": [0.2, "fast"]}}, "ablation cell"),
])
def test_ablate_rejects_mistyped_values(tmp_path, capsys, extra, needle):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(dict(_config_dict(), **extra)))
    code = main(["ablate", "--config", str(path), "--out", str(tmp_path / "ab")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and needle in err


def test_ablate_rejects_bad_grid_cell_before_running(tmp_path, capsys):
    # the second cell is invalid: no cell may run, and the exit is a config error
    path = tmp_path / "ab.json"
    text = json.dumps(dict(_config_dict(), ablation={"eta": [0.2, 0.3]}))
    path.write_text(text.replace("0.3]", "NaN]"))
    code = main(["ablate", "--config", str(path), "--out", str(tmp_path / "ab")])
    assert code == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "eta must be finite" in captured.err
    assert "[eta=0.2]" not in captured.out
    assert not (tmp_path / "ab" / "ablation.csv").exists()


def test_ablate_refuses_format(tmp_path, capsys):
    # ablate writes only ablation.csv; a --format flag it would ignore is refused
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(dict(_config_dict(), ablation={"eta": [0.2, 0.3]})))
    code = main(["ablate", "--config", str(path), "--out", str(tmp_path / "ab"),
                 "--format", "json"])
    assert code == 1
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "ab").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_empty_algorithms_flag_is_refused(tmp_path, capsys, command):
    # an empty --algorithms names no algorithm; it must not fall back to the config's
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(dict(_config_dict(), ablation={"eta": [0.2, 0.3]})))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                 "--algorithms", ""])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("config error: ")
    assert "algorithms must name at least one" in err and not (tmp_path / "o").exists()


def test_ablate_requires_grid(tmp_path, config_path, capsys):
    code = main(["ablate", "--config", config_path, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "ablation" in capsys.readouterr().err


# --- report --------------------------------------------------------------------------

def test_report_renders_table(tmp_path, config_path, capsys):
    _, out = _run(tmp_path, config_path, "r1")
    capsys.readouterr()
    assert main(["report", str(out / "rounds.csv")]) == 0
    table = capsys.readouterr().out
    assert "dmd" in table and "rcpacing" in table and "avg_ctr" in table


def test_report_writes_aggregate(tmp_path, config_path):
    _, out = _run(tmp_path, config_path, "r2")
    dest = tmp_path / "agg"
    assert main(["report", str(out / "rounds.csv"), "--out", str(dest)]) == 0

    def parse(p):
        rows = [l.split(",") for l in p.read_text().splitlines()[1:]]
        return {(a, m): (float(x), float(s)) for a, m, x, s in rows}

    orig, rebuilt = parse(out / "aggregate.csv"), parse(dest / "aggregate.csv")
    assert rebuilt.keys() == orig.keys()
    for key, (mean, std) in orig.items():
        # rounds.csv carries 10 significant digits, so the round trip is
        # near-exact but not byte-exact
        assert rebuilt[key][0] == pytest.approx(mean, rel=1e-8, abs=1e-9)
        assert rebuilt[key][1] == pytest.approx(std, rel=1e-6, abs=1e-9)


def test_report_single_row_file(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text(ROUNDS_HEADER + "\nrcpacing,0,0.99,7.5,0.08,\n")
    assert main(["report", str(path)]) == 0
    assert "rcpacing" in capsys.readouterr().out


@pytest.mark.parametrize("body,needle", [
    ("wrong,header\nx\n", ":1: expected header"),
    (ROUNDS_HEADER + "\ndmd,0,1.0\n", ":2: expected 6 fields"),
    (ROUNDS_HEADER + "\ndmd,zero,1.0,2.0,3.0,\n", ":2:"),
    (ROUNDS_HEADER + "\n", "no data rows"),
    (ROUNDS_HEADER + "\nrcpacing,0,nan,inf,0.08,\n", ":2: metric values must be finite"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,0.08,\ndmd,1,0.9,7.5,0.08,-inf\n", ":3: metric values"),
    # the round column is a canonical decimal >= 0
    (ROUNDS_HEADER + "\ndmd,1_0,0.9,7.5,0.08,\n", ":2: round '1_0' is not an integer"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,0.08,\ndmd, 3 ,0.9,7.5,0.08,\n", ":3: round ' 3 '"),
    (ROUNDS_HEADER + "\ndmd,-4,0.9,7.5,0.08,\n", ":2: round must be >= 0, got -4"),
    # a metric cell must hold a value its metric can take, for a known algorithm
    (ROUNDS_HEADER + "\ndmd,0,1.5,7.5,0.08,\n", ":2: delivery_rate must lie in [0, 1], got 1.5"),
    (ROUNDS_HEADER + "\ndmd,0,-0.1,7.5,0.08,\n", ":2: delivery_rate must lie in [0, 1]"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,1.2,\n", ":2: avg_ctr must lie in [0, 1], got 1.2"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,-0.08,\n", ":2: avg_ctr must lie in [0, 1]"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,-7.5,0.08,\n", ":2: unsmoothness must lie in [0, inf], got -7.5"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,0.08,-3\n", ":2: regret must lie in [-1e-09, inf], got -3"),
    (ROUNDS_HEADER + "\ndmd,0,0.9,7.5,0.08,\nfoo,0,0.9,7.5,0.08,\n", ":3: unknown algorithm `foo`"),
])
def test_report_malformed_inputs(tmp_path, capsys, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert main(["report", str(path)]) == 1
    assert needle in capsys.readouterr().err


def test_report_accepts_metric_bounds(tmp_path, capsys):
    # the ends of each range, and a regret within rounding of the optimum
    path = tmp_path / "edges.csv"
    path.write_text(ROUNDS_HEADER + "\ndmd,0,1,0,1,-1e-9\nsmart,0,0,0,0,0\n")
    assert main(["report", str(path)]) == 0


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost.csv")]) == 1
    assert "input error" in capsys.readouterr().err


# --- parser --------------------------------------------------------------------------

def test_usage_errors_map_to_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gdpacer" in capsys.readouterr().out


def test_module_entry_point_runs_the_command(tmp_path, config_path):
    # `python3 -m gdpacer.cli` is the console script: it runs the command and
    # exits with its code
    src = str(Path(gdpacer.cli.__file__).resolve().parents[1])

    def module(*args):
        return subprocess.run([sys.executable, "-m", "gdpacer.cli", *args], cwd=src,
                              capture_output=True)

    out = tmp_path / "o1"
    done = module("run", "--config", config_path, "--out", str(out))
    assert done.returncode == 0, done.stderr.decode()
    assert (out / "rounds.csv").read_text().splitlines()[0] == ROUNDS_HEADER
    assert module("bogus").returncode == 1


def test_render_table_marks_best():
    agg = {
        "dmd": {"avg_ctr": (0.08, 0.01), "unsmoothness": (20.0, 1.0)},
        "rcpacing": {"avg_ctr": (0.10, 0.01), "unsmoothness": (7.0, 1.0)},
    }
    table = render_aggregate_table(agg)
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["algorithm", "unsmoothness", "avg_ctr"]
    rcp_line = next(l for l in lines if l.startswith("rcpacing"))
    assert rcp_line.count("*") == 2        # best on both metrics
