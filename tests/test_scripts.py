"""Smoke tests for the standing experiment scripts."""

import pytest

from oracle import load_script


def _regret_scaling():
    return load_script("run_regret_scaling")


def test_run_regret_scaling_writes_csv(tmp_path, capsys, monkeypatch):
    script = _regret_scaling()
    assert script.main(["--horizons", "250", "1000", "--out", str(tmp_path)]) == 0
    # the runners get one prepared stream per horizon; handing them the raw
    # stream instead, which each runner prepares for itself, writes the same bytes
    monkeypatch.setattr(script, "prepare", lambda stream, ids, per_impression: stream)
    raw = tmp_path / "raw"
    assert script.main(["--horizons", "250", "1000", "--out", str(raw)]) == 0
    assert (raw / "regret.csv").read_bytes() == (tmp_path / "regret.csv").read_bytes()
    lines = (tmp_path / "regret.csv").read_text().splitlines()
    assert lines[0] == "algorithm,T,regret,ratio_vs_prev"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("dmd", "250"), ("dmd", "1000"),
                                            ("rcpacing", "250"), ("rcpacing", "1000")]
    assert all(float(r[2]) >= 0.0 for r in rows)
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("argv,needle", [
    (["--seed", " 5 "], "--seed ' 5 ' is not an integer"),
    (["--seed", "1_0"], "--seed '1_0' is not an integer"),
    (["--seed", "-1"], "--seed must be >= 0"),
    (["--horizons", "0", "50"], "horizon 0 must be a positive multiple"),
    (["--horizons", "-50"], "horizon -50 must be a positive multiple"),
    (["--horizons", "100", "75"], "horizon 75 must be a positive multiple"),
    (["--horizons", "1_00"], "horizon '1_00' is not an integer"),
    (["--eta-coeff", "nan"], "--eta-coeff must be finite and > 0"),
    (["--eta-coeff", "0"], "--eta-coeff must be finite and > 0"),
])
def test_run_regret_scaling_refuses_bad_input(tmp_path, capsys, argv, needle):
    # a usage error (exit 2) before any horizon runs, nothing written; a
    # later --horizons replaces the short default given first
    with pytest.raises(SystemExit) as exc:
        _regret_scaling().main(["--horizons", "100", *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
