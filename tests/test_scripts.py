"""Smoke tests for the standing experiment scripts."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_regret_scaling_writes_csv(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_regret_scaling",
                                                  SCRIPTS / "run_regret_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
