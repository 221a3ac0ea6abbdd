"""The experiment configs under `configs/` describe the experiments they
stand for, and each one runs through the command line."""

import json
from pathlib import Path

import pytest

from gdpacer.cli import main
from gdpacer.pacing import PacingHyperParams
from gdpacer.simulate import ablation_cells, default_scenario, load_scenario_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_ABLATE = dict(seed=0, rounds=20, algorithms=("rcpacing",))
# the desk-default scenario (30 campaigns) over 20 budget-scaled rounds; the
# ablations run the paced algorithm alone, one hyperparameter axis each, and
# the clipping contrast at a step size large enough to overshoot
EXPECTED = {
    "offline_table.json": default_scenario(seed=0, rounds=20),
    "ablate_slope.json": default_scenario(**_ABLATE, ablation={"slope_k": [0.0, 10.0, 100.0]}),
    "ablate_clip.json": default_scenario(**_ABLATE, hyperparams=PacingHyperParams(eta=0.8),
                                         ablation={"clip_enabled": [False, True]}),
    "ablate_divergence.json": default_scenario(
        **_ABLATE, ablation={"divergence": ["euclidean", "itakura"]}),
}
# the grid values as the `ablation.csv` rows print them
CELL_LABELS = {
    "offline_table.json": [[]],
    "ablate_slope.json": [["0.0"], ["10.0"], ["100.0"]],
    "ablate_clip.json": [["False"], ["True"]],
    "ablate_divergence.json": [["euclidean"], ["itakura"]],
}


def test_every_config_is_known():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_config_parses_to_its_experiment(name):
    cfg = load_scenario_config(CONFIGS / name)
    assert cfg == EXPECTED[name]
    assert [[str(v) for v in cell.values()] for cell in ablation_cells(cfg)] == CELL_LABELS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shrunken_config_runs(name, tmp_path, capsys):
    data = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    data.update(rounds=2, num_periods=4, requests_per_period=60,
                campaigns=dict(data["campaigns"], count=4))
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    if "ablation" in data:
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "ablation.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + len(CELL_LABELS[name]) * len(data["algorithms"])
    else:
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 2 * 3
        assert (out / "aggregate.csv").exists() and (out / "series.csv").exists()
    assert "rcpacing" in capsys.readouterr().out
