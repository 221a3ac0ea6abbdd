"""Pinned output digests: aim 2's equivalence check as a test.

A child process runs with `NPY_ENABLE_CPU_FEATURES=X86_V3`, so numpy's
`exp`, `log` and `power` take their x86-64-v3 (AVX2, FMA3) kernels on any
x86-64 host at that level or above, and prints the sha256 of:
- `DeliveryTrace.tobytes()` of each policy on a small instance, in period
  and in per-impression mode, and every array the `rcpacing` run's forward
  and backward transforms return;
- the CSVs that a small `gdpacer run` and `gdpacer ablate` write.

The child also runs `oracle.position_mismatches`, which checks that the
throttle's per-edge maps give an element the same bits wherever it sits in
its array, at the dispatch the pins belong to.

The trace bytes are pinned, not only the CSVs, which round to 10
significant digits and would hide a one-ulp move.  The pins were taken with
numpy 2.4.6 on an x86-64 host whose `exp` and `log` float64 kernels ran at
`X86_V3`.  A change that moves output bits on purpose updates `PINS` and
lists the old and new digests in CHANGES.md.

Run as a script, this file is the child: `python tests/test_golden.py DIR`
prints the platform, the digests and the position check's mismatches as
JSON, writing the CLI outputs under DIR.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the dispatch the pins belong to: numpy's current float64 kernel per ufunc
PLATFORM = {"machine": "x86_64", "exp": "X86_V3", "log": "X86_V3"}
PINS = {
    "period/dmd": "1b5a2d231c44d75e8fadf5e20dca2b2dcc5f6196686e500c9a873b2a422533ab",
    "period/rcpacing": "0782e7777451c32fb9f78a1b005920722336298478e18ad25b9ce1f783d6bf07",
    "period/smart": "bb1c3a54bd457bce860a50dafbcefed20132623fe57bcfe1ca3958dfed901410",
    "period/transforms": "52be96440a4fe6bcc18a5b9789e6601737034250d89d678e99c22f94d7a1038d",
    "per_impression/dmd": "3e1ac79349e7092c83749cf44fec05a6f70166d54e29468fb7b6ceb266bb9e83",
    "per_impression/rcpacing": "993bb31d4cf977378ff49aef7b5493f1b7caaf1d7d7399b9da34cddf7bf0b0cb",
    "per_impression/smart": "b38cddabe5703c87dadaa914c776e421c5346b5cb4fec55d581dc8b34bf167c2",
    "per_impression/transforms": "6541c3d51d8f4c7514ed4c5434b720ed2755c1d2889c78ba2392355b570b561b",
    "ablate/ablation.csv": "afbaa957ecbd91b521188de180314457cbf36480d40aa49d11c61f5ec451b821",
    "run/aggregate.csv": "38a700155ae8409a2b2b8591d650773cf8ad83ad6a8a80bbf765ccb234413a2b",
    "run/rounds.csv": "4ad5d757ce769bc14f7af5c7c63cef14ddfe1e86244197730b0e85d36c6ccd24",
    "run/series.csv": "48aec4af5e5a1bb6b9c2818e7be37b4dd15ce3916358115736cd9f379e184918",
}


def _platform() -> dict:
    import platform

    import numpy as np
    out = {"machine": platform.machine(), "numpy": np.__version__}
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:         # numpy < 2.0 has no dispatch introspection
        return out
    for name, sigs in opt_func_info(func_name="^(exp|log)$").items():
        out[name] = sigs.get("dd", {}).get("current")
    return out


def _digests(out_dir: Path) -> dict:
    import contextlib
    import hashlib
    import io

    import gdpacer.engine as engine
    from gdpacer import RUNNERS, RunConfig, ScenarioConfig, generate_stream, prepare
    from gdpacer.cli import main
    from gdpacer.simulate import scale_budgets, synth_campaigns

    # every percentile and threshold the throttle maps, in call order: a
    # one-ulp move in a fit rarely flips a draw or a win, but moves these
    transforms = hashlib.sha256()

    def recorded(transform):
        def call(*args):
            out = transform(*args)
            transforms.update(out.tobytes())
            return out
        return call
    engine.forward_transform = recorded(engine.forward_transform)
    engine.backward_transform = recorded(engine.backward_transform)
    digests = {}
    for mode, M, T, R, budgets in (("period", 8, 12, 300, (40.0, 600.0)),
                                   ("per_impression", 4, 6, 40, (5.0, 60.0))):
        cfg = ScenarioConfig(num_periods=T, requests_per_period=R, seed=5)
        cfg.campaigns = synth_campaigns(M, T * R, seed=5, budget_range=budgets)
        per_impression = mode == "per_impression"
        stream = prepare(generate_stream(cfg), [c.id for c in cfg.campaigns], per_impression)
        specs = scale_budgets(cfg.campaigns, 0, cfg.seed)
        for algo, run in RUNNERS.items():
            run_cfg = RunConfig(seed=17, per_impression=per_impression,
                                gradient_mode="absolute" if per_impression else "relative")
            digests[f"{mode}/{algo}"] = hashlib.sha256(
                run(stream, specs, run_cfg).tobytes()).hexdigest()
        digests[f"{mode}/transforms"] = transforms.hexdigest()
        transforms = hashlib.sha256()

    config = out_dir / "scenario.json"
    config.write_text(json.dumps({
        "num_periods": 10, "requests_per_period": 200, "rounds": 2, "seed": 7,
        "campaigns": {"count": 6, "budget_range": [20, 200]},
        "ablation": {"divergence": ["itakura", "euclidean"], "epsilon": [0.0, 0.1]}}))
    for command in ("run", "ablate"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(out_dir / command)])
        assert code == 0, f"gdpacer {command} exited {code}"
    for path in sorted(out_dir.glob("*/*.csv")):
        name = f"{path.parent.name}/{path.name}"
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_the_pins(tmp_path):
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES="X86_V3",
               PYTHONPATH=os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                                        if p]))
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    where = {k: got["platform"].get(k) for k in PLATFORM}
    assert where == PLATFORM, (
        f"the pins belong to numpy's x86-64-v3 dispatch {PLATFORM}; this platform is "
        f"{got['platform']}, where they need not hold")
    moved = {k: v for k, v in got["digests"].items() if PINS.get(k) != v}
    assert not moved and set(got["digests"]) == set(PINS), (
        f"output bits moved on {got['platform']}: {moved}")
    assert got["position"] == [], f"position-dependent bits on {got['platform']}"


if __name__ == "__main__":
    from oracle import position_mismatches
    position = sorted({name for seed in range(3) for name in position_mismatches(seed)})
    print(json.dumps({"platform": _platform(), "digests": _digests(Path(sys.argv[1])),
                      "position": position}, indent=1))
