"""The README's Python examples import names that exist, and the files it
names are the ones the repository has."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _imports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield ast.unparse(node)


def test_readme_example_imports_resolve():
    statements = list(_imports())
    assert any("render_aggregate_table" in s for s in statements)
    for statement in statements:
        exec(statement, {})


def test_readme_names_the_public_api():
    import gdpacer
    text = README.read_text(encoding="utf-8")
    for name in ("load_stream_csv", "run_dmd", "run_rcpacing", "run_smart_baseline",
                 "PacingHyperParams", "RunConfig", "hindsight_optimum", "generate_stream",
                 "prepare", "PreparedStream"):
        assert f"`{name}`" in text
        assert hasattr(gdpacer, name), name


def test_readme_names_every_config_and_no_missing_script():
    text = README.read_text(encoding="utf-8")
    for path in sorted((ROOT / "configs").glob("*.json")):
        assert f"`{path.name}`" in text, path.name
    existing = {p.name for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py")}
    named = set(re.findall(r"\b\w+\.py\b", text))
    assert "run_regret_scaling.py" in named
    assert named <= existing, sorted(named - existing)


def test_readme_names_every_config_key():
    from dataclasses import fields

    from gdpacer.pacing import PacingHyperParams
    from gdpacer.simulate import ScenarioConfig
    text = README.read_text(encoding="utf-8")
    for cls in (ScenarioConfig, PacingHyperParams):
        for f in fields(cls):
            assert f"`{f.name}`" in text, f"{cls.__name__}.{f.name}"
