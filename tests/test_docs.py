"""The README's Python examples import names that exist."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
