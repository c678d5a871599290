"""The sources parse under the grammar of the oldest Python the package
claims to support."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # pyproject.toml claims 3.10, and the CI matrix has a 3.10 row
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = sorted(p for d in ("src", "certbench", "tests") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "ideals.py" for p in paths) and any(p.name == "run.py" for p in paths)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
