"""Checks on the sources as text: they parse under the grammar of the
oldest Python the package claims to support, and no echelon in the package
is handed a field."""

import ast
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    # pyproject.toml claims 3.10, and the CI matrix has a 3.10 row
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = sorted(p for d in ("src", "certbench", "tests") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "ideals.py" for p in paths) and any(p.name == "run.py" for p in paths)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _calls(node, scope):
    """(name of the enclosing def, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _calls(child, inner)


def test_no_echelon_in_the_package_is_given_a_field():
    # a kept stack or Im d1 is shared by a table and its Q(i) twin, so it must
    # not depend on which of them built it: no call in src/ hands the echelon
    # a field, save reduce_rows passing its own on to RowBasis (the parameter
    # stays for callers outside the package)
    from nilcohom.linalg import RowBasis, reduce_rows

    field_at = {f.__name__: list(inspect.signature(f).parameters).index("field")
                for f in (RowBasis, reduce_rows)}
    passed = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text()), None):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in field_at and (
                len(call.args) > field_at[name]
                or any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg in ("field", None) for kw in call.keywords)
            ):
                passed.append((path.name, scope, name))
    assert passed == [("linalg.py", "reduce_rows", "RowBasis")]
