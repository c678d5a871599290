"""Checks on the sources as text: they parse under the grammar of the
oldest Python the package claims to support, no echelon in the package is
handed a field, only the echelon's own methods write its three views of
the kept rows, every read of the letter operators goes through the
memo, the exactness certificate reads its tangents off the family's
polynomials, and the package keeps state only in its declared memos."""

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


def _nodes(node, scope):
    """(name of the enclosing def, node) for every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _nodes(child, inner)


def _package_nodes():
    """(module file name, name of the enclosing def, node) over ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for scope, node in _nodes(ast.parse(path.read_text()), None):
            yield path.name, scope, node


def test_no_echelon_in_the_package_is_given_a_field():
    # a kept stack or Im d1 is shared by a table and its Q(i) twin, so it must
    # not depend on which of them built it: no call in src/ hands the echelon
    # a field, save reduce_rows passing its own on to RowBasis (the parameter
    # stays for callers outside the package)
    from nilcohom.linalg import RowBasis, reduce_rows

    field_at = {f.__name__: list(inspect.signature(f).parameters).index("field")
                for f in (RowBasis, reduce_rows)}
    passed = []
    for module, scope, call in _package_nodes():
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in field_at and (
            len(call.args) > field_at[name]
            or any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg in ("field", None) for kw in call.keywords)
        ):
            passed.append((module, scope, name))
    assert passed == [("linalg.py", "reduce_rows", "RowBasis")]


def test_every_letter_operator_read_in_the_package_goes_through_the_memo():
    # the scaled operators of a table are built once per certificate only if
    # every reader asks _letter_operators: no module in src/ names the
    # uncached reader, in a call, an import or otherwise, save
    # _letter_operators and _entry, which makes a table's kept entry with
    # its operators, and _adapted_form, which reads a given table for
    # h2_knil without making it an entry
    from nilcohom import liealg

    reader = liealg._read_operators.__name__
    named = set()
    for module, scope, node in _package_nodes():
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name == reader:
            named.add((module, scope))
    assert named == {("liealg.py", "_letter_operators"), ("liealg.py", "_entry"),
                     ("liealg.py", "_adapted_form")}


# methods of dict and set that change them in place
_MUTATORS = {"add", "clear", "discard", "pop", "popitem", "remove", "setdefault", "update",
             "difference_update", "intersection_update", "symmetric_difference_update"}


def _written(target):
    """The expressions an assignment target writes into: a subscript writes
    into what it indexes, and a tuple into each of its elements."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield target
        yield from _written(target.value)
    else:
        yield target


def test_only_the_echelon_writes_its_views_of_the_kept_rows():
    # RowBasis keeps every kept row in _rows and two views of them, _units
    # and _wide, which its own methods update together; no node in src/
    # outside them assigns, deletes, mutates or aliases one, so the views
    # cannot drift apart (reads, as in solve and _integral_inverse, stay)
    views = {"_rows", "_units", "_wide"}
    outside, inside = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node): fn.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "RowBasis"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.comprehension)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS:
                targets = [node.func.value]
            else:
                targets = []
            written = [t for target in targets for t in _written(target)]
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                written.append(node.value)  # an alias writes what it names
            for expr in written:
                if isinstance(expr, ast.Attribute) and expr.attr in views:
                    if id(node) in methods:
                        inside.add(methods[id(node)])
                    else:
                        outside.append((path.name, node.lineno, expr.attr))
    assert outside == []
    assert inside >= {"__init__", "add"}


def test_the_exactness_certificate_builds_no_derivative_table():
    # a memo hit pays only for its tangents: augmented_exactness, and every
    # function or class of cohomology.py that it names, directly or through
    # another, calls neither cochain_vector (a dense cochain) nor a table's
    # .derivative( (a table per free parameter); _tangent reads each
    # tangent off the polynomials instead
    tree = ast.parse((ROOT / "src" / "nilcohom" / "cohomology.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo, called = set(), ["augmented_exactness"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert {"_tangent", "_sequence", "_stack", "_Containment"} <= reached
    assert "cochain_vector" not in reached
    assert not called & {"cochain_vector", "derivative"}


def test_the_package_keeps_state_only_in_its_declared_memos():
    # the only state the package keeps between calls is in these memos,
    # which the README lists; each holds at most a fixed number of entries,
    # save Layout, one per dimension n.  A new memo, or a cache used any
    # other way than as a decorator, must be declared here.  cohomology's
    # stacks and Im d1 live in the entries of liealg._entry, so
    # cohomology._stack carries no cache; the adapted tables of h2_knil are
    # kept apart, by liealg._adapted_form
    from nilcohom import cohomology, ideals, liealg

    names = {"lru_cache", "cache", "cached_property"}
    found, stray = {}, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    func = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name in names:
                        found[f"{path.stem}.{node.name}"] = dec
                        decorators.update(map(id, ast.walk(dec)))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names and id(node) not in decorators:
                stray.append((path.name, node.lineno, name))
    assert stray == []
    assert set(found) == {"cohomology._at", "liealg.Layout", "liealg._entry",
                          "liealg._adapted_form", "ideals._search_masks"}
    modules = {"cohomology": cohomology, "ideals": ideals, "liealg": liealg}
    for qualname, dec in found.items():
        module, name = qualname.split(".")
        maxsize = getattr(modules[module], name).cache_parameters()["maxsize"]
        assert isinstance(dec, ast.Call), qualname  # no bare default size
        assert (maxsize is None) == (qualname == "liealg.Layout"), qualname
        assert maxsize is None or 0 < maxsize <= 32, qualname
