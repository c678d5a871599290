"""JSON wire format for algebras and the optional external data pack.

A record is an object with a ``name`` and a ``dim`` of 1..26 (the letters
a..z of table text), and either ``brackets`` (1-based indices, scalars as
strings "p/q" or "p/q+r/s i"; the round trip is bit-exact) or table text:

    {"name": ..., "dim": n, "field": "Q"|"Qi",
     "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}, ...]}
    {"name": ..., "dim": n, "field": "Q"|"Qi", "table": "ab = c", "params": []}

``params`` names the table text's parameter symbols, each a single letter
that is not a basis letter, declared once.  ``field`` defaults to "Q",
which refuses a nonreal value, and not ``(it)(it)``; "Qi" puts even a real
algebra over Q(i).  ``aliases`` and a ``citation`` are optional.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .liealg import StructureConstants
from .scalars import FIELD_Q, FIELD_QI, parse_scalar, promote

_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _entry(obj, key, kind, where="", default=None):
    """obj[key], or ``default`` when it is absent, which must be a ``kind``;
    a ValueError names the key after ``where``, the place of obj."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'the record'} is not a JSON object")
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        fault = f"is not {_KINDS[kind]}" if key in obj else "is missing"
        raise ValueError(f"{where + ': ' if where else ''}{key!r} {fault}")
    return value


def _strings(data, key):
    values = _entry(data, key, list, default=[])
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{key!r} is not a list of strings")
    return tuple(values)


def _field(data):
    field = _entry(data, "field", str, default=FIELD_Q)
    if field not in (FIELD_Q, FIELD_QI):
        raise ValueError(f"'field' is {field!r}, not 'Q' or 'Qi'")
    return field


def algebra_from_dict(data) -> StructureConstants:
    """The algebra of a ``brackets`` record; a missing or mistyped key, an
    index out of range or a scalar outside the field raises ValueError."""
    n, field = _entry(data, "dim", int), _field(data)
    brackets = {}
    for b, item in enumerate(_entry(data, "brackets", list, default=[])):
        where = f"brackets[{b}]"
        i, j = _entry(item, "i", int, where), _entry(item, "j", int, where)
        if not 1 <= i < j <= n:
            raise ValueError(f"{where}: needs 1 <= i < j <= dim, has i = {i}, j = {j}")
        row = {}
        for t, term in enumerate(_entry(item, "terms", list, where)):
            at = f"{where}['terms'][{t}]"
            k, c = _entry(term, "k", int, at), _entry(term, "c", str, at)
            if not 1 <= k <= n:
                raise ValueError(f"{at}: needs 1 <= k <= dim, has k = {k}")
            try:
                row[k - 1] = promote(parse_scalar(c, field), field)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{at}: 'c' is not a scalar over {field}: {c!r}") from None
        brackets[(i - 1, j - 1)] = row
    return StructureConstants(n, brackets, field=field, name=data.get("name"))


def record_fields(data, name=None) -> dict:
    """The catalog fields of a record in either form, the table as text or,
    from ``brackets``, as a table of constant polynomials; ``name`` names a record
    without one.  A missing or mistyped key raises ValueError naming it."""
    dim = _entry(data, "dim", int)
    if not 1 <= dim <= 26:
        raise ValueError(f"'dim' is {dim}, outside 1..26 (the letters a..z)")
    if data.get("name") is not None or name is None:
        name = _entry(data, "name", str)
    if "table" in data:
        table, params = _entry(data, "table", str), _strings(data, "params")
    else:
        table, params = algebra_from_dict(data).symbolic(), ()
    return {"name": name, "dim": dim, "table": table, "params": params, "field": _field(data),
            "aliases": _strings(data, "aliases"), "notes": _entry(data, "citation", str, default="")}


def read_json(path):
    """The JSON value in the file ``path``; a ValueError names the file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, RecursionError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def pack_checksum(directory) -> str:
    """sha256 over the sorted file contents of a data-pack directory."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.json")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
