"""JSON wire format for algebras and the optional external data pack.

Schema (1-based indices, scalars as strings "p/q" or "p/q+r/s i"):

    {"name": ..., "dim": n, "field": "Q"|"Qi",
     "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}, ...]}

The round trip through this format is bit-exact.  Data-pack records may
carry a parametric "table" plus "params" instead of "brackets".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import DimensionMismatch
from .liealg import StructureConstants
from .scalars import FIELD_Q, FIELD_QI, format_scalar, parse_scalar


def algebra_to_dict(mu: StructureConstants, name=None) -> dict:
    brackets = []
    for (i, j) in mu.brackets():
        coeffs = mu.bracket_basis(i, j)
        terms = [{"k": k + 1, "c": format_scalar(coeffs[k])} for k in sorted(coeffs)]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {
        "name": name if name is not None else mu.name,
        "dim": mu.n,
        "field": mu.field,
        "brackets": brackets,
    }


def algebra_from_dict(data: dict) -> StructureConstants:
    n = int(data["dim"])
    field = data.get("field", FIELD_Q)
    if field not in (FIELD_Q, FIELD_QI):
        raise ValueError(f"unknown field tag {field!r}")
    brackets = {}
    for item in data.get("brackets", ()):
        i, j = int(item["i"]) - 1, int(item["j"]) - 1
        if not 0 <= i < j:
            raise DimensionMismatch(f"bracket indices must satisfy 1 <= i < j, got {item}")
        row = {}
        for term in item["terms"]:
            row[int(term["k"]) - 1] = parse_scalar(term["c"], field)
        brackets[(i, j)] = row
    return StructureConstants(n, brackets, field=field, name=data.get("name"))


def dump_algebra(mu: StructureConstants, name=None) -> str:
    return json.dumps(algebra_to_dict(mu, name), indent=2)


def pack_checksum(directory) -> str:
    """sha256 over the sorted file contents of a data-pack directory."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).glob("*.json")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
