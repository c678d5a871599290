"""Built-in structure tables, families and degeneration witnesses.

Every record whose table appears in print is hard-coded here; algebras that
the literature only cites (most of the 6-dimensional rigid list, g_{247H_1},
the family g_{147E}(t)) are *not* fabricated: they are known names that
resolve only when the optional data pack supplies their tables, and
everything that depends on them reports "skipped" rather than failing.

Names are looked up loosely: ``g_{5,3}``, ``g5,3`` and ``G_{5,3}`` all hit
the same record.  Family records have parameter symbols; evaluating one
needs a value per symbol.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

from .errors import ExternalDataRequired, TableError, UnknownAlgebra
from .jsonio import pack_checksum, read_json, record_fields
from .liealg import StructureConstants, table_in_basis
from .scalars import FIELD_Q, FIELD_QI, is_nonreal
from .tables import parse_symbolic, parse_tpoly, parse_vector

DATA_PACK_ENV = "NILCOHOM_DATA_PACK"


@dataclass(frozen=True)
class AlgebraRecord:
    name: str
    dim: int
    table: str | StructureConstants  # a ``brackets`` record or a table-text file is held parsed
    params: tuple = ()
    aliases: tuple = ()
    field: str = FIELD_Q
    provenance: str = "printed"  # printed | external-pack
    notes: str = ""
    cochains: dict = dc_field(default_factory=dict)
    default_samples: tuple = ()  # tuples of parameter assignments

    def symbolic(self):
        if isinstance(self.table, StructureConstants):
            return self.table
        return parse_symbolic(self.table, self.dim, self.params)

    def check_assigned(self, assignment, label=None):
        """Refuse a point that gives a value to a symbol that is not a
        parameter (TableError) or no value to a parameter (UnknownAlgebra);
        both errors name ``label``, by default the record's name."""
        label = label or self.name
        for sym in assignment:
            if sym not in self.params:
                known = ", ".join(self.params) or "none"
                raise TableError(f"{sym!r} is not a parameter of {label} (parameters: {known})")
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise UnknownAlgebra(f"{label} needs parameter values for: {', '.join(missing)}")

    def structure(self, params=None) -> StructureConstants:
        assignment = dict(params or {})
        self.check_assigned(assignment)
        mu = self.symbolic().evaluate(assignment)
        if self.field == FIELD_QI and mu.field == FIELD_Q:
            mu = StructureConstants(mu.n, mu.c, FIELD_QI)
        vals = ",".join(f"{p}={assignment[p]}" for p in self.params)
        return mu.with_name(f"{self.name}@{vals}" if vals else self.name)

    def cochain(self, key) -> StructureConstants:
        return parse_symbolic(self.cochains[key], self.dim).evaluate({})


def _norm(name: str) -> str:
    return (
        name.strip()
        .lower()
        .replace(" ", "")
        .replace("_", "")
        .replace("{", "")
        .replace("}", "")
    )


_F = Fraction
_RECORDS = [
    # 3- to 5-dimensional algebras from the dimension-5 classification table
    AlgebraRecord("f_3", 3, "ab = c", notes="standard filiform; Heisenberg h_1"),
    AlgebraRecord("f_4", 4, "ab = c, ac = d", notes="standard filiform"),
    AlgebraRecord("f_5", 5, "ab = c, ac = d, ad = e", notes="standard filiform"),
    AlgebraRecord("f_3+R^2", 5, "ab = c", aliases=("f3+RR",)),
    AlgebraRecord("f_4+R", 5, "ab = c, ac = d"),
    AlgebraRecord("g_{5,1}", 5, "ab = e, cd = e"),
    AlgebraRecord("g_{5,2}", 5, "ab = d, ac = e"),
    AlgebraRecord(
        "g_{5,3}",
        5,
        "ab = d, ad = e, bc = e",
        notes="rigid in the 3-step variety with nonzero H^2_3-nil",
        cochains={"nu1": "bc = c", "nu2": "ab = b, ac = -c, ad = -d"},
    ),
    AlgebraRecord("g_{5,4}", 5, "ab = c, ac = d, bc = e"),
    AlgebraRecord("g_{5,6}", 5, "ab = c, ac = d, ad = e, bc = e"),
    # dimension 6
    AlgebraRecord(
        "12346_E",
        6,
        "ab = c, ac = d, ad = e, bc = e, be = f, cd = -f",
        aliases=("g_{6,14}",),
        notes="5-step; separates the 5-step variety from the split SN_4 one",
    ),
    # the two 7-dimensional solvable surfaces and their nilpotent curves
    AlgebraRecord(
        "g_5(r,t)",
        7,
        "ab = (1+tr)c, ac = d, ad = f+tg, ae = g, af = -rf+g,"
        " bc = e, bd = g, be = rd+f, ce = g",
        params=("r", "t"),
        notes="solvable surface; nilpotent exactly on r=0",
        default_samples=(
            {"r": _F(1), "t": _F(1)},
            {"r": _F(2), "t": _F(3)},
            {"r": _F(-1), "t": _F(2)},
            {"r": _F(1, 2), "t": _F(1, 3)},
        ),
    ),
    AlgebraRecord(
        "g_6(r,t)",
        7,
        "ab = c, ac = d, ad = e, ae = f, af = g, ag = rg, bc = e, bd = f,"
        " be = rtf+(1-t)g, bf = rg, bg = r^2g, cd = -rtf+tg",
        params=("r", "t"),
        notes="solvable surface; nilpotent exactly on r=0",
        default_samples=(
            {"r": _F(1), "t": _F(1)},
            {"r": _F(2), "t": _F(3)},
            {"r": _F(1), "t": _F(-1)},
            {"r": _F(1, 2), "t": _F(1, 3)},
        ),
    ),
    AlgebraRecord(
        "g_1(t)",
        7,
        "ab = c, ac = d, ad = f+tg, ae = g, af = g, bc = e, bd = g, be = f, ce = g",
        params=("t",),
        aliases=("12457_N", "g_{7,0.4}"),
        notes="5-step nilpotent curve: the surface g_5(r,t) on r=0",
        default_samples=({"t": _F(1)}, {"t": _F(2)}, {"t": _F(-1)}, {"t": _F(1, 2)}),
    ),
    AlgebraRecord(
        "g_I(t)",
        7,
        "ab = c, ac = d, ad = e, ae = f, af = g, bc = e, bd = f, be = (1-t)g, cd = tg",
        params=("t",),
        aliases=("123457_I", "g_{7,1.1}"),
        notes="6-step nilpotent curve: the surface g_6(r,t) on r=0",
        default_samples=({"t": _F(1)}, {"t": _F(2)}, {"t": _F(-1)}, {"t": _F(1, 2)}),
    ),
    # 3-step, dimension 7
    AlgebraRecord("g_{137A}", 7, "ab = e, ae = g, cd = f, cf = g"),
    AlgebraRecord("g_{137B}", 7, "ab = e, ae = g, cd = f, cf = g, bd = g"),
    AlgebraRecord("g_{137A_1}", 7, "ac = e, ad = f, ae = g, bc = -f, bd = e, bf = g"),
    AlgebraRecord(
        "g_{137B_1}", 7, "ac = e, ad = f, ae = g, bc = -f, bd = e, bf = g, cd = g"
    ),
    AlgebraRecord(
        "g_{137D}",
        7,
        "ab = e, ad = f, af = g, bc = f, bd = g, ce = -g",
        notes="t=0 member of the curve g_{137D}(t)",
    ),
    AlgebraRecord(
        "g_{137D}(t)",
        7,
        "ab = e, ad = f, af = g, bc = f, bd = g, cd = -t^2e, ce = -g",
        params=("t",),
        notes="isomorphic to g_{137B} for t != 0, degenerates to g_{137D}",
        default_samples=({"t": _F(1)}, {"t": _F(2)}, {"t": _F(-1)}, {"t": _F(1, 2)}),
    ),
    AlgebraRecord(
        "g_{147D}", 7, "ab = d, ac = -f, ae = g, af = g, bc = e, bf = g, cd = -2g"
    ),
    AlgebraRecord(
        "g_{147E_1}(t)",
        7,
        "ab = d, ac = -f, af = -tg, bc = e, be = tg, bf = 2g, cd = -2g",
        params=("t",),
        notes="one of the two 1-parameter curves in the 3-step dim-7 variety",
        default_samples=({"t": _F(3, 2)}, {"t": _F(2)}, {"t": _F(5)}, {"t": _F(3)}),
    ),
    AlgebraRecord(
        "g_{247G}",
        7,
        "ab = d, ac = e, ad = f, ae = f, bd = f, be = g, cd = g, ce = f",
        notes="printed via the family g_{247G}(t) at t=0",
    ),
    AlgebraRecord(
        "g_{247G}(t)",
        7,
        "ab = d, ac = e, ad = (1+t^3/2)f+(t^3/2)g, ae = (1-t^3/2)f-(t^3/2)g,"
        " bd = f, be = g, cd = g, ce = f",
        params=("t",),
        notes="isomorphic to g_{247H} for t != 0, degenerates to g_{247G}",
        default_samples=({"t": _F(2)}, {"t": _F(1)}, {"t": _F(-1)}, {"t": _F(1, 2)}),
    ),
    AlgebraRecord(
        "g_{247H}", 7, "ab = d, ac = e, ad = f, bd = f, be = g, cd = g, ce = f"
    ),
    AlgebraRecord("g_{247K}", 7, "ab = d, ac = e, ad = f, be = g, cd = g, ce = f"),
    AlgebraRecord(
        "g_{247K}(t)",
        7,
        "ab = d, ac = e, ad = f, bc = t^2e, be = g, cd = g, ce = f",
        params=("t",),
        notes="isomorphic to g_{247H} over Q(i) for t != 0, degenerates to g_{247K}",
        default_samples=({"t": _F(1)}, {"t": _F(2)}, {"t": _F(-1)}, {"t": _F(1, 2)}),
    ),
    AlgebraRecord(
        "g_{247K}-GR",
        7,
        "ab = c, ac = d, ae = f, af = g, bc = d, be = f, ce = g, ef = d",
        notes="presentation of g_{247K} once claimed rigid; see witness 247K-GR-form",
    ),
]

# Names the literature defines but whose tables are not printed anywhere we
# hard-code from; they resolve only through the external data pack.
_EXTERNAL = {
    "g_{247H_1}": ("g247h1",),
    "g_{147E}(t)": (),
    "36": ("g_{6,26}",),
    "13+13": ("g_{6,22}",),
    "246_E": ("g_{6,24}",),
    "136_A": ("g_{6,19}",),
    "1246": ("g_{6,13}",),
    "1346_C": ("g_{6,21}",),
}


@dataclass(frozen=True)
class IsomorphismWitness:
    """Change of basis carrying one bracket's table onto another's."""

    id: str
    source: str
    basis: tuple
    target: str
    param: str | None = None  # symbol ranged over by source/basis/target
    fixed: dict = dc_field(default_factory=dict)  # pinned parameter values
    validity: str = ""
    samples: tuple = ()


_WITNESSES = [
    IsomorphismWitness(
        id="137B-from-curve",
        source="g_{137D}(t)",
        basis=(
            "ta+c",
            "2t(tb-d)",
            "-ta+c",
            "-2t(tb+d)",
            "4t^2(te-f)",
            "4t^2(te+f)",
            "-8t^3g",
        ),
        target="g_{137B}",
        param="t",
        validity="t != 0",
        samples=(_F(1), _F(2), _F(-1), _F(1, 2)),
    ),
    IsomorphismWitness(
        id="147E1-to-147D",
        source="g_{147E_1}(t)",
        basis=("-a", "a+b", "c", "-d", "e-f", "-f", "-g"),
        target="g_{147D}",
        fixed={"t": _F(1)},
        validity="t = 1",
        samples=(_F(1),),
    ),
    IsomorphismWitness(
        id="247H-to-247G-curve",
        source="g_{247H}",
        basis=(
            "2t^2a+(1/2-t^2)b+1/2c",
            "1/2(1+t)b+1/2(1-t)c",
            "1/2(1-t)b+1/2(1+t)c",
            "t^2(1+t)d+t^2(1-t)e",
            "t^2(1-t)d+t^2(1+t)e",
            "t^2(1+t^2)f+t^2(1-t^2)g",
            "t^2(1-t^2)f+t^2(1+t^2)g",
        ),
        target="g_{247G}(t)",
        param="t",
        validity="t != 0",
        samples=(_F(2), _F(1), _F(-1), _F(1, 2)),
    ),
    IsomorphismWitness(
        id="247K-GR-form",
        source="g_{247K}-GR",
        basis=("b", "-a+b", "e", "c", "f", "d", "-g"),
        target="g_{247K}",
        samples=(),
    ),
    IsomorphismWitness(
        id="247H-to-247K-curve",
        source="g_{247H}",
        basis=("-ia", "-it^2(a-b)", "tc", "t^2d", "-ite", "-it^2f", "t^3g"),
        target="g_{247K}(t)",
        param="t",
        validity="t != 0; establishes the Gaussian-rational degeneration to g_{247K}",
        samples=(_F(1), _F(2)),
    ),
]

# (family, parameter value, target, mode): literal table equality at the
# limit, or reuse of a registered witness
_DEGENERATIONS = [
    ("g_{137D}(t)", _F(0), "g_{137D}", "literal"),
    ("g_{147E_1}(t)", _F(1), "g_{147D}", "witness:147E1-to-147D"),
    ("g_{247G}(t)", _F(0), "g_{247G}", "literal"),
    ("g_{247K}(t)", _F(0), "g_{247K}", "literal"),
]


def read_record(path, name=None) -> AlgebraRecord:
    """The JSON record (either form of ``jsonio``) in the file ``path``;
    ``name`` names a record without one.  A record that cannot be read, or
    whose table text does not parse or has a nonreal coefficient over Q,
    raises ValueError naming the file."""
    data = read_json(path)
    try:
        rec = AlgebraRecord(**record_fields(data, name), provenance="external-pack")
        polys = (p for row in rec.symbolic().c.values() for p in row.values())
        if rec.field == FIELD_Q and any(is_nonreal(c) for p in polys for c in p.terms.values()):
            raise ValueError("'field' is Q, but the table has Gaussian values")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return rec


class Catalog:
    def __init__(self, data_pack=None):
        self._records = {}
        self._lookup = {}
        for rec in _RECORDS:
            self._add(rec)
        self._external = {
            _norm(key): name for name, aliases in _EXTERNAL.items() for key in (name,) + aliases
        }
        self._witnesses = {w.id: w for w in _WITNESSES}
        self.pack_checksum = None
        self.pack_name = None
        path = data_pack or os.environ.get(DATA_PACK_ENV)
        if path:
            self.load_data_pack(path)

    # -- records -----------------------------------------------------------

    def _add(self, rec, path=None):
        """Bind a record's names, none bound before: a record of the pack file
        ``path`` may not take a printed name or an earlier file's."""
        names = (rec.name,) + rec.aliases
        for name in names:
            if _norm(name) in self._lookup:
                raise ValueError(f"{path}: {name!r} already names {self._lookup[_norm(name)]!r}")
        self._records[rec.name] = rec
        for name in names:
            self._lookup[_norm(name)] = rec.name

    def names(self):
        return sorted(self._records)

    def get(self, name) -> AlgebraRecord:
        key = _norm(name)
        if key in self._lookup:
            return self._records[self._lookup[key]]
        if key in self._external:
            raise ExternalDataRequired(
                f"{self._external[key]} is only cited, not printed: external data"
                f" pack required (set {DATA_PACK_ENV} or pass --data-pack)"
            )
        raise UnknownAlgebra(f"unknown algebra {name!r}")

    def structure(self, name, params=None) -> StructureConstants:
        return self.get(name).structure(params)

    def resolve(self, name, symbols=()) -> AlgebraRecord:
        """The record of an existing file, else of a catalog or data-pack name.
        A .json file holds a JSON record, any other file table text named by
        the file: its dimension is a first line ``dim n`` or the highest letter
        a..z it uses but i and the ``symbols``, its parameters those it uses."""
        path = Path(name)
        if not path.is_file():
            return self.get(name)
        if path.suffix == ".json":
            return read_record(path, name)
        try:
            body = path.read_text()
            lines = body.splitlines()
            m = re.match(r"\s*dim\s*=?\s*(\d+)\s*$", lines[0]) if lines else None
            if m:
                dim, body = int(m.group(1)), "\n".join(lines[1:])
            else:
                letters = [c for c in body if "a" <= c <= "z" and c != "i" and c not in symbols]
                dim = max((ord(c) - ord("a") + 1 for c in letters), default=1)
            table = parse_symbolic(body, dim, symbols)
        except (OSError, ValueError) as e:  # unreadable, not UTF-8, or no table
            raise ValueError(f"{path}: {e}") from None
        used = tuple(sorted(table.free_symbols()))
        return AlgebraRecord(path.name, dim, StructureConstants(dim, table.c, "sym", params=used),
                             used)

    # -- data pack -----------------------------------------------------------

    def load_data_pack(self, path):
        root = Path(path)
        if not root.is_dir():
            raise ValueError(f"data pack {path} is not a directory")
        mpath = root / "manifest.json"
        manifest = read_json(mpath) if mpath.exists() else {}
        pack_name = manifest.get("name", root.name) if isinstance(manifest, dict) else None
        if not isinstance(pack_name, str):
            raise ValueError(f"{mpath}: not an object with a string 'name'")
        for fp in sorted(root.glob("*.json")):
            if fp.name != "manifest.json":
                self._add(read_record(fp), fp)
        self.pack_checksum = pack_checksum(root)
        self.pack_name = pack_name

    # -- witnesses and degenerations --------------------------------------------

    def witnesses(self):
        return dict(self._witnesses)

    def witness(self, wid) -> IsomorphismWitness:
        return self._witnesses[wid]

    def verify_witness(self, wid, at=None):
        """Run the witness ``wid``: (ok, diff list of bracket mismatches)."""
        w = self.witness(wid)
        assignment = dict(w.fixed)
        if w.param is not None:
            if at is None:
                raise ValueError(f"witness {w.id} needs a value for {w.param}")
            assignment[w.param] = at
        src = self.get(w.source)
        mu = src.structure({p: assignment[p] for p in src.params})
        params = tuple(assignment)
        vectors = []
        for expr in w.basis:
            polys = parse_vector(expr, src.dim, params)
            vectors.append([p.evaluate(assignment) for p in polys])
        computed = table_in_basis(mu, vectors)  # raises SingularMatrix if bad
        tgt_rec = self.get(w.target)
        target = tgt_rec.structure({p: assignment[p] for p in tgt_rec.params})
        diffs = _table_diff(computed, target)
        return not diffs, diffs

    def degenerations(self):
        return list(_DEGENERATIONS)

    def verify_degeneration(self, family, value, target) -> bool:
        """True iff the family's member at the value is the target algebra,
        by literal table equality or by the registered witness."""
        fam = self.get(family)
        for f, v, tgt, mode in _DEGENERATIONS:
            if _norm(f) == _norm(fam.name) and v == value and _norm(tgt) == _norm(target):
                if mode != "literal":
                    ok, _ = self.verify_witness(mode.split(":", 1)[1])
                    return ok
                break
        # registered as literal, or not registered: compare the tables
        sym = fam.params[0] if fam.params else None
        mu = fam.structure({sym: value} if sym else {})
        return mu == self.structure(target)


def _table_diff(a: StructureConstants, b: StructureConstants):
    diffs = []
    pairs = set(a.c) | set(b.c)
    for pair in sorted(pairs):
        ca = a.c.get(pair, {})
        cb = b.c.get(pair, {})
        if ca != cb:
            diffs.append((pair, ca, cb))
    return diffs


# -- printed polynomial data ---------------------------------------------------------

# Generators of the degree-2 (Jacobi) and degree-4 (nested-word) parts of the
# dimension-6 ideal, and the degree-3 split-word polynomials Q1..Q14, exactly
# as printed; Q9 is stored expanded.
PRINTED_J_64 = (
    "t_{1,2,3}*t_{3,4,5}",
    "t_{1,3,4}*t_{4,5,6}",
    "t_{2,3,4}*t_{4,5,6}",
    "t_{1,2,3}*t_{3,5,6}+t_{1,2,4}*t_{4,5,6}",
    "t_{1,2,4}*t_{3,4,5}+t_{2,3,4}*t_{1,4,5}-t_{1,3,4}*t_{2,4,5}",
    "t_{1,3,5}*t_{4,5,6}+t_{3,4,5}*t_{1,5,6}-t_{1,4,5}*t_{3,5,6}",
    "t_{2,3,5}*t_{4,5,6}+t_{3,4,5}*t_{2,5,6}-t_{2,4,5}*t_{3,5,6}",
    "t_{1,2,3}*t_{3,4,6}-t_{1,2,5}*t_{4,5,6}-t_{2,4,5}*t_{1,5,6}+t_{1,4,5}*t_{2,5,6}",
    "t_{1,2,4}*t_{3,4,6}+t_{2,3,4}*t_{1,4,6}-t_{1,3,4}*t_{2,4,6}"
    "+t_{1,2,5}*t_{3,5,6}+t_{2,3,5}*t_{1,5,6}-t_{1,3,5}*t_{2,5,6}",
)

PRINTED_N_64 = tuple(
    f"t_{{1,2,3}}*t_{{{a},3,4}}*t_{{{b},4,5}}*t_{{{c},5,6}}"
    for a in (1, 2)
    for b in (1, 2, 3)
    for c in (1, 2, 3, 4)
)

NAMED_POLYNOMIALS = {
    "P1": "t_{1,2,3}*t_{3,4,5}",
    "P2": "t_{1,2,4}*t_{3,4,5}+t_{2,3,4}*t_{1,4,5}-t_{1,3,4}*t_{2,4,5}",
    "Q1": "t_{1,2,3}*t_{1,3,4}*t_{3,4,5}",
    "Q2": "t_{1,2,3}*t_{2,3,4}*t_{3,4,5}",
    "Q3": "t_{1,3,4}*t_{1,4,5}*t_{4,5,6}",
    "Q4": "t_{1,3,4}*t_{2,4,5}*t_{4,5,6}",
    "Q5": "t_{1,3,4}*t_{3,4,5}*t_{4,5,6}",
    "Q6": "t_{1,4,5}*t_{2,3,4}*t_{4,5,6}",
    "Q7": "t_{2,3,4}*t_{2,4,5}*t_{4,5,6}",
    "Q8": "t_{2,3,4}*t_{3,4,5}*t_{4,5,6}",
    "Q9": "t_{1,3,4}*t_{2,3,5}*t_{4,5,6}-t_{1,3,5}*t_{2,3,4}*t_{4,5,6}",
    "Q10": "t_{1,2,3}*t_{1,4,5}*t_{3,5,6}+t_{1,2,4}*t_{1,4,5}*t_{4,5,6}",
    "Q11": "t_{1,2,3}*t_{2,4,5}*t_{3,5,6}+t_{1,2,4}*t_{2,4,5}*t_{4,5,6}",
    "Q12": "t_{1,2,3}*t_{3,4,5}*t_{3,5,6}+t_{1,2,4}*t_{3,4,5}*t_{4,5,6}",
    "Q13": "t_{1,2,3}*t_{1,3,4}*t_{3,4,6}+t_{1,2,3}*t_{1,3,5}*t_{3,5,6}"
    "+t_{1,2,4}*t_{1,3,5}*t_{4,5,6}-t_{1,2,5}*t_{1,3,4}*t_{4,5,6}",
    "Q14": "t_{1,2,3}*t_{2,3,4}*t_{3,4,6}+t_{1,2,3}*t_{2,3,5}*t_{3,5,6}"
    "+t_{1,2,4}*t_{2,3,5}*t_{4,5,6}-t_{1,2,5}*t_{2,3,4}*t_{4,5,6}",
}

# the printed zero-assignment separating Q14 from the dim-6 ideal, its
# restriction of that ideal, and the basis-swap mirror used for Q13 (the
# one-variable variant alone does not separate; see the e1<->e2 symmetry)
Q14_ASSIGNMENT = {
    v: 0
    for v in [
        (1, 2, 4), (1, 3, 4), (1, 4, 5), (1, 4, 6), (2, 3, 5),
        (2, 5, 6), (3, 4, 5), (3, 5, 6), (4, 5, 6),
    ]
}
Q13_ASSIGNMENT = {
    v: 0
    for v in [
        (1, 2, 4), (2, 3, 4), (2, 4, 5), (2, 4, 6), (1, 3, 5),
        (1, 5, 6), (3, 4, 5), (3, 5, 6), (4, 5, 6),
    ]
}
RESTRICTED_IDEAL_64 = (
    "t_{1,2,3}*t_{2,3,4}*t_{2,4,5}*t_{1,5,6}",
    "t_{1,2,3}*t_{3,4,6}-t_{2,4,5}*t_{1,5,6}",
)


def named_polynomial(name):
    key = name.strip().upper().replace(" ", "")
    if key not in NAMED_POLYNOMIALS:
        raise UnknownAlgebra(f"unknown polynomial {name!r} (P1, P2, Q1..Q14)")
    return parse_tpoly(NAMED_POLYNOMIALS[key])
