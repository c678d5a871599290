"""Command-line front end.

Subcommands: ``info``, ``cohomology``, ``exactness``, ``ideal``,
``reproduce``.  Exit codes: 0 success/pass, 1 computed mismatch
(failed reproduction item, non-exact sequence, membership not found),
2 usage or parse error, 3 a capped computation hit its resource limit.

Output is human text by default; ``--json`` emits deterministic JSON
(identical bytes for identical inputs, except the per-item ``seconds``
fields of reproduction reports).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__
from . import catalog as cat_mod
from .catalog import Catalog, named_polynomial
from .cohomology import augmented_exactness, derivation_dim, h2_knil
from .errors import NilcohomError, ResourceCapExceeded, TableError
from .ideals import generators, member_bounded, nilpotency_ideal, non_membership
from .liealg import is_lie, nil_index, solvable_length
from .polynomials import format_poly, format_var
from .reproduce import SUITES, run_suite
from .tables import _power_too_large, parse_tpoly


def _parse_assignment(text):
    """Parse "r=1,t=-1/2" into an ordered {symbol: Fraction} mapping; each
    value is a constant expression in the table grammar."""
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sym, _, val = chunk.partition("=")
        sym = sym.strip()
        if not sym or not val:
            raise TableError(f"bad parameter assignment {chunk!r} (expected sym=value)")
        if sym in out:
            raise TableError(f"parameter {sym!r} assigned twice")
        # the value is a constant: the commas of a chart variable split it
        out[sym] = parse_tpoly(val).as_scalar()
    return out


def _record(catalog, name, params):
    """The record ``name`` resolves to, and the assignment the text ``params``
    parses to, which must give a value to every parameter of the record and
    to no other symbol; a file is named by its file name."""
    assignment = _parse_assignment(params)
    rec = catalog.resolve(name, tuple(assignment))
    rec.check_assigned(assignment, Path(name).name if Path(name).is_file() else None)
    return rec, assignment


def _print_json(data):
    print(json.dumps(data, indent=2))


def cmd_info(args, catalog):
    rec, assignment = _record(catalog, args.name, args.params)
    mu = rec.structure(assignment)
    lie = is_lie(mu)
    info = {
        "name": mu.name,
        "dim": mu.n,
        "field": mu.field,
        "lie": lie,
    }
    if lie:
        step = nil_index(mu)
        info["nil_step"] = step
        info["solvable_length"] = solvable_length(mu)
        info["derivation_dim"] = derivation_dim(mu)
        info["orbit_dim"] = mu.n * mu.n - info["derivation_dim"]
    if args.json:
        _print_json(info)
        return 0
    if not lie:
        print(f"{info['name']}: {mu.n}-dim over {mu.field}, not a Lie bracket"
              " (Jacobi fails)")
        return 0
    if mu.is_abelian():
        kind = "abelian"
    elif info["nil_step"] is not None:
        kind = (f"{info['nil_step']}-step nilpotent,"
                f" solvable length {info['solvable_length']}")
    elif info["solvable_length"] is not None:
        kind = f"solvable (length {info['solvable_length']}), not nilpotent"
    else:
        kind = "not solvable"
    print(
        f"{info['name']}: {mu.n}-dim over {mu.field}, {kind},"
        f" derivation dim {info['derivation_dim']}, orbit dim {info['orbit_dim']}"
    )
    return 0


def cmd_cohomology(args, catalog):
    rec, assignment = _record(catalog, args.name, args.params)
    mu = rec.structure(assignment)
    rep = h2_knil(mu, args.k)
    if args.json:
        _print_json(rep.to_dict())
    else:
        print(f"{rep.algebra}: k={rep.k}  z={rep.z}  b={rep.b}  h={rep.h}")
        if rep.rigid_certificate:
            print(f"RIGID in N_{{{rep.n},{rep.k}}} (h = 0 certificate)")
    return 0


def cmd_exactness(args, catalog):
    rec, point = _record(catalog, args.family, args.at)
    free = rec.params if args.free is None \
        else tuple(s.strip() for s in args.free.split(",") if s.strip())
    rep = augmented_exactness(rec.symbolic(), point, free, args.constraint,
                              name=rec.name)
    if args.json:
        _print_json(rep.to_dict())
    else:
        pt = ", ".join(f"{k}={v}" for k, v in rep.point)
        status = "EXACT" if rep.exact else "NOT EXACT"
        print(f"{rec.name} at ({pt}), free {{{', '.join(rep.free_params)}}},"
              f" constraint {rep.constraint}: {status}")
        print(f"  dims {rep.domain_dim} -> {rep.middle_dim} -> {rep.codomain_dim};"
              f" rank dF = {rep.rank_df}, dim Ker dG = {rep.ker_dg_dim},"
              f" containment {'ok' if rep.containment else 'VIOLATED'}")
    return 0 if rep.exact else 1


def _resolve_target(text, n):
    """A named polynomial, bare or to a power (``Q13^3``), or any t_{i,j,k}
    expression, with its label; every variable must be one of the n-dim chart."""
    m = re.fullmatch(r"\s*([PQ]\d+)\s*(?:\^\s*([0-9]+))?\s*", text, re.IGNORECASE)
    if m:
        label = m.group(1).upper()
        poly = named_polynomial(label)
        if m.group(2):
            e = int(m.group(2))
            if _power_too_large(poly, e):
                raise TableError(f"power {label}^{e} too large to expand")
            poly, label = poly**e, f"{label}^{e}"
    else:
        poly = parse_tpoly(text)
        label = format_poly(poly)
    _check_chart(poly.variables(), n)
    return poly, label


def _check_chart(variables, n):
    for v in sorted(variables):
        if not (len(v) == 3 and 1 <= v[0] < v[1] < v[2] <= n):
            raise TableError(f"{format_var(v)} is not a variable of the {n}-dimensional chart")


def cmd_ideal(args, catalog):
    if args.action == "gens":
        polys = generators(args.n, args.k, args.kind)
        if args.json:
            _print_json({"n": args.n, "k": args.k, "kind": args.kind.upper(),
                         "count": len(polys),
                         "generators": [format_poly(p) for p in polys]})
        else:
            for p in polys:
                print(format_poly(p))
        return 0

    target, label = _resolve_target(args.target, args.n)
    ideal = nilpotency_ideal(args.n, args.k)
    if args.action == "member":
        bound = args.degree if args.degree is not None else max(target.degree(), 0)
        cert = member_bounded(target, ideal.gens, bound)
        if args.json:
            data = {"n": args.n, "k": args.k, "target": label, "bound": bound,
                    "member": cert is not None}
            if cert:
                data["multipliers"] = [format_poly(m) for m in cert.multipliers]
            _print_json(data)
        elif cert is None:
            print(f"{label}: no certificate with multiplier degree bound {bound}"
                  " (not a proof of non-membership)")
        else:
            print(f"{label} lies in the ideal; verified certificate at bound {bound}:")
            for m, g in zip(cert.multipliers, ideal.gens):
                if m:
                    print(f"  ({format_poly(m)}) * ({format_poly(g)})")
        return 0 if cert is not None else 1

    # nonmember
    if args.zeros is not None:
        assignment = {}
        for chunk in args.zeros.split(";"):
            chunk = chunk.strip()
            if chunk:
                parts = [x.strip() for x in chunk.split(",")]
                if not all(x.isascii() and x.isdigit() for x in parts):
                    raise TableError(f"bad --zeros entry {chunk!r} (expected i,j,k)")
                assignment[tuple(map(int, parts))] = 0
        _check_chart(assignment, args.n)
    elif label in ("Q13", "Q14") and (args.n, args.k) == (6, 4):
        assignment = cat_mod.Q13_ASSIGNMENT if label == "Q13" else cat_mod.Q14_ASSIGNMENT
    else:
        raise TableError("nonmember needs --zeros i,j,k;i,j,k;... for this target")
    ok = non_membership(target, ideal.gens, assignment)
    if args.json:
        _print_json({"n": args.n, "k": args.k, "target": label,
                     "zeroed": sorted(map(list, assignment)), "non_member": ok})
    else:
        verdict = "certified NOT in the ideal" if ok else "inconclusive"
        print(f"{label}: {verdict} (substitution + Groebner normal form)")
    return 0 if ok else 1


def cmd_reproduce(args, catalog):
    report = run_suite(args.suite, catalog)
    if args.json:
        _print_json(report.to_dict())
    else:
        for item in report.items:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[item.status]
            line = f"[{mark}] {item.name}: {item.computed}"
            if item.status == "fail":
                line += f"  (expected {item.expected})"
            print(line)
        c = report.counts
        print(f"suite {report.suite}: {c['pass']} passed, {c['fail']} failed,"
              f" {c['skip']} skipped")
        if report.pack:
            print(f"data pack: {report.pack} (sha256 {report.pack_checksum})")
    return 0 if report.passed else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nilcohom",
        description="Exact deformation cohomology and rigidity certificates"
        " for nilpotent Lie algebras",
    )
    ap.add_argument("--version", action="version", version=f"nilcohom {__version__}")
    ap.add_argument("--data-pack", metavar="DIR", default=None,
                    help="directory with externally transcribed structure tables"
                    f" (or set {cat_mod.DATA_PACK_ENV})")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimensions, nilpotency, derivations of an algebra")
    p.add_argument("name", help="catalog name, .json file, or table-text file")
    p.add_argument("--params", default="", help="parameter values, e.g. r=1,t=1/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("cohomology", help="restricted H^2 and the rigidity certificate")
    p.add_argument("name")
    p.add_argument("--k", type=int, required=True, help="nilpotency step of the variety")
    p.add_argument("--params", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("exactness", help="augmented tangent-sequence certificate"
                       " for a parametric family")
    p.add_argument("family", help="catalog name, .json file, or table-text file")
    p.add_argument("--at", default="", help="parameter point, e.g. r=1,t=1")
    p.add_argument("--free", default=None, help="free parameters (default: all)")
    p.add_argument("--constraint", default="sn5", help="j, nK or snK (default sn5)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_exactness)

    p = sub.add_parser("ideal", help="chart-ideal generators and membership")
    psub = p.add_subparsers(dest="action", required=True)
    g = psub.add_parser("gens", help="print the generator list")
    g.add_argument("n", type=int)
    g.add_argument("k", type=int)
    g.add_argument("kind", choices=["J", "N", "SN", "j", "n", "sn"])
    g.add_argument("--json", action="store_true")
    m = psub.add_parser("member", help="bounded-degree membership certificate")
    m.add_argument("n", type=int)
    m.add_argument("k", type=int)
    m.add_argument("target", help="P1, Q5, Q13^3, or a t_{i,j,k} polynomial")
    m.add_argument("--degree", "-D", type=int, default=None)
    m.add_argument("--json", action="store_true")
    nm = psub.add_parser("nonmember", help="substitution + Groebner non-membership")
    nm.add_argument("n", type=int)
    nm.add_argument("k", type=int)
    nm.add_argument("target")
    nm.add_argument("--zeros", default=None,
                    help="variables to zero, e.g. '1,2,4;1,3,4' (default: published"
                    " assignments for Q13/Q14)")
    nm.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser("reproduce", help="recompute the published tables and certificates")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        catalog = Catalog(data_pack=args.data_pack)
        return args.fn(args, catalog)
    except ResourceCapExceeded as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except (NilcohomError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
