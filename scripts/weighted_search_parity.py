#!/usr/bin/env python3
"""Compare the weight-directed multiplier searches of two source trees.

    python3 scripts/weighted_search_parity.py OLD_ROOT [NEW_ROOT]

OLD_ROOT and NEW_ROOT are checkouts of this repository (NEW_ROOT defaults to
the one holding this script); make OLD_ROOT with ``git archive``.  Each tree
is imported in its own process and builds the multiplier columns
(``ideals._multiplier_columns``) of the same membership problems, with
``ideals._weighted_monomials`` wrapped so that every call records its
monomials, its visited-prefix count, or the type and message of the
exception it raised.  The problems are

- every member certificate of certbench's ``ideal-membership`` batch for
  seeds 1-11 (the published Q1..Q12 at D = 4 and Q13^2, Q14^2 at D = 6 in
  every seed, and the seeded members), generated by NEW_ROOT's certbench and
  handed to both trees as JSON polynomials;
- the membership targets of the test suite: Q1..Q14 at D = 4, Q13^2 and
  Q14^2 at D = 6, Q5 at D = 3, 4, 5, Q1 in I_{5,4} at D = 3, the off-chart,
  mixed-weight and inhomogeneous systems and the ten-variable column-cap
  systems;
- Q13^3 at D = 9, Q5^4 at D = 12 and Q13^4 at D = 12.

The script prints, per group, the problems and search calls, the calls
whose record is the same in both trees, the monomials and prefixes found,
and the seconds each tree spent inside the search on this run (the only
figure that differs between runs).  The exit code is 1 when any record
differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SEEDS = range(1, 12)
BIG = (("Q13", 3, 9), ("Q5", 4, 12), ("Q13", 4, 12))


def encode(poly):
    return [[[[list(v) if isinstance(v, tuple) else v, e] for v, e in mono], str(c)]
            for mono, c in poly.terms.items()]


def decode(data, MultiPoly):
    return MultiPoly({
        tuple((tuple(v) if isinstance(v, list) else v, e) for v, e in mono): Fraction(c)
        for mono, c in data
    })


def problems(root):
    """(group, label, target, generator-set name, bound) for every problem,
    and the generator sets, all as JSON."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "certbench"))
    import importlib
    from types import SimpleNamespace

    from nilcohom import catalog, ideals
    from nilcohom.polynomials import MultiPoly
    from nilcohom.tables import parse_tpoly
    from workloads import WORKLOADS

    names = ("catalog", "ideals", "polynomials")
    nc = SimpleNamespace(**{m: importlib.import_module(f"nilcohom.{m}") for m in names})
    workload = WORKLOADS["ideal-membership"]
    ctx = workload.setup(nc)
    i64 = ctx["gens"]
    q = catalog.named_polynomial
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    chart10 = [MultiPoly.var(v) for v in
               [(p, 2, p) for p in (1, 3, 4, 5, 6)] + [(2, p, p) for p in (1, 3, 4, 5, 6)]]
    gen_sets = {
        "I64": i64,
        "I54": ideals.nilpotency_ideal(5, 4).gens,
        "xy": [x * y - 1, y * y],
        "I64[:3]+mixed": list(i64[:3]) + [parse_tpoly("t_{1,2,3}+t_{1,2,4}")],
        "chart10": chart10,
    }
    out = []
    for seed in SEEDS:
        for cert in workload.inputs(nc, ctx, seed):
            if cert.kind == "member":
                f, bound = cert.args
                out.append((f"certbench seed {seed}", cert.cid, f, "I64", bound))
    tests = [(f"Q{i}", q(f"Q{i}"), "I64", 4) for i in range(1, 15)]
    tests += [(f"Q{i}^2", q(f"Q{i}") ** 2, "I64", 6) for i in (13, 14)]
    tests += [(f"Q5 D={b}", q("Q5"), "I64", b) for b in (3, 4, 5)]
    tests += [
        ("I54 Q1", q("Q1"), "I54", 3),
        ("xy^2-y", x * y * y - y, "xy", 3),
        ("t_{1,1,2}^2 g_0", parse_tpoly("t_{1,1,2}^2") * i64[0], "I64", 4),
        ("Q5 mixed", q("Q5"), "I64[:3]+mixed", 4),
        ("t_{1,2,3}+1 D=3", parse_tpoly("t_{1,2,3}+1"), "I64", 3),
        ("t_{1,2,3}+1 D=6", parse_tpoly("t_{1,2,3}+1"), "I64", 6),
    ]
    tests += [(f"chart10 x^{e}", chart10[0] ** e, "chart10", e) for e in (4, 6, 7)]
    out += [("tests", label, f, gens, b) for label, f, gens, b in tests]
    out += [("large", f"{name}^{e} D={b}", q(name) ** e, "I64", b) for name, e, b in BIG]
    request = {
        "gens": {k: [encode(g) for g in v] for k, v in gen_sets.items()},
        "problems": [(encode(f), gens, b) for _, _, f, gens, b in out],
    }
    return [(group, label) for group, label, _, _, _ in out], request


def dump(root):
    """Build the multiplier columns of the problems on stdin with the tree at
    ``root``; print every search call's record and the search seconds."""
    sys.path.insert(0, str(Path(root) / "src"))
    from nilcohom import ideals
    from nilcohom.errors import ResourceCapExceeded
    from nilcohom.polynomials import MultiPoly

    search = ideals._weighted_monomials
    calls = []
    spent = [0.0]

    def recording(*args):
        start = time.perf_counter()
        try:
            monos, visited = search(*args)
        except ResourceCapExceeded as exc:
            calls.append({"error": [type(exc).__name__, str(exc)]})
            raise
        finally:
            spent[0] += time.perf_counter() - start
        calls.append({"monos": [[[v, e] for v, e in m] for m in monos], "visited": visited})
        return monos, visited

    ideals._weighted_monomials = recording
    request = json.load(sys.stdin)
    gen_sets = {k: [decode(g, MultiPoly) for g in v] for k, v in request["gens"].items()}
    results = []
    for f, gens, bound in request["problems"]:
        calls.clear()
        spent[0] = 0.0
        try:
            outcome = len(ideals._multiplier_columns(decode(f, MultiPoly), gen_sets[gens], bound))
        except ResourceCapExceeded as exc:
            outcome = [type(exc).__name__, str(exc)]
        results.append({"calls": list(calls), "outcome": outcome, "seconds": spent[0]})
    json.dump(results, sys.stdout)


def run(root, request):
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(root)],
        input=json.dumps(request), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv):
    if argv[:1] == ["--dump"]:
        dump(argv[1])
        return 0
    old = Path(argv[0]).resolve()
    new = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    labels, request = problems(new)
    a, b = run(old, request), run(new, request)
    groups = {}
    differ = []
    for (group, label), x, y in zip(labels, a, b):
        g = groups.setdefault(group, [0, 0, 0, 0, 0, 0.0, 0.0])
        g[0] += 1
        g[1] += len(y["calls"])
        g[2] += sum(u == v for u, v in zip(x["calls"], y["calls"]))
        g[3] += sum(len(c.get("monos", ())) for c in y["calls"])
        g[4] += sum(c.get("visited", 0) for c in y["calls"])
        g[5] += x["seconds"]
        g[6] += y["seconds"]
        if x["calls"] != y["calls"] or x["outcome"] != y["outcome"]:
            differ.append(f"{group} {label}")
    calls = sum(g[1] for g in groups.values())
    same = sum(g[2] for g in groups.values())
    print(f"{len(labels)} problems, {calls} search calls, {same} with the same record,"
          f" {len(differ)} problems differ")
    print("group: problems, calls, same record, monomials, prefixes visited,"
          " search s old -> new")
    for group, (count, ncalls, nsame, monos, visited, t_old, t_new) in groups.items():
        print(f"  {group}: {count}, {ncalls}, {nsame}, {monos:,}, {visited:,},"
              f" {t_old:.2f} -> {t_new:.2f}")
    print("large problems: columns or exception, search s old -> new")
    for (group, label), x, y in zip(labels, a, b):
        if group == "large":
            outcome = y["outcome"] if isinstance(y["outcome"], int) else ": ".join(y["outcome"])
            print(f"  {label}: {outcome}, {x['seconds']:.2f} -> {y['seconds']:.2f}")
    for item in differ:
        print(f"  DIFFERS: {item}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
