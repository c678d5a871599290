#!/usr/bin/env python3
"""Compare the ideal certificates of two source trees.

    python3 scripts/ideal_engine_parity.py OLD_ROOT [NEW_ROOT]

OLD_ROOT and NEW_ROOT are checkouts of this repository (NEW_ROOT defaults to
the one holding this script); make OLD_ROOT with ``git archive``.  Each tree
is imported in its own process and answers the same problems, handed to
both as JSON polynomials:

- membership: the multiplier columns (``ideals._multiplier_columns``) and
  the multipliers of ``member_bounded`` (or None), or the type and message
  of the exception either raised, for every member certificate of
  certbench's ``ideal-membership`` batch for seeds 1-11 (generated by
  NEW_ROOT's certbench), the membership targets of the test suite, and
  Q13^3 at D = 9, Q5^4 and Q13^4 at D = 12;
- non-membership: ``non_membership`` of Q13, Q14 and Q5 under the published
  assignments;
- Groebner: the members of ``groebner_small`` and the normal forms of a few
  polynomials (some with a variable outside the basis), or the exception,
  for the Q13/Q14 restrictions of I_{6,4}, the printed restricted ideal,
  the systems of the test suite and 30 seeded random systems.

Columns, multipliers and members are compared term by term in the order
their dicts hold them; normal forms as polynomials (sorted terms).  The
script prints, per group, the problems, the problems with the same record,
a size figure and the seconds each tree spent on them on this run (the only
figure that differs between runs).  The exit code is 1 when any record
differs.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SEEDS = range(1, 12)
BIG = (("Q13", 3, 9), ("Q5", 4, 12), ("Q13", 4, 12))
RANDOM_SYSTEMS = 30


def encode_var(v):
    return list(v) if isinstance(v, tuple) else v


def decode_var(v):
    return tuple(v) if isinstance(v, list) else v


def encode(poly, ordered=False):
    terms = [[[[encode_var(v), e] for v, e in mono], str(c)] for mono, c in poly.terms.items()]
    return terms if ordered else sorted(terms, key=json.dumps)


def decode(data, MultiPoly):
    return MultiPoly({
        tuple((decode_var(v), e) for v, e in mono): Fraction(c) for mono, c in data
    })


def random_poly(rng, variables, MultiPoly, terms, degree):
    f = MultiPoly()
    for _ in range(terms):
        mono = [(v, rng.randint(0, degree)) for v in variables]
        f = f + MultiPoly.term(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))), mono)
    return f


def problems(root):
    """(group, label) for every problem, and the request both trees answer."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "certbench"))
    import importlib
    from types import SimpleNamespace

    from nilcohom import catalog, ideals
    from nilcohom.polynomials import MultiPoly, distinct_primitive
    from nilcohom.tables import parse_tpoly
    from workloads import WORKLOADS

    names = ("catalog", "ideals", "polynomials")
    nc = SimpleNamespace(**{m: importlib.import_module(f"nilcohom.{m}") for m in names})
    workload = WORKLOADS["ideal-membership"]
    ctx = workload.setup(nc)
    i64 = ctx["gens"]
    q = catalog.named_polynomial
    x, y, z, w = (MultiPoly.var(v) for v in "xyzw")
    chart10 = [MultiPoly.var(v) for v in
               [(p, 2, p) for p in (1, 3, 4, 5, 6)] + [(2, p, p) for p in (1, 3, 4, 5, 6)]]
    gen_sets = {
        "I64": i64,
        "I54": ideals.nilpotency_ideal(5, 4).gens,
        "xy": [x * y - 1, y * y],
        "I64[:3]+mixed": list(i64[:3]) + [parse_tpoly("t_{1,2,3}+t_{1,2,4}")],
        "chart10": chart10,
    }
    labels, members, nonmembers, systems = [], [], [], []

    for seed in SEEDS:
        for cert in workload.inputs(nc, ctx, seed):
            if cert.kind == "member":
                f, bound = cert.args
                labels.append((f"certbench seed {seed}", cert.cid))
                members.append((encode(f), "I64", bound))
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
        ("zero", MultiPoly(), "I64", 0),
    ]
    tests += [(f"chart10 x^{e}", chart10[0] ** e, "chart10", e) for e in (4, 6, 7)]
    tests = [("member tests", *t) for t in tests]
    tests += [("member large", f"{name}^{e} D={b}", q(name) ** e, "I64", b) for name, e, b in BIG]
    for group, label, f, gens, b in tests:
        labels.append((group, label))
        members.append((encode(f), gens, b))

    assignments = {"Q13": catalog.Q13_ASSIGNMENT, "Q14": catalog.Q14_ASSIGNMENT}
    for target in ("Q13", "Q14", "Q5"):
        for name, assignment in assignments.items():
            labels.append(("nonmember", f"{target} under the {name} assignment"))
            nonmembers.append((encode(q(target)), "I64",
                               [[encode_var(v), str(c)] for v, c in assignment.items()]))

    def system(label, gens, targets):
        labels.append(("groebner", label))
        systems.append(([encode(g) for g in gens], [encode(t) for t in targets]))

    for name, assignment in assignments.items():
        restricted = distinct_primitive(ideals.substitute(g, assignment) for g in i64)
        extra = parse_tpoly("t_{1,2,5}*t_{3,4,6}")
        system(f"I64 restricted by the {name} assignment", restricted,
               [ideals.substitute(q(t), assignment) for t in ("Q13", "Q14", "Q5")] + [extra])
    printed = [parse_tpoly(s) for s in catalog.RESTRICTED_IDEAL_64]
    system("printed restricted ideal", printed,
           [ideals.substitute(q("Q14"), catalog.Q14_ASSIGNMENT)] + printed)
    system("x", [x], [x * x, MultiPoly.const(1), x * x - x, w * x + 2])
    system("twisted cubic", [x - z * z, y - z * z * z],
           [x * y - z**5, x + y, x * x, w * x * x + w * w * z**3 + 3])
    system("x^2-y, xy-x", [x * x - y, x * y - x], [x**3 - y * 2, x * y * y + w])
    system("cyclic3", [x + y + z, x * y + y * z + z * x, x * y * z - 1],
           [x + y + z, x**3, z**4 - z + w])
    rng = random.Random("ideal-engine-parity")
    for s in range(RANDOM_SYSTEMS):
        variables = "xyz"[: rng.randint(2, 3)]
        gens = [random_poly(rng, variables, MultiPoly, rng.randint(2, 3), 2)
                for _ in range(rng.randint(2, 3))]
        targets = [random_poly(rng, variables + "w", MultiPoly, 3, 3) for _ in range(3)]
        system(f"random {s}", gens, targets)

    request = {
        "gens": {k: [encode(g) for g in v] for k, v in gen_sets.items()},
        "members": members,
        "nonmembers": nonmembers,
        "systems": systems,
    }
    return labels, request


def dump(root):
    """Answer the problems on stdin with the tree at ``root``; print one
    record per problem."""
    sys.path.insert(0, str(Path(root) / "src"))
    from nilcohom import ideals
    from nilcohom.errors import ResourceCapExceeded
    from nilcohom.polynomials import MultiPoly

    def failure(exc):
        return {"error": [type(exc).__name__, str(exc)]}

    request = json.load(sys.stdin)
    gen_sets = {k: [decode(g, MultiPoly) for g in v] for k, v in request["gens"].items()}
    results = []
    for f, gens, bound in request["members"]:
        f, gens = decode(f, MultiPoly), gen_sets[gens]
        start = time.perf_counter()
        record = {}
        try:
            columns = ideals._multiplier_columns(f, gens, bound) if f else []
            record["columns"] = [[j, [[encode_var(v), e] for v, e in mono]]
                                 for j, mono in columns]
            cert = ideals.member_bounded(f, gens, bound)
            record["multipliers"] = (
                None if cert is None else [encode(m, ordered=True) for m in cert.multipliers]
            )
        except (ResourceCapExceeded, ValueError) as exc:
            record.update(failure(exc))
        record["seconds"] = time.perf_counter() - start
        results.append(record)
    for f, gens, assignment in request["nonmembers"]:
        start = time.perf_counter()
        assignment = {decode_var(v): Fraction(c) for v, c in assignment}
        out = ideals.non_membership(decode(f, MultiPoly), gen_sets[gens], assignment)
        results.append({"non_member": out, "seconds": time.perf_counter() - start})
    for gens, targets in request["systems"]:
        start = time.perf_counter()
        try:
            gb = ideals.groebner_small([decode(g, MultiPoly) for g in gens])
            record = {
                "members": [encode(m, ordered=True) for m in gb.members],
                "normal_forms": [encode(gb.normal_form(decode(t, MultiPoly)))
                                 for t in targets],
            }
        except ResourceCapExceeded as exc:
            record = failure(exc)
        record["seconds"] = time.perf_counter() - start
        results.append(record)
    json.dump(results, sys.stdout)


def run(root, request):
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(root)],
        input=json.dumps(request), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def size(record):
    """Columns of a membership problem, members of a Groebner basis."""
    if "error" in record:
        return 0
    return len(record.get("columns", record.get("members", ())))


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
        g = groups.setdefault(group, [0, 0, 0, 0.0, 0.0])
        t_old, t_new = x.pop("seconds"), y.pop("seconds")
        g[0] += 1
        g[1] += x == y
        g[2] += size(y)
        g[3] += t_old
        g[4] += t_new
        if x != y:
            differ.append(f"{group} {label}")
    print(f"{len(labels)} problems, {len(labels) - len(differ)} with the same record,"
          f" {len(differ)} differ")
    print("group: problems, same record, columns or basis members, s old -> new")
    for group, (count, same, total, t_old, t_new) in groups.items():
        print(f"  {group}: {count}, {same}, {total:,}, {t_old:.2f} -> {t_new:.2f}")
    print("large problems and Groebner systems that raised:")
    for (group, label), y in zip(labels, b):
        if "error" in y:
            print(f"  {group} {label}: {': '.join(y['error'])}")
    for item in differ:
        print(f"  DIFFERS: {item}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
