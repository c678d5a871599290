#!/usr/bin/env python3
"""Compare the constraint stacks [d2 ; dN_k] and [d2 ; dSN_k] of two source trees.

    python3 scripts/least_first_parity.py OLD_ROOT [NEW_ROOT]

OLD_ROOT and NEW_ROOT are checkouts of this repository (NEW_ROOT defaults to
the one holding this script); make OLD_ROOT with ``git archive``.  Each tree
is imported in its own process and reduces the same stacks with its own
``cohomology._constraint_reducer``, which streams every word with a1 < a2 in
trees before the least-first walk and only the words that start with their
least letter after it.  The stacks are

- the 201 seed-1 certificates of certbench's ``rigidity-q`` (153, h2_knil
  over Q) and ``rigidity-qi`` (48, over Q(i)), generated by NEW_ROOT's
  certbench and handed to both trees as JSON algebras;
- g_5(r,t) and g_6(r,t) at the six published sample points and g_5 at the
  non-exact point (4, -1/4), for sn4, sn5, sn6, n3 and n4.

For each stack the script prints, per group, whether the retained reduced
rows (``sparse_rows()``, the canonical RREF up to the primitive scaling of
each row) agree, and the word rows each tree fed to the reducer: the rows
the reducer took minus the d2 rows.  The exit code is 1 when any RREF
differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

CERTBENCH_SEED = 1
CURVE_POINTS = (
    ("g_5(r,t)", (1, 1)),
    ("g_5(r,t)", (2, 3)),
    ("g_5(r,t)", (-1, 2)),
    ("g_6(r,t)", (1, 1)),
    ("g_6(r,t)", (2, 3)),
    ("g_6(r,t)", (Fraction(1, 2), Fraction(1, 3))),
    ("g_5(r,t)", (4, Fraction(-1, 4))),
)
CURVE_CONSTRAINTS = ("sn4", "sn5", "sn6", "n3", "n4")


def stacks(root):
    """(group, label, algebra as JSON, kind, k) for every stack."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "certbench"))
    import importlib
    from types import SimpleNamespace

    from nilcohom.catalog import Catalog
    from nilcohom.cohomology import parse_constraint
    from nilcohom.jsonio import algebra_to_dict
    from workloads import WORKLOADS

    names = ("catalog", "cohomology", "errors", "ideals", "liealg", "linalg", "scalars")
    nc = SimpleNamespace(**{m: importlib.import_module(f"nilcohom.{m}") for m in names})
    out = []
    for wl in ("rigidity-q", "rigidity-qi"):
        workload = WORKLOADS[wl]
        ctx = workload.setup(nc)
        for cert in workload.inputs(nc, ctx, CERTBENCH_SEED):
            mu, k = cert.args
            out.append((wl, cert.cid, algebra_to_dict(mu), "n", k))
    catalog = Catalog()
    for fam, (r, t) in CURVE_POINTS:
        mu = catalog.structure(fam, {"r": Fraction(r), "t": Fraction(t)})
        for constraint in CURVE_CONSTRAINTS:
            kind, k = parse_constraint(constraint)
            out.append((f"curves {constraint}", f"{fam}@r={r},t={t}",
                        algebra_to_dict(mu), kind, k))
    return out


def dump(root):
    """Reduce the stacks on stdin with the tree at ``root``; print the RREFs
    and the word-row counts."""
    sys.path.insert(0, str(Path(root) / "src"))
    from nilcohom import cohomology
    from nilcohom.jsonio import algebra_from_dict

    taken = [0]
    reduce_rows = cohomology.reduce_rows

    def counting(rows, ncols, field):
        def tally():
            for row in rows:
                taken[0] += 1
                yield row
        return reduce_rows(tally(), ncols, field)

    cohomology.reduce_rows = counting
    results = []
    for data, kind, k in json.load(sys.stdin):
        mu = algebra_from_dict(data)
        taken[0] = 0
        red = cohomology._constraint_reducer(mu, kind, k)
        d2_rows = sum(1 for _ in cohomology.iter_d2_rows(mu))
        rref = [sorted((c, type(v).__name__, str(v)) for c, v in row.items())
                for row in red.sparse_rows()]
        results.append({"rref": rref, "rank": red.rank, "word_rows": taken[0] - d2_rows})
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
    todo = stacks(new)
    request = [(data, kind, k) for _, _, data, kind, k in todo]
    a, b = run(old, request), run(new, request)
    groups = {}
    differ = []
    for (group, label, _, _, _), x, y in zip(todo, a, b):
        g = groups.setdefault(group, [0, 0, 0, 0])
        g[0] += 1
        g[1] += x["rref"] == y["rref"]
        g[2] += x["word_rows"]
        g[3] += y["word_rows"]
        if x["rref"] != y["rref"]:
            differ.append(f"{group} {label}")
    print(f"{len(todo)} stacks, {len(todo) - len(differ)} with the same RREF,"
          f" {len(differ)} differ")
    print("group: stacks, same RREF, word rows old -> new")
    for group, (count, same, rows_old, rows_new) in groups.items():
        print(f"  {group}: {count}, {same}, {rows_old:,} -> {rows_new:,}")
    print("curve-point stacks: rank, word rows old -> new")
    for (group, label, _, _, _), x, y in zip(todo, a, b):
        if group.startswith("curves"):
            print(f"  {label} {group.split()[1]}: rank {y['rank']},"
                  f" {x['word_rows']:,} -> {y['word_rows']:,}")
    for item in differ:
        print(f"  DIFFERS: {item}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
