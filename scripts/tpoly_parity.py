#!/usr/bin/env python3
"""Compare the chart-polynomial parser of two source trees.

    python3 scripts/tpoly_parity.py OLD_ROOT [NEW_ROOT]

OLD_ROOT and NEW_ROOT are checkouts of this repository (NEW_ROOT defaults to
the one holding this script); make OLD_ROOT with ``git archive``.  Each tree
is imported in its own process, which parses the same texts with that tree's
``parse_tpoly`` (``nilcohom.tables`` or, in older trees,
``nilcohom.polynomials``).  The texts are every printed polynomial of the
catalog (NAMED_POLYNOMIALS, PRINTED_J_64, PRINTED_N_64, RESTRICTED_IDEAL_64),
the polynomial literals of the tests, and ``format_poly`` of every generator
of (6,4,J), (6,4,N), (6,3,SN), (5,3,SN) and (7,3,N).  Two parses agree when
their printed forms and their terms, coefficient types and strings included,
are equal.  The exit code is 1 when any text disagrees.

Then the texts that the older parser mishandled are shown with what each
tree makes of them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TEST_LITERALS = [
    "-t_{1,2,3}+t_{1,2,3}",
    "2t_{1,2,3}",
    "t_{1,1,2}^2",
    "t_{1,2,3}",
    "t_{1,2,3}*t_{2,3,4}*t_{3,4,6}",
    "t_{1,2,3}*t_{3,4,5}",
    "t_{1,2,3}+1",
    "t_{1,2,3}+t_{1,2,4}",
    "t_{1,2,3}t_{3,4,5}",
    "t_{1,2,4}*t_{3,4,5}+t_{2,3,4}*t_{1,4,5}-t_{1,3,4}*t_{2,4,5}",
    "t_{1,3,4}",
    "t_{1,2,4}*t_{3,4,5} + t_{1,4,5}*t_{2,3,4} - t_{1,3,4}*t_{2,4,5}",
    "t_{1,2,3}^2*t_{2,3,4}*t_{3,4,6}",
    "0",
]
GENERATOR_SETS = [(6, 4, "J"), (6, 4, "N"), (6, 3, "SN"), (5, 3, "SN"), (7, 3, "N")]
MALFORMED = [
    "t_{1,2,3}+",
    "t_{1,2,3}^",
    "1/0*t_{1,2,3}",
    "((t_{1,2,3}))",
    "t_{1,2}",
    "x",
    "i*t_{1,2,3}",
    "2.5t_{1,2,3}",
    "",
    "7" * 5000 + "*t_{1,2,3}",
]


def texts():
    from nilcohom import catalog
    from nilcohom.ideals import generators
    from nilcohom.polynomials import format_poly

    out = list(catalog.NAMED_POLYNOMIALS.values())
    out += catalog.PRINTED_J_64 + catalog.PRINTED_N_64 + catalog.RESTRICTED_IDEAL_64
    out += TEST_LITERALS
    for n, k, kind in GENERATOR_SETS:
        out += [format_poly(g) for g in generators(n, k, kind)]
    return out


def dump(root):
    """Parse the texts on stdin with the tree at ``root``; print the results."""
    sys.path.insert(0, str(Path(root) / "src"))
    from nilcohom import polynomials, tables

    parse = getattr(tables, "parse_tpoly", None) or polynomials.parse_tpoly
    request = json.load(sys.stdin)
    parsed = []
    for text in request["texts"]:
        p = parse(text)
        terms = sorted((repr(m), type(c).__name__, str(c)) for m, c in p.terms.items())
        parsed.append([polynomials.format_poly(p), terms])
    outcomes = []
    for text in request["malformed"]:
        try:
            outcomes.append(f"returns {polynomials.format_poly(parse(text))}")
        except Exception as e:  # the older parser raises whatever it meets
            outcomes.append(f"raises {type(e).__name__}: {str(e)[:60]}")
    json.dump({"parsed": parsed, "malformed": outcomes}, sys.stdout)


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
    sys.path.insert(0, str(new / "src"))
    request = {"texts": texts(), "malformed": MALFORMED}
    a, b = run(old, request), run(new, request)
    differ = [t for t, x, y in zip(request["texts"], a["parsed"], b["parsed"]) if x != y]
    print(f"{len(request['texts'])} texts, {len(request['texts']) - len(differ)} parse"
          f" identically, {len(differ)} differ")
    for text in differ:
        print(f"  DIFFERS: {text}")
    print("malformed or newly accepted texts (old tree | new tree):")
    for text, x, y in zip(MALFORMED, a["malformed"], b["malformed"]):
        shown = text if len(text) < 40 else f"{text[:12]}... ({len(text)} chars)"
        print(f"  {shown!r}: {x} | {y}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
