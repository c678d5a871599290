"""Every certificate of the benchmark's seed-1 batches, pinned by digest.

``data/certificates.json`` holds the inputs as text: the ``rigidity-q`` and
``rigidity-qi`` tables with their k, the ``curves-sn5`` points with both
free sets, and the ``ideal-membership`` targets with their degree bounds
(for the two non-members, the chart variables set to zero).  Each input
carries one digest of its canonical output, taken with the code at the
commit named in the file's header:

- h2_knil: (z, b, h) and the rows of the [d2 ; dN_k] reducer, each scaled to
  one representative of its line.  The reduced echelon form is unique, so
  the digest pins the constraint row space whatever order or subset of rows
  spans it;
- augmented exactness: the report of each free set and the rows of the
  [d2 ; dSN_5] reducer at the point;
- bounded membership: the multipliers;
- non-membership: the reduced Groebner basis of the substituted ideal and
  the normal form of the substituted target.

A change that keeps every certificate as it is passes this test unchanged.
"""

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from conftest import digest
from nilcohom.cohomology import _sequence, augmented_exactness, h2_knil
from nilcohom.ideals import groebner_small, member_bounded, nilpotency_ideal, substitute
from nilcohom.liealg import Layout
from nilcohom.polynomials import format_poly
from nilcohom.scalars import FIELD_QI, QI, format_scalar, promote
from nilcohom.tables import parse_symbolic, parse_table, parse_tpoly

FIXTURE = Path(__file__).parent / "data" / "certificates.json"


def inputs(workload):
    return json.loads(FIXTURE.read_text())[workload]


def canonical_rows(reducer):
    """The reducer's rows, each as the one representative of its line: a row
    of ints as the primitive one with a positive lead, a row with a Gaussian
    entry divided by its lead, as scalar text."""
    out = []
    for row in reducer.sparse_rows():
        cols = sorted(row)
        vals = [row[c] for c in cols]
        if any(isinstance(v, QI) for v in vals):
            lead = promote(vals[0], FIELD_QI)
            vals = [format_scalar(promote(v, FIELD_QI) / lead) for v in vals]
        else:
            g = gcd(*vals) if vals[0] > 0 else -gcd(*vals)
            vals = [v // g for v in vals]
        out.append((cols, vals))
    return out


def rigidity_digest(mu, k):
    """(z, b, h) and the [d2 ; dN_k] rows, from one sequence."""
    _, b, red = _sequence(mu, "n", k)
    z = Layout(mu.n).dim2 - red.rank
    return digest([("zbh", (z, b, z - b)), ("rows", canonical_rows(red))]), (z, b, z - b)


def exactness_digest(family, table, point, free_sets):
    """Both exactness reports at a point and its [d2 ; dSN_5] rows."""
    items = [("rows", canonical_rows(_sequence(table.evaluate(point), "sn", 5)[2]))]
    for free in free_sets:
        report = augmented_exactness(table, point, free, "sn5", name=family)
        items.append((tuple(free), json.dumps(report.to_dict(), sort_keys=True)))
    return digest(items)


def member_digest(target, gens, bound):
    multipliers = member_bounded(target, gens, bound).multipliers
    return digest([("multipliers", [format_poly(m) for m in multipliers])])


def nonmember_digest(target, gens, zeros):
    assignment = {v: 0 for v in zeros}
    basis = groebner_small(substitute(g, assignment) for g in gens)
    normal_form = basis.normal_form(substitute(target, assignment))
    return digest([("members", [format_poly(p) for p in basis.members]),
                   ("normal_form", format_poly(normal_form))])


@pytest.mark.parametrize("workload", ["rigidity-q", "rigidity-qi"])
def test_rigidity_certificates(workload):
    changed, checked = [], set()
    for item in inputs(workload):
        mu = parse_table(item["table"], item["dim"])
        got, zbh = rigidity_digest(mu, item["k"])
        if got != item["digest"]:
            changed.append(item["id"])
        algebra = item["id"].split("#")[0]
        if algebra not in checked:
            # h2_knil itself, on one basis of each algebra
            checked.add(algebra)
            rep = h2_knil(mu, item["k"])
            assert (rep.z, rep.b, rep.h) == zbh, item["id"]
    assert not changed


def test_exactness_certificates():
    changed = []
    for item in inputs("curves-sn5"):
        table = parse_symbolic(item["table"], item["dim"], tuple(item["point"]))
        point = {p: Fraction(v) for p, v in item["point"].items()}
        if exactness_digest(item["family"], table, point, item["free"]) != item["digest"]:
            changed.append(item["id"])
    assert not changed


def test_ideal_certificates():
    gens = nilpotency_ideal(6, 4).gens
    changed = []
    for item in inputs("ideal-membership"):
        target = parse_tpoly(item["target"])
        if "zeros" in item:
            got = nonmember_digest(target, gens, [tuple(v) for v in item["zeros"]])
        else:
            got = member_digest(target, gens, item["bound"])
        if got != item["digest"]:
            changed.append(item["id"])
    assert not changed
