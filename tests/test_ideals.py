import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    direct_sum,
    in_eight_threads,
    multiplier_columns_by_call,
    multiplier_columns_spent,
)
import nilcohom
from nilcohom import catalog as cat
from nilcohom import ideals
from nilcohom.cli import main
from nilcohom.errors import Budget, ResourceCapExceeded
from nilcohom.ideals import (
    MAX_UNWEIGHTED_COLUMNS,
    MAX_WEIGHTED_NODES,
    MembershipCertificate,
    _multiplier_columns,
    chart_variables,
    generic_chart,
    generators,
    groebner_small,
    member_bounded,
    nilpotency_ideal,
    non_membership,
    substitute,
)
from nilcohom.liealg import StructureConstants, jacobi, n_k, sn_k
from nilcohom.linalg import solve
from nilcohom.polynomials import (
    MultiPoly,
    _mono_mul,
    distinct_primitive,
    format_poly,
    rational_content,
)
from nilcohom.tables import parse_tpoly


def keyset(polys):
    return {frozenset(p.primitive().terms.items()) for p in polys}


def test_chart_variables_count():
    assert len(chart_variables(6)) == 20
    assert all(i < j < k for (i, j, k) in chart_variables(7))


def test_generator_lists_match_the_printed_ones():
    P = cat.NAMED_POLYNOMIALS
    assert keyset(generators(5, 4, "J")) == keyset(
        [parse_tpoly(P["P1"]), parse_tpoly(P["P2"])]
    )
    assert generators(5, 4, "N") == []
    assert keyset(generators(5, 3, "SN")) == keyset(
        [parse_tpoly(P["Q1"]), parse_tpoly(P["Q2"])]
    )
    g = generators(6, 4, "J")
    assert len(g) == 9 and keyset(g) == keyset([parse_tpoly(s) for s in cat.PRINTED_J_64])
    g = generators(6, 4, "N")
    assert len(g) == 24 and keyset(g) == keyset([parse_tpoly(s) for s in cat.PRINTED_N_64])
    g = generators(6, 3, "SN")
    assert len(g) == 14 and keyset(g) == keyset(
        [parse_tpoly(P[f"Q{i}"]) for i in range(1, 15)]
    )
    with pytest.raises(ValueError):
        generators(5, 3, "X")


def test_generators_are_deterministic():
    a = [format_poly(p) for p in generators(6, 4, "J")]
    b = [format_poly(p) for p in generators(6, 4, "J")]
    assert a == b


@pytest.mark.parametrize("n, k, kind", [(5, 2, "N"), (5, 3, "N"), (5, 4, "N"), (6, 4, "N"),
                                         (6, 3, "SN"), (6, 4, "SN"), (6, 4, "J")])
def test_generators_match_the_full_tensor(n, k, kind):
    # generators walks only the leading pairs x1 < x2; scanning the whole
    # tensor of the public function gives the same list in the same order
    mu = generic_chart(n)
    tensor = jacobi(mu) if kind == "J" else (n_k if kind == "N" else sn_k)(mu, k)
    full = distinct_primitive(
        coord for args in sorted(tensor) for coord in tensor[args] if isinstance(coord, MultiPoly)
    )
    assert [format_poly(p) for p in generators(n, k, kind)] == [format_poly(p) for p in full]


def test_generators_vanish_on_variety_members(catalog):
    # padded 5-dim algebras are upper triangular members of the dim-6 variety
    members = [
        direct_sum(catalog.structure("g_{5,3}"), StructureConstants.abelian(1)),
        direct_sum(catalog.structure("f_4+R"), StructureConstants.abelian(1)),
    ]
    ideal = nilpotency_ideal(6, 4)
    for mu in members:
        values = {}
        for (i, j), coeffs in mu.c.items():
            for k, v in coeffs.items():
                values[(i + 1, j + 1, k + 1)] = v
        for g in ideal.gens:
            assert g.substitute(values).substitute(
                {v: 0 for v in g.variables()}
            ).as_scalar() == 0


def test_symbolic_chart_agrees_with_numeric_operators():
    # evaluating the symbolic tensors at random chart points reproduces the
    # numeric jacobi / word tensors of the evaluated bracket
    rng = random.Random(19)
    n = 5
    sym = generic_chart(n)
    values = {v: Fraction(rng.randint(-3, 3)) for v in chart_variables(n)}
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            row = {k - 1: values[(i, j, k)] for k in range(j + 1, n + 1) if values[(i, j, k)]}
            if row:
                brackets[(i - 1, j - 1)] = row
    numeric = StructureConstants(n, brackets)

    def eval_tensor(tensor):
        out = {}
        for key, vec in tensor.items():
            row = [c.evaluate(values) if isinstance(c, MultiPoly) else c for c in vec]
            if any(row):
                out[key] = row
        return out

    assert eval_tensor(jacobi(sym)) == jacobi(numeric)
    assert eval_tensor(n_k(sym, 3)) == n_k(numeric, 3)
    assert eval_tensor(sn_k(sym, 3)) == sn_k(numeric, 3)


def test_member_bounded_examples():
    P = cat.named_polynomial
    I54 = nilpotency_ideal(5, 4)
    cert = member_bounded(P("Q1"), I54.gens, 3)
    assert cert is not None and cert.verify(I54.gens)
    # the published divisibility: Q1 = t_{1,3,4} * P1
    idx = I54.gens.index
    nonzero = [(m, g) for m, g in zip(cert.multipliers, I54.gens) if m]
    assert len(nonzero) == 1
    m, g = nonzero[0]
    assert m * g == P("Q1") and m == parse_tpoly("t_{1,3,4}")

    I64 = nilpotency_ideal(6, 4)
    cert = member_bounded(P("Q5"), I64.gens, 4)
    assert cert is not None and cert.verify(I64.gens)
    q14 = P("Q14")
    sq = member_bounded(q14 * q14, I64.gens, 6)
    assert sq is not None and sq.verify(I64.gens)
    assert member_bounded(q14, I64.gens, 4) is None

    zero = member_bounded(MultiPoly(), I64.gens, 0)
    assert zero is not None and all(m.is_zero() for m in zero.multipliers)
    with pytest.raises(ValueError):
        member_bounded(q14, I64.gens, 2)  # bound below deg f


def test_verify_refuses_a_changed_multiplier_coefficient():
    I64 = nilpotency_ideal(6, 4)
    cert = member_bounded(cat.named_polynomial("Q5"), I64.gens, 4)
    assert cert.verify(I64.gens)
    # adding c * m to the multiplier of a nonzero g_j adds c * m * g_j != 0
    for j, m in enumerate(cert.multipliers):
        for mono, c in m.terms.items():
            changed = list(cert.multipliers)
            changed[j] = MultiPoly({**m.terms, mono: c + 1})
            assert not MembershipCertificate(cert.target, changed, cert.bound).verify(I64.gens)


def test_verify_accepts_products_that_cancel_across_generators():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    gens = [x * y, x * y + y * y, x]
    # (y - 1) * x*y + 1 * (x*y + y*y) - y*y * x: the x*y terms cancel
    # across the first two products, the x*y*y terms across the first and last
    multipliers = [y - 1, MultiPoly.const(1), -(y * y)]
    cert = MembershipCertificate(y * y, multipliers, 3)
    assert cert.verify(gens)
    assert not MembershipCertificate(y * y + x, multipliers, 3).verify(gens)


def test_member_bounded_monotone_in_bound():
    P = cat.named_polynomial
    I64 = nilpotency_ideal(6, 4)
    for bound in (3, 4, 5):
        cert = member_bounded(P("Q5"), I64.gens, bound)
        assert cert is not None and cert.verify(I64.gens)


def test_member_bounded_without_homogeneity():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    gens = [x * y - 1, y * y]  # inhomogeneous
    target = x * y * y - y
    cert = member_bounded(target, gens, 3)
    assert cert is not None and cert.verify(gens)


def test_substitute_examples():
    q14 = cat.named_polynomial("Q14")
    restricted = substitute(q14, cat.Q14_ASSIGNMENT)
    assert restricted == parse_tpoly("t_{1,2,3}*t_{2,3,4}*t_{3,4,6}")
    assert substitute(q14, {}) == q14
    ideal = nilpotency_ideal(6, 4)
    subs = {frozenset(substitute(g, cat.Q14_ASSIGNMENT).primitive().terms.items())
            for g in ideal.gens if substitute(g, cat.Q14_ASSIGNMENT)}
    want = {frozenset(parse_tpoly(s).primitive().terms.items())
            for s in cat.RESTRICTED_IDEAL_64}
    # the substituted generators are scalar multiples of the printed pair
    assert subs == want


def test_groebner_trivial_and_normal_forms():
    x = MultiPoly.var("x")
    gb = groebner_small([x])
    assert gb.members == [x]
    assert gb.normal_form(x * x).is_zero()
    assert gb.normal_form(MultiPoly.const(1)) == MultiPoly.const(1)
    assert gb.contains(x * x - x)
    # the variables outside the basis sort before x ("w"), between x and y
    # ("xy") and after z ("zz"): each rides along with its coefficient
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    gb = groebner_small([x - z * z, y - z * z * z])
    f = x * x + y * z * z + 2 * x - 1
    for m in (MultiPoly.var("w"), MultiPoly.var("xy"), MultiPoly.var("zz") ** 2,
              MultiPoly.var("w") * MultiPoly.var("xy") * MultiPoly.var("zz")):
        assert gb.normal_form(f * m) == gb.normal_form(f) * m


def _dense_grevlex(vec):
    return (sum(vec), tuple(-e for e in reversed(vec)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12, unique=True)))
def test_grevlex_key_orders_as_the_dense_key(vecs):
    names = "uvwxyz"[: len(vecs[0])]
    monos = {tuple((names[i], e) for i, e in enumerate(vec) if e): vec for vec in vecs}
    key = ideals._grevlex({v: i for i, v in enumerate(names)})
    assert sorted(monos, key=key) == sorted(monos, key=lambda m: _dense_grevlex(monos[m]))


def test_groebner_known_basis():
    # the twisted cubic <x - z^2, y - z^3> under grevlex with x > y > z
    x, y, z, w = (MultiPoly.var(v) for v in "xyzw")
    gb = groebner_small([x - z * z, y - z * z * z])
    assert gb.members == [z * z - x, x * z - y, x * x - y * z]
    assert gb.contains(x * y - z**5)
    assert not gb.contains(x + y)
    assert gb.normal_form(x * x) == y * z
    # a variable outside the basis rides along with its coefficient
    assert gb.normal_form(w * x * x + w * w * z**3 + 3) == w * y * z + w * w * y + 3


def test_normal_form_is_linear():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    gb = groebner_small([x * x - y, x * y - x])
    rng = random.Random(3)
    for _ in range(10):
        f = sum((MultiPoly.term(Fraction(rng.randint(-3, 3)), ((("x", e1)), (("y", e2))))
                 for e1 in range(3) for e2 in range(3)), MultiPoly())
        g = x**3 - y * 2
        assert gb.normal_form(f + g) == gb.normal_form(f) + gb.normal_form(g)


def test_interreduction_rewrites_a_reduced_element():
    # Buchberger adds z + 1 and y^2 - x; interreducing, x*y + 1 vanishes
    # against x*y - z and z + 1, and x*y - z is rewritten to x*y + 1
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    gb = groebner_small([x * x + y, x * y + 1, x * y - z])
    assert gb.members == [z + 1, y * y - x, x * y + 1, x * x + y]


def test_groebner_caps_raise(monkeypatch):
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    cyclic3 = [x + y + z, x * y + y * z + z * x, x * y * z - 1]
    for cap, value in (("MAX_GROEBNER_PAIRS", 1), ("MAX_GROEBNER_BASIS", 3),
                       ("MAX_GROEBNER_DEGREE", 2)):
        with monkeypatch.context() as m:
            m.setattr(ideals, cap, value)
            with pytest.raises(ResourceCapExceeded):
                groebner_small(cyclic3)
    # under generous caps the same system completes
    gb = groebner_small(cyclic3)
    assert gb.contains(x + y + z)
    # it pops 10 S-pairs: a pair cap of 10 answers and 9 raises
    with monkeypatch.context() as m:
        m.setattr(ideals, "MAX_GROEBNER_PAIRS", 10)
        assert groebner_small(cyclic3).members == gb.members
        m.setattr(ideals, "MAX_GROEBNER_PAIRS", 9)
        with pytest.raises(ResourceCapExceeded, match="^Buchberger pair cap 9 exceeded$"):
            groebner_small(cyclic3)


def test_groebner_degree_and_basis_cap_boundaries(monkeypatch):
    # cyclic-3 forms elements of degree at most 3 and ends up holding 5
    # records: the largest caps that raise are 2 and 4, the smallest that
    # answer 3 and 5
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    cyclic3 = [x + y + z, x * y + y * z + z * x, x * y * z - 1]
    members = groebner_small(cyclic3).members
    for cap, raises in (("MAX_GROEBNER_DEGREE", 2), ("MAX_GROEBNER_BASIS", 4)):
        with monkeypatch.context() as m:
            m.setattr(ideals, cap, raises + 1)
            assert groebner_small(cyclic3).members == members
            m.setattr(ideals, cap, raises)
            name = "degree" if cap == "MAX_GROEBNER_DEGREE" else "basis-size"
            with pytest.raises(ResourceCapExceeded, match=f"^{name} cap {raises} exceeded$"):
                groebner_small(cyclic3)


_XYZ_POLYS = st.lists(
    st.tuples(st.builds(Fraction, st.sampled_from([c for c in range(-5, 6) if c]),
                        st.integers(1, 3)),
              st.tuples(*[st.integers(0, 2)] * 3)),
    min_size=1, max_size=4,
).map(lambda terms: sum((MultiPoly.term(c, tuple(zip("xyz", e))) for c, e in terms),
                        MultiPoly()))


@settings(max_examples=150, deadline=None)
@given(st.lists(_XYZ_POLYS, min_size=1, max_size=4), st.data())
def test_groebner_small_gives_the_reduced_basis(gens, data):
    # the reduced basis is unique: whatever the order of the generators, and
    # run again on its own members, it has the same members, each with
    # content 1, a positive lead coefficient and no term that another
    # member's lead divides
    orders = (gens, gens[::-1], data.draw(st.permutations(gens)))
    with pytest.MonkeyPatch.context() as m:
        # small caps keep each example quick; a capped run is discarded
        for cap, value in (("MAX_GROEBNER_PAIRS", 200), ("MAX_GROEBNER_BASIS", 20),
                           ("MAX_GROEBNER_DEGREE", 8)):
            m.setattr(ideals, cap, value)
        try:
            gb, *others = (groebner_small(order) for order in orders)
        except ResourceCapExceeded:
            assume(False)
        assert groebner_small(gb.members).members == gb.members
    assert all(other.members == gb.members for other in others)
    key = ideals._grevlex({v: i for i, v in enumerate(gb.universe)})
    leads = [max(p.terms, key=key) for p in gb.members]
    for p, lead in zip(gb.members, leads):
        assert rational_content(p.terms.values()) == 1 and p.terms[lead] > 0
        assert all(ideals._quotient(m, other) is None
                   for other in leads if other != lead for m in p.terms)
    assert all(gb.contains(g) for g in gens)


@pytest.mark.parametrize("kind", ["N", "SN"])
def test_chart_word_cap_boundary(monkeypatch, kind):
    # N_2 and SN_2 on the 5-dimensional chart have 5^3 = 125 argument tuples:
    # a cap of 125 answers, and 124 raises before building the chart
    gens = generators(5, 2, kind)
    monkeypatch.setattr(ideals, "MAX_CHART_WORDS", 125)
    assert generators(5, 2, kind) == gens and len(gens) == 12
    monkeypatch.setattr(ideals, "MAX_CHART_WORDS", 124)
    message = f"^{kind}_2 on the 5-dimensional chart has 5\\^3 argument tuples, over the cap 124$"
    with pytest.raises(ResourceCapExceeded, match=message):
        generators(5, 2, kind)


def test_non_membership_certificates():
    I64 = nilpotency_ideal(6, 4)
    assert non_membership(cat.named_polynomial("Q14"), I64.gens, cat.Q14_ASSIGNMENT)
    assert non_membership(cat.named_polynomial("Q13"), I64.gens, cat.Q13_ASSIGNMENT)
    # soundness: a member is never certified out, under any assignment
    q5 = cat.named_polynomial("Q5")
    assert not non_membership(q5, I64.gens, cat.Q14_ASSIGNMENT)
    assert not non_membership(q5, I64.gens, cat.Q13_ASSIGNMENT)


def test_restricted_ideal_matches_printed_generators():
    I64 = nilpotency_ideal(6, 4)
    subs, seen = [], set()
    for g in I64.gens:
        gs = substitute(g, cat.Q14_ASSIGNMENT)
        if gs:
            key = frozenset(gs.primitive().terms.items())
            if key not in seen:
                seen.add(key)
                subs.append(gs.primitive())
    printed = [parse_tpoly(s) for s in cat.RESTRICTED_IDEAL_64]
    gb_s = groebner_small(subs)
    gb_p = groebner_small(printed)
    assert all(gb_p.contains(g) for g in subs)
    assert all(gb_s.contains(g) for g in printed)


def test_ideal_presentation_shape():
    ideal = nilpotency_ideal(6, 4)
    assert ideal.n == 6 and ideal.k == 4
    assert all(g.degree() == 2 for g in ideal.jacobi_gens)
    assert all(g.degree() == 4 for g in ideal.word_gens)
    assert len(ideal.gens) == 33


# -- multiplier columns against a brute-force reference ---------------------------


def _ref_weight(mono):
    acc = {}
    for (i, j, k), e in mono:
        acc[i] = acc.get(i, 0) + e
        acc[j] = acc.get(j, 0) + e
        acc[k] = acc.get(k, 0) - e
    return tuple(sorted((p, w) for p, w in acc.items() if w))


def _ref_poly_weight(poly):
    weights = {_ref_weight(m) for m in poly.terms}
    return weights.pop() if len(weights) == 1 else None


def _ref_weight_diff(a, b):
    acc = dict(a)
    for p, w in b:
        acc[p] = acc.get(p, 0) - w
    return tuple(sorted((p, w) for p, w in acc.items() if w))


def reference_columns(f, gens, bound):
    """Every monomial of each admissible degree from combinations_with_replacement,
    kept when its torus weight is w(f) - w(g_j) if f and every nonzero g_j
    have a torus weight, or always if one of them has none."""
    universe = sorted(set().union(f.variables(), *(g.variables() for g in gens)))
    homog = f.is_homogeneous() and all(g.is_homogeneous() for g in gens)
    weighted = all(isinstance(v, tuple) for v in universe) and all(
        _ref_poly_weight(p) is not None for p in [f] + [g for g in gens if not g.is_zero()])
    wf = _ref_poly_weight(f) if weighted else None
    by_degree = {}  # degree -> (all monomials, monomials by weight), in order
    columns = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        dg = g.degree()
        if homog:
            degs = [f.degree() - dg] if f.degree() >= dg else []
        else:
            degs = range(bound - dg + 1)
        wg = _ref_poly_weight(g) if wf is not None else None
        for d in degs:
            if d not in by_degree:
                monos, by_weight = [], {}
                for combo in combinations_with_replacement(universe, d):
                    mono = {}
                    for v in combo:
                        mono[v] = mono.get(v, 0) + 1
                    mono = tuple(sorted(mono.items()))
                    monos.append(mono)
                    if wf is not None:
                        by_weight.setdefault(_ref_weight(mono), []).append(mono)
                by_degree[d] = (monos, by_weight)
            monos, by_weight = by_degree[d]
            if wg is not None:
                monos = by_weight.get(_ref_weight_diff(wf, wg), [])
            columns.extend((j, mono) for mono in monos)
    return columns


def tuple_columns(f, gens, bound):
    """The columns of _multiplier_columns with each packed monomial read back
    as an exponent tuple: bit field r, of width bound.bit_length(), holds the
    exponent of the r-th variable of the sorted universe."""
    universe, columns = _multiplier_columns(f, gens, bound)
    width = bound.bit_length()
    out = []
    for j, code in columns:
        exps = [code >> r * width & (1 << width) - 1 for r in range(len(universe))]
        assert code >> len(universe) * width == 0
        out.append((j, tuple((v, e) for v, e in zip(universe, exps) if e)))
    return out


@pytest.fixture(scope="module")
def ideal64_gens():
    return nilpotency_ideal(6, 4).gens


def _q(name):
    return cat.named_polynomial(name)


COLUMN_CASES = [(f"Q{i}", 4) for i in range(1, 15)] + [("Q13^2", 6), ("Q14^2", 6)]


@pytest.mark.parametrize("name,bound", COLUMN_CASES)
def test_multiplier_columns_match_brute_force(ideal64_gens, name, bound):
    f = _q(name[:-2]) ** 2 if name.endswith("^2") else _q(name)
    got = tuple_columns(f, ideal64_gens, bound)
    assert got == reference_columns(f, ideal64_gens, bound)


def test_multiplier_columns_match_brute_force_off_the_chart(ideal64_gens):
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    gens = [x * y - 1, y * y]
    assert tuple_columns(x * y * y - y, gens, 3) == reference_columns(
        x * y * y - y, gens, 3
    )
    # t_{1,1,2} moves coordinate 1 by 2, beyond a chart variable's step
    f = parse_tpoly("t_{1,1,2}^2") * ideal64_gens[0]
    assert tuple_columns(f, ideal64_gens, 4) == reference_columns(
        f, ideal64_gens, 4
    )
    # one generator without a torus weight: every generator gets every
    # monomial of its degree
    gens = list(ideal64_gens[:3]) + [parse_tpoly("t_{1,2,3}+t_{1,2,4}")]
    f = _q("Q5")
    assert tuple_columns(f, gens, 4) == reference_columns(f, gens, 4)


def tuple_path_multipliers(f, gens, bound):
    """The multipliers member_bounded reads off the same system built on
    exponent tuples: the columns of reference_columns, each row keyed by the
    tuple product of polynomials._mono_mul, in the same order; or None."""
    columns = reference_columns(f, gens, bound)
    rows = {}
    for c, (j, mono) in enumerate(columns):
        for gm, gc in gens[j].terms.items():
            rows.setdefault(_mono_mul(mono, gm), {})[c] = gc
    for m, c in f.terms.items():
        if m not in rows:
            return None
        rows[m][len(columns)] = c
    x = solve(list(rows.values()), len(columns))
    if x is None:
        return None
    terms = [{} for _ in gens]
    for c, (j, mono) in enumerate(columns):
        if x[c]:
            terms[j][mono] = x[c]
    return [MultiPoly(t) for t in terms]


def _same_certificate(cert, multipliers):
    return [format_poly(m) for m in cert.multipliers] == [format_poly(m) for m in multipliers]


@pytest.mark.parametrize("name,bound", COLUMN_CASES)
def test_member_bounded_matches_the_tuple_path(ideal64_gens, name, bound):
    # Q13 and Q14 are not members at D = 4, and their squares are at D = 6
    f = _q(name[:-2]) ** 2 if name.endswith("^2") else _q(name)
    cert = member_bounded(f, ideal64_gens, bound)
    multipliers = tuple_path_multipliers(f, ideal64_gens, bound)
    assert (cert is None) == (name in ("Q13", "Q14")) == (multipliers is None)
    assert cert is None or _same_certificate(cert, multipliers)


@pytest.mark.parametrize("bound", [1, 3, 7, 15])
def test_member_bounded_at_the_top_of_a_field(bound):
    # x^bound fills the field of x, bound.bit_length() bits wide, with ones;
    # a field one bit narrower would carry x^(2^(w-1)) into the field of y
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    f, gens = x**bound + y, [x, y]
    cert = member_bounded(f, gens, bound)
    assert cert is not None and cert.verify(gens)
    assert _same_certificate(cert, tuple_path_multipliers(f, gens, bound))
    assert tuple_columns(f, gens, bound) == reference_columns(f, gens, bound)


def _unfiltered_consistent(f, gens, bound):
    """Whether f = sum m_j g_j has a solution with m_j a combination of every
    monomial of degree <= bound - deg g_j over the variables of f and the g_j."""
    universe = sorted(set().union(f.variables(), *(g.variables() for g in gens)))
    products = []
    for g in gens:
        for d in range(bound - g.degree() + 1):
            for combo in combinations_with_replacement(universe, d):
                m = MultiPoly.const(1)
                for v in combo:
                    m = m * MultiPoly.var(v)
                products.append(m * g)
    rows = {}
    for c, product in enumerate(products + [f]):
        for mono, coeff in product.terms.items():
            rows.setdefault(mono, {})[c] = coeff
    return solve(list(rows.values()), len(products)) is not None


@st.composite
def _mixed_systems(draw):
    """Generators over 3-4 chart variables of the 5-dimensional chart, some
    torus-homogeneous and some not, a target built as a combination of them
    (plus, at times, a stray term) and a bound at least its degree."""
    chart = draw(st.lists(st.sampled_from(chart_variables(5)), min_size=3, max_size=4,
                          unique=True))
    coeff = st.integers(-2, 2).filter(bool)

    def poly(degrees, size):
        out = MultiPoly()
        for _ in range(draw(st.integers(*size))):
            term = MultiPoly.const(draw(coeff))
            for v in draw(st.lists(st.sampled_from(chart), min_size=degrees[0],
                                   max_size=degrees[1])):
                term = term * MultiPoly.var(v)
            out = out + term
        return out

    gens = [poly((1, 2), (1, 2)) for _ in range(draw(st.integers(1, 3)))]
    products = [poly((0, 1), (0, 2)) * g for g in gens]
    f = sum(products, poly((1, 2), (0, 1)))
    top = max([f.degree()] + [p.degree() for p in products if not p.is_zero()])
    return f, gens, top + draw(st.integers(0, 1))


@example((parse_tpoly("t_{1,2,3}"),
          [parse_tpoly("t_{1,2,3}+t_{1,2,4}"), parse_tpoly("t_{1,2,4}")], 1))
@settings(max_examples=100, deadline=None)
@given(_mixed_systems())
def test_member_bounded_finds_every_certificate_of_the_unfiltered_system(system):
    # the torus weights filter the columns only when f and every generator
    # have one, so a certificate exists within the filtered columns exactly
    # when one exists over every monomial of each admissible degree
    f, gens, bound = system
    cert = member_bounded(f, gens, bound)
    assert (cert is not None) == _unfiltered_consistent(f, gens, bound)
    assert cert is None or cert.verify(gens)


def test_unweighted_column_cap(ideal64_gens, capsys):
    # inhomogeneous, so every monomial up to the bound would be a column
    f = parse_tpoly("t_{1,2,3}+1")
    with pytest.raises(ResourceCapExceeded):
        member_bounded(f, ideal64_gens, 6)
    assert main(["ideal", "member", "6", "4", "t_{1,2,3}+1", "-D", "6"]) == 3
    assert "resource cap" in capsys.readouterr().err
    assert len(tuple_columns(f, ideal64_gens, 3)) <= MAX_UNWEIGHTED_COLUMNS


def test_weighted_column_cap(monkeypatch):
    # ten variables t_{p,2,p} and t_{2,p,p}, all of torus weight e_2, so every
    # multiplier monomial of the right degree has the right weight
    chart = [(p, 2, p) for p in (1, 3, 4, 5, 6)] + [(2, p, p) for p in (1, 3, 4, 5, 6)]
    gens = [MultiPoly.var(v) for v in chart]
    x = gens[0]
    # 5,005 columns of degree 6 for the first generator alone
    start = time.perf_counter()
    with pytest.raises(ResourceCapExceeded, match="over the cap"):
        member_bounded(x**7, gens, 7)
    # 2,002 columns of degree 5 for each generator: the running total passes
    with pytest.raises(ResourceCapExceeded, match="over the cap"):
        member_bounded(x**6, gens, 6)
    assert time.perf_counter() - start < 1.0
    # below the cap the same system is built and solved
    cert = member_bounded(x**4, gens, 4)
    assert cert is not None and cert.verify(gens)
    assert len(tuple_columns(x**4, gens, 4)) == 10 * 220 <= MAX_UNWEIGHTED_COLUMNS
    # the cap counts the running total over the generators of one call
    monkeypatch.setattr(ideals, "MAX_UNWEIGHTED_COLUMNS", 2_200)
    assert len(tuple_columns(x**4, gens, 4)) == 2_200
    monkeypatch.setattr(ideals, "MAX_UNWEIGHTED_COLUMNS", 2_199)
    with pytest.raises(ResourceCapExceeded, match="2199 multiplier columns, over the cap 2199$"):
        _multiplier_columns(x**4, gens, 4)


def test_weighted_search_node_cap(ideal64_gens, monkeypatch, capsys):
    # Q5^4 at D = 12 visits 473,414 prefixes to find its one column
    with pytest.raises(ResourceCapExceeded, match="prefixes, over the cap"):
        member_bounded(_q("Q5") ** 4, ideal64_gens, 12)
    # Q13^3 at D = 9 visits 34,942 prefixes for its 1,342 columns
    q13_cubed = _q("Q13") ** 3
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 34_941)
    with pytest.raises(ResourceCapExceeded, match="prefixes, over the cap"):
        _multiplier_columns(q13_cubed, ideal64_gens, 9)
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 34_942)
    assert len(tuple_columns(q13_cubed, ideal64_gens, 9)) == 1_342
    # the count runs over every generator of one call: Q13^2 at D = 6 visits
    # 477 prefixes for 127 columns
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 476)
    assert main(["ideal", "member", "6", "4", "Q13^2", "-D", "6"]) == 3
    assert "resource cap" in capsys.readouterr().err
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 477)
    cert = member_bounded(_q("Q13") ** 2, ideal64_gens, 6)
    assert cert is not None and cert.verify(ideal64_gens)


def test_search_tables_are_built_once_per_shape(ideal64_gens):
    # Q13^2 and Q14^2 at D = 6 search the same universe and steps to the same
    # depth, so the second call reads the tables the first one built, and
    # each call asks for one set of tables
    ideals._search_masks.cache_clear()
    for name in ("Q13", "Q14"):
        cert = member_bounded(_q(name) ** 2, ideal64_gens, 6)
        assert cert is not None and cert.verify(ideal64_gens)
    info = ideals._search_masks.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_search_deeper_than_the_command_line_keeps_no_tables():
    # the below tables grow with the depth, so a search deeper than the
    # parser's degree bound of 64 builds them for itself: t**150_000 would
    # leave 13.7 MB of them cached; one at the bound still shares its tables
    t = MultiPoly.var((1, 2, 3))
    ideals._search_masks.cache_clear()
    cert = member_bounded(t**150_000, [t], 150_000)
    assert cert is not None and cert.verify([t])
    assert ideals._search_masks.cache_info().currsize == 0
    for f in (t**65, t**66):
        cert = member_bounded(f, [t], f.degree())
        assert cert is not None and cert.verify([t])
    assert ideals._search_masks.cache_info().currsize == 1


def test_multiplier_degree_is_bounded_by_the_prefix_cap(capsys):
    # the search runs on a stack, not by recursion, so multipliers of 1,199
    # and 1,999 letters are found, each at its own degree
    t, x = MultiPoly.var((1, 2, 3)), MultiPoly.var("x")
    for f, g in ((t**1200, t), (x**2000, x)):
        cert = member_bounded(f, [g], f.degree())
        assert cert is not None and cert.verify([g])
    # every letter costs a visit, so a search deeper than MAX_WEIGHTED_NODES
    # letters still stops at the prefix cap
    message = f"more than {MAX_WEIGHTED_NODES} multiplier monomial prefixes, over the cap$"
    with pytest.raises(ResourceCapExceeded, match=message):
        member_bounded(x**250_000, [x], 250_000)
    # t_{1,2,3} + 1 has no grading, so the search runs at every degree up to D
    assert main(["ideal", "member", "3", "1", "t_{1,2,3}+1", "-D", "700"]) == 3
    assert "200000 multiplier monomial prefixes" in capsys.readouterr().err


@st.composite
def _weighted_searches(draw):
    """A small universe of steps in Z^3..Z^6 with entries in [-reach, reach]
    (repeated steps allowed), a remaining weight, a degree and a mask depth
    of at least that degree."""
    reach = draw(st.integers(1, 2))
    width = draw(st.integers(3, 6))
    entry = st.integers(-reach, reach)
    steps = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=6))
    d = draw(st.integers(0, 5))
    if draw(st.booleans()):
        # the weight of a random monomial, so that some monomials are found
        picks = draw(st.lists(st.sampled_from(steps), min_size=d, max_size=d))
        rem = [sum(step[p] for step in picks) for p in range(width)]
    else:
        rem = draw(st.lists(st.integers(-reach * d - 1, reach * d + 1), min_size=width,
                            max_size=width))
    return tuple(steps), rem, d, d + draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(_weighted_searches())
def test_weighted_search_matches_brute_force(search):
    steps, rem, d, depth = search
    universe = list(range(len(steps)))
    # d <= 5, so 3 bits hold any exponent and the codes of distinct
    # monomials differ
    units = [1 << 3 * i for i in universe]
    reach = max(abs(e) for step in steps for e in step)

    def left_over(combo):
        return [r - sum(steps[i][p] for i in combo) for p, r in enumerate(rem)]

    combos = [combo for combo in combinations_with_replacement(universe, d)
              if not any(left_over(combo))]
    columns = [sum(units[i] for i in combo) for combo in combos]

    # the root, and a prefix with three or more letters left, is visited when
    # it and every prefix of it pass the box rule: rem stays within reach of
    # the letters left; any other nonempty prefix only when some column
    # starts with it
    def visits(combo):
        if combo and d - len(combo) <= 2:
            return any(column[: len(combo)] == combo for column in combos)
        return all(
            max(map(abs, left_over(combo[:length]))) <= reach * (d - length)
            for length in range(len(combo) + 1)
        )

    visited = sum(
        visits(combo)
        for size in range(d + 1)
        for combo in combinations_with_replacement(universe, size)
    )
    # the masks are built once for every degree up to depth
    masks = ideals._search_masks(steps, depth)
    found, nodes = Budget(len(columns), "columns"), Budget(visited, "prefixes")
    assert ideals._weighted_monomials(units, steps, masks, rem, d, found, nodes) == columns
    assert (found.spent, nodes.spent) == (len(columns), visited)
    if visited:
        found, nodes = Budget(len(columns), "columns"), Budget(visited - 1, "prefixes")
        with pytest.raises(ResourceCapExceeded, match="^prefixes$"):
            ideals._weighted_monomials(units, steps, masks, rem, d, found, nodes)


def test_the_last_two_letters_charge_a_leaf_as_a_visit_then_a_find(monkeypatch):
    # five variables t_{p,2,p} of weight e_2, so f = x^2 (their sum) over x
    # searches the degree-2 monomials in them: the root (visit 1), its
    # first child (visit 2) and that child's five leaves, each a visit and
    # then a find.  With one column allowed and four visits, the second
    # leaf's find passes the column cap after its visit, and before any
    # third leaf is visited
    x = MultiPoly.var((1, 2, 1))
    f = x**2 * sum((MultiPoly.var((p, 2, p)) for p in (3, 4, 5, 6)), x)
    monkeypatch.setattr(ideals, "MAX_UNWEIGHTED_COLUMNS", 1)
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 4)
    with pytest.raises(ResourceCapExceeded, match="needs more than 1 multiplier columns, over the cap 1$"):
        _multiplier_columns(f, [x], 3)
    # the leaves' visits are charged as they come: the third prefix is the
    # first leaf, and passes a cap of two before any find
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 2)
    with pytest.raises(ResourceCapExceeded, match="more than 2 multiplier monomial prefixes"):
        _multiplier_columns(f, [x], 3)
    monkeypatch.setattr(ideals, "MAX_UNWEIGHTED_COLUMNS", 15)
    monkeypatch.setattr(ideals, "MAX_WEIGHTED_NODES", 21)
    assert len(_multiplier_columns(f, [x], 3)[1]) == 15


@st.composite
def _generator_lists(draw):
    """A target, one to four generators and a bound from 1 to 8, all over a
    few chart variables (t_{1,1,2} among them at times) or all over a few
    variables off the chart: zero generators, single terms, which are
    homogeneous in every grading, and sums of two terms, often in none,
    mixed; the target may carry a variable no generator has."""
    if draw(st.booleans()):
        pool, stray = chart_variables(5) + [(1, 1, 2)], (4, 5, 6)
    else:
        pool, stray = ["w", "x", "y"], "z"
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    coeff = st.integers(-2, 2).filter(bool)

    def poly(variables, terms, top):
        out = MultiPoly()
        for _ in range(terms):
            term = MultiPoly.const(draw(coeff))
            for v in draw(st.lists(st.sampled_from(variables), max_size=top)):
                term = term * MultiPoly.var(v)
            out = out + term
        return out

    gens = [poly(names, draw(st.integers(0, 2)), 2) for _ in range(draw(st.integers(1, 4)))]
    f = poly(names + draw(st.sampled_from([[], [stray]])), draw(st.integers(1, 2)), 3)
    return f, gens, draw(st.integers(max(1, f.degree()), 8))


@settings(max_examples=150, deadline=None)
@given(_generator_lists())
def test_the_kept_presentation_gives_the_per_call_columns(system):
    # the columns, the universe and both counts are those of the search set
    # up afresh on every call, whether the presentation is built or found
    f, gens, bound = system
    expected = multiplier_columns_by_call(f, gens, bound)
    assert multiplier_columns_spent(f, gens, bound) == expected
    assert multiplier_columns_spent(f, [MultiPoly(g.terms) for g in gens], bound) == expected


def test_an_equal_generator_list_is_prepared_once(ideal64_gens, monkeypatch):
    # a list of new objects equal to one seen before finds its presentation
    # kept: the second call reads no generator's variables or degree
    f = _q("Q5")
    ideals._presentation.cache_clear()
    first = _multiplier_columns(f, ideal64_gens, 4)
    copies = [MultiPoly(g.terms) for g in ideal64_gens]
    read = []

    def spy(name):
        method = getattr(MultiPoly, name)
        monkeypatch.setattr(MultiPoly, name, lambda self: read.append(id(self)) or method(self))

    spy("variables")
    spy("degree")
    assert _multiplier_columns(f, copies, 4) == first
    assert read and not set(read) & set(map(id, copies + ideal64_gens))
    info = ideals._presentation.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_an_edited_generator_is_prepared_again(ideal64_gens):
    # a generator edited in place between two calls hashes anew, so the
    # second call sees the edit, as a fresh process would
    f = _q("Q13") ** 2
    gens = [MultiPoly(g.terms) for g in ideal64_gens]
    before = _multiplier_columns(f, gens, 6)
    g = gens[before[1][0][0]]  # a generator with columns
    original = dict(g.terms)
    for edit in ((g * MultiPoly.var((1, 2, 3))).terms, {}, original):
        g.terms.clear()
        g.terms.update(edit)
        got = _multiplier_columns(f, gens, 6)
        assert (got == before) == (edit is original)
        assert got == multiplier_columns_by_call(f, gens, 6)[:2]
        ideals._presentation.cache_clear()
        assert _multiplier_columns(f, gens, 6) == got


def test_threads_on_alternating_generator_lists_get_the_single_threaded_answers(ideal64_gens):
    # six generator lists for the four places of the presentation memo, so
    # the threads keep pushing out each other's presentations
    lists = [ideal64_gens, ideal64_gens[::-1], ideal64_gens[:24], ideal64_gens[8:],
             ideal64_gens[::2] + ideal64_gens[1::2], ideal64_gens + [MultiPoly()]]
    targets = [_q("Q1"), _q("Q5"), _q("Q12")]

    def work(shift):
        return [(c := member_bounded(f, gens, 4)) and [format_poly(m) for m in c.multipliers]
                for _ in range(3) for gens in lists[shift % 6:] + lists[:shift % 6]
                for f in targets]

    expected = [work(shift) for shift in range(8)]
    assert in_eight_threads(work) == expected


def test_certificate_reverification_survives_optimize():
    # python -O strips assert statements; a certificate that fails its exact
    # re-check must still raise
    code = (
        "from nilcohom import ideals\n"
        "from nilcohom.polynomials import MultiPoly\n"
        "ideals.MembershipCertificate.verify = lambda self, gens: False\n"
        "x = MultiPoly.var('x')\n"
        "try:\n"
        "    ideals.member_bounded(x * x, [x], 2)\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(nilcohom.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0
