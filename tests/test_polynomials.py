import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcohom.liealg import StructureConstants
from nilcohom.polynomials import MultiPoly, format_poly
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI
from nilcohom.tables import parse_symbolic, parse_tpoly


def test_substitute_drops_the_terms_that_cancel():
    # a kept zero coefficient would make is_zero() false on the zero
    # polynomial, and non_membership reads is_zero()
    x, y, z = (MultiPoly.var(v) for v in "xyz")
    for p, assignment in ((x * y - x, {"y": 1}), (x * y - x * z, {"y": z})):
        q = p.substitute(assignment)
        assert q.terms == {} and q.is_zero() and q == MultiPoly(), (p, assignment)


def test_ring_axioms_on_small_cases():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (p - p).is_zero()
    assert x * 0 == MultiPoly()


def test_scalar_on_the_left_and_equality_with_a_scalar():
    x = MultiPoly.var("x")
    assert 2 - x == -(x - 2) and (2 - x).evaluate({"x": 5}) == -3
    assert Fraction(1, 2) - x == MultiPoly({(): Fraction(1, 2), (("x", 1),): -1})
    assert MultiPoly.const(3) == 3 and MultiPoly.const(QI(0, 1)) == QI(0, 1)
    assert MultiPoly() == 0 and x != 3 and x + 1 != 1


def test_a_constant_polynomial_hashes_as_its_scalar():
    for c in (0, 3, Fraction(1, 2), QI(3, 0), QI(1, 2)):
        p = MultiPoly.const(c)
        assert p == c and hash(p) == hash(c), c
    x = MultiPoly.var("x")
    assert hash(x + 1) == hash(MultiPoly({(): 1, (("x", 1),): 1}))


def test_a_table_of_constant_polynomials_hashes_as_its_numeric_twin():
    sym = parse_symbolic("ab = 3c, ac = (1/2)b + (i)a", 3, ("t",))
    assert sym.field == "sym"
    numeric = StructureConstants(3, {(0, 1): {2: 3}, (0, 2): {1: Fraction(1, 2), 0: QI(0, 1)}})
    assert sym == numeric and hash(sym) == hash(numeric)
    assert len({sym, numeric}) == 1


def test_degree_homogeneity_variables():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x**2 * y + x * y**2
    assert p.degree() == 3 and p.is_homogeneous()
    assert not (p + x).is_homogeneous()
    assert p.variables() == {"x", "y"}
    assert MultiPoly().degree() == -1


def test_substitute_partial_and_full():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x**2 * y - 2 * x
    assert p.substitute({}) == p
    q = p.substitute({"x": Fraction(3)})
    assert q == 9 * y - 6
    assert p.substitute({"x": y}) == y**3 - 2 * y
    assert p.evaluate({"x": 2, "y": 5}) == 16
    with pytest.raises(KeyError):
        p.evaluate({"x": 1})


def test_differentiation():
    t = MultiPoly.var("t")
    p = (1 + t**3) / 2
    assert p.diff("t") == 3 * t**2 / 2
    assert (t**2 * MultiPoly.var("r")).diff("t") == 2 * t * MultiPoly.var("r")
    assert MultiPoly.const(5).diff("t").is_zero()


def test_gaussian_coefficients():
    t = MultiPoly.var("t")
    p = MultiPoly.const(QI(0, 1)) * t
    assert p.evaluate({"t": 2}) == QI(0, 2)
    assert (p * p).evaluate({"t": 1}) == Fraction(-1)


def test_primitive_detects_scalar_multiples():
    p = parse_tpoly("t_{1,2,4}*t_{3,4,5}+t_{2,3,4}*t_{1,4,5}-t_{1,3,4}*t_{2,4,5}")
    q = p * Fraction(-7, 3)
    assert p.primitive() == q.primitive()
    assert p.primitive() != (p + parse_tpoly("t_{1,2,3}*t_{3,4,5}")).primitive()


def test_tpoly_format_parse_round_trip():
    cases = [
        "t_{1,2,3}*t_{3,4,5}",
        "t_{1,2,4}*t_{3,4,5} + t_{1,4,5}*t_{2,3,4} - t_{1,3,4}*t_{2,4,5}",
        "t_{1,2,3}^2*t_{2,3,4}*t_{3,4,6}",
        "0",
    ]
    for text in cases:
        p = parse_tpoly(text)
        assert parse_tpoly(format_poly(p)) == p
    # implicit products as printed in the tables also parse
    assert parse_tpoly("t_{1,2,3}t_{3,4,5}") == parse_tpoly("t_{1,2,3}*t_{3,4,5}")
    assert parse_tpoly("2t_{1,2,3}") == 2 * parse_tpoly("t_{1,2,3}")
    assert parse_tpoly("-t_{1,2,3}+t_{1,2,3}").is_zero()


_CHART_VARS = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
_MONOMIALS = st.dictionaries(_CHART_VARS, st.integers(1, 3), max_size=3).map(
    lambda mono: tuple(sorted(mono.items()))
)
_CHART_POLYS = st.dictionaries(
    _MONOMIALS, st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)), max_size=5
).map(MultiPoly)


@settings(max_examples=200, deadline=None)
@given(_CHART_POLYS)
def test_tpoly_round_trip_property(p):
    assert parse_tpoly(format_poly(p)) == p


def _fraction_twin(p):
    return MultiPoly({m: Fraction(c) for m, c in p.terms.items()})


def _int_terms(p):
    return all(type(c) is int for c in p.terms.values())


_INT_CHART_POLYS = st.dictionaries(
    _MONOMIALS, st.integers(-20, 20).filter(bool), max_size=4
).map(MultiPoly)


@settings(max_examples=100, deadline=None)
@given(_INT_CHART_POLYS, _INT_CHART_POLYS, st.integers(0, 3), _CHART_VARS,
       st.dictionaries(_CHART_VARS, st.integers(-3, 3), max_size=4))
def test_int_coefficients_agree_with_their_fraction_twins(p, q, e, var, point):
    # integer coefficients stay ints through the ring operations, the
    # primitive form, substitution and differentiation, and give the values
    # and the printed text of the same polynomials over Fractions
    pf, qf = _fraction_twin(p), _fraction_twin(q)
    full = {v: point.get(v, 2) for v in p.variables()}
    pairs = [
        (p + q, pf + qf),
        (p - q, pf - qf),
        (p * q, pf * qf),
        (p**e, pf**e),
        (p.primitive(), pf.primitive()),
        (p.substitute(point), pf.substitute(point)),
        (p.substitute({var: q}), pf.substitute({var: qf})),
        (p.diff(var), pf.diff(var)),
    ]
    for exact, twin in pairs:
        assert _int_terms(exact) and exact == twin
        assert format_poly(exact) == format_poly(twin)
        assert parse_tpoly(format_poly(exact)) == exact
    assert _int_terms(pf.primitive())
    assert type(p.evaluate(full)) is int and p.evaluate(full) == pf.evaluate(full)


# Evaluation and substitution as ring homomorphisms, over int, Fraction and
# QI coefficients and values (a value of 0 is drawn often)
_SYMS = ("r", "s", "t")
_RATIONALS = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
_SCALARS = st.one_of(_RATIONALS, st.builds(QI, _RATIONALS, _RATIONALS))


def _sym_monomials(top, size):
    return st.dictionaries(st.sampled_from(_SYMS), st.integers(1, top), max_size=size).map(
        lambda mono: tuple(sorted(mono.items())))


_SYM_MONOMIALS = _sym_monomials(3, 3)
_SYM_POLYS = st.dictionaries(_SYM_MONOMIALS, _SCALARS, max_size=4).map(MultiPoly)
_SMALL_POLYS = st.dictionaries(_sym_monomials(2, 2), _SCALARS, max_size=2).map(MultiPoly)
_POINTS = st.fixed_dictionaries({v: _SCALARS for v in _SYMS})


def _power(x, e):
    out = 1
    for _ in range(e):
        out = out * x
    return out


@settings(max_examples=150, deadline=None)
@given(_SYM_POLYS, _SYM_POLYS, st.integers(0, 3), _POINTS)
def test_evaluate_is_a_ring_homomorphism(p, q, e, point):
    a, b = p.evaluate(point), q.evaluate(point)
    assert (p + q).evaluate(point) == a + b
    assert (p - q).evaluate(point) == a - b
    assert (p * q).evaluate(point) == a * b
    assert (p**e).evaluate(point) == _power(a, e)


@settings(max_examples=150, deadline=None)
@given(_SYM_POLYS, _POINTS, st.sets(st.sampled_from(_SYMS)))
def test_partial_substitution_then_evaluation_is_evaluation(p, point, assigned):
    partial = p.substitute({v: point[v] for v in assigned})
    assert partial.variables() <= p.variables() - assigned
    assert partial.evaluate(point) == p.evaluate(point)


@settings(max_examples=100, deadline=None)
@given(_SMALL_POLYS, st.fixed_dictionaries({}, optional={v: _SMALL_POLYS for v in _SYMS}),
       st.fixed_dictionaries({}, optional={v: _SMALL_POLYS for v in _SYMS}), _POINTS)
def test_substitution_of_polynomials_composes(p, first, second, point):
    # p(first) at a point is p at the values of first there, and substituting
    # first and then second is substituting first(second)
    at = {**point, **{v: q.evaluate(point) for v, q in first.items()}}
    assert p.substitute(first).evaluate(point) == p.evaluate(at)
    composed = {v: first.get(v, MultiPoly.var(v)).substitute(second) for v in _SYMS}
    assert p.substitute(first).substitute(second) == p.substitute(composed)


_INT_POLYS = st.dictionaries(_SYM_MONOMIALS, st.integers(-5, 5), max_size=4).map(MultiPoly)


@settings(max_examples=150, deadline=None)
@given(_SYM_POLYS, _INT_POLYS, _POINTS, st.fixed_dictionaries({v: st.integers(-3, 3) for v in _SYMS}))
def test_ints_give_ints_and_a_vanishing_value_is_the_int_zero(p, n, point, int_point):
    value = n.evaluate(int_point)
    assert type(value) is int
    assert all(type(c) is int for c in n.substitute({"s": int_point["s"]}).terms.values())
    # p minus its value at the point vanishes there, whatever the scalars
    zero = (p - p.evaluate(point)).evaluate(point)
    assert type(zero) is int and zero == 0
    zero = (n - value).evaluate(int_point)
    assert type(zero) is int and zero == 0


@pytest.mark.parametrize("text", ["ab = itc", "ab = (1+it)c + d", "ab = (it+1)c, ac = (2-it^2)d"])
def test_a_gaussian_coefficient_zero_at_the_point_leaves_the_table_over_q(text):
    family = parse_symbolic(text, 4, ("t",))
    mu = family.evaluate({"t": 0})
    assert mu.field == FIELD_Q
    assert not any(isinstance(c, QI) for row in mu.c.values() for c in row.values())
    assert family.evaluate({"t": 1}).field == FIELD_QI


def _typed_values(mu):
    return mu.field, {pair: {k: (type(v), v) for k, v in row.items()} for pair, row in mu.c.items()}


def test_a_table_of_real_values_is_over_q_whatever_its_terms():
    # a real product of Gaussian factors, or a sum that passes through a
    # Gaussian term, is a Fraction in a table over Q
    tables = [parse_symbolic(text, 3, ("t", "s")).evaluate({"t": 1, "s": 1})
              for text in ("ab = (1+it-is)c", "ab = (it-is+1)c", "ab = (it)(it)c")]
    assert [_typed_values(mu) for mu in tables] == [
        (FIELD_Q, {(0, 1): {2: (Fraction, 1)}})] * 2 + [(FIELD_Q, {(0, 1): {2: (Fraction, -1)}})]


_PAIRS = ((0, 1), (0, 2), (1, 2))
_SYM_TABLES = st.dictionaries(st.sampled_from(_PAIRS),
                              st.dictionaries(st.integers(0, 2), _SYM_POLYS, max_size=2),
                              max_size=3)


@settings(max_examples=150, deadline=None)
@given(_SYM_TABLES, _POINTS, st.randoms(use_true_random=False))
@example({(0, 1): {2: MultiPoly({(): 1, (("t", 1),): QI(0, 1), (("s", 1),): QI(0, -1)})}},
         {"r": 0, "s": 1, "t": 1}, random.Random(0))
def test_the_values_alone_decide_the_field_of_an_evaluated_table(brackets, point, rng):
    # multiplying a coefficient by the real QI 1, or reordering its terms,
    # changes neither the field nor the values and their types
    def at(table):
        return _typed_values(StructureConstants(3, table, "sym").evaluate(point))

    def reordered(p):
        terms = list(p.terms.items())
        rng.shuffle(terms)
        return MultiPoly(dict(terms))

    expected = at(brackets)
    for change in (lambda p: p * QI(1, 0), reordered):
        assert at({pair: {k: change(p) for k, p in row.items()}
                   for pair, row in brackets.items()}) == expected
