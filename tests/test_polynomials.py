from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom.polynomials import MultiPoly, format_poly
from nilcohom.scalars import QI
from nilcohom.tables import parse_tpoly


def test_ring_axioms_on_small_cases():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (p - p).is_zero()
    assert x * 0 == MultiPoly()


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
