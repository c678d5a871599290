import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import format_table, structure_tables
from nilcohom.errors import TableError
from nilcohom.liealg import StructureConstants
from nilcohom.polynomials import MultiPoly
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI
from nilcohom.tables import (
    _chain_products,
    parse_symbolic,
    parse_table,
    parse_tpoly,
    parse_vector,
)


def test_single_bracket():
    mu = parse_table("ab = c", 3)
    assert mu.c == {(0, 1): {2: Fraction(1)}}
    assert mu.n == 3


def test_unlisted_pairs_are_zero_and_reversed_pairs_negate():
    mu = parse_table("ba = c", 3)
    assert mu.c == {(0, 1): {2: Fraction(-1)}}
    assert mu.bracket_basis(0, 2) == {}


def test_parameter_substitution_example():
    # be = rtf+(1-t)g at r=0, t=2: the f-coefficient drops, the g one is -1
    mu = parse_table("be = rtf+(1-t)g", 7, {"r": 0, "t": 2})
    assert mu.bracket_basis(1, 4) == {6: Fraction(-1)}


def test_precedence_and_fractions():
    mu = parse_table("ab = (1+t^3/2)c, ac = 1/2d", 4, {"t": 2})
    assert mu.entry(0, 1, 2) == Fraction(5)
    assert mu.entry(0, 2, 3) == Fraction(1, 2)


def test_gaussian_unit():
    mu = parse_table("ab = ic", 3)
    assert mu.field == "Qi"
    assert mu.entry(0, 1, 2) == QI(0, 1)


def test_errors_have_positions():
    with pytest.raises(TableError):
        parse_table("ab = z", 3)  # letter beyond the dimension
    with pytest.raises(TableError):
        parse_table("ab = c", 2)  # c outside dim 2
    with pytest.raises(TableError):
        parse_table("ab = tc", 3)  # undeclared parameter symbol
    with pytest.raises(TableError):
        parse_table("aa = c", 3)
    with pytest.raises(TableError):
        parse_table("ab = c, ab = d", 4)
    with pytest.raises(TableError):
        parse_table("ab = 3", 3)  # scalar right-hand side
    err = None
    try:
        parse_table("ab = c,\nac = ?", 3)
    except TableError as e:
        err = e
    assert err is not None and err.line == 2


def test_symbolic_derivative_is_exact():
    tab = parse_symbolic("ab = rtc + t^2d", 4, params=("r", "t"))
    dt = tab.derivative("t")
    mu = dt.evaluate({"r": Fraction(3), "t": Fraction(5)})
    assert mu.entry(0, 1, 2) == 3  # d/dt (rt) = r
    assert mu.entry(0, 1, 3) == 10  # d/dt t^2 = 2t
    assert tab.derivative("r").derivative("r").evaluate({"r": 0, "t": 0}).is_abelian()


def test_unresolved_parameters_rejected():
    tab = parse_symbolic("ab = tc", 3, params=("t",))
    with pytest.raises(TableError):
        tab.evaluate({})


@pytest.mark.parametrize("params, fault", [
    (("ss",), "'ss' is not one letter"), (("",), "'' is not one letter"),
    (("1",), "'1' is not one letter"), (("t", "t"), "'t' is declared twice"),
    (("b",), "'b' is a basis letter")])
def test_a_parameter_symbol_is_one_letter_declared_once(params, fault):
    for parse in (lambda: parse_symbolic("ab = c", 3, params), lambda: parse_vector("a", 3, params)):
        with pytest.raises(TableError, match=fault):
            parse()
    # any other letter is a symbol, once declared
    assert parse_table("ab = Tc", 3, {"T": 2}) == parse_table("ab = 2c", 3)


def test_vector_expressions():
    vecs = parse_vector("2t(tb-d)", 4, params=("t",))
    assert [p.evaluate({"t": 3}) for p in vecs] == [0, 18, 0, -6]
    with pytest.raises(TableError):
        parse_vector("ab", 4)  # product of two letters
    with pytest.raises(TableError):
        parse_vector("a+1", 4)  # scalar part


@settings(max_examples=150, deadline=None)
@given(structure_tables(FIELD_Q))
@example(parse_table("ab = c, ac = d, ad = e, bc = e, be = f, cd = -f", 6))
@example(parse_table("ab = d, ad = e, bc = e", 6))
@example(parse_table("ab = 3c, ac = -1/2d", 6))
def test_table_text_round_trip(mu):
    again = parse_table(format_table(mu), mu.n)
    assert again == mu and again.field == FIELD_Q


@settings(max_examples=150, deadline=None)
@given(structure_tables(FIELD_QI))
@example(parse_table("ab = (0+1 i)c, ac = (1/2-3/4 i)d", 4))
def test_gaussian_table_round_trip(mu):
    again = parse_table(format_table(mu), mu.n)
    assert again == mu
    # table text carries no field tag: an all-real table comes back over Q
    if any(v.im for coeffs in mu.c.values() for v in coeffs.values()):
        assert again.field == FIELD_QI


@st.composite
def _tables_past_e9(draw):
    """Brackets of dimension 1-12 over Q or Q(i), so that some reach e_9."""
    n = draw(st.integers(1, 12))
    gaussian = draw(st.booleans())
    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    scalar = st.builds(QI, rationals, rationals) if gaussian else rationals
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = draw(st.dictionaries(
        st.sampled_from(pairs), st.dictionaries(st.integers(0, n - 1), scalar, max_size=3),
        max_size=4)) if pairs else {}
    return StructureConstants(n, brackets, FIELD_QI if gaussian else FIELD_Q)


@settings(max_examples=150, deadline=None)
@given(_tables_past_e9())
@example(StructureConstants(10, {(0, 1): {2: QI(1, 2)}}, FIELD_QI))
@example(parse_table("ab = (1+2i)c", 8))
@example(parse_table("ab = 3i, hi = -1/2a", 9))
def test_table_text_parses_back_or_is_refused(mu):
    try:
        text = format_table(mu)
    except TableError:
        assert mu.n >= 9 and any(isinstance(v, QI) and v.im
                                 for row in mu.c.values() for v in row.values())
    else:
        assert parse_table(text, mu.n) == mu


@pytest.mark.parametrize("mu", [
    StructureConstants(27, {(0, 26): {1: 1}}),
    StructureConstants(27, {}),
    StructureConstants(30, {(0, 1): {2: QI(1, 2)}}, FIELD_QI),
])
def test_table_text_is_refused_past_26_letters(mu):
    with pytest.raises(TableError, match=f"dimension {mu.n}"):
        format_table(mu)
    with pytest.raises(TableError):
        parse_table("", mu.n)


def test_family_identification_on_the_nilpotent_line(catalog):
    # the surface at r=0 is the printed nilpotent curve, parameter for parameter
    for t in (Fraction(1), Fraction(5), Fraction(-2)):
        a = catalog.structure("g_5(r,t)", {"r": 0, "t": t})
        b = catalog.structure("g_1(t)", {"t": t})
        assert a == b
        a = catalog.structure("g_6(r,t)", {"r": 0, "t": t})
        b = catalog.structure("g_I(t)", {"t": t})
        assert a == b


# text over the table grammar's characters (letters inside and outside a..g,
# the parameters r and t, i, digits, operators, separators, the pieces of a
# chart variable t_{i,j,k}), plus a few characters the tokenizer must refuse
_GRAMMAR_TEXT = st.text(alphabet="abcdghirtz0123456789+-*/^()=,;\n _{}²é", max_size=40)
_CHART_TEXT = st.lists(
    st.one_of(st.sampled_from(["t_{1,2,3}", "t_{2,4,5}", "t_{1,2}", "t_{", "2", "1/3", "0"]),
              st.sampled_from("+-*/^() ")),
    max_size=12,
).map("".join)
_TABLE_TEXT = st.one_of(
    _GRAMMAR_TEXT,
    st.builds("{} = {}".format, st.sampled_from(["ab", "ba", "ce", "fg", "aa", "ah"]),
              st.one_of(_GRAMMAR_TEXT, _CHART_TEXT)),
    _CHART_TEXT,
    st.text(max_size=20),
)


@settings(max_examples=400, deadline=None)
@given(_TABLE_TEXT, st.sampled_from([3, 7]))
@example("ab = " + "(" * 400 + "c" + ")" * 400, 3)
@example("ab = " + "-" * 2000 + "c", 7)
@example("ab = 9^99999999c", 7)
@example("ab = ((((2^9)^9)^9)^9)^9c", 3)
@example("ab = t^99999999c", 7)
@example("ab = (1+r+t)^64c", 7)
@example("ab = (1+r+t)^40(1+r+t)^40c", 7)
@example("ab = (1+r+t)^43c", 4)
@example("ab = ²c", 3)
@example("ab = " + "7" * 5000 + "c", 3)
@example("t_{1,2," + "7" * 5000 + "}", 3)
@example("ab = t_{1,2,3}c", 3)
def test_parser_raises_only_table_error(text, n):
    """Any text parses or raises TableError, quickly: nothing else escapes."""
    for parse in (lambda: parse_table(text, n, {"r": 2, "t": Fraction(1, 3)}),
                  lambda: parse_symbolic(text, n, ("r", "t")),
                  lambda: parse_tpoly(text)):
        try:
            parse()
        except TableError:
            pass


def test_a_power_past_the_product_cap_is_refused_before_it_is_expanded():
    # 990 terms, within the term cap, but about 70,000 coefficient products
    # (0.5 s) to expand
    start = time.perf_counter()
    with pytest.raises(TableError, match="coefficient products"):
        parse_table("ab = (1+r+t)^43c", 4, {"r": 2, "t": 3})
    assert time.perf_counter() - start < 0.05
    mu = parse_table("ab = (1+r+t)^16c", 4, {"r": 2, "t": 3})
    assert mu.entry(0, 1, 2) == 6**16


@pytest.mark.parametrize("text", [
    "*".join(["t_{1,2,3}"] * 100),  # degree 100
    "*".join(["2^3000"] * 20),  # a 60,001-bit coefficient
    "*".join(["7" * 3000] * 300),  # 300 factors of 9,966 bits
])
def test_a_product_past_the_degree_or_bit_cap_is_refused_before_it_is_expanded(text):
    start = time.perf_counter()
    with pytest.raises(TableError, match="product too large"):
        parse_tpoly(text)
    assert time.perf_counter() - start < 1


def test_a_product_at_the_caps_parses():
    assert parse_tpoly("*".join(["t_{1,2,3}"] * 64)) == MultiPoly.var((1, 2, 3)) ** 64
    assert parse_tpoly("*".join(["2^3000"] * 3)) == MultiPoly.const(2**9000)


_POLYS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3).filter(bool)),
    min_size=1, max_size=5,
).map(lambda terms: sum(
    (c * MultiPoly.var("r") ** a * MultiPoly.var("t") ** b for a, b, c in terms), MultiPoly()
))


@settings(max_examples=100, deadline=None)
@given(_POLYS.filter(bool), st.integers(1, 12))
def test_chain_products_bounds_the_work_of_a_power(p, e):
    """The bound is at least the coefficient products that square-and-multiply
    spends, counted on the actual powers."""
    spent = 0
    out, base, k = MultiPoly.const(1), p, e
    while k:
        if k & 1:
            spent += len(out.terms) * len(base.terms)
            out = out * base
        k >>= 1
        if k:
            spent += len(base.terms) ** 2
            base = base * base
    assert out == p**e
    assert spent <= _chain_products(len(p.terms), e)


def test_chart_polynomials_read_with_the_table_grammar():
    t123, t345 = MultiPoly.var((1, 2, 3)), MultiPoly.var((3, 4, 5))
    assert parse_tpoly("t_{1,2,3}t_{3,4,5} - 2t_{1,2,3}^2") == t123 * t345 - 2 * t123**2
    assert parse_tpoly("((t_{1,2,3}))") == t123
    assert parse_tpoly("(t_{1,2,3}+1)(t_{3,4,5}-1)/2") == (t123 + 1) * (t345 - 1) / 2
    assert parse_tpoly("t_{ 1, 2, 3 }") == t123
    assert parse_tpoly("0").is_zero()
    # a chart variable is not table text
    with pytest.raises(TableError, match="chart variable"):
        parse_table("ab = t_{1,2,3}c", 3)


@pytest.mark.parametrize("text", [
    "t_{1,2,3}+", "t_{1,2,3}^", "1/0*t_{1,2,3}", "t_{1,2}", "x", "i*t_{1,2,3}",
    "1e100000000*t_{1,2,3}", "7" * 5000 + "*t_{1,2,3}", "2.5t_{1,2,3}", "", "t_{1,2,3})",
    "t_{1,2,3}^99999999", "(" * 60 + "t_{1,2,3}" + ")" * 60,
])
def test_malformed_chart_polynomials_raise_table_error(text):
    start = time.perf_counter()
    with pytest.raises(TableError):
        parse_tpoly(text)
    assert time.perf_counter() - start < 1
