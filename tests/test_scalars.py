import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcohom.scalars import QI, FIELD_Q, FIELD_QI, format_scalar, parse_scalar, promote


def test_basic_arithmetic():
    a = QI(Fraction(1, 2), Fraction(3, 4))
    b = QI(2, -1)
    assert a + b == QI(Fraction(5, 2), Fraction(-1, 4))
    assert a - a == QI(0)
    assert a * b == QI(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a == QI(Fraction(-1, 2), Fraction(-3, 4))


def test_i_squares_to_minus_one():
    i = QI(0, 1)
    assert i * i == Fraction(-1)
    assert i.conjugate() == -i


def test_mixed_field_promotion():
    # Fraction arithmetic with QI promotes to QI, never the reverse
    x = Fraction(1, 3) + QI(1, 1)
    assert isinstance(x, QI) and x == QI(Fraction(4, 3), 1)
    y = QI(1, 1) * Fraction(2)
    assert isinstance(y, QI)
    assert promote(Fraction(1, 2), FIELD_QI) == QI(Fraction(1, 2))
    assert promote(QI(Fraction(1, 2)), FIELD_Q) == Fraction(1, 2)
    with pytest.raises(ValueError):
        promote(QI(1, 1), FIELD_Q)


def test_explicit_coercion_only():
    z = QI(Fraction(3, 7), 0)
    assert isinstance(z, QI)  # stays Gaussian until asked
    assert z.to_fraction() == Fraction(3, 7)
    with pytest.raises(ValueError):
        QI(1, 2).to_fraction()


def test_inverse_identity_for_random_nonzero():
    rng = random.Random(5)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        assert (a / b) * (b / a) == 1
        q = QI(a, b)
        assert q / q == QI(1)


def test_canonical_form_after_long_random_chains():
    # denominators positive and reduced after thousands of mixed operations
    rng = random.Random(11)
    vals = [Fraction(1), QI(1, 1)]
    for _ in range(10_000):
        op = rng.randrange(3)
        pick = rng.randrange(2)
        other = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if rng.random() < 0.3:
            other = QI(other, Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        if op == 0:
            vals[pick] = vals[pick] + other
        elif op == 1:
            vals[pick] = vals[pick] * other
        elif other:
            vals[pick] = vals[pick] / other
        v = vals[pick]
        parts = (v.re, v.im) if isinstance(v, QI) else (v,)
        for p in parts:
            assert p.denominator > 0
            from math import gcd

            assert gcd(p.numerator, p.denominator) == 1


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(3), "3"),
        (Fraction(-1, 2), "-1/2"),
        (QI(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4 i"),
        (QI(Fraction(-1, 2), Fraction(-3, 4)), "-1/2-3/4 i"),
        (QI(0, 1), "0+1 i"),
    ],
)
def test_wire_format_round_trip(value, text):
    assert format_scalar(value) == text
    field = FIELD_QI if isinstance(value, QI) else FIELD_Q
    assert parse_scalar(text, field) == value


_PARTS = st.integers(-60, 60)


@settings(max_examples=300, deadline=None)
@given(_PARTS, _PARTS, _PARTS, _PARTS)
def test_int_parts_and_fraction_parts_agree(a, b, c, d):
    """A QI keeps int parts as ints, and behaves exactly as the same value
    with Fraction parts: + - * /, ==, hash and the wire format agree, and
    division gives Fraction parts, never floats."""
    x, y = QI(a, b), QI(c, d)
    fx, fy = QI(Fraction(a), Fraction(b)), QI(Fraction(c), Fraction(d))
    assert (type(x.re), type(x.im)) == (int, int)
    assert x == fx and hash(x) == hash(fx) and format_scalar(x) == format_scalar(fx)
    for op in (operator.add, operator.sub, operator.mul):
        for got, want in ((op(x, y), op(fx, fy)), (op(x, c), op(fx, Fraction(c))),
                          (op(c, x), op(Fraction(c), fx))):
            assert (type(got.re), type(got.im)) == (int, int)
            assert got == want and hash(got) == hash(want)
            assert format_scalar(got) == format_scalar(want)
    quotients = []
    if y:
        quotients.append((x / y, fx / fy))
    if c:
        quotients.append((x / c, fx / Fraction(c)))
    if x:
        quotients.append((c / x, Fraction(c) / fx))
    for got, want in quotients:
        assert (type(got.re), type(got.im)) == (Fraction, Fraction)
        assert got == want and hash(got) == hash(want)
        assert format_scalar(got) == format_scalar(want)
    real = QI(a)
    assert type(real.to_fraction()) is Fraction and real.to_fraction() == a
    assert type(promote(real, FIELD_Q)) is Fraction


def test_parse_scalar_reads_the_wire_format_only():
    assert parse_scalar(" -3/4 ") == Fraction(-3, 4)
    assert parse_scalar("1/2-3 i", FIELD_QI) == QI(Fraction(1, 2), -3)
    # Fraction alone would read decimals and exponents, and 1e999999999
    # would expand to a billion digits
    for text in ("1e999999999", "0.5", "1_000", "", "2+1e9 i"):
        with pytest.raises(ValueError):
            parse_scalar(text, FIELD_QI)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")
