"""Exact scalars: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction``; the Gaussian field Q(i) is a thin
class over a pair of rational parts.  A part that is an ``int`` stays an
``int``, so Gaussian integers are multiplied as plain ints, and division
always goes through ``Fraction``, so it never gives a float.  Mixed
arithmetic promotes Fraction -> QI, never the other way around, so a QI may
be real; a table over Q holds it as a Fraction (:func:`promote`), and only a
nonreal value (:func:`is_nonreal`) puts a table over Q(i) undeclared.
"""

from __future__ import annotations

import re
from fractions import Fraction

FIELD_Q = "Q"
FIELD_QI = "Qi"

_RAT_TYPES = (int, Fraction)


class QI:
    """Gaussian rational a + b*i; each part an int or a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else Fraction(re)
        self.im = im if type(im) is int else Fraction(im)

    # -- ring/field operations -------------------------------------------

    def __add__(self, other):
        if isinstance(other, QI):
            return QI(self.re + other.re, self.im + other.im)
        if isinstance(other, _RAT_TYPES):
            return QI(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, QI):
            return QI(self.re - other.re, self.im - other.im)
        if isinstance(other, _RAT_TYPES):
            return QI(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RAT_TYPES):
            return QI(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QI):
            return QI(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _RAT_TYPES):
            return QI(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return QI(Fraction(self.re, other), Fraction(self.im, other))
        if isinstance(other, QI):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return (self * other.conjugate()) / n
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            return QI(other) / self
        return NotImplemented

    def conjugate(self):
        return QI(self.re, -self.im)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RAT_TYPES):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_fraction(self):
        """Explicit coercion to Fraction; rejects a nonzero imaginary part."""
        if is_nonreal(self):
            raise ValueError(f"{self} has a nonzero imaginary part")
        return Fraction(self.re)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def is_nonreal(x) -> bool:
    """Whether the scalar ``x`` has a nonzero imaginary part."""
    return isinstance(x, QI) and x.im != 0


def promote(x, field: str):
    """Coerce ``x`` into the given field tag ("Q" or "Qi")."""
    if field == FIELD_QI:
        return x if isinstance(x, QI) else QI(x)
    if isinstance(x, QI):
        return x.to_fraction()
    return Fraction(x)


def join_fields(*tags: str) -> str:
    return FIELD_QI if FIELD_QI in tags else FIELD_Q


def format_scalar(x) -> str:
    """Render a scalar in the wire format: "p/q" or "p/q+r/s i"."""
    if isinstance(x, QI):
        im = x.im
        sign = "-" if im < 0 else "+"
        return f"{_frac_str(x.re)}{sign}{_frac_str(abs(im))} i"
    return _frac_str(Fraction(x))


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# digits, signs, "/" and a final "i": no decimals or exponents, which
# Fraction also reads (1e999999999 would expand to a billion digits)
_WIRE = re.compile(r"[0-9/+\- ]*i?")


def parse_scalar(text: str, field: str = FIELD_Q):
    """Parse the wire format back into Fraction or QI (inverse of format)."""
    s = text.strip()
    if not _WIRE.fullmatch(s):
        raise ValueError(f"bad scalar: {text!r}")
    if s.endswith("i"):
        body = s[:-1].strip()
        # split at the sign that separates real and imaginary parts
        k = max(body.rfind("+"), body.rfind("-", 1))
        if k <= 0:
            raise ValueError(f"bad Gaussian scalar: {text!r}")
        real = Fraction(body[:k].strip())
        imag = Fraction((body[k] + body[k + 1 :]).strip().replace("+", ""))
        return QI(real, imag)
    val = Fraction(s)
    return QI(val) if field == FIELD_QI else val
