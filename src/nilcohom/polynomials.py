"""Sparse multivariate polynomials with exact coefficients.

Variables are arbitrary hashable, totally ordered labels; structure-constant
polynomials use 1-based index triples ``(i, j, k)`` (printed ``t_{i,j,k}`` by
:func:`format_poly` and read back by :func:`nilcohom.tables.parse_tpoly`)
while parametric structure tables use single-character symbols like ``r``
and ``t``.  A monomial is a tuple of ``(variable, exponent)`` pairs sorted by
variable.  Integer coefficients are ints, so polynomials over Z run on int
arithmetic; a coefficient is a Fraction only where a division made it one, or
a QI where a table needs i.  Equal values hash equal, so they share one dict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .scalars import QI


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(mono):
    return sum(e for _, e in mono)


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    @classmethod
    def const(cls, c):
        c = c if isinstance(c, (int, QI)) else Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v):
        return cls({((v, 1),): 1})

    @classmethod
    def term(cls, coeff, mono):
        mono = tuple(sorted((v, e) for v, e in mono if e))
        return cls({mono: coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        out = MultiPoly.__new__(MultiPoly)
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
        out = MultiPoly.__new__(MultiPoly)
        out.terms = res
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not c:
            return MultiPoly()
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def __truediv__(self, c):
        if not c:
            raise ZeroDivisionError("division by zero")
        return self.scale(1 / (Fraction(c) if isinstance(c, int) else c))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        out = MultiPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, QI)):
            return self.terms == MultiPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        """As ``__eq__``: a constant polynomial hashes as its scalar."""
        c = self.as_scalar()
        return hash(frozenset(self.terms.items()) if c is None else c)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def as_scalar(self):
        """The constant value if the polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    # -- calculus and evaluation ---------------------------------------------

    def substitute(self, assignment):
        """Evaluation homomorphism on the assigned variables only; values may
        be scalars or MultiPoly, and unassigned variables survive."""
        out = MultiPoly()
        for mono, coeff in self.terms.items():
            rest = tuple(ve for ve in mono if ve[0] not in assignment)
            term = prod((assignment[v] for v, e in mono if v in assignment for _ in range(e)),
                        start=MultiPoly({rest: coeff}))
            for m, c in term.terms.items():
                s = out.terms.get(m, 0) + c
                if s:
                    out.terms[m] = s
                else:
                    del out.terms[m]
        return out

    def evaluate(self, assignment):
        """The scalar value (KeyError names an unassigned variable); a sum
        that vanishes is the int 0, so a zero Gaussian value is no QI, which
        would put a basis over Q(i) (``liealg._square`` reads the types)."""
        total = 0
        for mono, c in self.terms.items():
            c = prod((assignment[v] for v, e in mono for _ in range(e)), start=c)
            total = (total + c or 0) if c else total
        return total

    def diff(self, var):
        res = {}
        for mono, coeff in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        m = mono[:idx] + mono[idx + 1 :]
                    else:
                        m = mono[:idx] + ((v, e - 1),) + mono[idx + 1 :]
                    res[m] = res.get(m, 0) + coeff * e
                    break
        return MultiPoly({m: c for m, c in res.items() if c})

    # -- normal forms ---------------------------------------------------------

    def primitive(self):
        """Divide by the rational content; fix sign by the largest monomial.

        Two polynomials are scalar multiples of each other iff their
        primitive forms are equal.  Rational coefficients only; those of the
        primitive form are ints.
        """
        if not self.terms:
            return self
        content = rational_content(self.terms.values())
        num, den = content.numerator, content.denominator
        if self.terms[max(self.terms)] < 0:
            num = -num
        # c / content is an integer, so the floor division is exact
        return MultiPoly({m: c * den // num for m, c in self.terms.items()})

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def rational_content(coeffs):
    """The positive content of nonzero rational ``coeffs``: the gcd of their
    numerators over the lcm of their denominators."""
    num, den = 0, 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    return Fraction(num, den)


def distinct_primitive(polys):
    """The primitive forms of the nonzero ``polys``, one for each set of
    scalar multiples, in the order first seen."""
    return list(dict.fromkeys(p.primitive() for p in polys if p))


def format_var(v) -> str:
    if isinstance(v, tuple):
        return "t_{" + ",".join(str(x) for x in v) + "}"
    return str(v)


def format_poly(p: MultiPoly) -> str:
    """Render in the structure-constant notation, e.g. "t_{1,2,3}*t_{3,4,5}"."""
    if not p.terms:
        return "0"
    chunks = []
    for mono in sorted(p.terms, reverse=True):
        c = p.terms[mono]
        factors = []
        for v, e in mono:
            factors.append(format_var(v) if e == 1 else f"{format_var(v)}^{e}")
        body = "*".join(factors)
        if not body:
            chunk = str(c)
        elif c == 1:
            chunk = body
        elif c == -1:
            chunk = "-" + body
        else:
            chunk = f"{c}*{body}"
        chunks.append(chunk)
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out

