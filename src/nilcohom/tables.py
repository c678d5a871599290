"""Structure-table text: ``ab = c, ac = d`` with optional parameters.

Basis vectors are the first ``n`` lowercase letters (a -> e_1, b -> e_2, ...).
Coefficients are arithmetic expressions in integers, declared parameter
symbols (single letters such as r, t, each declared once and none a basis
letter) and the imaginary unit ``i`` (when ``i`` is neither a basis letter
nor a parameter).  Juxtaposition multiplies,
``^`` takes integer powers, ``/`` divides by a constant, so ``be = rtf+(1-t)g``
and ``ad = (1+t^3/2)f`` mean what they do in print.  With the chart variables
``t_{i,j,k}`` as its only symbols, the grammar reads chart polynomials.

Parsing produces a :class:`~nilcohom.liealg.StructureConstants` over the
field "sym", whose coefficients are polynomials in the parameters; its
``evaluate`` at rational (or Gaussian) parameter values gives the exact
table over Q or Q(i), and its ``derivative`` in a parameter is exact.

Any text either parses or raises :class:`TableError`, and quickly: nesting
is capped, an integer literal or a power or product whose closed-form size
bound passes a cap is refused before it is expanded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import TableError
from .liealg import StructureConstants
from .polynomials import MultiPoly
from .scalars import QI

# Caps that keep every text cheap to parse: parentheses and signs nest at
# most _MAX_NESTING deep, and a power or a product is refused before it is
# expanded when the closed-form bound on its size passes a cap.
_MAX_NESTING = 50
_MAX_DEGREE = 64
_MAX_TERMS = 1_000
_MAX_BITS = 10_000
_MAX_PRODUCTS = 10_000  # coefficient products spent on one power
_SIZE_CAPS = f"degree {_MAX_DEGREE}, {_MAX_TERMS} terms, {_MAX_BITS}-bit coefficients"


def _bits(c):
    if isinstance(c, QI):
        return max(_bits(c.re), _bits(c.im))
    c = Fraction(c)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _coeff_bits(p):
    """The bits of p's widest coefficient plus log2 of its term count."""
    return max(map(_bits, p.terms.values())) + len(p.terms).bit_length()


def _product_too_large(p, q):
    """Whether p * q may pass a cap: it has degree deg p + deg q, at most
    len p * len q terms and coefficients of at most the sum of their ``_coeff_bits``."""
    return bool(p.terms and q.terms) and (
        p.degree() + q.degree() > _MAX_DEGREE
        or len(p.terms) * len(q.terms) > _MAX_TERMS
        or _coeff_bits(p) + _coeff_bits(q) > _MAX_BITS
    )


def _power_too_large(p, e):
    """Whether p^e may pass a cap: it has degree e * deg p, at most
    comb(len + e - 1, e) terms, coefficients of at most e * ``_coeff_bits``
    bits, and square-and-multiply spends at most ``_chain_products`` products
    of coefficients on it."""
    if not p.terms or e == 0:
        return False
    terms = len(p.terms)
    return (
        e * p.degree() > _MAX_DEGREE
        or e * _coeff_bits(p) > _MAX_BITS
        or comb(terms + e - 1, e) > _MAX_TERMS
        or _chain_products(terms, e) > _MAX_PRODUCTS
    )


def _chain_products(terms, e):
    """A bound on the coefficient products of ``MultiPoly.__pow__`` raising a
    polynomial of ``terms`` terms to the power e: each step multiplies two
    powers p^j and p^k, which costs at most size(j) * size(k) products, with
    size(j) = comb(terms + j - 1, j) the bound on the terms of p^j."""

    def size(j):
        return comb(terms + j - 1, j)

    total = 0
    done, base = 0, 1  # the exponents of the result so far and of the base
    while e:
        if e & 1:
            total += size(done) * size(base)
            done += base
        e >>= 1
        if e:
            total += size(base) ** 2
            base *= 2
    return total


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __str__(self):
        return "end of input" if self.kind == "end" else repr(self.value)


def _tokenize(src):
    toks = []
    line, col = 1, 1
    idx = 0
    while idx < len(src):
        ch = src[idx]
        if ch == "\n":
            toks.append(_Tok("sep", "\n", line, col))
            line += 1
            col = 1
            idx += 1
            continue
        if ch in " \t\r":
            idx += 1
            col += 1
            continue
        if ch in "0123456789":
            start = idx
            while idx < len(src) and src[idx] in "0123456789":
                idx += 1
            toks.append(_Tok("num", _literal(src[start:idx], line, col), line, col))
            col += idx - start
            continue
        if src.startswith("t_", idx):
            m = re.compile(r"t_\{ *([0-9]+) *, *([0-9]+) *, *([0-9]+) *\}").match(src, idx)
            if not m:
                raise TableError("malformed chart variable (expected t_{i,j,k})", line, col)
            toks.append(_Tok("var", tuple(_literal(g, line, col) for g in m.groups()), line, col))
            col += m.end() - idx
            idx = m.end()
            continue
        if ch.isalpha():
            toks.append(_Tok("sym", ch, line, col))
            idx += 1
            col += 1
            continue
        if ch in ",;":
            toks.append(_Tok("sep", ch, line, col))
        elif ch in "+-*/^()=":
            toks.append(_Tok(ch, ch, line, col))
        else:
            raise TableError(f"unexpected character {ch!r}", line, col)
        idx += 1
        col += 1
    toks.append(_Tok("end", None, line, col))
    return toks


def _literal(digits, line, col):
    """A run of ASCII digits, refused past the coefficient cap (3 < log2 10, so
    a longer run than _MAX_BITS // 3 has more bits, and ``int`` reads it fast)."""
    if len(digits) > _MAX_BITS // 3 or int(digits).bit_length() > _MAX_BITS:
        raise TableError(f"integer literal longer than {_MAX_BITS} bits", line, col)
    return int(digits)


class _Val:
    """Either a pure scalar polynomial or a linear combination of letters."""

    __slots__ = ("scal", "vec")

    def __init__(self, scal=None, vec=None):
        self.scal = scal if scal is not None else MultiPoly()
        self.vec = vec or {}

    def is_scalar(self):
        return not self.vec


class _Parser:
    """Reads table text over ``n`` basis letters, or with ``n=None`` a chart
    polynomial: ``t_{i,j,k}`` variables and no letters, parameters or i."""

    def __init__(self, src, n, params=()):
        self.chart = n is None
        if not self.chart and not 1 <= n <= 26:
            raise TableError(f"dimension {n} outside 1..26")
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.n = n or 0
        self.params = set()
        for p in params:
            if not (len(p) == 1 and p.isalpha()):
                raise TableError(f"parameter symbol {p!r} is not one letter")
            if self._letter_index(p) is not None:
                raise TableError(f"parameter symbol {p!r} is a basis letter")
            if p in self.params:
                raise TableError(f"parameter symbol {p!r} is declared twice")
            self.params.add(p)
        self.allow_i = "i" not in self.params and self._letter_index("i") is None

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok.kind != kind:
            raise TableError(f"expected {kind!r}, found {tok}", tok.line, tok.col)
        self.pos += 1
        return tok

    def _letter_index(self, ch):
        k = ord(ch) - ord("a")
        return k if 0 <= k < self.n else None

    # -- expressions ---------------------------------------------------------

    def whole(self):
        val = self.expr()
        end = self.peek()
        if end.kind != "end":
            raise TableError(f"trailing input {end}", end.line, end.col)
        return val

    def expr(self):
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            val = self._neg(self.term())
        elif tok.kind == "+":
            self.take()
            val = self.term()
        else:
            val = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            if op == "-":
                rhs = self._neg(rhs)
            val = self._add(val, rhs)
        return val

    def term(self):
        val = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.take()
                val = self._mul(val, self.factor(), tok)
            elif tok.kind == "/":
                self.take()
                val = self._div(val, self.factor(), tok)
            elif tok.kind in ("num", "sym", "var", "("):
                val = self._mul(val, self.factor(), tok)
            else:
                return val

    def factor(self):
        # every nested parenthesis and sign passes through here
        if self.depth == _MAX_NESTING:
            tok = self.peek()
            raise TableError(f"expression nested deeper than {_MAX_NESTING}", tok.line, tok.col)
        self.depth += 1
        val = self._factor()
        self.depth -= 1
        return val

    def _factor(self):
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            return self._neg(self.factor())
        base = self.primary()
        if self.peek().kind == "^":
            self.take()
            etok = self.take("num")
            if not base.is_scalar():
                raise TableError("cannot raise a basis vector to a power", etok.line, etok.col)
            if _power_too_large(base.scal, etok.value):
                raise TableError(
                    f"power too large (caps: {_SIZE_CAPS}, {_MAX_PRODUCTS} coefficient products)",
                    etok.line,
                    etok.col,
                )
            return _Val(base.scal ** etok.value)
        return base

    def primary(self):
        tok = self.take()
        if tok.kind == "num":
            return _Val(MultiPoly.const(tok.value))
        if tok.kind == "(":
            val = self.expr()
            self.take(")")
            return val
        if tok.kind == "var":
            if not self.chart:
                raise TableError("chart variable t_{i,j,k} in table text", tok.line, tok.col)
            return _Val(MultiPoly.var(tok.value))
        if tok.kind == "sym" and not self.chart:
            ch = tok.value
            idx = self._letter_index(ch)
            if idx is not None:
                return _Val(vec={idx: MultiPoly.const(1)})
            if ch in self.params:
                return _Val(MultiPoly.var(ch))
            if ch == "i" and self.allow_i:
                return _Val(MultiPoly.const(QI(0, 1)))
            raise TableError(
                f"unknown symbol {ch!r} (not a basis letter a..{chr(ord('a') + self.n - 1)},"
                f" not a declared parameter)",
                tok.line,
                tok.col,
            )
        raise TableError(f"unexpected {tok}", tok.line, tok.col)

    @staticmethod
    def _neg(v):
        return _Val(-v.scal, {k: -p for k, p in v.vec.items()})

    @staticmethod
    def _add(a, b):
        vec = dict(a.vec)
        for k, p in b.vec.items():
            s = vec.get(k, MultiPoly()) + p
            if s:
                vec[k] = s
            elif k in vec:
                del vec[k]
        return _Val(a.scal + b.scal, vec)

    @staticmethod
    def _mul(a, b, tok):
        if not a.is_scalar() and not b.is_scalar():
            raise TableError("product of two basis-vector expressions", tok.line, tok.col)
        if b.is_scalar():
            a, b = b, a
        if any(_product_too_large(a.scal, p) for p in (b.scal, *b.vec.values())):
            raise TableError(f"product too large (caps: {_SIZE_CAPS})", tok.line, tok.col)
        return _Val(a.scal * b.scal, {k: a.scal * p for k, p in b.vec.items()})

    @staticmethod
    def _div(a, b, tok):
        if not b.is_scalar():
            raise TableError("division by a basis-vector expression", tok.line, tok.col)
        c = b.scal.as_scalar()
        if c is None:
            raise TableError("division by a non-constant coefficient", tok.line, tok.col)
        if not c:
            raise TableError("division by zero", tok.line, tok.col)
        return _Val(a.scal / c, {k: p / c for k, p in a.vec.items()})


def parse_symbolic(src, n, params=()) -> StructureConstants:
    """Table text over ``n`` letters, its coefficients polynomials in the
    parameter symbols ``params``."""
    parser = _Parser(src, n, params)
    entries = {}
    while True:
        while parser.peek().kind == "sep":
            parser.take()
        if parser.peek().kind == "end":
            break
        t1 = parser.take("sym")
        t2 = parser.take("sym")
        i = parser._letter_index(t1.value)
        j = parser._letter_index(t2.value)
        if i is None:
            raise TableError(f"unknown basis letter {t1.value!r}", t1.line, t1.col)
        if j is None:
            raise TableError(f"unknown basis letter {t2.value!r}", t2.line, t2.col)
        if i == j:
            raise TableError(f"bracket of {t1.value!r} with itself", t1.line, t1.col)
        parser.take("=")
        val = parser.expr()
        if val.scal:
            raise TableError(
                "right-hand side has a scalar part (not a combination of letters)",
                t1.line,
                t1.col,
            )
        coeffs = val.vec
        if i > j:
            i, j, coeffs = j, i, {k: -p for k, p in coeffs.items()}
        if (i, j) in entries:
            raise TableError(f"bracket {t1.value}{t2.value} defined twice", t1.line, t1.col)
        entries[(i, j)] = coeffs
    return StructureConstants(n, entries, "sym", params=params)


def parse_table(src, n, params=None):
    """Parse and evaluate at the given parameter assignment (may be empty)."""
    assignment = dict(params or {})
    return parse_symbolic(src, n, tuple(assignment)).evaluate(assignment)


def parse_vector(src, n, params=()):
    """A basis-vector expression like ``2t(tb-d)`` -> length-n coefficient list."""
    val = _Parser(src, n, params).whole()
    if val.scal:
        raise TableError("expression is not a vector (has a scalar part)")
    out = [MultiPoly() for _ in range(n)]
    for k, p in val.vec.items():
        out[k] = p
    return out


def parse_tpoly(text) -> MultiPoly:
    """A chart polynomial in the ``t_{i,j,k}`` notation of ``format_poly``, such
    as ``t_{1,2,3}t_{3,4,5} - 2t_{1,2,4}^2``: nothing may follow it."""
    return _Parser(text, None).whole().scal
