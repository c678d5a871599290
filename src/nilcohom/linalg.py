"""Exact sparse linear algebra over Q and Q(i).

Ranks, kernels and solutions come from one online row echelon,
:class:`RowBasis`.  Rows are sparse ``{col: value}`` dicts, and every
retained (pivot) row is kept fully reduced: it is zero in the lead column of
every other retained row.  An incoming row therefore needs one elimination
per pivot column among its own nonzeros, each touching only that pivot row's
nonzeros; a row that survives is normalized, kept, and its lead column is
cleared from the retained rows that have it.  At most ``ncols`` rows are ever
held, however many stream by.

Two scalar rules share that algorithm:

* the integral mode, used over Q: each row is scaled to integers (per-row
  scaling changes neither rank nor row space), eliminations cross-multiply
  without fractions, and a retained row is primitive with a positive lead;
* the field mode, used over Q(i): a retained row is monic.

The retained rows sorted by lead are the reduced row echelon form of
everything added, each row scaled by that rule, so they do not depend on the
order the rows arrived in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .scalars import FIELD_Q, FIELD_QI, QI, join_fields, promote


def backend() -> str:
    """Name of the row-reduction implementation, recorded in benchmark stamps."""
    return "python"


@dataclass(frozen=True)
class RankProfile:
    rank: int
    pivot_cols: tuple

    def __post_init__(self):
        assert self.rank == len(self.pivot_cols)


class ExactMatrix:
    """Sparse exact matrix; entries all Fraction or all QI, zeros never stored."""

    __slots__ = ("nrows", "ncols", "entries", "field")

    def __init__(self, nrows, ncols, entries=None, field=FIELD_Q):
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise DimensionMismatch(f"entry ({r},{c}) outside {nrows}x{ncols}")
                v = promote(v, field)
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_dense(cls, rows, field=FIELD_Q):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("ragged dense matrix")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries, field)

    @classmethod
    def identity(cls, n, field=FIELD_Q):
        return cls(n, n, {(i, i): 1 for i in range(n)}, field)

    def row(self, r):
        return {c: v for (rr, c), v in self.entries.items() if rr == r}

    def iter_rows(self):
        """Yield (cols, vals) per row, cols ascending, in row order."""
        buckets = [[] for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            buckets[r].append((c, v))
        for pairs in buckets:
            pairs.sort()
            yield [c for c, _ in pairs], [v for _, v in pairs]

    def transpose(self):
        return ExactMatrix(
            self.ncols,
            self.nrows,
            {(c, r): v for (r, c), v in self.entries.items()},
            self.field,
        )

    def stack(self, other):
        """Rows of ``self`` on top of rows of ``other``."""
        if self.ncols != other.ncols:
            raise DimensionMismatch("stacking matrices of different widths")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r + self.nrows, c)] = v
        field = join_fields(self.field, other.field)
        return ExactMatrix(self.nrows + other.nrows, self.ncols, entries, field)

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length does not match ncols")
        zero = _zero(self.field)
        out = [zero] * self.nrows
        for (r, c), a in self.entries.items():
            if v[c]:
                out[r] = out[r] + a * v[c]
        return out

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        field = join_fields(self.field, other.field)
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        entries = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                entries[key] = entries.get(key, 0) + a * b
        return ExactMatrix(self.nrows, other.ncols, entries, field)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def _zero(field):
    return QI(0) if field == FIELD_QI else Fraction(0)


def _one(field):
    return QI(1) if field == FIELD_QI else Fraction(1)


def int_cleared(vals):
    """Scale a list of Fractions/ints by the lcm of denominators -> ints."""
    den = 1
    for v in vals:
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in vals]


class RowBasis:
    """Online sparse row echelon with every retained row fully reduced.

    Rows are ``{col: value}`` dicts without zero values.  In the integral
    mode values are ints and retained rows are primitive with a positive
    lead; otherwise values are Fractions or QIs and retained rows are monic.
    """

    __slots__ = ("ncols", "integral", "_rows")

    def __init__(self, ncols, integral=False):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self.integral = integral
        self._rows = {}  # lead column -> retained row

    @property
    def rank(self):
        return len(self._rows)

    def pivot_cols(self):
        return sorted(self._rows)

    def sparse_rows(self):
        """Retained rows (copies) sorted by lead."""
        return [dict(self._rows[j]) for j in sorted(self._rows)]

    def basis_rows(self):
        """Retained rows as dense lists, sorted by lead."""
        out = []
        for j in sorted(self._rows):
            dense = [0] * self.ncols
            for c, v in self._rows[j].items():
                dense[c] = v
            out.append(dense)
        return out

    def add(self, row):
        """Reduce ``row`` (consumed) and keep it if it stays nonzero.

        Returns True iff the rank grew.
        """
        rows = self._rows
        integral = self.integral
        # eliminating one pivot column leaves every other pivot column of the
        # row as it was (up to a common factor), so the hits are fixed upfront
        for j in [j for j in row if j in rows]:
            piv = rows[j]
            b = row[j]
            if integral:
                a = piv[j]
                if a != 1:
                    g = gcd(a, b)
                    if g != a:
                        m = a // g
                        for c in row:
                            row[c] *= m
                    b //= g
            _sub_multiple(row, b, piv)
        if not row:
            return False
        lead = min(row)
        if integral:
            g = gcd(*row.values())
            if row[lead] < 0:
                g = -g
            if g != 1:
                for c in row:
                    row[c] //= g
        else:
            inv = row[lead]
            if inv != 1:
                for c in row:
                    row[c] = row[c] / inv
        a = row[lead]
        for prow in rows.values():
            b = prow.get(lead)
            if not b:
                continue
            if integral:
                g = gcd(a, b)
                m = a // g
                if m != 1:
                    for c in prow:
                        prow[c] *= m
                _sub_multiple(prow, b // g, row)
                g = gcd(*prow.values())
                if g != 1:
                    for c in prow:
                        prow[c] //= g
            else:
                _sub_multiple(prow, b, row)
        rows[lead] = row
        return True

    def to_field(self):
        """Switch to the field mode in place: every retained row made monic."""
        if self.integral:
            for j, row in self._rows.items():
                a = row[j]
                self._rows[j] = {c: Fraction(v, a) for c, v in row.items()}
            self.integral = False


def _sub_multiple(row, b, other):
    """row -= b * other, in place, dropping the entries that cancel."""
    for c, v in other.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]


class _Reducer:
    """Feeds rows of ints, Fractions and QIs to a RowBasis: in the integral
    mode over Q, each row cleared of denominators; in the field mode over
    Q(i), switching to it in place if a Gaussian entry shows up mid-stream."""

    __slots__ = ("ncols", "basis")

    def __init__(self, ncols, field=FIELD_Q):
        self.ncols = ncols
        self.basis = RowBasis(ncols, integral=field == FIELD_Q)

    def add_row(self, cols, vals):
        """Reduce the row with ``vals`` at ``cols``; True iff the rank grew."""
        basis = self.basis
        if basis.integral:
            den = 1
            exact = True
            for v in vals:
                if type(v) is not int:
                    if isinstance(v, QI):
                        basis.to_field()
                        break
                    exact = False
                    den = lcm(den, v.denominator)
            else:
                if exact:
                    return basis.add({c: v for c, v in zip(cols, vals) if v})
                return basis.add({
                    c: v.numerator * (den // v.denominator) for c, v in zip(cols, vals) if v
                })
        return basis.add({
            c: v if isinstance(v, (Fraction, QI)) else Fraction(v)
            for c, v in zip(cols, vals)
            if v
        })

    @property
    def rank(self):
        return self.basis.rank

    def pivot_cols(self):
        return self.basis.pivot_cols()

    def basis_rows(self):
        return self.basis.basis_rows()

    def sparse_rows(self):
        return self.basis.sparse_rows()


def _sparse_from(rowlike, ncols):
    """Normalize a dense sequence or {col: val} dict to (cols, vals)."""
    if isinstance(rowlike, dict):
        if rowlike and (min(rowlike) < 0 or max(rowlike) >= ncols):
            raise DimensionMismatch(f"column index outside 0..{ncols - 1}")
        return rowlike.keys(), rowlike.values()
    row = list(rowlike)
    if len(row) != ncols:
        raise DimensionMismatch(f"row has length {len(row)}, expected {ncols}")
    cols = [c for c, v in enumerate(row) if v]
    return cols, [row[c] for c in cols]


def streaming_rank(rows, ncols, field=FIELD_Q):
    """Rank of the stacked matrix of ``rows`` without materializing it.

    ``rows`` is any iterable of dense sequences (length ``ncols``) or sparse
    {col: value} dicts.  Deterministic, memory bounded by ncols**2 entries.
    """
    return reduce_rows(rows, ncols, field).rank


def reduce_rows(rows, ncols, field=FIELD_Q):
    """Like streaming_rank but returns the reducer (basis rows, pivots)."""
    red = _Reducer(ncols, field)
    for rowlike in rows:
        cols, vals = _sparse_from(rowlike, ncols)
        if cols:
            red.add_row(cols, vals)
    return red


def rank(m: ExactMatrix) -> RankProfile:
    """Exact rank with the (sorted) pivot-column profile."""
    red = _Reducer(m.ncols, m.field)
    for cols, vals in m.iter_rows():
        if cols:
            red.add_row(cols, vals)
    return RankProfile(red.rank, tuple(red.pivot_cols()))


def kernel_basis(m: ExactMatrix):
    """Vectors spanning Ker(m); count is always ncols - rank.

    One vector per free column f: e_f minus, for every pivot row, its entry
    in column f over its lead, placed at the lead.
    """
    red = _Reducer(m.ncols, m.field)
    for cols, vals in m.iter_rows():
        if cols:
            red.add_row(cols, vals)
    field = m.field
    one, zero = _one(field), _zero(field)
    rows = [(min(row), row) for row in red.sparse_rows()]
    pivot_set = {p for p, _ in rows}
    out = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = [zero] * m.ncols
        v[f] = one
        for p, row in rows:
            if f in row:
                v[p] = promote(-row[f], field) / row[p]
        out.append(v)
    return out


def solve(a: ExactMatrix, b):
    """One exact solution of a @ x = b, or None if the system is inconsistent.

    The free variables are 0, which is the solution the reduced row echelon
    form of [a | b] reads off.
    """
    if len(b) != a.nrows:
        raise DimensionMismatch("rhs length does not match nrows")
    field = a.field
    if any(isinstance(v, QI) for v in b):
        field = FIELD_QI
    n = a.ncols
    red = _Reducer(n + 1, field)
    for i, (cols, vals) in enumerate(a.iter_rows()):
        if b[i]:
            cols = cols + [n]
            vals = vals + [b[i]]
        if cols:
            red.add_row(cols, vals)
    x = [_zero(field)] * n
    for row in red.sparse_rows():
        p = min(row)
        if p == n:
            return None
        if n in row:
            x[p] = promote(row[n], field) / row[p]
    return x


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix; raises SingularMatrix."""
    from .errors import SingularMatrix

    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    field = m.field
    red = _Reducer(2 * n, field)
    one = _one(field)
    for i, (cols, vals) in enumerate(m.iter_rows()):
        red.add_row(cols + [n + i], vals + [one])
    if red.pivot_cols() != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    entries = {}
    for r, row in enumerate(red.sparse_rows()):
        for c, v in row.items():
            if c >= n:
                entries[(r, c - n)] = promote(v, field) / row[r]
    return ExactMatrix(n, n, entries, field)


def dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def in_kernel(vec, rows):
    """True iff vec is orthogonal to every row, i.e. M @ vec = 0 for any
    matrix whose row space those rows span.  Rows are {col: value} dicts or
    dense lists.  Only the nonzeros of vec are visited, and a rational vec is
    cleared of denominators first, so against integral rows every product is
    an integer one."""
    cols = [c for c, x in enumerate(vec) if x]
    vals = [vec[c] for c in cols]
    if not any(isinstance(x, QI) for x in vals):
        vals = int_cleared(vals)
    terms = list(zip(cols, vals))
    for row in rows:
        if isinstance(row, dict):
            acc = sum(row[c] * x for c, x in terms if c in row)
        else:
            acc = sum(row[c] * x for c, x in terms if row[c])
        if acc:
            return False
    return True
