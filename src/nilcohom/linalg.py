"""Exact sparse linear algebra over Q and Q(i).

Ranks and kernels are computed by an online row echelon: every incoming row
is reduced against the retained basis and kept only if it is nonzero, so at
most ``ncols`` rows are ever held.  Over Q the rows are cleared to integers
and handed to the integer kernel (compiled when available, pure Python
otherwise); over Q(i) a generic field reducer is used.  Per-row scaling by a
nonzero constant changes neither rank nor kernel, which is what makes the
integer path exact.

Set ``NILCOHOM_PURE_PYTHON=1`` to force the fallback kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch
from .scalars import FIELD_Q, FIELD_QI, QI, join_fields, promote

if os.environ.get("NILCOHOM_PURE_PYTHON"):
    from . import _rowred_py as _kernel
else:
    try:
        from . import _rowred as _kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _rowred_py as _kernel

IntRowBasis = _kernel.IntRowBasis


def backend() -> str:
    """Name of the row-reduction kernel in use: "compiled" or "python"."""
    return _kernel.BACKEND


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
    if den == 1:
        return [int(v) for v in vals]
    return [int(v * den) for v in vals]


class FieldRowBasis:
    """Online echelon over an arbitrary exact field; rows kept monic."""

    __slots__ = ("ncols", "rows", "leads", "_row_at")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.leads = []
        self._row_at = [-1] * ncols

    @property
    def rank(self):
        return len(self.rows)

    def pivot_cols(self):
        return sorted(self.leads)

    def basis_rows(self):
        return [row[:] for row in self.rows]

    def add_dense(self, row):
        n = self.ncols
        if len(row) != n:
            raise DimensionMismatch(f"row has length {len(row)}, expected {n}")
        j = 0
        while j < n and not row[j]:
            j += 1
        while j < n:
            p = self._row_at[j]
            if p < 0:
                inv = row[j]
                row[j:] = [v / inv for v in row[j:]]
                self._row_at[j] = len(self.rows)
                self.rows.append(row)
                self.leads.append(j)
                return True
            piv = self.rows[p]
            f = row[j]
            for k in range(j, n):
                row[k] = row[k] - f * piv[k]
            j += 1
            while j < n and not row[j]:
                j += 1
        return False


class _Reducer:
    """Dispatches rows to the integer kernel, promoting to the generic field
    reducer if a Gaussian entry shows up mid-stream."""

    __slots__ = ("ncols", "basis", "_int_mode")

    def __init__(self, ncols, field=FIELD_Q):
        self.ncols = ncols
        self._int_mode = field == FIELD_Q
        self.basis = IntRowBasis(ncols) if self._int_mode else FieldRowBasis(ncols)

    def _promote(self):
        fb = FieldRowBasis(self.ncols)
        for row in self.basis.basis_rows():
            fb.add_dense([Fraction(v) for v in row])
        self.basis = fb
        self._int_mode = False

    def add_row(self, cols, vals):
        if self._int_mode:
            if any(isinstance(v, QI) for v in vals):
                self._promote()
            else:
                return self.basis.add_sparse(cols, int_cleared(vals))
        # field rows may mix Fraction and QI; arithmetic promotes as needed
        row = [Fraction(0)] * self.ncols
        for c, v in zip(cols, vals):
            row[c] = v if isinstance(v, (Fraction, QI)) else Fraction(v)
        return self.basis.add_dense(row)

    @property
    def rank(self):
        return self.basis.rank

    def pivot_cols(self):
        return self.basis.pivot_cols()

    def basis_rows(self):
        return self.basis.basis_rows()


def _sparse_from(rowlike, ncols):
    """Normalize a dense sequence or {col: val} dict to (cols, vals)."""
    if isinstance(rowlike, dict):
        cols = sorted(rowlike)
        if cols and (cols[0] < 0 or cols[-1] >= ncols):
            raise DimensionMismatch(f"column index outside 0..{ncols - 1}")
        vals = [rowlike[c] for c in cols]
        return cols, vals
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
    red = _Reducer(ncols, field)
    for rowlike in rows:
        cols, vals = _sparse_from(rowlike, ncols)
        if cols:
            red.add_row(cols, vals)
    return red.rank


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


def _rref(basis_rows, ncols, field):
    """Full reduction of an echelon basis: monic rows sorted by lead, each
    pivot column cleared from the other rows.  Returns (rows, leads)."""
    rows = []
    for row in basis_rows:
        row = [promote(v, field) for v in row]
        rows.append(row)
    leads = []
    for row in rows:
        j = 0
        while j < ncols and not row[j]:
            j += 1
        leads.append(j)
    order = sorted(range(len(rows)), key=lambda i: leads[i])
    rows = [rows[i] for i in order]
    leads = [leads[i] for i in order]
    for i, row in enumerate(rows):
        j = leads[i]
        inv = row[j]
        if inv != 1:
            rows[i] = row = [v / inv for v in row]
        for i2 in range(len(rows)):
            if i2 != i and rows[i2][j]:
                f = rows[i2][j]
                rows[i2] = [a - f * b for a, b in zip(rows[i2], row)]
    return rows, leads


def kernel_basis(m: ExactMatrix):
    """Vectors spanning Ker(m); count is always ncols - rank."""
    red = _Reducer(m.ncols, m.field)
    for cols, vals in m.iter_rows():
        if cols:
            red.add_row(cols, vals)
    return kernel_from_reduced(red.basis_rows(), m.ncols, m.field)


def kernel_from_reduced(basis_rows, ncols, field=FIELD_Q):
    """Kernel basis of any matrix whose row space is spanned by basis_rows."""
    rows, leads = _rref(basis_rows, ncols, field)
    pivot_set = set(leads)
    one, zero = _one(field), _zero(field)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(rows, leads):
            if row[f]:
                v[p] = -row[f]
        out.append(v)
    return out


def solve(a: ExactMatrix, b):
    """One exact solution of a @ x = b, or None if the system is inconsistent."""
    if len(b) != a.nrows:
        raise DimensionMismatch("rhs length does not match nrows")
    field = a.field
    if any(isinstance(v, QI) for v in b):
        field = FIELD_QI
    red = _Reducer(a.ncols + 1, field)
    rows = a.iter_rows()
    for i, (cols, vals) in enumerate(rows):
        if b[i]:
            cols = cols + [a.ncols]
            vals = vals + [b[i]]
        if cols:
            red.add_row(cols, vals)
    # back-substitution on the echelon rows with the free variables at 0: the
    # same solution the reduced row echelon form reads off
    n = a.ncols
    rows = red.basis_rows()
    leads = [next(j for j, v in enumerate(row) if v) for row in rows]
    if n in leads:
        return None
    x = [_zero(field)] * n
    for p, row in sorted(zip(leads, rows), key=lambda t: t[0], reverse=True):
        acc = promote(row[n], field)
        for c in range(p + 1, n):
            if row[c] and x[c]:
                acc = acc - row[c] * x[c]
        x[p] = acc / row[p]
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
    rows, leads = _rref(red.basis_rows(), 2 * n, field)
    if leads != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    entries = {}
    for r, row in enumerate(rows):
        for c in range(n):
            if row[n + c]:
                entries[(r, c)] = row[n + c]
    return ExactMatrix(n, n, entries, field)


def dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def in_kernel(vec, basis_rows):
    """True iff vec is orthogonal to every retained row (i.e. M @ vec = 0
    for the matrix those rows were reduced from)."""
    return all(not dot(vec, row) for row in basis_rows)
