"""Exact sparse linear algebra over Q and Q(i).

Every exact span in the package (ranks, kernels, solutions, the series of
an algebra) is held by one online row echelon, :class:`RowBasis`.  Rows are
sparse ``{col: value}`` dicts of ints, Fractions or QIs, and every retained
(pivot) row is kept fully reduced: it is zero in the lead column of every
other retained row.  An incoming row therefore needs one elimination per
pivot column among its own nonzeros, each touching only that pivot row's
nonzeros; a row that survives is normalized, kept, and its lead column is
cleared from the retained rows that have it.  At most ``ncols`` rows are
ever retained, however many stream by.

That clearing (the back-substitution) costs one elimination per retained
row with a nonzero in the new lead column, each touching the entries of
that row and of the new one, so it grows with the density of the rows
that are kept.

Every stack in the package enters the echelon through ``reduce_rows`` (the
streams, ``rank``, ``solve``, the augmented rows of ``_integral_inverse``,
the terms of ``liealg._series``, and the echelons that
``liealg._generators`` and ``liealg._adapted_form`` start there and grow a
row at a time, the latter over the rows [b | e_t] of its basis, whose
inverse it reads off the same echelon; ``rank`` returns its RowBasis), and
no RowBasis is built anywhere else but the small one of ``rank_with``.  It
therefore reads its rows in windows of 4 * ncols + 1 and adds each window
sparsest row first, the order of sparse-first pivoting in structured
Gaussian elimination (LaMacchia and Odlyzko, "Solving large sparse linear
systems over finite fields", CRYPTO '90): sparse rows kept early keep the
retained rows sparse, so a later lead hits fewer of them.  One window is
held besides the retained rows.

A retained row of weight one, {j: 1}, retires its column, the first move
of structured Gaussian elimination in the same paper.  The echelon keeps
two views of its retained rows: the set of these unit leads, and the other
leads mapped to the very row objects it holds.  An incoming row has its
unit columns deleted, row - row[j] e_j (the a = 1 case of ``_eliminate``),
and is eliminated only against the wide rows it meets.  The result is the
same reduced row echelon form: every retained row is zero in the other
leads, so no wide row has an entry in a unit column, and the deletions
commute with the wide eliminations; the kept row is then divided by its
content as before, whatever the order of its hits.  A unit row holds no
entry at a new lead, so the back-substitution skips it, and a wide row it
leaves with one entry is {j: 1} once made primitive, so it moves to the
units.  Column bounds are checked on the rows the echelon keeps
(``_check_columns`` says why that refuses every bad row).

The echelon's readers take the retained rows as they are: ``rank``,
``pivot_cols``, the copies ``sparse_rows`` and ``basis_rows``,
``rank_with``, the rank of the span with more rows, which it reduces
without writing to the basis, and ``annihilates``, the containment check
of the certificates (Im dF in Ker dG).  That check indexes the retained
rows once by column, {column: [(row number, value)]}, so each nonzero of
a vector meets only the rows with a nonzero in its column, instead of
every vector taking one product with every row.  ``in_kernel`` runs the
same loop over rows given as a list, and ``column_index`` hands out the
index of every retained row, for a caller that asks many questions of a
basis it no longer adds to (a kept stack of ``cohomology._stack``).

One scalar rule holds over Q and Q(i) alike, the fraction-free elimination
of Bareiss carried over to the Gaussian integers Z[i]:

* each incoming row is cleared of denominators (those of the real and the
  imaginary parts; per-row scaling changes neither rank nor row space), so
  its entries are ints, and QIs with int parts where they are not real;
* an elimination, ``_eliminate`` (the one step that both the reduction of
  an incoming row and the back-substitution take), cross-multiplies by the
  cofactors a/g and b/g of the two entries, g their gcd over Z, or over
  Z[i] when either is Gaussian;
* a retained row is primitive (its entries have gcd 1 over Z[i]) with its
  lead turned by a unit to re > 0 and im >= 0, real entries as ints.

Rows whose entries are all ints never leave the int operations.  The
retained rows sorted by lead are the reduced row echelon form of everything
added, each row scaled by that rule, so they do not depend on the order or
the scale the rows arrived in.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .errors import DimensionMismatch, SingularMatrix
from .scalars import FIELD_Q, FIELD_QI, QI, promote


def backend() -> str:
    """Name of the row-reduction implementation, recorded in benchmark stamps."""
    return "python"


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

    def iter_rows(self):
        """Yield (cols, vals) per row, cols ascending, in row order."""
        buckets = [[] for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            buckets[r].append((c, v))
        for pairs in buckets:
            pairs.sort()
            yield [c for c, _ in pairs], [v for _, v in pairs]


def _zero(field):
    return QI(0) if field == FIELD_QI else Fraction(0)


def _denominator(vals):
    """The lcm of the denominators of ints, Fractions and QIs (of both parts
    of a QI): the factor by which ``int_cleared`` scales them."""
    den = 1
    for v in vals:
        if isinstance(v, QI):
            den = lcm(den, v.re.denominator, v.im.denominator)
        elif type(v) is not int:
            den = lcm(den, v.denominator)
    return den


def int_cleared(vals):
    """Scale ints, Fractions and QIs by the lcm of all their denominators
    (``_denominator``): ints, and QIs with int parts where a value is not
    real."""
    den = _denominator(vals)
    return [
        _gaussian(_times(v.re, den), _times(v.im, den)) if isinstance(v, QI) else _times(v, den)
        for v in vals
    ]


def _times(x, den):
    """The int den * x, for a rational x whose denominator divides den."""
    return x.numerator * (den // x.denominator)


class RowBasis:
    """Online sparse row echelon with every retained row fully reduced.

    Retained rows are ``{col: value}`` dicts without zero values, of ints
    and Gaussian integers (QIs with int parts), each primitive with its lead
    normalized (see the module docstring).  ``gaussian`` says whether the
    span is a Q(i)-span: true over Q(i), and over Q from the first row with
    a Gaussian entry on.

    ``_rows`` maps every lead to its retained row.  Two views of it, which
    only ``add`` writes, hold after every call: ``_units`` is exactly the
    set of leads j with ``_rows[j] == {j: 1}``, and ``_wide`` maps each
    other lead to the same row object that ``_rows`` holds.
    """

    __slots__ = ("ncols", "gaussian", "_rows", "_units", "_wide")

    def __init__(self, ncols, field=FIELD_Q):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self.gaussian = field == FIELD_QI
        self._rows = {}  # lead column -> retained row
        self._units = set()  # leads j whose retained row is {j: 1}
        self._wide = {}  # every other lead -> its row, the object in _rows

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

    def rank_with(self, rows):
        """The rank of the span with the ``{col: value}`` rows added, as
        ``add`` takes them, leaving this basis as it was, ``gaussian``
        included.  Each row's residue against the retained rows is zero at
        every lead, and so is every combination of residues, so the rank
        is this rank plus that of the residues, reduced in a basis of their
        own, which also refuses a bad column as ``add`` does."""
        residues = RowBasis(self.ncols)
        for row in rows:
            residues.add(self._reduced(row)[0])
        return self.rank + residues.rank

    def annihilates(self, vecs):
        """True iff every vector of ``vecs`` ({col: value} dicts or dense
        sequences of ints, Fractions or QIs) is orthogonal to every retained
        row, i.e. lies in the kernel of the stack the basis reduced.  One
        column index over the retained rows serves all the vectors."""
        return _annihilates(self._rows.values(), vecs)

    def column_index(self):
        """A column index of every retained row, {column: [(row number,
        value)]} (``_column_index``), built anew on each call: ``add``
        rewrites rows in place, so a caller that keeps one keeps it with a
        basis that no longer grows."""
        return _column_index(self._rows.values(), set(range(self.ncols)))

    def add(self, row, below=None):
        """Reduce a ``{col: value}`` row of ints, Fractions or QIs and keep it
        if it stays nonzero; ``row`` itself is left as it was.  A row with a
        column outside 0..ncols-1 raises DimensionMismatch (see
        ``_check_columns`` for why checking the kept rows is enough).  With
        ``below``, a row is kept only when its residue leads in a column
        below it, and one that is not leaves the basis as it was.

        Returns True iff the rank grew.
        """
        row, gaussian = self._reduced(row)
        if below is not None and (not row or min(row) >= below):
            return False
        if gaussian:
            self.gaussian = True
        if not row:
            return False
        _check_columns(row, self.ncols)
        lead = min(row)
        gaussian = self.gaussian
        _make_primitive(row, lead, gaussian)
        # a unit row {j: 1} is zero at the new lead, so only wide rows take
        # the back-substitution; one left with its lead alone is {j: 1}
        wide = self._wide
        narrowed = []
        for j, prow in wide.items():
            if lead in prow:
                _eliminate(prow, lead, row)
                _make_primitive(prow, j, gaussian)
                if len(prow) == 1:
                    narrowed.append(j)
        for j in narrowed:
            del wide[j]
        units = self._units
        units.update(narrowed)
        if len(row) == 1:
            units.add(lead)
        else:
            wide[lead] = row
        self._rows[lead] = row
        return True

    def _reduced(self, row):
        """(reduced, gaussian): a copy of ``row`` cleared of denominators,
        minus its components along the retained rows, and whether ``row``
        has a QI entry, which makes the span that keeps it a Q(i)-span.
        Writes nothing to the basis.  A row of ints and Gaussian integers is
        only copied; any other goes once through ``int_cleared``, which also
        turns Fraction(3) and QI(Fraction(3), 0) into the int 3.  A row with
        a zero value or a non-int entry has its columns checked here, since
        the zero filter could drop a bad column that ``add`` would otherwise
        see."""
        integral = ints = True
        gaussian = False
        for v in row.values():
            if type(v) is not int:
                ints = False
                if isinstance(v, QI):
                    gaussian = True
                    if type(v.re) is int and type(v.im) is int:
                        continue
                integral = False
        units = self._units
        if units.issuperset(row):
            return {}, gaussian
        if ints and 0 not in row.values():
            row = dict(row)
        else:
            _check_columns(row, self.ncols)
            if integral:
                row = {c: v for c, v in row.items() if v}
            else:
                row = {c: v for c, v in zip(row, int_cleared(row.values())) if v}
        # a unit column is cleared by deleting it (the a = 1 case of
        # ``_eliminate``), and a row with only unit columns is zero at once;
        # no wide row has an entry there, so the deletions commute with the
        # eliminations below.  Eliminating one pivot column leaves every
        # other pivot column of the row as it was (up to a common factor),
        # so the hits are fixed upfront; the reduced row does not depend on
        # their order up to that factor, which ``add`` divides out
        for j in units.intersection(row):
            del row[j]
        wide = self._wide
        for j in wide.keys() & row.keys():
            _eliminate(row, j, wide[j])
        return row, gaussian


def _eliminate(row, col, piv):
    """Clear column ``col`` of ``row`` against the row ``piv``, in place:
    row <- (a/g) row - (b/g) piv, for a = piv[col], b = row[col] and g their
    gcd over Z, or over Z[i] when either is Gaussian.  Entries that cancel
    are dropped.  The one elimination step of the module."""
    a = piv[col]
    b = row[col]
    if a != 1:
        if type(a) is int and type(b) is int:
            g = gcd(a, b)
            m, b = a // g, b // g
        else:
            m, b = _cofactors(a, b)
        if m != 1:
            for c in row:
                row[c] *= m
    for c, v in piv.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]


# -- Gaussian integers: ints, or QIs with int parts --------------------------------


def _parts(z):
    return (z, 0) if type(z) is int else (z.re, z.im)


def _gaussian(re, im):
    """re + im i: an int when real, else a QI."""
    return QI(re, im) if im else re


def _quotient(x, y):
    """x / y, or None when the Gaussian integer y does not divide x."""
    xr, xi = _parts(x)
    yr, yi = _parts(y)
    n = yr * yr + yi * yi
    qr, rr = divmod(xr * yr + xi * yi, n)
    qi, ri = divmod(xi * yr - xr * yi, n)
    return None if rr or ri else _gaussian(qr, qi)


def _gcd_parts(ar, ai, br, bi):
    """A gcd over Z[i] of ar + ai i and br + bi i, as (re, im): Euclid, each
    quotient rounded to the nearest Gaussian integer."""
    while br or bi:
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _cofactors(a, b):
    """(a/g, b/g) for g a gcd over Z[i] of the nonzero Gaussian integers a
    and b; a/g is 1 when a divides b.  (Two ints take gcd inline.)"""
    q = _quotient(b, a)
    if q is not None:
        return 1, q
    g = _gaussian(*_gcd_parts(*_parts(a), *_parts(b)))
    return _quotient(a, g), _quotient(b, g)


def _make_primitive(row, lead, gaussian):
    """Divide the nonzero ``row`` in place by its gcd over Z[i], chosen so
    that the lead ends with re > 0 and im >= 0; real entries end as ints.
    Without ``gaussian`` the entries are known to be ints."""
    vals = row.values()
    if not gaussian or all(type(v) is int for v in vals):
        g = gcd(*vals)
        if row[lead] < 0:
            g = -g
        if g != 1:
            for c in row:
                row[c] //= g
        return
    gr = gi = 0
    for v in vals:
        gr, gi = _gcd_parts(gr, gi, *_parts(v))
        if gr * gr + gi * gi == 1:
            break
    g = _gaussian(gr, gi)
    qr, qi = _parts(_quotient(row[lead], g))
    # divide by g / u instead, u the unit that turns the lead's quotient to
    # re > 0, im >= 0
    if qr <= 0 and qi > 0:
        g = g * QI(0, 1)
    elif qr < 0 and qi <= 0:
        g = -g
    elif qr >= 0 and qi < 0:
        g = g * QI(0, -1)
    if g != 1:
        for c in row:
            row[c] = _quotient(row[c], g)
    else:
        for c, v in row.items():
            if type(v) is not int and not v.im:
                row[c] = v.re


def _check_columns(row, ncols):
    """Refuse a {col: value} row with a column outside 0..ncols-1.

    ``RowBasis`` checks only the rows it keeps, and the rows whose zero
    values or non-int entries it filters (``_reduced``), which is enough: a
    bad column is in no kept row, since each of them passed this check, so
    no elimination can cancel it, and a row that holds one with a nonzero
    value is always kept (in ``rank_with``, by the basis of the residues)."""
    if row and (min(row) < 0 or max(row) >= ncols):
        raise DimensionMismatch(f"column index outside 0..{ncols - 1}")


def _sparse_from(rowlike, ncols):
    """A dense sequence or {col: value} dict as a {col: value} dict, checked
    against ``ncols``."""
    if isinstance(rowlike, dict):
        _check_columns(rowlike, ncols)
        return rowlike
    row = list(rowlike)
    if len(row) != ncols:
        raise DimensionMismatch(f"row has length {len(row)}, expected {ncols}")
    return {c: v for c, v in enumerate(row) if v}


# rows per window of reduce_rows, per column of the span
_WINDOW_PER_COL = 4


def reduce_rows(rows, ncols, field=FIELD_Q):
    """The RowBasis (rank, basis rows, pivots) of the stacked ``rows``,
    without materializing the matrix.

    ``rows`` is any iterable of dense sequences (length ``ncols``) or sparse
    {col: value} dicts.  It is read in windows of 4 * ncols + 1 rows, and
    each window is added sparsest row first (a stable sort by the number of
    entries, which the package's streams store only when nonzero).  The
    retained rows do not depend on the order, so the result is that of
    adding the rows as they arrive.  Deterministic; besides the at most
    ``ncols`` retained rows of at most ``ncols`` entries, only one window
    is held, so memory is bounded by (5 * ncols + 1) * ncols entries.  An
    exception raised by ``rows`` propagates as it is.  A dense row of
    another length raises DimensionMismatch when its window is read, a dict
    row with a column outside 0..ncols-1 when it is added, so an exception
    that ``rows`` raises later in that window comes first.
    """
    basis = RowBasis(ncols, field)
    rows = iter(rows)
    size = _WINDOW_PER_COL * ncols + 1
    while window := [row if isinstance(row, dict) else _sparse_from(row, ncols)
                     for row in islice(rows, size)]:
        window.sort(key=len)
        for row in window:
            basis.add(row)
    return basis


def rank(m: ExactMatrix) -> RowBasis:
    """The RowBasis of the rows of ``m``: ``rank`` and ``pivot_cols()``."""
    return reduce_rows((dict(zip(cols, vals)) for cols, vals in m.iter_rows()), m.ncols)


def solve(rows, ncols):
    """One exact solution x of the system whose augmented rows (as
    ``reduce_rows`` takes them) hold the coefficients of x_0..x_{ncols-1}
    and the right-hand side at column ``ncols``; None if it is inconsistent.

    The free variables are 0, which is the solution the reduced row echelon
    form reads off; x is over Q(i) when a row has a Gaussian entry, and a
    value read off two integer entries that divide exactly is an int.
    """
    basis = reduce_rows(rows, ncols + 1)
    field = FIELD_QI if basis.gaussian else FIELD_Q
    x = [_zero(field)] * ncols
    for p, row in basis._rows.items():
        if p == ncols:
            return None
        if ncols in row:
            b, a = row[ncols], row[p]
            if type(b) is int and type(a) is int and not b % a:
                x[p] = b // a
            else:
                x[p] = promote(b, field) / a
    return x


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix, its fraction-free form
    (``_integral_inverse``) divided by its denominator; raises
    SingularMatrix."""
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    form = _integral_inverse((dict(zip(cols, vals)) for cols, vals in m.iter_rows()), n)
    if form is None:
        raise SingularMatrix("matrix is not invertible")
    inv, den = form
    entries = {(r, c): promote(v, m.field) / den for r, row in enumerate(inv) for c, v in row.items()}
    return ExactMatrix(n, n, entries, m.field)


def _integral_inverse(rows, n):
    """(inv, den) with inv the rows of den * M^{-1}, as {col: value} dicts of
    ints and Gaussian integers, and den a positive int, for the n x n matrix
    M of the ``rows`` (as ``reduce_rows`` takes them); None when M is
    singular.  One reduction of the rows [M | I], read by ``_read_inverse``.
    ``inverse`` divides by den, and the transport of a table to a new basis
    (``liealg._transport``) keeps it."""
    return _read_inverse(reduce_rows(({**_sparse_from(row, n), n + r: 1}
                                      for r, row in enumerate(rows)), 2 * n), n)


def _read_inverse(basis, n):
    """(inv, den) of ``_integral_inverse``, read off ``basis``, the echelon
    of the rows [m_r | e_r] of an n x n matrix M over 2n columns; None
    unless its pivots are 0..n-1, which they are exactly when M is
    invertible.  Then row r of the reduced form is [p e_r | w] with
    w M = p e_r, so row r of M^{-1} is w / p, and w conj(p) / |p|^2 when the
    lead p is Gaussian.  den is the lcm of those denominators, p or |p|^2,
    so no division is left.  The one reader of an inverse in the package:
    ``liealg._adapted_form`` reads the echelon that chose its basis."""
    if basis.pivot_cols() != list(range(n)):
        return None
    # per row, 1 / p as (numerator, denominator) with an int denominator
    leads = [(1, p) if type(p) is int else (p.conjugate(), p.re * p.re + p.im * p.im)
             for p in (basis._rows[r][r] for r in range(n))]
    den = lcm(*(norm for _, norm in leads))
    inv = []
    for r, (num, norm) in enumerate(leads):
        f = num * (den // norm)
        inv.append({c - n: v * f for c, v in basis._rows[r].items() if c >= n})
    return inv, den


def dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _annihilates(rows, vecs):
    """True iff every vector of ``vecs`` has a zero product with every row;
    rows and vectors are {col: value} dicts or dense sequences.  The rows
    are indexed by column over the columns some vector meets, so the
    vectors are read first."""
    terms = [_cleared(vec) for vec in vecs]
    met = {c for t in terms for c, _ in t}
    return _vanish(_column_index(rows, met), terms)


def _column_index(rows, met):
    """{column: [(row number, value)]} over the nonzero entries of ``rows``
    ({col: value} dicts or dense sequences) in the columns of the set
    ``met``; with every column in ``met``, the index of the whole rows."""
    index = {}
    for i, row in enumerate(rows):
        for c in met.intersection(row) if isinstance(row, dict) else met:
            if v := row[c]:
                index.setdefault(c, []).append((i, v))
    return index


def _cleared(vec):
    """The (column, value) pairs of a vector's nonzeros ({col: value} dict
    or dense sequence), cleared of denominators (of both parts of a
    Gaussian entry, so that against the rows of a RowBasis every product
    is one of Gaussian integers)."""
    if isinstance(vec, dict):
        cols, vals = list(vec), list(vec.values())
    else:
        cols = [c for c, x in enumerate(vec) if x]
        vals = [vec[c] for c in cols]
    return list(zip(cols, int_cleared(vals)))


def _vanish(index, terms):
    """True iff every vector of ``terms``, each its (column, value) pairs
    of Gaussian integers (``_cleared``), has a zero product with every row
    of the column ``index`` (``_column_index``): each vector sums over the
    rows its nonzeros meet.  The one containment loop of the package."""
    for t in terms:
        sums = {}
        for c, x in t:
            for i, v in index.get(c, ()):
                sums[i] = sums.get(i, 0) + v * x
        if any(sums.values()):
            return False
    return True


def in_kernel(vec, rows):
    """True iff vec is orthogonal to every row, i.e. M @ vec = 0 for any
    matrix whose row space those rows span.  The vector and the rows are
    {col: value} dicts or dense lists.  ``RowBasis.annihilates`` and the
    kept index of ``RowBasis.column_index`` are the package's own checks;
    this one-vector form has no caller in the package and stays for
    certbench's traced ``curves-sn5`` path, which calls it."""
    return _annihilates(rows, [vec])
