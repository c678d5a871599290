"""Structure constants, nilpotency operators, series and constructions.

A bracket on an n-dimensional space is stored as the antisymmetric tensor
c[i][j][k] with only i < j kept; reading (j, i) negates.  Nothing here
assumes the Jacobi identity unless stated: a :class:`StructureConstants` is
just a point of the ambient space of antisymmetric bilinear maps, which is
exactly what the deformation-variety computations need.

Indices are 0-based internally; table text and the JSON schema are 1-based.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotDerivation,
    NotLieAlgebra,
    SingularMatrix,
)
from .linalg import ExactMatrix, RowBasis, inverse, kernel_basis
from .scalars import FIELD_Q, FIELD_QI, join_fields, promote


class StructureConstants:
    """Antisymmetric coefficient tensor of a bracket (or any 2-cochain)."""

    __slots__ = ("n", "field", "c", "name")

    def __init__(self, n, brackets=None, field=FIELD_Q, name=None):
        if n < 1:
            raise DimensionMismatch("dimension must be positive")
        self.n = n
        self.field = field
        self.name = name
        self.c = {}
        for (i, j), coeffs in (brackets or {}).items():
            if not (0 <= i < j < n):
                raise DimensionMismatch(f"bad basis pair ({i},{j}) for dim {n}")
            row = {}
            for k, v in coeffs.items():
                if not 0 <= k < n:
                    raise DimensionMismatch(f"bad target index {k} for dim {n}")
                if field in (FIELD_Q, FIELD_QI):
                    v = promote(v, field)
                if v:
                    row[k] = v
            if row:
                self.c[(i, j)] = row

    @classmethod
    def abelian(cls, n, field=FIELD_Q, name=None):
        return cls(n, {}, field, name)

    # -- access --------------------------------------------------------------

    def brackets(self):
        return sorted(self.c)

    def bracket_basis(self, i, j):
        """Coefficients of [e_i, e_j] as {k: scalar} (sign-aware)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.c.get((i, j), {}))
        return {k: -v for k, v in self.c.get((j, i), {}).items()}

    def entry(self, i, j, k):
        return self.bracket_basis(i, j).get(k, 0)

    def bracket(self, x, y):
        """Bilinear antisymmetric evaluation of the tensor on two vectors."""
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("vectors must have the algebra's dimension")
        out = [0] * self.n
        for (i, j), coeffs in self.c.items():
            co = x[i] * y[j] - x[j] * y[i]
            if co:
                for k, v in coeffs.items():
                    out[k] = out[k] + co * v
        return out

    def is_abelian(self):
        return not self.c

    # -- arithmetic in the ambient space ---------------------------------------

    def add(self, other):
        if self.n != other.n:
            raise DimensionMismatch("mixed dimensions")
        field = join_fields(self.field, other.field)
        brackets = {pair: dict(coeffs) for pair, coeffs in self.c.items()}
        for pair, coeffs in other.c.items():
            row = brackets.setdefault(pair, {})
            for k, v in coeffs.items():
                row[k] = row.get(k, 0) + v
        return StructureConstants(self.n, brackets, field)

    def scale(self, t):
        brackets = {
            pair: {k: v * t for k, v in coeffs.items()} for pair, coeffs in self.c.items()
        }
        field = FIELD_QI if self.field == FIELD_QI or _is_qi(t) else self.field
        return StructureConstants(self.n, brackets, field)

    def with_name(self, name):
        out = StructureConstants.__new__(StructureConstants)
        out.n, out.field, out.c, out.name = self.n, self.field, self.c, name
        return out

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __repr__(self):
        label = self.name or f"{self.n}-dim bracket"
        return f"StructureConstants({label}, nnz={sum(len(v) for v in self.c.values())})"


TwoCochain = StructureConstants


def _is_qi(x):
    from .scalars import QI

    return isinstance(x, QI)


def _br_vec_basis(mu, v, b):
    """mu(v, e_b) for a coefficient vector v."""
    out = [0] * mu.n
    for p, co in enumerate(v):
        if co and p != b:
            for k, w in mu.bracket_basis(p, b).items():
                out[k] = out[k] + co * w
    return out


def pencil(mu, nu, t):
    """mu + t * nu."""
    return mu.add(nu.scale(t))


# -- operators ----------------------------------------------------------------


def jacobi(mu):
    """Cyclic Jacobi tensor on basis triples i<j<k; empty dict iff Lie."""
    n = mu.n
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            vij = mu.bracket_basis(i, j)
            for l in range(j + 1, n):
                acc = [0] * n
                for k, co in vij.items():
                    if k != l:
                        for m, w in mu.bracket_basis(k, l).items():
                            acc[m] = acc[m] + co * w
                for k, co in mu.bracket_basis(j, l).items():
                    if k != i:
                        for m, w in mu.bracket_basis(k, i).items():
                            acc[m] = acc[m] + co * w
                for k, co in mu.bracket_basis(l, i).items():
                    if k != j:
                        for m, w in mu.bracket_basis(k, j).items():
                            acc[m] = acc[m] + co * w
                if any(acc):
                    out[(i, j, l)] = acc
    return out


def is_lie(mu):
    return not jacobi(mu)


def n_k(mu, k):
    """Left-nested bracket tensor: nonzero values on basis (k+1)-tuples.

    Empty dict means the whole tensor vanishes; together with Jacobi that is
    membership in the k-step nilpotent variety.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = mu.n
    out = {}

    def extend(letters, v, depth):
        if depth == k + 1:
            out[letters] = list(v)
            return
        for b in range(n):
            w = _br_vec_basis(mu, v, b)
            if any(w):
                extend(letters + (b,), w, depth + 1)

    for a in range(n):
        for b in range(n):
            v = mu.bracket_basis(a, b)
            if v:
                vec = [0] * n
                for kk, co in v.items():
                    vec[kk] = co
                extend((a, b), vec, 2)
    return out


def n_k_value(mu, k, letters):
    if len(letters) != k + 1:
        raise DimensionMismatch(f"expected {k + 1} arguments")
    coeffs = mu.bracket_basis(letters[0], letters[1])
    v = [0] * mu.n
    for kk, co in coeffs.items():
        v[kk] = co
    for b in letters[2:]:
        v = _br_vec_basis(mu, v, b)
    return v


def sn_k(mu, k):
    """Tensor mu(mu(x1,x2), N_{k-2}(x3..x_{k+1})) on basis tuples, k >= 2.

    k = 2 takes the inner word to be the identity, so the tensor coincides
    with the left-nested 3-letter one; k >= 3 is the usual split word.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = mu.n
    if k == 2:
        tails = {(a,): _unit(n, a) for a in range(n)}
    else:
        tails = n_k(mu, k - 2)
    out = {}
    for i in range(n):
        for j in range(n):
            coeffs = mu.bracket_basis(i, j)
            if not coeffs:
                continue
            a = [0] * n
            for kk, co in coeffs.items():
                a[kk] = co
            for tail, bvec in tails.items():
                w = _br_vec_vec(mu, a, bvec)
                if any(w):
                    out[(i, j) + tail] = w
    return out


def sn_k_value(mu, k, letters):
    if len(letters) != k + 1:
        raise DimensionMismatch(f"expected {k + 1} arguments")
    a = n_k_value(mu, 1, letters[:2])
    if k == 2:
        b = _unit(mu.n, letters[2])
    else:
        b = n_k_value(mu, k - 2, letters[2:])
    return _br_vec_vec(mu, a, b)


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


def _br_vec_vec(mu, x, y):
    out = [0] * mu.n
    for p, cp in enumerate(x):
        if not cp:
            continue
        for q, cq in enumerate(y):
            if cq and q != p:
                co = cp * cq
                for m, w in mu.bracket_basis(p, q).items():
                    out[m] = out[m] + co * w
    return out


# -- subspaces and series --------------------------------------------------------


class Subspace:
    """Span of exact vectors, kept as its monic reduced row echelon basis."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def span(cls, vectors, ambient):
        basis = RowBasis(ambient)
        for v in vectors:
            basis.add({c: _as_field(x) for c, x in enumerate(v) if x})
        return cls(ambient, [tuple(r) for r in basis.basis_rows()])

    @classmethod
    def full(cls, ambient):
        return cls.span([_unit(ambient, i) for i in range(ambient)], ambient)

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        v = [_as_field(x) for x in v]
        for row in self.rows:
            j = _lead_index(row)
            if v[j]:
                f = v[j]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def contains_space(self, other):
        return all(self.contains(row) for row in other.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def _as_field(x):
    from .scalars import QI

    return x if isinstance(x, (Fraction, QI)) else Fraction(x)


def _lead_index(row):
    for j, v in enumerate(row):
        if v:
            return j
    return len(row)


def _bracket_space(mu, a: Subspace, b: Subspace) -> Subspace:
    vecs = []
    for u in a.rows:
        for v in b.rows:
            w = mu.bracket(list(u), list(v))
            if any(w):
                vecs.append(w)
    return Subspace.span(vecs, mu.n)


def lower_central_series(mu):
    """g^0 = g, g^i = [g^{i-1}, g]; stops at 0 or at stabilization."""
    if not is_lie(mu):
        raise NotLieAlgebra("lower central series needs the Jacobi identity")
    full = Subspace.full(mu.n)
    series = [full]
    while True:
        nxt = _bracket_space(mu, series[-1], full)
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def nil_index(mu):
    """Minimal i with g^i = 0, or None for a non-nilpotent algebra."""
    series = lower_central_series(mu)
    if series[-1].dim == 0:
        return len(series) - 1
    return None


def derived_series(mu):
    """g^(0) = g, g^(i) = [g^(i-1), g^(i-1)]; stops at 0 or stabilization."""
    if not is_lie(mu):
        raise NotLieAlgebra("derived series needs the Jacobi identity")
    series = [Subspace.full(mu.n)]
    while True:
        nxt = _bracket_space(mu, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def solvable_length(mu):
    series = derived_series(mu)
    if series[-1].dim == 0:
        return len(series) - 1
    return None


def center(mu) -> Subspace:
    n = mu.n
    entries = {}
    for j in range(n):
        for i in range(n):
            for k, v in mu.bracket_basis(i, j).items():
                entries[(j * n + k, i)] = v
    ad = ExactMatrix(n * n, n, entries, mu.field)
    return Subspace.span(kernel_basis(ad), n)


# -- basis change and constructions ----------------------------------------------


def _matrix_rows(m, n, field):
    """``m`` as an ExactMatrix over ``field``, or over Q(i) if it has a
    Gaussian entry."""
    if isinstance(m, ExactMatrix):
        return m
    if any(_is_qi(v) for row in m for v in row):
        field = FIELD_QI
    entries = {}
    for r, row in enumerate(m):
        if len(row) != n:
            raise DimensionMismatch("basis matrix must be n x n")
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
    if len(m) != n:
        raise DimensionMismatch("basis matrix must be n x n")
    return ExactMatrix(n, n, entries, field)


def change_basis(mu, g):
    """The bracket g . mu : (x, y) -> g(mu(g^{-1}x, g^{-1}y)).

    ``g`` is an n x n matrix (rows, or an ExactMatrix) over Q or Q(i); the
    result is over Q(i) when either the algebra or ``g`` is.  Raises
    SingularMatrix when ``g`` is not invertible.
    """
    n = mu.n
    gm = _matrix_rows(g, n, mu.field)
    field = join_fields(mu.field, gm.field)
    ginv = inverse(gm)
    cols = [[ginv.entries.get((r, c), 0) for r in range(n)] for c in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = mu.bracket(cols[i], cols[j])
            if any(w):
                out = gm.mat_vec(w)
                row = {k: v for k, v in enumerate(out) if v}
                if row:
                    brackets[(i, j)] = row
    return StructureConstants(n, brackets, field)


def table_in_basis(mu, vectors):
    """Structure table of mu written in the new basis ``vectors``.

    Equivalent to change_basis(mu, V^{-1}) where V has the new basis vectors
    as columns; this is the form every isomorphism witness uses.
    """
    n = mu.n
    if len(vectors) != n:
        raise DimensionMismatch(f"need {n} basis vectors")
    field = mu.field
    for v in vectors:
        if any(_is_qi(x) for x in v):
            field = FIELD_QI
    vmat = ExactMatrix(
        n,
        n,
        {(r, i): v[r] for i, v in enumerate(vectors) for r in range(n) if v[r]},
        field,
    )
    return change_basis(mu, inverse(vmat))


def direct_sum(mu1, mu2, name=None):
    n = mu1.n + mu2.n
    brackets = {pair: dict(coeffs) for pair, coeffs in mu1.c.items()}
    off = mu1.n
    for (i, j), coeffs in mu2.c.items():
        brackets[(i + off, j + off)] = {k + off: v for k, v in coeffs.items()}
    return StructureConstants(n, brackets, join_fields(mu1.field, mu2.field), name)


def semidirect_by_derivation(mu, d_rows):
    """Adjoin a generator acting by the derivation D: [e_0, x] = D x.

    D is checked against the derivation identity for mu.
    """
    n = mu.n
    d = [list(row) for row in d_rows]
    if len(d) != n or any(len(r) != n for r in d):
        raise DimensionMismatch("derivation matrix must be n x n")

    def apply_d(v):
        return [sum(d[r][c] * v[c] for c in range(n)) for r in range(n)]

    for i in range(n):
        for j in range(i + 1, n):
            lhs = apply_d(mu.bracket(_unit(n, i), _unit(n, j)))
            di = [d[r][i] for r in range(n)]
            dj = [d[r][j] for r in range(n)]
            rhs = mu.bracket(di, _unit(n, j))
            rhs2 = mu.bracket(_unit(n, i), dj)
            if any(a - b - c2 for a, b, c2 in zip(lhs, rhs, rhs2)):
                raise NotDerivation(f"matrix is not a derivation (fails on e_{i}, e_{j})")
    brackets = {}
    for (i, j), coeffs in mu.c.items():
        brackets[(i + 1, j + 1)] = {k + 1: v for k, v in coeffs.items()}
    for p in range(n):
        col = {q + 1: d[q][p] for q in range(n) if d[q][p]}
        if col:
            brackets[(0, p + 1)] = col
    return StructureConstants(n + 1, brackets, mu.field)


def heisenberg(m, name=None):
    """(2m+1)-dimensional Heisenberg: [x_i, y_i] = z, basis x1,y1,..,xm,ym,z."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m + 1
    brackets = {(2 * i, 2 * i + 1): {n - 1: 1} for i in range(m)}
    return StructureConstants(n, brackets, name=name or f"h_{m}")


def heisenberg_extension(m):
    """R D |x h_m for the shift derivation D x_i = x_{i+1}, D y_i = -y_{i-1}."""
    h = heisenberg(m)
    n = h.n
    d = [[0] * n for _ in range(n)]
    for i in range(1, m):  # x_i -> x_{i+1}
        d[2 * i][2 * (i - 1)] = 1
    for i in range(2, m + 1):  # y_i -> -y_{i-1}
        d[2 * (i - 2) + 1][2 * (i - 1) + 1] = -1
    return semidirect_by_derivation(h, d)
