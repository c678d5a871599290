"""Differentials at a bracket and the nilpotent deformation cohomology.

Cochain coordinates: a 1-cochain alpha lives in g* (x) g with column p*n+q
meaning alpha(e_p) = e_q; a 2-cochain sigma has coordinate (pair (i<j), k)
at column pair_index(i,j)*n + k; 3-cochains use ordered triples the same way.
The multilinear operators map into full tensor powers, so their differentials
are indexed by arbitrary (k+1)-tuples of basis letters.

The derivative of a nested bracket word at mu is the sum over replacing one
mu by sigma; the generators below build those rows directly from the word
structure for any k, one argument tuple at a time, so the tall matrices (for
example the 7^6-tuple one in dimension 7) are streamed and never stored.
Rows are scaled to integers (per-row scaling never changes rank or kernel),
which keeps the whole pipeline on the fast integer reducer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import NotInVariety, NotLieAlgebra
from .liealg import StructureConstants, is_lie, n_k, sn_k
from .linalg import ExactMatrix, _Reducer, in_kernel, rank
from .scalars import FIELD_Q


@lru_cache(maxsize=None)
class Layout:
    """Index bookkeeping for the cochain spaces of an n-dimensional algebra."""

    def __init__(self, n):
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}
        self.triples = [
            (i, j, l)
            for i in range(n)
            for j in range(i + 1, n)
            for l in range(j + 1, n)
        ]
        self.triple_index = {t: s for s, t in enumerate(self.triples)}
        self.dim1 = n * n
        self.dim2 = len(self.pairs) * n
        self.dim3 = len(self.triples) * n

    def col2(self, i, j, k):
        return self.pair_index[(i, j)] * self.n + k

    def atom(self, i, j):
        """(pair index, sign) of sigma(e_i, e_j), or None on the diagonal."""
        if i == j:
            return None
        if i < j:
            return self.pair_index[(i, j)], 1
        return self.pair_index[(j, i)], -1


def cochain_vector(sigma: StructureConstants):
    """Coordinates of a 2-cochain in the (pair, k) layout."""
    lay = Layout(sigma.n)
    v = [Fraction(0)] * lay.dim2
    for (i, j), coeffs in sigma.c.items():
        for k, val in coeffs.items():
            v[lay.col2(i, j, k)] = val
    return v


def _dense_table(mu, scaled):
    """Bracket table as dense vectors; scaled=True clears denominators.

    Returns (n, C) with C[p][q] a length-n list or None when the bracket is
    zero.  Scaling multiplies every entry by one global integer, which is
    legitimate anywhere a uniform per-row scale is (rank, kernel).
    """
    n = mu.n
    den = 1
    if scaled:
        if mu.field != FIELD_Q:
            scaled = False
        else:
            for coeffs in mu.c.values():
                for v in coeffs.values():
                    den = lcm(den, Fraction(v).denominator)
    table = [[None] * n for _ in range(n)]
    for (i, j), coeffs in mu.c.items():
        row = [0] * n
        neg = [0] * n
        for k, v in coeffs.items():
            val = int(v * den) if scaled else v
            row[k] = val
            neg[k] = -val
        table[i][j] = row
        table[j][i] = neg
    return n, table


def _brv(table, n, v, b):
    """mu(v, e_b) over the dense table; None when zero."""
    out = None
    row = None
    for p, co in enumerate(v):
        if co and p != b and table[p][b] is not None:
            if out is None:
                out = [0] * n
            for m, w in enumerate(table[p][b]):
                if w:
                    out[m] = out[m] + co * w
    if out is not None and any(out):
        return out
    return None


def _brvv(table, n, x, y):
    """mu(x, y) for two dense vectors; None when zero."""
    out = None
    for p, cp in enumerate(x):
        if not cp:
            continue
        for q, cq in enumerate(y):
            if cq and table[p][q] is not None:
                if out is None:
                    out = [0] * n
                co = cp * cq
                for m, w in enumerate(table[p][q]):
                    if w:
                        out[m] = out[m] + co * w
    if out is not None and any(out):
        return out
    return None


# -- small materialized differentials -------------------------------------------


def d1_matrix(mu) -> ExactMatrix:
    """alpha |-> mu(x, alpha y) + mu(alpha x, y) - alpha(mu(x, y)): n^2 -> C(n,2)*n."""
    lay = Layout(mu.n)
    n = mu.n
    _, table = _dense_table(mu, scaled=False)
    entries = {}

    def put(r, c, v):
        if v:
            s = entries.get((r, c), 0) + v
            if s:
                entries[(r, c)] = s
            elif (r, c) in entries:
                del entries[(r, c)]

    for (i, j) in lay.pairs:
        base = lay.pair_index[(i, j)] * n
        for q in range(n):
            if table[i][q] is not None:  # mu(e_i, e_q) against alpha(e_j) = e_q
                for m, w in enumerate(table[i][q]):
                    put(base + m, j * n + q, w)
            if table[q][j] is not None:  # mu(e_q, e_j) against alpha(e_i) = e_q
                for m, w in enumerate(table[q][j]):
                    put(base + m, i * n + q, w)
        row = table[i][j]
        if row is not None:
            for p, co in enumerate(row):
                if co:
                    for q in range(n):
                        put(base + q, p * n + q, -co)
    return ExactMatrix(lay.dim2, lay.dim1, entries, mu.field)


def _sigma_of_vec(F, lay, vec, b, factor, n):
    """Accumulate factor * sigma(vec, e_b) into the column functional F."""
    for p, co in enumerate(vec):
        if not co or p == b:
            continue
        at = lay.atom(p, b)
        pi, sgn = at
        val = factor * co * sgn
        for s in range(n):
            acc = F.setdefault(pi * n + s, [0] * n)
            acc[s] = acc[s] + val


def d2_matrix(mu) -> ExactMatrix:
    """The six-term adjoint differential on 2-cochains: C(n,2)*n -> C(n,3)*n."""
    lay = Layout(mu.n)
    n = mu.n
    _, table = _dense_table(mu, scaled=False)
    entries = {}
    for (i, j, l) in lay.triples:
        F = {}
        # mu(e_x, sigma(e_y, e_z)) terms, signs +, -, +
        for x, (y, z), sgn in ((i, (j, l), 1), (j, (i, l), -1), (l, (i, j), 1)):
            pi = lay.pair_index[(y, z)]
            for s in range(n):
                if table[x][s] is not None:
                    acc = F.setdefault(pi * n + s, [0] * n)
                    for m, w in enumerate(table[x][s]):
                        if w:
                            acc[m] = acc[m] + sgn * w
        # sigma(mu(e_x, e_y), e_z) terms, signs -, +, -
        for (x, y), z, sgn in (((i, j), l, -1), ((i, l), j, 1), ((j, l), i, -1)):
            if table[x][y] is not None:
                _sigma_of_vec(F, lay, table[x][y], z, sgn, n)
        base = lay.triple_index[(i, j, l)] * n
        for col, vec in F.items():
            for m, v in enumerate(vec):
                if v:
                    entries[(base + m, col)] = v
    return ExactMatrix(lay.dim3, lay.dim2, entries, mu.field)


def dj_matrix(mu) -> ExactMatrix:
    """Derivative of the cyclic Jacobi operator; equals -d2_matrix entrywise."""
    lay = Layout(mu.n)
    n = mu.n
    _, table = _dense_table(mu, scaled=False)
    entries = {}
    for (i, j, l) in lay.triples:
        F = {}
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            if table[x][y] is not None:
                _sigma_of_vec(F, lay, table[x][y], z, 1, n)
            at = lay.atom(x, y)
            pi, sgn = at
            for s in range(n):
                if table[s][z] is not None:
                    acc = F.setdefault(pi * n + s, [0] * n)
                    for m, w in enumerate(table[s][z]):
                        if w:
                            acc[m] = acc[m] + sgn * w
        base = lay.triple_index[(i, j, l)] * n
        for col, vec in F.items():
            for m, v in enumerate(vec):
                if v:
                    entries[(base + m, col)] = v
    return ExactMatrix(lay.dim3, lay.dim2, entries, mu.field)


# -- streamed rows of the word-derivative matrices --------------------------------


def _iter_word_rows(table, n, lay, k):
    """Rows of the derivative of the left-nested (k+1)-letter word.

    Depth-first over argument tuples; the running pair (value, functional)
    is extended one letter at a time, so shared prefixes are computed once
    and dead branches (zero value, empty functional) are pruned.
    Yields (row_index, {column: value}).
    """

    def emit(base, F):
        rows = {}
        for col, vec in F.items():
            for m, v in enumerate(vec):
                if v:
                    rows.setdefault(m, {})[col] = v
        for m in sorted(rows):
            yield base * n + m, rows[m]

    def rec(tupidx, depth, v, F):
        if depth == k + 1:
            yield from emit(tupidx, F)
            return
        for b in range(n):
            F2 = {}
            for col, vec in F.items():
                w = _brv(table, n, vec, b)
                if w is not None:
                    F2[col] = w
            if v is not None:
                _sigma_of_vec(F2, lay, v, b, 1, n)
                F2 = {col: vec for col, vec in F2.items() if any(vec)}
            v2 = _brv(table, n, v, b) if v is not None else None
            if F2 or v2 is not None:
                yield from rec(tupidx * n + b, depth + 1, v2, F2)

    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            pi, sgn = lay.atom(a, b)
            F = {}
            for s in range(n):
                acc = [0] * n
                acc[s] = sgn
                F[pi * n + s] = acc
            v = table[a][b]
            yield from rec(a * n + b, 2, list(v) if v is not None else None, F)


def iter_dnk_rows(mu, k, scaled=True):
    """Sparse rows of the derivative of the k-fold nested bracket at mu."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lay = Layout(mu.n)
    n, table = _dense_table(mu, scaled)
    yield from _iter_word_rows(table, n, lay, k)


def _tail_functionals(table, n, lay, k):
    """(tail index, tail tuple value B, functional) for the inner word."""
    if k == 2:
        for a in range(n):
            v = [0] * n
            v[a] = 1
            yield a, v, {}
        return

    def rec(tupidx, depth, v, F):
        if depth == k - 1:
            yield tupidx, v, F
            return
        for b in range(n):
            F2 = {}
            for col, vec in F.items():
                w = _brv(table, n, vec, b)
                if w is not None:
                    F2[col] = w
            if v is not None:
                _sigma_of_vec(F2, lay, v, b, 1, n)
                F2 = {col: vec for col, vec in F2.items() if any(vec)}
            v2 = _brv(table, n, v, b) if v is not None else None
            yield from rec(tupidx * n + b, depth + 1, v2, F2)

    for a in range(n):
        for b in range(n):
            if a == b:
                pi = None
            else:
                pi, sgn = lay.atom(a, b)
            F = {}
            if pi is not None:
                for s in range(n):
                    acc = [0] * n
                    acc[s] = sgn
                    F[pi * n + s] = acc
            v = table[a][b]
            yield from rec(a * n + b, 2, list(v) if v is not None else None, F)


def iter_dsnk_rows(mu, k, scaled=True):
    """Rows of the derivative of the split word mu(mu(x1,x2), N_{k-2}(...)).

    The functional of each inner tuple is computed once and combined with
    every leading pair, covering the full n^(k+1) argument tuples.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lay = Layout(mu.n)
    n, table = _dense_table(mu, scaled)
    heads = []
    for x1 in range(n):
        for x2 in range(n):
            a = table[x1][x2]
            heads.append((x1, x2, a))
    tail_span = n ** (k - 1)
    for tailidx, bvec, ftail in _tail_functionals(table, n, lay, k):
        b_is_zero = bvec is None or not any(bvec)
        if b_is_zero and not ftail:
            continue
        mu_es_b = [None] * n
        if not b_is_zero:
            for s in range(n):
                mu_es_b[s] = _brv(table, n, bvec, s)
                if mu_es_b[s] is not None:
                    mu_es_b[s] = [-x for x in mu_es_b[s]]  # mu(e_s, B) = -mu(B, e_s)
        for x1, x2, a in heads:
            F = {}
            if a is not None and ftail:
                for col, vec in ftail.items():
                    w = _brvv(table, n, a, vec)
                    if w is not None:
                        F[col] = w
            if x1 != x2 and not b_is_zero:
                pi, sgn = lay.atom(x1, x2)
                for s in range(n):
                    if mu_es_b[s] is not None:
                        acc = F.setdefault(pi * n + s, [0] * n)
                        for m, w in enumerate(mu_es_b[s]):
                            if w:
                                acc[m] = acc[m] + sgn * w
            if a is not None and not b_is_zero:
                sup = [p for p in range(n) if a[p] or bvec[p]]
                for ii, p in enumerate(sup):
                    for q in sup[ii + 1 :]:
                        co = a[p] * bvec[q] - a[q] * bvec[p]
                        if co:
                            pi = lay.pair_index[(p, q)]
                            for s in range(n):
                                acc = F.setdefault(pi * n + s, [0] * n)
                                acc[s] = acc[s] + co
            if not F:
                continue
            base = (x1 * n + x2) * tail_span + tailidx
            rows = {}
            for col, vec in F.items():
                for m, v in enumerate(vec):
                    if v:
                        rows.setdefault(m, {})[col] = v
            for m in sorted(rows):
                yield base * n + m, rows[m]


def dnk_matrix(mu, k) -> ExactMatrix:
    """Materialized derivative of the nested word (moderate n, k only)."""
    lay = Layout(mu.n)
    n = mu.n
    entries = {}
    for r, row in iter_dnk_rows(mu, k, scaled=False):
        for c, v in row.items():
            entries[(r, c)] = v
    return ExactMatrix(n ** (k + 1) * n, lay.dim2, entries, mu.field)


def dsnk_matrix(mu, k) -> ExactMatrix:
    lay = Layout(mu.n)
    n = mu.n
    entries = {}
    for r, row in iter_dsnk_rows(mu, k, scaled=False):
        for c, v in row.items():
            entries[(r, c)] = v
    return ExactMatrix(n ** (k + 1) * n, lay.dim2, entries, mu.field)


# -- cohomology reports ------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyReport:
    """z = dim(Ker d2 ^ Ker dN_k), b = dim Im d1, h = z - b."""

    algebra: str | None
    n: int
    k: int | None
    z: int
    b: int
    h: int
    rigid_certificate: bool

    def to_dict(self):
        return {
            "algebra": self.algebra,
            "k": self.k,
            "z": self.z,
            "b": self.b,
            "h": self.h,
            "rigid_certificate": self.rigid_certificate,
            "orbit_dim": self.b,
        }


def _constraint_reducer(mu, kind, k):
    """Reduce the stacked constraint-differential rows; returns the reducer."""
    lay = Layout(mu.n)
    red = _Reducer(lay.dim2, mu.field)
    for cols, vals in d2_matrix(mu).iter_rows():
        if cols:
            red.add_row(cols, vals)
    gen = ()
    if kind == "n":
        gen = iter_dnk_rows(mu, k)
    elif kind == "sn":
        gen = iter_dsnk_rows(mu, k)
    for _, row in gen:
        red.add_row(row.keys(), row.values())
    return red


def h2_knil(mu, k, name=None) -> CohomologyReport:
    """Deformation cohomology inside the k-step nilpotent variety."""
    if not is_lie(mu):
        raise NotInVariety("bracket does not satisfy the Jacobi identity")
    if n_k(mu, k):
        raise NotInVariety(f"bracket is not (at most) {k}-step nilpotent")
    lay = Layout(mu.n)
    b = rank(d1_matrix(mu)).rank
    z = lay.dim2 - _constraint_reducer(mu, "n", k).rank
    return CohomologyReport(name or mu.name, mu.n, k, z, b, z - b, z == b)


def h2_dim(mu, name=None) -> CohomologyReport:
    """Ordinary adjoint H^2 dimensions (z, b, h)."""
    if not is_lie(mu):
        raise NotLieAlgebra("H^2 needs the Jacobi identity")
    lay = Layout(mu.n)
    b = rank(d1_matrix(mu)).rank
    z = lay.dim2 - rank(d2_matrix(mu)).rank
    return CohomologyReport(name or mu.name, mu.n, None, z, b, z - b, False)


def derivation_dim(mu) -> int:
    if not is_lie(mu):
        raise NotLieAlgebra("derivations are defined for Lie brackets")
    return mu.n * mu.n - rank(d1_matrix(mu)).rank


def orbit_dim(mu) -> int:
    return mu.n * mu.n - derivation_dim(mu)


# -- augmented exactness for parametric families -------------------------------------


@dataclass(frozen=True)
class ExactnessReport:
    """Is the image of the augmented tangent map exactly Ker dG?"""

    family: str | None
    point: tuple
    free_params: tuple
    constraint: str
    domain_dim: int
    middle_dim: int
    codomain_dim: int
    rank_df: int
    ker_dg_dim: int
    containment: bool
    exact: bool

    def to_dict(self):
        return {
            "family": self.family,
            "point": {p: str(v) for p, v in self.point},
            "free_params": list(self.free_params),
            "constraint": self.constraint,
            "dims": [self.domain_dim, self.middle_dim, self.codomain_dim],
            "rank_dF": self.rank_df,
            "ker_dG_dim": self.ker_dg_dim,
            "containment": self.containment,
            "exact": self.exact,
        }


def parse_constraint(text):
    t = text.strip().lower()
    if t == "j":
        return "j", None
    for prefix, kind in (("sn", "sn"), ("n", "n")):
        if t.startswith(prefix) and t[len(prefix) :].isdigit():
            return kind, int(t[len(prefix) :])
    raise ValueError(f"bad constraint {text!r} (expected j, nK or snK)")


def augmented_exactness(table, point, free_params, constraint, name=None) -> ExactnessReport:
    """Exactness of [tangents | d1] -> middle -> [d2 ; d(constraint)] at a point.

    ``table`` is a SymbolicTable; the point must satisfy the constraint
    exactly (Jacobi, plus vanishing of the chosen word operator).  One
    column is adjoined to d1 per free parameter: the exact derivative of
    the table in that parameter, evaluated at the point.
    """
    kind, k = parse_constraint(constraint)
    point = dict(point)
    free_params = tuple(free_params)
    for p in free_params:
        if p not in table.params:
            raise ValueError(f"free parameter {p!r} is not a parameter of the family")
    mu = table.evaluate(point)
    if not is_lie(mu):
        raise NotInVariety("point violates the Jacobi identity")
    if kind == "n" and n_k(mu, k):
        raise NotInVariety(f"point violates N_{k} = 0")
    if kind == "sn" and sn_k(mu, k):
        raise NotInVariety(f"point violates SN_{k} = 0")
    lay = Layout(mu.n)
    cols = []
    for p in free_params:
        cols.append(cochain_vector(table.derivative(p).evaluate(point)))
    d1 = d1_matrix(mu)
    by_col = {}
    for (r, c), v in d1.entries.items():
        by_col.setdefault(c, {})[r] = v
    for c in range(lay.dim1):
        vec = [Fraction(0)] * lay.dim2
        for r, v in by_col.get(c, {}).items():
            vec[r] = v
        cols.append(vec)

    df_rank = _Reducer(lay.dim2, mu.field)
    for vec in cols:
        sc = [c for c, v in enumerate(vec) if v]
        if sc:
            df_rank.add_row(sc, [vec[c] for c in sc])

    red = _constraint_reducer(mu, kind, k)
    basis = red.sparse_rows()
    containment = all(in_kernel(vec, basis) for vec in cols)
    ker_dg = lay.dim2 - red.rank
    n = mu.n
    codom = lay.dim3 if kind == "j" else lay.dim3 + n ** (k + 1) * n
    return ExactnessReport(
        family=name,
        point=tuple(sorted((str(p), v) for p, v in point.items())),
        free_params=free_params,
        constraint=constraint,
        domain_dim=len(free_params) + lay.dim1,
        middle_dim=lay.dim2,
        codomain_dim=codom,
        rank_df=df_rank.rank,
        ker_dg_dim=ker_dg,
        containment=containment,
        exact=containment and df_rank.rank == ker_dg,
    )
