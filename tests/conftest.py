import random
from fractions import Fraction

import pytest

from nilcohom.catalog import Catalog
from nilcohom.liealg import Layout, StructureConstants, _dense_table, _sigma_of_vec
from nilcohom.linalg import ExactMatrix
from nilcohom.scalars import QI


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


def dense_rref(rows):
    """Naive dense Gauss-Jordan elimination over Q or Q(i); the independent
    oracle.  Returns the nonzero rows of the reduced row echelon form: monic,
    sorted by lead, each lead column zero in every other row."""
    m = [[x if isinstance(x, QI) else Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
    return m[:row]


def dense_rank(rows):
    """Rank by the dense oracle."""
    return len(dense_rref(rows))


def random_structure(n, rng=None, density=0.5, lo=-3, hi=3):
    rng = rng or random.Random(0)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for k in range(n):
                if rng.random() < density:
                    v = rng.randint(lo, hi)
                    if v:
                        row[k] = Fraction(v)
            if row:
                brackets[(i, j)] = row
    return StructureConstants(n, brackets)


def d1_by_brackets(mu):
    """d1 by its definition, through ``StructureConstants.bracket``; the
    independent oracle for ``d1_matrix``.  Column p*n+q is the 1-cochain
    alpha(e_p) = e_q, row t*n+m the coordinate e_m at the t-th pair i < j:
    d1(alpha)(e_i, e_j) = mu(e_i, alpha e_j) + mu(alpha e_i, e_j)
    - alpha(mu(e_i, e_j))."""
    n = mu.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    entries = {}
    for p in range(n):
        for q in range(n):
            def alpha(v):
                return [v[p] if m == q else 0 for m in range(n)]

            for t, (i, j) in enumerate(pairs):
                ei, ej = unit[i], unit[j]
                a = mu.bracket(ei, alpha(ej))
                b = mu.bracket(alpha(ei), ej)
                c = alpha(mu.bracket(ei, ej))
                for m in range(n):
                    v = a[m] + b[m] - c[m]
                    if v:
                        entries[(t * n + m, p * n + q)] = v
    return ExactMatrix(len(pairs) * n, n * n, entries, mu.field)


def dj_matrix(mu):
    """Derivative of the cyclic Jacobi operator, summed over the three
    cyclic orders; the independent oracle for ``d2_matrix``, which equals
    -dj_matrix entry for entry."""
    lay = Layout(mu.n)
    n = mu.n
    _, table = _dense_table(mu, scaled=False)
    entries = {}
    for (i, j, l) in lay.triples:
        F = {}
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            if table[x][y] is not None:
                _sigma_of_vec(F, lay, table[x][y], z, 1, n)
            pi, sgn = lay.atom(x, y)
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
