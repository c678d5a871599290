import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import chain
from operator import sub

import pytest
from hypothesis import strategies as st

from nilcohom import cohomology, ideals, liealg
from nilcohom.catalog import Catalog
from nilcohom.cohomology import iter_dnk_rows, iter_dsnk_rows
from nilcohom.errors import Budget, DimensionMismatch, ResourceCapExceeded, TableError
from nilcohom.liealg import Layout, StructureConstants, change_basis
from nilcohom.linalg import ExactMatrix, reduce_rows
from nilcohom.polynomials import MultiPoly
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI, format_scalar, join_fields, promote
from nilcohom.tables import _MAX_DEGREE


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


@pytest.fixture(autouse=True)
def _no_kept_entries():
    """Each test starts with no table's entry kept by ``liealg._entry``
    (operators, generators, Im d1, stacks and containment answers), no
    adapted table kept by ``liealg._adapted_form`` and no evaluated family
    or tangent kept by ``cohomology._at``, so a test that lowers a cap or
    patches a stream or reader is not served work done before it."""
    liealg._entry.cache_clear()
    liealg._adapted_form.cache_clear()
    cohomology._at.cache_clear()


def digest(items):
    """sha256 (first 16 hex digits) of ``(key, value)`` pairs, by their reprs,
    in any order."""
    text = repr(sorted((repr(key), repr(value)) for key, value in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def seeded_bases(mu, rng, count):
    """mu in ``count`` bases of three transvections I + c E_ij each, the
    first half with c in {1, -1, 2}, the rest with c in {i, 1 + i, -i}."""
    out = []
    for t in range(count):
        coeffs = (1, -1, 2) if t < count // 2 else (QI(0, 1), QI(1, 1), QI(0, -1))
        g = [[int(i == j) for j in range(mu.n)] for i in range(mu.n)]
        for _ in range(3):
            i, j = rng.sample(range(mu.n), 2)
            c = rng.choice(coeffs)
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        out.append(change_basis(mu, g))
    return out


_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def structure_tables(draw, field=None):
    """Random brackets of dimension 1-7 with denominators, over ``field``
    (Q or Q(i), drawn when None); over Q(i) some entries may come out real."""
    n = draw(st.integers(1, 7))
    field = field or draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    scalar = _RATIONALS if field == FIELD_Q else st.builds(QI, _RATIONALS, _RATIONALS)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    if pairs:
        brackets = draw(st.dictionaries(
            st.sampled_from(pairs),
            st.dictionaries(st.integers(0, n - 1), scalar, max_size=3),
            max_size=len(pairs),
        ))
    return StructureConstants(n, brackets, field)


@st.composite
def nilpotent_tables(draw, field=None):
    """Random brackets of dimension 1-7 with [e_i, e_j] in the span of the
    e_k, k > j, so nilpotent, of ints, or over Z[i] (drawn when ``field`` is
    None) of Gaussian integers, some of them real.  Not all are Lie."""
    n = draw(st.integers(1, 7))
    field = field or draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    small = st.integers(-3, 3)
    scalar = small if field == FIELD_Q else st.builds(QI, small, small)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n - 1):
            row = draw(st.dictionaries(st.integers(j + 1, n - 1), scalar, max_size=2))
            if row:
                brackets[(i, j)] = row
    return StructureConstants(n, brackets, field)


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


def _atom(lay, p, q):
    """(pair index, sign) of sigma(e_p, e_q), p != q, read off ``lay.pairs``."""
    return lay.pairs.index((min(p, q), max(p, q))), 1 if p < q else -1


def _sigma_of_vec(F, lay, vec, b, factor, n):
    """Accumulate factor * sigma(vec, e_b) into the column functional F,
    {column: dense vector over the output coordinates}."""
    for p, co in enumerate(vec):
        if not co or p == b:
            continue
        pi, sgn = _atom(lay, p, b)
        val = factor * co * sgn
        for s in range(n):
            acc = F.setdefault(pi * n + s, [0] * n)
            acc[s] = acc[s] + val


def dj_matrix(mu):
    """Derivative of the cyclic Jacobi operator, summed over the three
    cyclic orders; the independent oracle for ``d2_matrix``, which equals
    -dj_matrix entry for entry.  It reads the bracket through
    ``bracket_basis`` and builds column functionals, not the package's
    letter operators and rows."""
    lay = Layout(mu.n)
    n = mu.n
    table = [[mu.bracket_basis(x, y) for y in range(n)] for x in range(n)]
    entries = {}
    for t, (i, j, l) in enumerate(lay.triples):
        F = {}
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            _sigma_of_vec(F, lay, [table[x][y].get(m, 0) for m in range(n)], z, 1, n)
            pi, sgn = _atom(lay, x, y)
            for s in range(n):
                for m, w in table[s][z].items():
                    acc = F.setdefault(pi * n + s, [0] * n)
                    acc[m] = acc[m] + sgn * w
        base = t * n
        for col, vec in F.items():
            for m, v in enumerate(vec):
                if v:
                    entries[(base + m, col)] = v
    return ExactMatrix(lay.dim3, lay.dim2, entries, mu.field)


def _swap_letters(r, n, w):
    """Row index r with its letters of weight w*n and w swapped."""
    a, b = r // (w * n) % n, r // w % n
    return r + (b - a) * (w * n - w)


def _materialize(mu, k, rows, swaps):
    """The full matrix from a stream of one row per antisymmetry orbit.

    Row r = index * n + m carries the k+1 letters of its word; swapping the
    letters at positions (p, p+1) for p in ``swaps`` negates a row, so each
    streamed row is stored with its mirrors, the same row signed.
    """
    n = mu.n
    entries = {}
    for r, row in rows:
        images = [(r, 1)]
        for p in swaps:
            images += [(_swap_letters(s, n, n ** (k - p)), -sgn) for s, sgn in images]
        for s, sgn in images:
            for c, v in row.items():
                entries[(s, c)] = sgn * v
    return ExactMatrix(n ** (k + 1) * n, Layout(n).dim2, entries, mu.field)


def dnk_matrix(mu, k):
    """The derivative of the nested word with every row: ``iter_dnk_rows``
    with the mirrors of its rows put back (moderate n, k only)."""
    return _materialize(mu, k, iter_dnk_rows(mu, k, scaled=False), (0,))


def dsnk_matrix(mu, k):
    """The derivative of the split word with every row: ``iter_dsnk_rows``
    with the mirrors of its rows put back (moderate n, k only)."""
    swaps = (0, 2) if k >= 3 else (0,)
    return _materialize(mu, k, iter_dsnk_rows(mu, k, scaled=False), swaps)


def adapted_by_two_echelons(mu):
    """``liealg._adapted_form`` as it was built with two echelons: the basis
    chosen in one over n columns, layer by layer, and mu then written in it
    by ``liealg._transport``, which reduces [B | I] in a second and reads
    every bracket by a product.  The oracle of the one-echelon form."""
    n, table, right = liealg._read_operators(mu, scaled=True)
    g1 = reduce_rows((table[i][j] for i in range(n) for j in range(i + 1, n)
                     if table[i][j] is not None), n)
    letters = [s for s in range(n) if g1.add({s: 1})]
    kept = reduce_rows(({s: 1} for s in letters), n)
    layer = [[int(i == s) for i in range(n)] for s in letters]
    basis = list(layer)
    while layer:
        layer = [w for u in layer for s in letters
                 if (w := liealg._brv(right, n, u, s)) is not None
                 and kept.add({i: x for i, x in enumerate(w) if x})]
        basis += layer
    if len(basis) < n:
        return None, None
    form = liealg._transport(mu, basis)
    if form is None:
        raise RuntimeError("the basis built from the generators is dependent")
    nu = StructureConstants(n, form[0])
    if sum(map(len, nu.c.values())) < sum(map(len, mu.c.values())):
        return nu, liealg._Generators(range(len(letters)))
    return None, liealg._Generators(letters)


def in_eight_threads(work):
    """work(i) for i = 0..7, each in its own thread, the thread switches
    coming every microsecond."""
    interval = sys.getswitchinterval()
    pool = ThreadPoolExecutor(8)
    sys.setswitchinterval(1e-6)
    try:
        futures = [pool.submit(work, i) for i in range(8)]
        return [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)


# -- the membership search's inputs, worked out on every call ------------------


def _multiweight(poly, pos):
    """Torus weight of a multihomogeneous chart polynomial, as a vector with
    the weight of e_p at ``pos[p]``, or None."""
    weights = set()
    for mono in poly.terms:
        acc = [0] * len(pos)
        for (i, j, k), e in mono:
            acc[pos[i]] += e
            acc[pos[j]] += e
            acc[pos[k]] -= e
        weights.add(tuple(acc))
        if len(weights) > 1:
            return None
    return weights.pop() if weights else (0,) * len(pos)


def multiplier_columns_by_call(f, gens, bound):
    """``ideals._multiplier_columns`` with nothing kept between calls: the
    universe, each generator's degree and torus weight, and each variable's
    step, as the weight of ``MultiPoly.var(v)``, worked out afresh from f and
    ``gens``; the search is ``ideals._weighted_monomials``.  Returns
    (universe, columns, columns spent, prefixes spent), or the message of
    the cap it ran into in place of (universe, columns).  The oracle of
    ``ideals._presentation``."""
    universe = sorted(set().union(f.variables(), *(g.variables() for g in gens)))
    live = [(j, g, g.degree()) for j, g in enumerate(gens) if not g.is_zero()]
    weights = [None]
    if all(isinstance(v, tuple) for v in universe):
        pos = {p: i for i, p in enumerate(sorted({p for v in universe for p in v}))}
        weights = [_multiweight(p, pos) for p in [f] + [g for _, g, _ in live]]
    homog = None not in weights
    if homog:
        steps = tuple(_multiweight(MultiPoly.var(v), pos) for v in universe)
        rems = [list(map(sub, weights[0], wg)) for wg in weights[1:]]
    else:
        homog = f.is_homogeneous() and all(g.is_homogeneous() for g in gens)
        steps, rems = ((),) * len(universe), [[]] * len(live)
    df = f.degree()
    top = df if homog else bound
    depth = max([0] + [top - dg for _, _, dg in live])
    masks = (ideals._search_masks if depth <= _MAX_DEGREE
             else ideals._search_masks.__wrapped__)(steps, depth)
    found = Budget(ideals.MAX_UNWEIGHTED_COLUMNS,
                   f"membership system needs more than {ideals.MAX_UNWEIGHTED_COLUMNS}"
                   f" multiplier columns, over the cap {ideals.MAX_UNWEIGHTED_COLUMNS}")
    nodes = Budget(ideals.MAX_WEIGHTED_NODES,
                   f"membership search visits more than {ideals.MAX_WEIGHTED_NODES}"
                   " multiplier monomial prefixes, over the cap")
    width = bound.bit_length()
    units = [1 << r * width for r in range(len(universe))]
    columns = []
    try:
        for (j, g, dg), rem in zip(live, rems):
            degs = ([df - dg] if df >= dg else []) if homog else range(bound - dg + 1)
            for d in degs:
                codes = ideals._weighted_monomials(units, steps, masks, rem, d, found, nodes)
                columns.extend((j, code) for code in codes)
    except ResourceCapExceeded as exc:
        return str(exc), found.spent, nodes.spent
    return universe, columns, found.spent, nodes.spent


def multiplier_columns_spent(f, gens, bound):
    """``ideals._multiplier_columns(f, gens, bound)`` in the form of
    ``multiplier_columns_by_call``, the counts read off the two Budgets the
    call makes."""
    made = []

    class Counted(Budget):
        __slots__ = ()

        def __init__(self, limit, message):
            super().__init__(limit, message)
            made.append(self)

    kept, ideals.Budget = ideals.Budget, Counted
    try:
        out = ideals._multiplier_columns(f, gens, bound)
    except ResourceCapExceeded as exc:
        out = (str(exc),)
    finally:
        ideals.Budget = kept
    return (*out, *(b.spent for b in made))


# -- matrix and subspace helpers that only the tests need ------------------------


def identity(n, field=FIELD_Q):
    return ExactMatrix(n, n, {(i, i): 1 for i in range(n)}, field)


def mat_vec(m, v):
    """The ExactMatrix ``m`` applied to the dense vector ``v``."""
    if len(v) != m.ncols:
        raise DimensionMismatch("vector length does not match ncols")
    zero = QI(0) if m.field == FIELD_QI else Fraction(0)
    out = [zero] * m.nrows
    for (r, c), a in m.entries.items():
        if v[c]:
            out[r] = out[r] + a * v[c]
    return out


def transpose(m):
    return ExactMatrix(m.ncols, m.nrows, {(c, r): v for (r, c), v in m.entries.items()}, m.field)


def stack(top, bottom):
    """Rows of ``top`` above rows of ``bottom``."""
    assert top.ncols == bottom.ncols
    entries = dict(top.entries)
    for (r, c), v in bottom.entries.items():
        entries[(r + top.nrows, c)] = v
    field = join_fields(top.field, bottom.field)
    return ExactMatrix(top.nrows + bottom.nrows, top.ncols, entries, field)


def matmul(a, b):
    assert a.ncols == b.nrows
    by_row = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    entries = {}
    for (r, k), x in a.entries.items():
        for c, y in by_row.get(k, ()):
            entries[(r, c)] = entries.get((r, c), 0) + x * y
    return ExactMatrix(a.nrows, b.ncols, entries, join_fields(a.field, b.field))


def center(mu):
    """The centre as the kernel of x -> (mu(x, e_j))_j."""
    n = mu.n
    entries = {}
    for j in range(n):
        for i in range(n):
            for k, v in mu.bracket_basis(i, j).items():
                entries[(j * n + k, i)] = v
    ad = ExactMatrix(n * n, n, entries, mu.field)
    return reduce_rows(kernel_basis(ad), n, mu.field)


def kernel_basis(m):
    """Vectors spanning Ker(m); count is always ncols - rank.

    One vector per free column f: e_f minus, for every pivot row, its entry
    in column f over its lead, placed at the lead.
    """
    field = m.field
    one, zero = (QI(1), QI(0)) if field == FIELD_QI else (Fraction(1), Fraction(0))
    basis = reduce_rows((dict(zip(cols, vals)) for cols, vals in m.iter_rows()), m.ncols, field)
    rows = dict(zip(basis.pivot_cols(), basis.sparse_rows()))
    out = []
    for f in range(m.ncols):
        if f in rows:
            continue
        v = [zero] * m.ncols
        v[f] = one
        for p, row in rows.items():
            if f in row:
                v[p] = promote(-row[f], field) / row[p]
        out.append(v)
    return out


def streaming_rank(rows, ncols, field=FIELD_Q):
    """Rank of the stacked ``rows``, dense or sparse, through ``reduce_rows``."""
    return reduce_rows(rows, ncols, field).rank


def direct_sum(mu1, mu2, name=None):
    """mu1 (+) mu2 on the concatenated bases."""
    n = mu1.n + mu2.n
    brackets = {pair: dict(coeffs) for pair, coeffs in mu1.c.items()}
    off = mu1.n
    for (i, j), coeffs in mu2.c.items():
        brackets[(i + off, j + off)] = {k + off: v for k, v in coeffs.items()}
    return StructureConstants(n, brackets, join_fields(mu1.field, mu2.field), name)


def contains_space(big, small):
    """Whether the span of one RowBasis holds the span of another (of the
    same field): adding the rows of ``small`` leaves the rank of ``big``."""
    field = FIELD_QI if big.gaussian else FIELD_Q
    rows = chain(big.sparse_rows(), small.sparse_rows())
    return reduce_rows(rows, big.ncols, field).rank == big.rank


def algebra_to_dict(mu, name=None) -> dict:
    """The ``brackets`` record of ``jsonio`` for ``mu``, named ``name`` or,
    by default, ``mu.name``; ``jsonio.algebra_from_dict`` reads it back."""
    brackets = []
    for (i, j) in mu.brackets():
        coeffs = mu.bracket_basis(i, j)
        terms = [{"k": k + 1, "c": format_scalar(coeffs[k])} for k in sorted(coeffs)]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {
        "name": name if name is not None else mu.name,
        "dim": mu.n,
        "field": mu.field,
        "brackets": brackets,
    }


def format_table(mu) -> str:
    """Render structure constants back to the table text that
    ``tables.parse_table`` reads; zero bracket -> ''.

    Raises TableError from dimension 27 on, which has no basis letters, and
    on a Gaussian coefficient from dimension 9 on: the letter i is then the
    basis vector e_9, so the text would not parse back.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    if mu.n > len(letters):
        raise TableError(f"dimension {mu.n} has no table text: the basis letters are a..z (1..26)")
    gaussian = any(isinstance(c, QI) and c.im for row in mu.c.values() for c in row.values())
    if gaussian and mu.n >= 9:
        raise TableError(f"a Gaussian coefficient has no table text in dimension {mu.n} >= 9")
    chunks = []
    for (i, j) in sorted(mu.brackets()):
        coeffs = mu.bracket_basis(i, j)
        parts = []
        for k in sorted(coeffs):
            c = coeffs[k]
            parts.append(_coeff_prefix(c, bool(parts)) + letters[k])
        chunks.append(f"{letters[i]}{letters[j]} = {''.join(parts)}")
    return ", ".join(chunks)


def _coeff_prefix(c, inner):
    if isinstance(c, QI) and c.im != 0:
        s = format_scalar(c).replace(" i", "i")
        return ("+" if inner else "") + f"({s})"
    c = c.to_fraction() if isinstance(c, QI) else Fraction(c)
    if c == 1:
        return "+" if inner else ""
    if c == -1:
        return "-"
    s = str(c)
    if inner and not s.startswith("-"):
        s = "+" + s
    return s
