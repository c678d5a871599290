import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    d1_by_brackets,
    dense_rank,
    digest,
    dj_matrix,
    dnk_matrix,
    dsnk_matrix,
    kernel_basis,
    mat_vec,
    matmul,
    random_structure,
    seeded_bases,
    stack,
    structure_tables,
)
from nilcohom import cohomology, liealg, linalg, reproduce
from nilcohom.catalog import named_polynomial
from nilcohom.cohomology import (
    Layout,
    _constraint_reducer,
    _sequence,
    augmented_exactness,
    cochain_vector,
    d1_matrix,
    d2_matrix,
    derivation_dim,
    h2_dim,
    h2_knil,
    iter_d1_columns,
    iter_d2_rows,
    iter_dnk_rows,
    iter_dsnk_rows,
    parse_constraint,
)
from nilcohom.errors import NotInVariety, NotLieAlgebra, NotNumeric, ResourceCapExceeded
from nilcohom.ideals import member_bounded, nilpotency_ideal
from nilcohom.liealg import (
    StructureConstants,
    _letters,
    change_basis,
    is_lie,
    jacobi,
    k_step_generators,
    n_k,
    nil_index,
    pencil,
    sn_k,
    split_generators,
    table_in_basis,
)
from nilcohom.linalg import ExactMatrix, rank, reduce_rows
from nilcohom.polynomials import MultiPoly
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI, promote
from nilcohom.tables import parse_symbolic

# the printed (z, b, h) of the eight non-abelian nilpotent algebras of dim 5
DIM5_TABLE = {
    ("f_3+R^2", 2): (20, 9, 11),
    ("g_{5,1}", 2): (10, 10, 0),
    ("g_{5,2}", 2): (12, 12, 0),
    ("f_4+R", 3): (18, 14, 4),
    ("g_{5,3}", 3): (17, 15, 2),
    ("g_{5,4}", 3): (15, 15, 0),
    ("f_5", 4): (17, 16, 1),
    ("g_{5,6}", 4): (17, 17, 0),
}

# sl(2): ab = c, ca = 2a, cb = -2b; perfect, so in no k-step variety
SL2 = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}


def _with_entries(mu, fn, field=None):
    """mu with every structure constant v replaced by fn(v)."""
    brackets = {p: {k: fn(v) for k, v in c.items()} for p, c in mu.c.items()}
    return StructureConstants(mu.n, brackets, field or mu.field)


def _g53_tables(catalog):
    """g_{5,3} as printed, and in the basis diag(2, 3, 1, 1, 1), where its
    structure constants have the denominators 6, 2 and 3."""
    mu = catalog.structure("g_{5,3}")
    d = (2, 3, 1, 1, 1)
    return mu, change_basis(mu, [[d[i] * (i == j) for j in range(5)] for i in range(5)])


def _gaussian_table(rng):
    """A random 4-dimensional table with Gaussian structure constants."""
    return _with_entries(random_structure(4, rng), lambda v: QI(v, rng.randint(-2, 2)), FIELD_QI)


def _assert_scaled_rows_are_one_integer_multiple(gen, *args):
    """scaled=True rows are the unscaled rows times one positive integer."""
    plain = list(gen(*args, scaled=False))
    scaled = list(gen(*args))
    assert [r for r, _ in scaled] == [r for r, _ in plain] and plain
    c = Fraction(next(iter(scaled[0][1].values()))) / next(iter(plain[0][1].values()))
    assert c.denominator == 1 and c > 0
    for (_, row), (_, ref) in zip(scaled, plain):
        assert all(type(v) is int for v in row.values())
        assert row == {col: c * v for col, v in ref.items()}
    return c


def _mirror_images(r, n, k, kind):
    """(row, sign) of every row the word's antisymmetries tie to row r:
    swapping letters 1 and 2 negates, and for the split word with k >= 3 so
    does swapping letters 3 and 4."""
    index, m = divmod(r, n)
    letters = [index // n ** (k - p) % n for p in range(k + 1)]
    swaps = [0, 2] if kind == "sn" and k >= 3 else [0]
    out = []
    for mask in range(1 << len(swaps)):
        word, sign = list(letters), 1
        for bit, p in enumerate(swaps):
            if mask >> bit & 1:
                word[p], word[p + 1] = word[p + 1], word[p]
                sign = -sign
        index = 0
        for a in word:
            index = index * n + a
        out.append((index * n + m, sign))
    return out


def _matrix_rows(m):
    rows = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _streamed_entries_with_mirrors(gen, mu, k, kind):
    """Entries of the streamed rows together with their mirrored rows."""
    entries = {}
    for r, row in gen(mu, k, scaled=False):
        for image, sign in _mirror_images(r, mu.n, k, kind):
            for c, v in row.items():
                entries[(image, c)] = sign * v
    return entries


def _tensor_from_matrix_action(mat, sigma, n, arity):
    """Read a matrix-vector product back as a {tuple: vector} tensor."""
    applied = mat_vec(mat, cochain_vector(sigma))
    out = {}
    for r, val in enumerate(applied):
        if val:
            tupidx, m = divmod(r, n)
            tup = []
            for _ in range(arity):
                tup.append(tupidx % n)
                tupidx //= n
            out.setdefault(tuple(reversed(tup)), [0] * n)[m] = val
    return out


def _linear_coefficient(mu, sigma, k, kind):
    """Exact h-linear coefficient of the word tensor along mu + h*sigma.

    Independent of the matrix builders: evaluates the full tensor at k+1
    points and interpolates, so it exercises nothing but the word itself.
    """
    fn = sn_k if kind == "sn" else n_k
    pts = list(range(k + 1))
    vals = [fn(pencil(mu, sigma, Fraction(h)), k) for h in pts]
    keys = set()
    for v in vals:
        keys.update(v)
    n = mu.n
    out = {}
    for key in keys:
        acc = [Fraction(0)] * n
        for i, h in enumerate(pts):
            roots = [p for p in pts if p != h]
            denom = Fraction(1)
            for r in roots:
                denom *= h - r
            e = Fraction(0)
            for comb in combinations(roots, len(roots) - 1):
                prod = Fraction(1)
                for r in comb:
                    prod *= r
                e += prod
            lin = (-1) ** (len(roots) - 1) * e / denom
            row = vals[i].get(key, [0] * n)
            for c in range(n):
                acc[c] += lin * row[c]
        if any(acc):
            out[key] = acc
    return out


def test_layout_sigma_is_the_documented_column_convention():
    for n in range(1, 9):
        lay = Layout(n)
        assert len(lay.sigma) == n and all(len(row) == n for row in lay.sigma)
        for p in range(n):
            assert lay.sigma[p][p] is None
            for q in range(n):
                if p != q:
                    first = lay.pairs.index((min(p, q), max(p, q))) * n
                    assert lay.sigma[p][q] == (first, 1 if p < q else -1)
        for i, j in lay.pairs:
            for k in range(n):
                v = cochain_vector(StructureConstants(n, {(i, j): {k: 1}}))
                assert [c for c, x in enumerate(v) if x] == [lay.sigma[i][j][0] + k]
                assert v[lay.sigma[i][j][0] + k] == 1


def test_d1_matrix_values(catalog):
    assert not d1_matrix(StructureConstants.abelian(3)).entries
    assert rank(d1_matrix(catalog.structure("g_{5,3}"))).rank == 15
    assert rank(d1_matrix(catalog.structure("f_3+R^2"))).rank == 9
    # the column stream, entry for entry against d1 by its definition
    mu, rescaled = _g53_tables(catalog)
    rng = random.Random(41)
    for table in (mu, rescaled, random_structure(4, rng), _gaussian_table(rng)):
        got, want = d1_matrix(table), d1_by_brackets(table)
        assert (got.nrows, got.ncols, got.entries) == (want.nrows, want.ncols, want.entries)
    assert _assert_scaled_rows_are_one_integer_multiple(iter_d1_columns, mu) == 1
    # d1 is linear in mu, and the table is scaled by 6
    assert _assert_scaled_rows_are_one_integer_multiple(iter_d1_columns, rescaled) == 6


def test_d1_rank_against_brute_force_derivation_count(catalog):
    # derivations of the 3-dim Heisenberg algebra: solve the constraint
    # D[x,y] = [Dx,y] + [x,Dy] entry by entry with a dense oracle
    f3 = catalog.structure("f_3")
    n = 3
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for p, co in f3.bracket_basis(i, j).items():
                    row[p * n + m] += co  # -D(mu(ei,ej)) sign folded below
                for q in range(n):
                    row[i * n + q] -= f3.entry(q, j, m)
                    row[j * n + q] -= f3.entry(i, q, m)
                rows.append(row)
    der_dim = 9 - dense_rank(rows)
    assert der_dim == 6
    d1 = d1_matrix(f3)
    assert d1.nrows == 9 and d1.ncols == 9
    assert rank(d1).rank == 9 - der_dim == 3


def test_d2_composes_to_zero_on_catalog(catalog):
    for name in ("f_5", "g_{5,3}", "12346_E", "g_{247H}"):
        mu = catalog.structure(name)
        assert not matmul(d2_matrix(mu), d1_matrix(mu)).entries, name


def test_d2_is_minus_dj_and_quadratic_expansion(catalog):
    # the row stream, entry for entry against the Jacobi oracle, on tables
    # with denominators and with Gaussian entries too
    mu, rescaled = _g53_tables(catalog)
    for table in (mu, rescaled, _gaussian_table(random.Random(32))):
        d2 = d2_matrix(table)
        assert dj_matrix(table).entries == {k: -v for k, v in d2.entries.items()}
    assert _assert_scaled_rows_are_one_integer_multiple(iter_d2_rows, mu) == 1
    assert _assert_scaled_rows_are_one_integer_multiple(iter_d2_rows, rescaled) == 6
    rng = random.Random(31)
    for _ in range(20):
        mu = random_structure(4, rng)
        d2 = d2_matrix(mu)
        dj = dj_matrix(mu)
        assert dj.entries == {k: -v for k, v in d2.entries.items()}
        # J is quadratic: J(mu+sigma) - J(mu) - J(sigma) is the derivative
        sigma = random_structure(4, rng)
        lay = Layout(4)
        applied = mat_vec(dj, cochain_vector(sigma))
        got = {}
        for r, val in enumerate(applied):
            if val:
                trip, m = lay.triples[r // 4], r % 4
                got.setdefault(trip, [0] * 4)[m] = val
        expect = {}
        j1 = jacobi(pencil(mu, sigma, Fraction(1)))
        j0 = jacobi(mu)
        js = jacobi(sigma)
        for key in set(j1) | set(j0) | set(js):
            vec = [
                j1.get(key, [0] * 4)[c] - j0.get(key, [0] * 4)[c] - js.get(key, [0] * 4)[c]
                for c in range(4)
            ]
            if any(vec):
                expect[key] = vec
        assert got == expect
    assert not dj_matrix(StructureConstants.abelian(3)).entries


def test_dnk_matrix_k1_is_signed_identity_block(catalog):
    mu = catalog.structure("f_3")
    lay = Layout(3)
    m = dnk_matrix(mu, 1)
    assert rank(m).rank == lay.dim2
    for t, (i, j) in enumerate(lay.pairs):
        for s in range(3):
            row = (i * 3 + j) * 3 + s
            assert m.entries.get((row, t * 3 + s)) == 1
            row_swapped = (j * 3 + i) * 3 + s
            assert m.entries.get((row_swapped, t * 3 + s)) == -1


def test_dnk_matrix_k3_three_term_formula(catalog):
    mu = catalog.structure("g_{5,3}")
    rng = random.Random(8)
    sigma = random_structure(5, rng)
    m = dnk_matrix(mu, 3)
    got = _tensor_from_matrix_action(m, sigma, 5, 4)
    # independent evaluation of the three replacement terms
    e = lambda i: [Fraction(j == i) for j in range(5)]
    expect = {}
    for tup in [(a, b, c, d) for a in range(5) for b in range(5)
                for c in range(5) for d in range(5)]:
        x1, x2, x3, x4 = (e(i) for i in tup)
        t1 = mu.bracket(mu.bracket(sigma.bracket(x1, x2), x3), x4)
        t2 = mu.bracket(sigma.bracket(mu.bracket(x1, x2), x3), x4)
        t3 = sigma.bracket(mu.bracket(mu.bracket(x1, x2), x3), x4)
        vec = [a + b + c for a, b, c in zip(t1, t2, t3)]
        if any(vec):
            expect[tup] = vec
    assert got == expect


def test_differentials_vanish_at_the_abelian_point():
    ab = StructureConstants.abelian(3)
    assert not dnk_matrix(ab, 2).entries
    assert not dsnk_matrix(ab, 3).entries
    rep = h2_knil(ab, 2)
    assert (rep.z, rep.b, rep.h) == (9, 0, 9)


@pytest.mark.parametrize("kind,k", [("n", 2), ("n", 3), ("n", 4), ("sn", 2),
                                    ("sn", 3), ("sn", 4)])
def test_word_derivative_matches_interpolated_expansion(catalog, kind, k):
    rng = random.Random(100 + k)
    cases = [(random_structure(4, rng), random_structure(4, rng)) for _ in range(3)]
    # a table with denominators, and a Gaussian one (in dimension 3, where
    # the Gaussian arithmetic of the interpolation stays cheap)
    cases.append((_with_entries(random_structure(4, rng), lambda v: v / rng.randint(2, 5)),
                  random_structure(4, rng)))
    cases.append((_with_entries(random_structure(3, rng), lambda v: QI(v, rng.randint(-2, 2)),
                                FIELD_QI), random_structure(3, rng)))
    if kind == "sn" and k in (3, 4):
        # a 5-dimensional nilpotent table with denominators, where the split
        # word combines several rows of its inner word
        cases.append((_g53_tables(catalog)[1], random_structure(5, rng)))
    for mu, sigma in cases:
        mat = dnk_matrix(mu, k) if kind == "n" else dsnk_matrix(mu, k)
        got = _tensor_from_matrix_action(mat, sigma, mu.n, k + 1)
        assert got == _linear_coefficient(mu, sigma, k, kind)


def test_certificates_materialize_no_matrix(catalog, monkeypatch):
    """The reports feed the streams straight to the reducer."""

    def refuse(*args, **kwargs):
        raise AssertionError("an ExactMatrix was built")

    monkeypatch.setattr(cohomology, "ExactMatrix", refuse)
    rep = h2_knil(catalog.structure("g_{5,3}"), 3)
    assert (rep.z, rep.b, rep.h) == (17, 15, 2)
    rep = h2_dim(catalog.structure("f_3"))
    assert (rep.z, rep.b, rep.h) == (8, 3, 5)
    assert derivation_dim(catalog.structure("g_{137B}")) == 13
    tab = catalog.get("g_{147E_1}(t)").symbolic()
    rep = augmented_exactness(tab, {"t": Fraction(2)}, ("t",), "n3")
    assert rep.exact and rep.rank_df == rep.ker_dg_dim == 35
    with pytest.raises(AssertionError, match="ExactMatrix"):
        d1_matrix(catalog.structure("f_3"))


def test_streamed_rows_match_materialized_matrix(catalog):
    mu, rescaled = _g53_tables(catalog)
    for table in (mu, rescaled):
        m = dnk_matrix(table, 3)
        assert _streamed_entries_with_mirrors(iter_dnk_rows, table, 3, "n") == m.entries
    assert _assert_scaled_rows_are_one_integer_multiple(iter_dnk_rows, mu, 3) == 1
    # the derivative of N_3 is quadratic in mu, and the table is scaled by 6
    assert _assert_scaled_rows_are_one_integer_multiple(iter_dnk_rows, rescaled, 3) == 36


def test_stacked_kernel_dimension(catalog):
    mu = catalog.structure("g_{5,3}")
    stacked = stack(d2_matrix(mu), dnk_matrix(mu, 3))
    ker = kernel_basis(stacked)
    assert len(ker) == 17
    for v in ker[:3]:
        assert not any(mat_vec(stacked, v))


def test_streaming_rank_cross_check_against_kernel(catalog):
    # compact form of the tall constraint matrix: the retained basis rows
    mu = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    red = _sequence(mu, "sn", 5)[2]
    compact = ExactMatrix.from_dense(red.basis_rows())
    assert red.rank == rank(compact).rank
    assert len(kernel_basis(compact)) == 147 - red.rank
    # and the exactness report agrees on dim Ker dG for the same point
    tab = catalog.get("g_5(r,t)").symbolic()
    rep = augmented_exactness(tab, {"r": Fraction(1), "t": Fraction(1)}, ("r", "t"), "sn5")
    assert rep.ker_dg_dim == 147 - red.rank


def test_a_table_over_polynomials_is_refused_where_numbers_are_read(catalog):
    # the numeric entry points read the scaled operators, which a "sym" table
    # has none of; is_lie reads it unscaled, and augmented_exactness
    # evaluates the family first
    tab = catalog.get("g_5(r,t)").symbolic()
    identity = [[int(i == j) for j in range(tab.n)] for i in range(tab.n)]
    calls = {
        "h2_knil": lambda: h2_knil(tab, 5),
        "h2_dim": lambda: h2_dim(tab),
        "derivation_dim": lambda: derivation_dim(tab),
        "change_basis": lambda: change_basis(tab, ExactMatrix.from_dense(identity)),
        "table_in_basis": lambda: table_in_basis(tab, identity),
    }
    for name, call in calls.items():
        with pytest.raises(NotNumeric, match="evaluate the family at a point") as info:
            call()
        assert isinstance(info.value, ValueError), name
    assert is_lie(tab)
    rep = augmented_exactness(tab, {"r": Fraction(1), "t": Fraction(1)}, ("r", "t"), "sn5")
    assert (rep.rank_df, rep.ker_dg_dim, rep.exact) == (41, 41, True)


def test_a_numeric_table_answers_as_its_twin_over_polynomials(catalog):
    # no symbols, nothing to evaluate; a declared parameter of a numeric
    # table has a zero tangent, as the constants of its twin have
    numeric = catalog.structure("g_{5,3}")
    twin = catalog.get("g_{5,3}").symbolic()
    assert numeric.field == FIELD_Q and twin.field == "sym" and not twin.free_symbols()
    assert twin.symbolic() is twin and numeric.symbolic().field == "sym"
    assert numeric.symbolic().evaluate({}) == twin.evaluate({}) == numeric
    reports = [augmented_exactness(table, {}, (), "n3") for table in (numeric, twin)]
    assert reports[0] == reports[1]
    rep = reports[0]
    assert (rep.rank_df, rep.ker_dg_dim, rep.containment, rep.exact) == (15, 17, True, False)
    gaussian = StructureConstants(numeric.n, numeric.c, FIELD_QI)
    assert augmented_exactness(gaussian, {}, (), "n3") == rep
    declared = StructureConstants(3, {(0, 1): {2: Fraction(1, 2)}}, params=("s",))
    twin = parse_symbolic("ab = c/2", 3, ("s",))
    reports = [augmented_exactness(table, {"s": Fraction(5)}, ("s",), "n2")
               for table in (declared, twin)]
    assert reports[0] == reports[1]
    assert (reports[0].rank_df, reports[0].ker_dg_dim, reports[0].exact) == (3, 3, True)


def test_a_tangent_outside_ker_dg_fails_containment():
    # the Jacobiator of ab = c, ac = s a is s c, so at s = 0 the tangent in
    # s leaves Ker dG; the d1 columns alone stay inside it
    table = parse_symbolic("ab = c\nac = s a", 3, ("s",))
    rep = augmented_exactness(table, {"s": Fraction(0)}, ("s",), "j")
    assert (rep.domain_dim, rep.middle_dim, rep.codomain_dim) == (10, 9, 3)
    assert (rep.rank_df, rep.ker_dg_dim, rep.containment, rep.exact) == (4, 8, False, False)
    rep = augmented_exactness(table, {"s": Fraction(0)}, (), "j")
    assert (rep.rank_df, rep.ker_dg_dim, rep.containment, rep.exact) == (3, 8, True, False)


def test_a_corrupted_kept_row_fails_containment(catalog):
    """Im d1 lies in Ker [d2 ; dN_3] at g_{5,3} over Q and over Q(i); one
    entry changed in any kept row, at a column some d1 column meets, takes
    that column's product with the row off zero.  The rows corrupted are
    those of a reducer of the test's own: ``_stack`` shares its stack
    with later calls, read-only."""
    mu = catalog.structure("g_{5,3}")
    for table in (mu, *seeded_bases(mu, random.Random(5), 2)):
        cols = [col for _, col in iter_d1_columns(table)]
        red = _constraint_reducer(table, "n", 3)
        assert red.annihilates(cols)
        met = set().union(*cols)
        corrupted = 0
        for row in red._rows.values():
            for c in sorted(met.intersection(row))[:2]:
                v = row[c]
                row[c] = v + 1
                assert not red.annihilates(cols), (table.name, c)
                row[c] = v
                corrupted += 1
        assert corrupted and red.annihilates(cols)


def test_streamed_split_rows_match_materialized_matrix(catalog):
    mu, rescaled = _g53_tables(catalog)
    for table in (mu, rescaled):
        m = dsnk_matrix(table, 3)
        assert _streamed_entries_with_mirrors(iter_dsnk_rows, table, 3, "sn") == m.entries
    assert _assert_scaled_rows_are_one_integer_multiple(iter_dsnk_rows, mu, 3) == 1
    assert _assert_scaled_rows_are_one_integer_multiple(iter_dsnk_rows, rescaled, 3) == 36


@pytest.mark.parametrize("kind,k", [("n", 1), ("n", 2), ("n", 3), ("n", 4), ("sn", 2),
                                    ("sn", 3), ("sn", 4)])
def test_stream_is_one_row_per_antisymmetry_orbit(kind, k):
    rng = random.Random(200 + k)
    tables = [
        random_structure(4, rng),
        _with_entries(random_structure(4, rng), lambda v: v / rng.randint(2, 5)),
        _with_entries(random_structure(3, rng), lambda v: QI(v, rng.randint(-2, 2)), FIELD_QI),
    ]
    gen, build = (iter_dnk_rows, dnk_matrix) if kind == "n" else (iter_dsnk_rows, dsnk_matrix)
    for mu in tables:
        m = build(mu, k)
        full = _matrix_rows(m)
        streamed = list(gen(mu, k, scaled=False))
        assert streamed
        # (a) every streamed row is the matrix row at its index
        for r, row in streamed:
            assert row == full[r], (r, mu)
        # (b) the stream spans the same row space as the whole matrix
        ncols = Layout(mu.n).dim2
        assert (reduce_rows((row for _, row in streamed), ncols, mu.field).sparse_rows()
                == reduce_rows(full.values(), ncols, mu.field).sparse_rows())
        # (c) every other nonzero row mirrors a streamed row, signed
        assert _streamed_entries_with_mirrors(gen, mu, k, kind) == m.entries


def test_streams_emit_no_zero_entry_and_no_empty_row(catalog):
    # the one row format {column: value}: every emitted row or column holds
    # an entry and no entry is zero.  At g_5(1,1) mu(e_a, e_f) has an e_f
    # term, so a mu(e_x, sigma(e_y, e_z)) entry of d2 meets a
    # sigma(mu(e_x, e_y), e_z) entry at the same place, and they cancel; on
    # the solvable [e_0, e_1] = -e_1, [e_0, e_2] = e_2 a whole d2 row cancels
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    assert g5.entry(0, 5, 5)
    rng = random.Random(20)
    tables = [
        g5,
        StructureConstants(3, {(0, 1): {1: -1}, (0, 2): {2: 1}}),
        catalog.structure("g_{137B}"),
        random_structure(4, rng),
        _with_entries(random_structure(4, rng), lambda v: v / rng.randint(2, 5)),
        _with_entries(random_structure(4, rng), lambda v: QI(v, rng.randint(-2, 2)), FIELD_QI),
    ]
    for mu in tables:
        for scaled in (True, False):
            streams = {
                "d1": iter_d1_columns(mu, scaled),
                "d2": iter_d2_rows(mu, scaled),
                "dN_3": iter_dnk_rows(mu, 3, scaled),
                "dN_2 least-first": iter_dnk_rows(mu, 2, scaled, least_first=True),
                "dSN_3": iter_dsnk_rows(mu, 3, scaled),
                "dSN_4 least-first": iter_dsnk_rows(mu, 4, scaled, least_first=True),
            }
            for name, stream in streams.items():
                for index, row in stream:
                    assert row and all(row.values()), (name, mu, scaled, index)


def test_halved_split_stream_keeps_the_constraint_rows(catalog):
    mu = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    full = _matrix_rows(dsnk_matrix(mu, 5))
    assert len(full) == 4 * sum(1 for _ in iter_dsnk_rows(mu, 5)) == 6664
    d2_rows = (dict(zip(cols, vals)) for cols, vals in d2_matrix(mu).iter_rows() if cols)
    ref = reduce_rows(chain(d2_rows, full.values()), Layout(7).dim2, mu.field)
    assert _sequence(mu, "sn", 5)[2].sparse_rows() == ref.sparse_rows()


def test_h2_reports(catalog):
    rep = h2_knil(catalog.structure("g_{5,3}"), 3)
    assert (rep.z, rep.b, rep.h) == (17, 15, 2) and not rep.rigid_certificate
    rep = h2_knil(catalog.structure("f_5"), 4)
    assert (rep.z, rep.b, rep.h) == (17, 16, 1)
    rep = h2_knil(catalog.structure("12346_E"), 5)
    assert (rep.z, rep.b, rep.h) == (28, 28, 0) and rep.rigid_certificate
    rep = h2_knil(catalog.structure("g_{137B}"), 3)
    assert rep.h == 0 and rep.b == 36
    d = rep.to_dict()
    assert d["orbit_dim"] == 36 and d["rigid_certificate"] is True


def test_h2_knil_validates_the_variety(catalog):
    with pytest.raises(NotInVariety):
        h2_knil(catalog.structure("f_5"), 3)  # 4-step is not 3-step
    bad = StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}})
    with pytest.raises(NotInVariety):
        h2_knil(bad, 3)


def test_k_step_guard_is_polynomial_in_k():
    # enumerating the 3^31 words of N_30 would never finish
    with pytest.raises(NotInVariety, match="violates N_30 = 0"):
        h2_knil(StructureConstants(3, SL2), 30)
    table = StructureConstants(3, {p: {k: MultiPoly.const(v) for k, v in c.items()}
                                   for p, c in SL2.items()}, "sym")
    with pytest.raises(NotInVariety, match="violates N_30 = 0"):
        augmented_exactness(table, {}, (), "n30")
    # and the 3^29 inner words of SN_30
    with pytest.raises(NotInVariety, match="violates SN_30 = 0"):
        augmented_exactness(table, {}, (), "sn30")


def test_one_guard_and_one_message_per_fault(catalog):
    # the three certificates build their sequence in one routine, so each
    # fault is refused with one class and one message
    bad = StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}})
    bad_table = StructureConstants(5, {p: {k: MultiPoly.const(v) for k, v in c.items()}
                                       for p, c in bad.c.items()}, "sym")
    f4 = catalog.structure("f_4")  # 3-step
    faults = (("point violates the Jacobi identity",
               (lambda: h2_knil(bad, 3), lambda: h2_dim(bad),
                lambda: augmented_exactness(bad_table, {}, (), "j"),
                lambda: augmented_exactness(bad_table, {}, (), "sn3"))),
              ("point violates N_2 = 0",
               (lambda: h2_knil(f4, 2),
                lambda: augmented_exactness(catalog.get("f_4").symbolic(), {}, (), "n2"))))
    for message, calls in faults:
        for call in calls:
            with pytest.raises(NotInVariety) as refused:
                call()
            assert type(refused.value) is NotInVariety and str(refused.value) == message


def test_h2_dim(catalog):
    rep = h2_dim(StructureConstants.abelian(2))
    assert rep.h == 2  # all differentials vanish: h = dim of the cochain space
    rep = h2_dim(catalog.structure("g_1(t)", {"t": Fraction(2)}))
    assert rep.h == 9
    # cross-check the small case against the dense oracle
    f3 = catalog.structure("f_3")
    rep = h2_dim(f3)
    d1 = d1_matrix(f3)
    d2 = d2_matrix(f3)
    dense = lambda m: [
        [m.entries.get((r, c), Fraction(0)) for c in range(m.ncols)]
        for r in range(m.nrows)
    ]
    z = 9 - dense_rank(dense(d2))
    b = dense_rank(dense(d1))
    assert (rep.z, rep.b, rep.h) == (z, b, z - b)
    with pytest.raises(NotInVariety, match="violates the Jacobi identity"):
        h2_dim(StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}}))


def test_derivation_and_orbit_dims(catalog):
    ab = StructureConstants.abelian(3)
    assert derivation_dim(ab) == 9
    # the orbit dimension is n^2 - dim Der
    assert 7 * 7 - derivation_dim(catalog.structure("g_{247H}")) == 38
    assert 7 * 7 - derivation_dim(catalog.structure("g_{137B}")) == 36


def test_word_row_streams_and_derivations_refuse_bad_input():
    heisenberg = StructureConstants(3, {(0, 1): {2: 1}})
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        list(iter_dnk_rows(heisenberg, 0))
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        list(iter_dsnk_rows(heisenberg, 1))
    with pytest.raises(NotLieAlgebra, match="^derivations are defined for Lie brackets$"):
        derivation_dim(StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}}))


def test_image_of_d1_inside_every_word_kernel(catalog):
    for name, k in (("g_{5,3}", 3), ("g_{5,1}", 2), ("f_5", 4)):
        mu = catalog.structure(name)
        assert not matmul(dnk_matrix(mu, k), d1_matrix(mu)).entries, name


@st.composite
def _dim5_in_a_new_basis(draw):
    """A printed dim-5 algebra and a product of 1-4 transvections I + c E_ij
    with rational or Gaussian c."""
    (name, k), zbh = draw(st.sampled_from(sorted(DIM5_TABLE.items())))
    coeffs = draw(st.sampled_from(((1, -1, 2, Fraction(1, 2), Fraction(-1, 3)),
                                   (QI(0, 1), QI(0, -1), QI(1, 1), QI(1, -1)))))
    g = [[Fraction(i == j) for j in range(5)] for i in range(5)]
    pair = st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)
    for (i, j), c in draw(st.lists(st.tuples(pair, st.sampled_from(coeffs)),
                                   min_size=1, max_size=4)):
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return name, k, zbh, g


# a dense integer basis, which the transvection products above never reach
@example(("g_{5,4}", 3, (15, 15, 0), [[0, 0, -1, -1, -1], [-2, 0, 1, 2, 2], [-1, -1, 2, 2, -2],
                                      [0, -2, 1, -1, -1], [2, 1, -1, 0, 0]]))
@settings(max_examples=10, deadline=None)
@given(_dim5_in_a_new_basis())
def test_h2_knil_invariant_under_basis_change(catalog, case):
    name, k, zbh, g = case
    rep = h2_knil(change_basis(catalog.structure(name), g), k)
    assert (rep.z, rep.b, rep.h) == zbh


_NILPOTENT = (("f_3", 3), ("f_4", 4), ("f_5", 5), ("f_4+R", 5), ("g_{5,1}", 5), ("g_{5,3}", 5),
              ("g_{5,4}", 5), ("g_{5,6}", 5), ("12346_E", 6), ("g_{137A}", 7), ("g_{147D}", 7),
              ("g_{247K}", 7))


@st.composite
def _k_step_tables(draw):
    """A table over Z or Z[i], and a step k: a printed nilpotent algebra
    with a basis of 1-4 transvections I + c E_ij (its name and the basis),
    a random 2-step table (the brackets of the first m letters in the span
    of the others, which are central), or a random table of
    ``structure_tables``, mostly not Lie."""
    gaussian = draw(st.booleans())
    ints = st.integers(-3, 3)
    scalar = st.builds(QI, ints, ints) if gaussian else ints
    kind = draw(st.sampled_from(("printed", "2-step", "random")))
    if kind == "random":
        mu = draw(structure_tables(FIELD_QI if gaussian else FIELD_Q))
    elif kind == "2-step":
        n = draw(st.integers(3, 7))
        m = draw(st.integers(2, n - 1))
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        mu = StructureConstants(n, draw(st.dictionaries(
            st.sampled_from(pairs), st.dictionaries(st.integers(m, n - 1), scalar, max_size=3),
            min_size=1, max_size=len(pairs))))
    else:
        name, n = draw(st.sampled_from(_NILPOTENT))
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        for (i, j), c in draw(st.lists(st.tuples(pair, scalar), min_size=1, max_size=4)):
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        mu = (name, g)
    return mu, draw(st.integers(1, 4))


def _ranks_or_refusal(f):
    """(z, b) from ``f``, or the type and message of its refusal."""
    try:
        return f()
    except NotInVariety as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(_k_step_tables())
def test_h2_knil_reads_the_ranks_of_the_given_basis(catalog, case):
    # the adapted basis and its uniform scale change no rank and no refusal:
    # h2_knil answers as Hamilton's sequence at the table as it is given
    mu, k = case
    if isinstance(mu, tuple):
        mu = change_basis(catalog.structure(mu[0]), mu[1])

    def report():
        rep = h2_knil(mu, k)
        return rep.z, rep.b

    def given_basis():
        _, b, red = _sequence(mu, "n", k)
        return Layout(mu.n).dim2 - red.rank, b

    assert _ranks_or_refusal(report) == _ranks_or_refusal(given_basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_h2_dim_is_unchanged_by_a_change_of_basis(catalog, data):
    # z, b and h are invariants of the point, and so is a refusal: a table
    # and its copy in a basis of 1-4 transvections I + c E_ij, c an integer
    # or a Gaussian integer, give one answer, on random tables (mostly not
    # Lie), the printed algebras and sl(2)
    if data.draw(st.booleans()):
        mu = data.draw(structure_tables())
    else:
        printed = [name for name in catalog.names() if not catalog.get(name).params]
        mu = data.draw(st.sampled_from([catalog.structure(name) for name in printed]
                                       + [StructureConstants(3, SL2)]))
    ints = st.integers(-2, 2)
    scalar = data.draw(st.sampled_from((ints, st.builds(QI, ints, ints.filter(bool)))))
    g = [[int(i == j) for j in range(mu.n)] for i in range(mu.n)]
    if mu.n > 1:
        pair = st.lists(st.integers(0, mu.n - 1), min_size=2, max_size=2, unique=True)
        for (i, j), c in data.draw(st.lists(st.tuples(pair, scalar), min_size=1, max_size=4)):
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]

    def dims(table):
        rep = h2_dim(table)
        return rep.z, rep.b, rep.h

    moved = change_basis(mu, g)
    assert _ranks_or_refusal(lambda: dims(moved)) == _ranks_or_refusal(lambda: dims(mu))


def _monotone_in_k(mu, k):
    """The (z, b) of h2_knil at k and k + 1 and of h2_dim at mu, a k-step
    point, checked against z(k) <= z(k + 1) <= z(h2_dim) with one b."""
    reports = [h2_knil(mu, k), h2_knil(mu, k + 1), h2_dim(mu)]
    zs, bs = [rep.z for rep in reports], {rep.b for rep in reports}
    assert zs == sorted(zs) and len(bs) == 1, (mu, k, zs, bs)


@settings(max_examples=60, deadline=None)
@given(_k_step_tables(), st.integers(0, 2), st.data())
def test_z_is_monotone_in_k_on_random_k_step_tables(catalog, case, extra, data):
    """At a k-step point z(h2_knil, k) <= z(h2_knil, k + 1) <= z(h2_dim),
    with the same b.  N_{k+1}(x_1, ..., x_{k+2}) = mu(N_k(x_1, ..., x_{k+1}),
    x_{k+2}), so by the product rule

        dN_{k+1}(phi)(x) = phi(N_k(mu)(x_1, ..., x_{k+1}), x_{k+2})
                           + mu(dN_k(phi)(x_1, ..., x_{k+1}), x_{k+2}),

    and at N_k(mu) = 0 the first term vanishes: dN_{k+1}(phi) =
    mu(dN_k(phi)(...), x_{k+2}).  So Ker d2 ^ Ker dN_k lies in
    Ker d2 ^ Ker dN_{k+1}, which lies in Ker d2; the point is (k+1)-step
    too, and b = rank d1 does not depend on k."""
    mu, _ = case
    if isinstance(mu, tuple):
        mu = change_basis(catalog.structure(mu[0]), mu[1])
    elif not is_lie(mu) or nil_index(mu) is None:
        n, values = mu.n, [v for row in mu.c.values() for v in row.values()] or [1]
        brackets = {}
        if data.draw(st.booleans()):
            # the brackets of the first m letters, sent onto the others:
            # a 2-step table
            m = data.draw(st.integers(1, max(n - 1, 1)))
            for (i, j), row in mu.c.items():
                if j < m:
                    for l, v in row.items():
                        out = brackets.setdefault((i, j), {})
                        out[m + l % (n - m)] = out.get(m + l % (n - m), 0) + v
        else:
            # [e_0, e_i] = c_i e_{i+1} with the table's values: filiform,
            # of step n - 1
            brackets = {(0, i): {i + 1: values[i % len(values)]} for i in range(1, n - 1)}
        mu = StructureConstants(n, brackets, mu.field)
    # k from the nilpotency index to two steps past it
    _monotone_in_k(mu, max(nil_index(mu), 1) + extra)


def test_z_is_monotone_in_k_on_the_catalog(catalog):
    # every non-parametric catalog algebra of dimension at most 7 is
    # nilpotent; the property at its nilpotency index and the two steps past
    # it (the proof is in the docstring above)
    checked = 0
    for name in catalog.names():
        if catalog.get(name).params:
            continue
        mu = catalog.structure(name)
        if mu.n <= 7:
            step = nil_index(mu)
            for k in range(step, step + 3):
                _monotone_in_k(mu, k)
            checked += 1
    assert checked == 21


@st.composite
def _gaussian_points(draw):
    """(mu, k) over Q(i): a table of ``random_structure`` with Gaussian
    constants (mostly not Lie; k from 1 to 3), its 2-step part (the
    brackets of the first m letters, on the others; k 2 or 3), or a
    printed dim-5 algebra (its name) with a basis of 1-4 transvections
    I + c E_ij of Gaussian c, at its printed k."""
    kind = draw(st.sampled_from(("random", "2-step", "printed", "printed")))
    if kind == "printed":
        (name, k), _ = draw(st.sampled_from(sorted(DIM5_TABLE.items())))
        g = [[int(i == j) for j in range(5)] for i in range(5)]
        pair = st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)
        coeffs = st.sampled_from((QI(0, 1), QI(0, -1), QI(1, 1), QI(1, -1), QI(2, 1)))
        for (i, j), c in draw(st.lists(st.tuples(pair, coeffs), min_size=1, max_size=4)):
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        return (name, g), k
    n = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    mu = _with_entries(random_structure(n, rng), lambda v: QI(v, rng.choice((-2, -1, 1, 2))),
                       FIELD_QI)
    if kind == "2-step":
        m = draw(st.integers(2, n - 1))
        mu = StructureConstants(n, {(i, j): {l: v for l, v in row.items() if l >= m}
                                    for (i, j), row in mu.c.items() if j < m}, FIELD_QI)
        return mu, draw(st.integers(2, 3))
    return mu, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@example((("g_{5,3}", [[1, QI(0, 1), 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]), 3))
@given(_gaussian_points())
def test_h2_knil_answers_a_table_as_its_complex_conjugate(catalog, case):
    """A table over Q(i) and its complex conjugate give the same (z, b, h),
    or the same refusal.  Conjugation s is a field automorphism of Q(i)
    fixing Q, and each matrix of the sequence (d1, d2, dN_k) has entries
    that are polynomials with rational coefficients in the structure
    constants, so at s(mu) each is s applied entrywise to the one at mu.
    A minor of s(M) is s of that minor of M, and is zero exactly when it
    is, so s(M) and M have one rank: z and b agree.  Jacobi and N_k(mu)
    are such polynomials too, so s(mu) lies in the k-step variety exactly
    when mu does, and a refusal names the same law."""
    mu, k = case
    if isinstance(mu, tuple):
        mu = change_basis(catalog.structure(mu[0]), mu[1])
    assume(any(type(v) is QI and v.im for row in mu.c.values() for v in row.values()))
    conjugate = _with_entries(mu, lambda v: v.conjugate())
    assert conjugate != mu

    def zbh(table):
        rep = h2_knil(table, k)
        return rep.z, rep.b, rep.h

    assert _ranks_or_refusal(lambda: zbh(conjugate)) == _ranks_or_refusal(lambda: zbh(mu))


def test_parse_constraint():
    assert parse_constraint("j") == ("j", None)
    assert parse_constraint("n3") == ("n", 3)
    assert parse_constraint("SN5") == ("sn", 5)
    with pytest.raises(ValueError):
        parse_constraint("k3")


def test_augmented_exactness_validates_input(catalog):
    tab = catalog.get("g_5(r,t)").symbolic()
    with pytest.raises(ValueError):
        augmented_exactness(tab, {"r": 1, "t": 1}, ("s",), "sn5")
    # a repeated free parameter would count its tangent column twice
    with pytest.raises(ValueError, match="^free parameter 'r' given twice$"):
        augmented_exactness(tab, {"r": 1, "t": 1}, ("r", "r"), "sn5")
    tab147 = catalog.get("g_{147E_1}(t)").symbolic()
    with pytest.raises(NotInVariety):
        # a 3-step algebra is not 2-step
        augmented_exactness(tab147, {"t": Fraction(2)}, ("t",), "n2")


def test_augmented_exactness_on_the_small_curve(catalog):
    tab = catalog.get("g_{147E_1}(t)").symbolic()
    rep = augmented_exactness(tab, {"t": Fraction(2)}, ("t",), "n3")
    assert rep.exact and rep.containment
    assert rep.domain_dim == 50 and rep.middle_dim == 147
    assert rep.rank_df == rep.ker_dg_dim == 35
    d = rep.to_dict()
    assert d["exact"] is True and d["point"] == {"t": "2"}


def test_augmented_exactness_fails_at_excluded_points(catalog):
    # frozen values computed from this implementation at the excluded loci
    g6 = catalog.get("g_6(r,t)").symbolic()
    rep = augmented_exactness(g6, {"r": Fraction(1), "t": Fraction(0)}, ("r", "t"), "sn5")
    assert not rep.exact and rep.containment
    assert rep.rank_df == 40 and rep.ker_dg_dim == 46
    g5 = catalog.get("g_5(r,t)").symbolic()
    rep = augmented_exactness(g5, {"r": Fraction(1), "t": Fraction(-1)}, ("r", "t"), "sn5")
    assert not rep.exact and rep.containment
    assert rep.rank_df == 41 and rep.ker_dg_dim == 47


_FAMILIES = ("g_1(t)", "g_5(r,t)", "g_6(r,t)", "g_I(t)", "g_{137D}(t)", "g_{147E_1}(t)",
             "g_{247G}(t)", "g_{247K}(t)")
_POINT_VALUES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FAMILIES), st.booleans(), st.data())
def test_a_tangent_read_off_the_polynomials_is_the_evaluated_derivative(catalog, fam,
                                                                        gaussian, data):
    """The sparse tangent of ``augmented_exactness`` has, value for value and
    type for type, the nonzero entries of the dense cochain of the
    derivative table evaluated at the point, over the catalog's parametric
    families at rational and Gaussian points."""
    table = catalog.get(fam).symbolic()
    assert table.params
    value = st.builds(QI, _POINT_VALUES, _POINT_VALUES) if gaussian else _POINT_VALUES
    point = {p: data.draw(value) for p in table.params}
    for p in table.params:
        dense = cochain_vector(table.derivative(p).evaluate(point))
        expected = {c: v for c, v in enumerate(dense) if v}
        got = cohomology._tangent(table, p, point)
        assert got == expected, (fam, point, p)
        assert [type(v) for v in got.values()] == [type(expected[c]) for c in got], (fam, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FAMILIES), st.booleans(), st.data())
def test_a_kept_tangent_carries_one_positive_multiple_cleared(catalog, fam, gaussian, data):
    """The cleared form a kept tangent carries, which is all a memo hit
    reads of it, is den times the exact tangent for one positive int den,
    over the same columns, its values ints, and QIs with int parts where
    they are not real; over the catalog's parametric families at rational
    and Gaussian points."""
    table = catalog.get(fam).symbolic()
    value = st.builds(QI, _POINT_VALUES, _POINT_VALUES) if gaussian else _POINT_VALUES
    point = {p: data.draw(value) for p in table.params}
    for p in table.params:
        exact = cohomology._tangent(table, p, point)
        cleared = exact.cleared
        assert cleared.keys() == exact.keys(), (fam, p)
        assert all(type(x) is int or type(x.re) is type(x.im) is int and x.im
                   for x in cleared.values()), (fam, p)
        if exact:
            c = next(iter(exact))
            den = (promote(cleared[c], FIELD_QI) / promote(exact[c], FIELD_QI)).to_fraction()
            assert den > 0 and den.denominator == 1, (fam, point, p)
            assert all(cleared[c] == v * den for c, v in exact.items()), (fam, point, p)


# -- the least-first word walk of the constraint reducer ----------------------------


def _full_stack(mu, kind, k):
    """The RowBasis of [d2 ; every word row with a1 < a2]."""
    words = iter_dnk_rows(mu, k) if kind == "n" else iter_dsnk_rows(mu, k)
    rows = chain(iter_d2_rows(mu), words)
    return reduce_rows((row for _, row in rows), Layout(mu.n).dim2, mu.field)


def _certificate_stack(mu, kind, k):
    """The [d2 ; dW] stack the certificates reduce, over the picked letters,
    at a point of the variety; elsewhere the stack over every letter."""
    try:
        return _sequence(mu, kind, k)[2]
    except NotInVariety:
        return _constraint_reducer(mu, kind, k)


def _word_rank(mu, kind, k, least_first):
    gen = iter_dnk_rows if kind == "n" else iter_dsnk_rows
    rows = (row for _, row in gen(mu, k, least_first=least_first))
    return reduce_rows(rows, Layout(mu.n).dim2, mu.field).rank


_STACKS = (("n", 2), ("n", 3), ("n", 4), ("sn", 3), ("sn", 4), ("sn", 5))


def test_least_first_stack_keeps_the_rref_on_the_catalog(catalog):
    tables = [catalog.structure(name) for name in catalog.names() if not catalog.get(name).params]
    tables.append(StructureConstants(3, SL2, name="sl(2)"))
    assert len(tables) == 22
    for mu in tables:
        for kind, k in _STACKS:
            got = _certificate_stack(mu, kind, k).sparse_rows()
            assert got == _full_stack(mu, kind, k).sparse_rows(), (mu.name, kind, k)


def test_least_first_stack_keeps_the_rref_on_the_charts(catalog):
    points = ((1, 1), (2, 3), (-1, 2), (Fraction(1, 2), Fraction(1, 3)), (4, Fraction(-1, 4)),
              (1, 0), (1, -1))
    for fam in ("g_5(r,t)", "g_6(r,t)"):
        for r, t in points:
            mu = catalog.structure(fam, {"r": Fraction(r), "t": Fraction(t)})
            assert jacobi(mu) == {}
            for kind, k in (("sn", 4), ("sn", 5), ("n", 3)):
                got = _certificate_stack(mu, kind, k).sparse_rows()
                assert got == _full_stack(mu, kind, k).sparse_rows(), (fam, r, t, kind, k)


_LIE_NAMES = ("f_3", "f_4", "f_3+R^2", "f_4+R", "f_5", "g_{5,1}", "g_{5,2}", "g_{5,3}",
              "g_{5,4}", "g_{5,6}", "12346_E", "sl(2)")


@st.composite
def _lie_tables(draw):
    """A Lie table over Q or Q(i): a printed algebra (or sl(2)) in a basis of
    1-3 transvections I + c E_ij, or a random 2-step nilpotent table, whose
    brackets of the first m letters land in the span of the others."""
    gaussian = draw(st.booleans())
    rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    scalar = st.builds(QI, rationals, rationals) if gaussian else rationals
    if draw(st.booleans()):
        name = draw(st.sampled_from(_LIE_NAMES))
        moves = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6), scalar),
                              min_size=1, max_size=3))
        return name, moves
    n = draw(st.integers(3, 6))
    m = draw(st.integers(2, n - 1))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    brackets = draw(st.dictionaries(
        st.sampled_from(pairs), st.dictionaries(st.integers(m, n - 1), scalar, max_size=2),
        min_size=1, max_size=len(pairs)))
    return StructureConstants(n, brackets, FIELD_QI if gaussian else FIELD_Q)


@settings(max_examples=25, deadline=None)
@given(_lie_tables(), st.sampled_from(_STACKS))
def test_least_first_stack_keeps_the_rref_on_random_lie_tables(catalog, table, stack_kind):
    if isinstance(table, tuple):
        name, moves = table
        mu = StructureConstants(3, SL2) if name == "sl(2)" else catalog.structure(name)
        g = [[Fraction(i == j) for j in range(mu.n)] for i in range(mu.n)]
        for i, shift, c in moves:
            i, j = i % mu.n, (i + shift) % mu.n
            if i != j:
                g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        mu = change_basis(mu, g)
    else:
        mu = table
    assert jacobi(mu) == {}
    kind, k = stack_kind
    assert _certificate_stack(mu, kind, k).sparse_rows() == _full_stack(mu, kind, k).sparse_rows()


def test_least_first_word_rows_alone_can_span_less(catalog):
    # beside the d2 rows the stacks agree (above); the word rows alone do not,
    # so the d2 rows carry the Jacobi terms of the rewriting
    cases = ((catalog.structure("g_{5,3}"), "n", 3, 32, 30),
             (catalog.structure("g_{137B}"), "n", 3, 106, 94),
             (catalog.structure("g_{137B}"), "sn", 4, 38, 34),
             (catalog.structure("12346_E"), "sn", 4, 66, 65))
    for mu, kind, k, full, least in cases:
        assert _word_rank(mu, kind, k, False) == full
        assert _word_rank(mu, kind, k, True) == least
        assert (_certificate_stack(mu, kind, k).sparse_rows()
                == _full_stack(mu, kind, k).sparse_rows())


def test_least_first_streams_are_the_full_streams_restricted(catalog):
    # the rows of a least-first stream are the full stream's rows of the
    # words (dN_k) or inner words (dSN_k) that start with their least letter,
    # in the same order
    for mu in (catalog.structure("g_{137B}"), _g53_tables(catalog)[1],
               catalog.structure("g_5(r,t)", {"r": Fraction(2), "t": Fraction(3)})):
        n = mu.n
        for k in (2, 3, 4):
            full = list(iter_dnk_rows(mu, k))
            assert full == list(iter_dnk_rows(mu, k, least_first=False))
            kept = [(r, row) for r, row in full
                    if min(word := _letters(r // n, n, k + 1)) == word[0]]
            assert list(iter_dnk_rows(mu, k, least_first=True)) == kept
        for k in (3, 4, 5):
            full = list(iter_dsnk_rows(mu, k))
            assert full == list(iter_dsnk_rows(mu, k, least_first=False))
            kept = [(r, row) for r, row in full
                    if min(inner := _letters(r // n, n, k + 1)[2:]) == inner[0]]
            assert list(iter_dsnk_rows(mu, k, least_first=True)) == kept


def test_generator_walk_is_the_least_first_stream_restricted(catalog):
    # the rows of the generator-letter stream are the least-first stream's
    # rows of the words whose letters all lie in S, in the same order
    rng = random.Random(18)
    cases = [(catalog.structure("g_{137B}"), 3), (_g53_tables(catalog)[1], 3),
             (catalog.structure("g_{5,1}"), 2), (catalog.structure("12346_E"), 5)]
    cases += [(mu, 3) for mu in seeded_bases(catalog.structure("g_{5,3}"), rng, 2)]
    assert {mu.field for mu, _ in cases} == {FIELD_Q, FIELD_QI}
    for mu, k in cases:
        n, letters = mu.n, k_step_generators(mu, k)
        assert letters is not None and len(letters) < n
        for least_first in (False, True):
            stream = list(iter_dnk_rows(mu, k, least_first=least_first))
            kept = [(r, row) for r, row in stream
                    if set(_letters(r // n, n, k + 1)) <= set(letters)]
            got = list(iter_dnk_rows(mu, k, least_first=least_first, letters=letters))
            assert got == kept and 0 < len(got) < len(stream), (mu, k, least_first)


def test_generator_walk_needs_every_generator_and_a_k_step_point(catalog):
    # dropping any one generating letter changes the [d2 ; dN_k] rows
    for name, k in (("g_{137B}", 3), ("g_{5,1}", 2)):
        mu = catalog.structure(name)
        letters = k_step_generators(mu, k)
        ref = _full_stack(mu, "n", k).sparse_rows()
        assert _constraint_reducer(mu, "n", k, letters).sparse_rows() == ref
        for s in letters:
            fewer = tuple(x for x in letters if x != s)
            assert _constraint_reducer(mu, "n", k, fewer).sparse_rows() != ref, (name, s)
    # 12346_E is 5-step: its generators e_1, e_2 do not give the N_2 rows, so
    # at k = 2 the certificate refuses the point, and the reducer given no
    # letters walks every letter
    mu = catalog.structure("12346_E")
    assert k_step_generators(mu, 2) is None and k_step_generators(mu, 5) == (0, 1)
    with pytest.raises(NotInVariety, match="violates N_2 = 0"):
        _sequence(mu, "n", 2)
    ref = _full_stack(mu, "n", 2).sparse_rows()
    assert _constraint_reducer(mu, "n", 2, (0, 1)).sparse_rows() != ref
    assert _constraint_reducer(mu, "n", 2).sparse_rows() == ref


# [e_0, e_1] = e_1, [e_0, e_2] = -e_2: solvable, not nilpotent; e_0 spans g
# modulo g^1 but generates only itself
SOLVABLE3 = {(0, 1): {1: 1}, (0, 2): {2: -1}}


def test_split_walk_is_the_least_first_stream_restricted(catalog):
    # the rows of the dSN_k stream over letters are the stream's rows of the
    # inner words whose letters all lie in them, in the same order; the
    # leading pair keeps every letter
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    cases = [(g5, 5, (0, 1)), (catalog.structure("g_6(r,t)", {"r": 2, "t": 3}), 5, (0, 1)),
             (StructureConstants(3, SOLVABLE3), 4, (0, 2)),
             (catalog.structure("g_{137B}"), 3, (0, 1, 2))]
    for mu, k, letters in cases:
        n = mu.n
        for least_first in (False, True):
            stream = list(iter_dsnk_rows(mu, k, least_first=least_first))
            kept = [(r, row) for r, row in stream
                    if set(_letters(r // n, n, k + 1)[2:]) <= set(letters)]
            got = list(iter_dsnk_rows(mu, k, least_first=least_first, letters=letters))
            assert got == kept and 0 < len(got) < len(stream), (mu, k, least_first)
            pairs = {_letters(r // n, n, k + 1)[:2] for r, _ in got}
            assert any(set(pair) - set(letters) for pair in pairs), (mu, k)
    # the certificate stack at g_5(1,1): 232 SN_5 word rows instead of 1,385
    assert len(list(iter_dsnk_rows(g5, 5, least_first=True))) == 1385
    assert len(list(iter_dsnk_rows(g5, 5, least_first=True, letters=(0, 1)))) == 232


def test_split_walk_keeps_the_rref_and_needs_a_generating_set(catalog):
    # beside the d2 rows the inner words over the picked letters give the full
    # stack's rows (catalog tables and curve points above; here seeded bases
    # over Q and Q(i)); a set that only spans g modulo g^1, or drops one
    # generator, does not
    rng = random.Random(28)
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    cases = [(mu, 5) for mu in seeded_bases(g5, rng, 2)]
    cases += [(mu, 3) for mu in seeded_bases(catalog.structure("g_{137B}"), rng, 2)]
    assert {mu.field for mu, _ in cases} == {FIELD_Q, FIELD_QI}
    for mu, k in cases:
        assert len(split_generators(mu, k)) < mu.n, mu
        assert (_sequence(mu, "sn", k)[2].sparse_rows()
                == _full_stack(mu, "sn", k).sparse_rows()), (mu, k)
    solvable = StructureConstants(3, SOLVABLE3)
    for k in (3, 4, 5):
        ref = _full_stack(solvable, "sn", k).sparse_rows()
        assert split_generators(solvable, k) == (0, 1, 2)
        assert _sequence(solvable, "sn", k)[2].sparse_rows() == ref
        assert _constraint_reducer(solvable, "sn", k, (0,)).sparse_rows() != ref, k
    ref = _full_stack(g5, "sn", 5).sparse_rows()
    assert _constraint_reducer(g5, "sn", 5, (0, 1)).sparse_rows() == ref
    for fewer in ((0,), (1,)):
        assert _constraint_reducer(g5, "sn", 5, fewer).sparse_rows() != ref, fewer


def test_split_stream_charges_each_row_to_the_walk_budget(catalog, monkeypatch):
    # one counter against MAX_WALK_NODES: the full dSN_5 stream at g_5(1,1)
    # counts the 675 inner words its walk keeps and the 1,666 rows it emits
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    monkeypatch.setattr(liealg, "MAX_WALK_NODES", 675 + 1666)
    assert sum(1 for _ in iter_dsnk_rows(g5, 5)) == 1666
    monkeypatch.setattr(liealg, "MAX_WALK_NODES", 675 + 1665)
    with pytest.raises(ResourceCapExceeded, match="more than 2340 nonzero words and rows"):
        sum(1 for _ in iter_dsnk_rows(g5, 5))


def test_full_streams_matrices_and_tensors_are_unchanged(catalog):
    # digests taken before the least-first walk: the public streams, the
    # materialized matrices and the word tensors keep every word
    g53, rescaled = _g53_tables(catalog)
    g137 = catalog.structure("g_{137B}")
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    sl2 = StructureConstants(3, SL2)
    assert [digest(dnk_matrix(mu, 3).entries.items()) for mu in (g53, rescaled)] == [
        "f4f3a286f00857e3", "cdc5a2ee99c7b6b7"]
    assert [digest(dsnk_matrix(mu, 4).entries.items()) for mu in (g53, rescaled)] == [
        "292eb2f3c05141c3", "1dfe37a9845ede84"]
    assert [digest((r, sorted(row.items())) for r, row in iter_dnk_rows(mu, 4))
            for mu in (g137, g5)] == ["7c9e8c1e42233c74", "f269391c7346fb26"]
    assert [digest((r, sorted(row.items())) for r, row in iter_dsnk_rows(mu, 5))
            for mu in (g137, g5)] == ["e79af958d2dbdd45", "8370a7e99b2f6e99"]
    assert [digest(n_k(g137, 2).items()), digest(n_k(g5, 3).items())] == [
        "cf98bf750d77350c", "377f883e5963af0c"]
    assert [digest(sn_k(sl2, 4).items()), digest(sn_k(g5, 3).items())] == [
        "99d1b02bf0025ded", "ffccb7a4db453ed4"]


# -- the kept constraint stacks -----------------------------------------------------


def _count_reductions(monkeypatch):
    """Spy on ``_constraint_reducer``; returns the list of (kind, k) it reduced."""
    calls = []
    reduce_stack = cohomology._constraint_reducer

    def spy(mu, kind, k, letters=None):
        calls.append((kind, k))
        return reduce_stack(mu, kind, k, letters)

    monkeypatch.setattr(cohomology, "_constraint_reducer", spy)
    return calls


def _track_entries(monkeypatch):
    """Track every entry ``liealg._entry`` makes; returns a WeakSet of them.
    No cycle holds an entry, so once the memo lets one go it is freed and
    leaves the set: the set is the entries kept."""
    entries = weakref.WeakSet()

    class Tracked(liealg._Entry):
        def __init__(self, ops):
            super().__init__(ops)
            entries.add(self)

    monkeypatch.setattr(liealg, "_Entry", Tracked)
    return entries


def _kept(entries):
    """The number of reduced stacks the tracked ``entries`` keep."""
    return sum(len(entry.stacks) for entry in entries)


def _e147_1_certificates(catalog):
    """h2_knil and augmented_exactness at g_{147E_1}(2), as ``reproduce
    curves`` runs them, then h2_dim at the same table."""
    table = catalog.get("g_{147E_1}(t)").symbolic()
    mu = catalog.structure("g_{147E_1}(t)", {"t": Fraction(2)})
    return (lambda: h2_knil(mu, 3),
            lambda: augmented_exactness(table, {"t": Fraction(2)}, ("t",), "n3"),
            lambda: h2_dim(mu))


def _curve_certificates(catalog):
    """The free {r, t} and frozen {t} exactness runs at g_5(1,1)."""
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(1), "t": Fraction(1)}
    return tuple((lambda free=free: augmented_exactness(table, point, free, "sn5"))
                 for free in (("r", "t"), ("t",)))


def test_the_free_and_frozen_runs_reduce_one_stack(catalog, monkeypatch):
    calls = _count_reductions(monkeypatch)
    free, frozen = (run() for run in _curve_certificates(catalog))
    assert calls == [("sn", 5)]
    assert (free.rank_df, frozen.rank_df, free.ker_dg_dim, frozen.ker_dg_dim) == (41, 41, 41, 41)
    assert free.exact and frozen.exact


def test_h2_knil_and_exactness_at_one_point_reduce_one_stack(catalog, monkeypatch):
    calls = _count_reductions(monkeypatch)
    knil, exact, _ = _e147_1_certificates(catalog)
    assert (knil().h, exact().exact) == (1, True)
    assert calls == [("n", 3)]


def test_kept_stacks_give_the_reports_of_an_empty_memo(catalog, monkeypatch):
    # h2_dim at the same table reduces the Jacobi stack beside the kept N_3
    # one, in the same entry
    entries = _track_entries(monkeypatch)
    runs = _e147_1_certificates(catalog) + _curve_certificates(catalog)
    kept = [run() for run in runs]
    assert _kept(entries) == 3 and len(entries) == 2
    fresh = []
    for run in runs:
        liealg._entry.cache_clear()
        fresh.append(run())
    assert kept == fresh


def test_a_refused_point_keeps_nothing_and_is_refused_again(catalog, monkeypatch):
    calls = _count_reductions(monkeypatch)
    entries = _track_entries(monkeypatch)
    kept = catalog.structure("g_{5,3}")
    h2_knil(kept, 3)
    g5 = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    for _ in range(2):
        with pytest.raises(NotInVariety, match="violates N_3 = 0"):
            h2_knil(g5, 3)
        assert _kept(entries) == 1
    # a cap keeps nothing either, and the same call answers once it is lifted
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(1), "t": Fraction(1)}
    with monkeypatch.context() as patch:
        patch.setattr(liealg, "MAX_WALK_NODES", 100)
        for _ in range(2):
            with pytest.raises(ResourceCapExceeded):
                augmented_exactness(table, point, ("t",), "sn5")
            assert _kept(entries) == 1
    # the kept table is still served, with no new reduction; g_5(1,1) is
    # generated by e_0, e_1, so its dN_3 stream, read by the reducer, refused it
    assert (h2_knil(kept, 3).z, _kept(entries)) == (17, 1)
    assert calls == [("n", 3)] * 3 + [("sn", 5), ("sn", 5)]
    assert augmented_exactness(table, point, ("t",), "sn5").exact


def test_stacks_are_kept_by_table_content(catalog, monkeypatch):
    calls = _count_reductions(monkeypatch)
    entries = _track_entries(monkeypatch)
    mu = catalog.structure("g_{5,3}")
    reordered = StructureConstants(mu.n, dict(reversed(list(mu.c.items()))), name="other")
    assert list(reordered.c) != list(mu.c)
    # the same table over Q(i) reads, scaled, as the same ints: its twin
    gaussian = StructureConstants(mu.n, mu.c, FIELD_QI, name="twin")
    assert gaussian.field == FIELD_QI
    reports = [h2_knil(table, 3) for table in (mu, reordered, gaussian)]
    assert [(rep.z, rep.b, rep.h) for rep in reports] == [(17, 15, 2)] * 3
    assert [rep.algebra for rep in reports] == [mu.name, "other", "twin"]
    assert len(entries) == 1 and _kept(entries) == 1 and len(calls) == 1


def test_at_most_sixteen_entries_are_kept_least_recently_used_first_out(monkeypatch):
    calls = _count_reductions(monkeypatch)
    entries = _track_entries(monkeypatch)
    assert liealg._entry.cache_parameters()["maxsize"] == 16
    tables = [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 38)]
    for mu in tables[:36]:
        h2_dim(mu)
    assert len(entries) == _kept(entries) == 16 and len(calls) == 36
    h2_dim(tables[20])  # kept: no reduction, and now the most recent
    assert len(calls) == 36
    h2_dim(tables[36])  # pushes out tables[21], the least recently used
    h2_dim(tables[20])
    assert len(entries) == _kept(entries) == 16 and len(calls) == 37
    h2_dim(tables[21])
    assert len(calls) == 38


def test_a_certificate_builds_the_operators_of_its_table_once(catalog, monkeypatch):
    # the adapted basis, the Jacobi guard, d1, d2 and the word walk of
    # h2_knil are served one scaled read of each table they read, the given
    # one, which _adapted reads without making it an entry, and the adapted
    # one, and no unscaled read (a table that keeps its basis is read twice,
    # by _adapted and for its entry); a second certificate on the table, on
    # another stack or the same, builds none, save h2_dim, which makes the
    # given table's entry and reads it once more where it adapts
    reads = []
    read = liealg._read_operators

    def spy(mu, scaled):
        reads.append((mu, scaled))
        return read(mu, scaled)

    monkeypatch.setattr(liealg, "_read_operators", spy)
    g = catalog.structure("g_{137A}")
    expected = h2_knil(g, 3)
    # one basis with real transvections, one with Gaussian ones
    tables = seeded_bases(g, random.Random(45), 2)
    reads.clear()
    adapted = []
    for mu in tables:
        report = h2_knil(mu, 3)
        assert (report.z, report.b, report.h) == (expected.z, expected.b, expected.h)
        nu = liealg._adapted(mu)[0]
        once = [(mu, True), (nu, True)]
        assert reads == once
        h2_dim(mu)
        h2_knil(mu, 3)
        assert reads == once + ([] if nu is mu else [(mu, True)])
        reads.clear()
        adapted.append(nu is not mu)
    assert any(adapted)


def test_a_certificate_takes_one_content_hash_per_table(catalog, monkeypatch):
    # a table keeps its hash: one h2_knil hashes the given table and the
    # adapted one once each, for both memos and every lookup
    hashed = []
    content_hash = liealg._content_hash

    def spy(mu):
        hashed.append(mu)
        return content_hash(mu)

    monkeypatch.setattr(liealg, "_content_hash", spy)
    for mu in seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2):
        hashed.clear()
        h2_knil(mu, 3)
        nu = liealg._adapted(mu)[0]
        assert hashed == ([mu] if nu is mu else [mu, nu])
        assert [t is mu for t in hashed] == [True] + [False] * (len(hashed) - 1)


def _count_calls(monkeypatch, name):
    """Spy on the ``cohomology`` function ``name``; returns the list of the
    tables it was called on."""
    seen = []
    call = getattr(cohomology, name)

    def spy(mu):
        seen.append(mu)
        return call(mu)

    monkeypatch.setattr(cohomology, name, spy)
    return seen


def test_a_repeated_h2_knil_builds_the_adapted_table_once(catalog):
    # one table that adapts to itself and one seeded basis that adapts to
    # a sparser table: the memo of _adapted builds each once, whatever the k
    g53 = catalog.structure("g_{5,3}")
    seeded = seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2)[1]
    for mu in (g53, seeded):
        reports = [h2_knil(mu, k) for k in (3, 4, 3, 4)]
        assert reports[:2] == reports[2:]
    info = liealg._adapted_form.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    assert liealg._adapted(g53)[0] is g53
    assert liealg._adapted(seeded)[0] != seeded


def test_im_d1_is_reduced_once_per_table_across_kinds_and_k(catalog, monkeypatch):
    images = _count_calls(monkeypatch, "_image")
    calls = _count_reductions(monkeypatch)
    mu = catalog.structure("g_{5,3}")  # adapts to itself: one table
    reports = [h2_knil(mu, 3), h2_knil(mu, 4), h2_knil(mu, 3), h2_knil(mu, 4), h2_dim(mu)]
    assert [(rep.z, rep.b, rep.h) for rep in reports] == [
        (17, 15, 2), (23, 15, 8), (17, 15, 2), (23, 15, 8), (28, 15, 13)]
    assert images == [mu] and calls == [("n", 3), ("n", 4), ("j", None)]
    # a table that adapts reads two: the adapted one in h2_knil, the given
    # one in h2_dim
    seeded = seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2)[1]
    del images[:]
    h2_knil(seeded, 3)
    h2_knil(seeded, 4)
    h2_dim(seeded)
    assert images == [liealg._adapted(seeded)[0], seeded]


def test_derivation_dim_reads_the_kept_im_d1(catalog, monkeypatch):
    # h2_dim keeps Im d1 in the table's entry; derivation_dim reads it there
    images = _count_calls(monkeypatch, "_image")
    mu = catalog.structure("g_{247H}")
    h2_dim(mu)
    assert derivation_dim(mu) == 11
    assert derivation_dim(mu) == 11
    assert images == [mu]
    other = catalog.structure("g_{137B}")
    assert [derivation_dim(other), derivation_dim(other)] == [13, 13]
    assert images == [mu, other]


def test_seeded_bases_reduce_one_stack_per_adapted_table(catalog, monkeypatch):
    # twenty Gaussian bases of f_5, each run beside one of three printed
    # algebras: the given tables keep no entry, so the adapted tables and
    # the printed ones stay within the sixteen entries
    calls = _count_reductions(monkeypatch)
    others = [(catalog.structure(name), k) for name, k in (("g_{5,3}", 3), ("g_{5,4}", 3),
                                                            ("g_{5,6}", 4))]
    bases = seeded_bases(catalog.structure("f_5"), random.Random(1), 40)[20:]
    for t, mu in enumerate(bases):
        assert h2_knil(mu, 4).h == 1
        h2_knil(*others[t % 3])
    adapted = {liealg._adapted(mu)[0] for mu in bases}
    assert len(set(bases)) == 20 and len(adapted) == 5
    assert len(calls) == len(adapted) + len(others)


def _count_series(monkeypatch):
    """Spy on ``liealg._series``; returns the list of tables it was run on."""
    seen = []
    series = liealg._series

    def spy(mu, derived=False):
        seen.append(mu)
        return series(mu, derived)

    monkeypatch.setattr(liealg, "_series", spy)
    return seen


def test_h2_knil_at_a_nilpotent_table_computes_no_lower_central_series(catalog, monkeypatch):
    # _adapted proved which letters generate the table, one that keeps its
    # basis and one that adapts, so no picker runs; exactness keeps it
    seen = _count_series(monkeypatch)
    g53 = catalog.structure("g_{5,3}")
    seeded = seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2)[1]
    assert liealg._adapted(g53)[0] is g53 and liealg._adapted(seeded)[0] != seeded
    reports = [h2_knil(g53, 3), h2_knil(seeded, 3), h2_knil(seeded, 4)]
    assert [(rep.z, rep.b, rep.h) for rep in reports] == [(17, 15, 2), (36, 35, 1), (52, 35, 17)]
    assert seen == []
    f4 = catalog.get("f_4").symbolic()
    assert augmented_exactness(f4, {}, (), "n3").exact and len(seen) == 1


def test_refusals_over_the_proved_letters_keep_their_messages(catalog, monkeypatch):
    # [e0, e1] = e2, [e0, e2] = e2 is Lie, solvable and generated by e0, e1:
    # its dN_3 stream meets a nonzero word, and its dN_250 stream the depth
    # cap, where the picker refuses it
    solvable = StructureConstants(3, {(0, 1): {2: 1}, (0, 2): {2: 1}})
    assert liealg._adapted(solvable) == (solvable, (0, 1))
    for k in (3, 250):
        with pytest.raises(NotInVariety, match=f"^point violates N_{k} = 0$"):
            h2_knil(solvable, k)
    # f_5 is 4-step: a seeded basis that adapts is refused by its stream
    calls = _count_reductions(monkeypatch)
    seen = _count_series(monkeypatch)
    f5 = seeded_bases(catalog.structure("f_5"), random.Random(1), 2)[1]
    assert liealg._adapted(f5)[0] != f5
    with pytest.raises(NotInVariety, match="^point violates N_3 = 0$"):
        h2_knil(f5, 3)
    assert calls == [("n", 3)] and seen == []
    # not Lie, yet generated by its letters: the Jacobi guard refuses first
    bad = StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}})
    assert liealg._adapted(bad)[1] is not None
    with pytest.raises(NotInVariety, match="^point violates the Jacobi identity$"):
        h2_knil(bad, 3)
    assert calls == [("n", 3)]


def test_an_entry_keeps_its_bound_of_stacks_first_kept_first_out(catalog, monkeypatch):
    # g_{5,3} is 3-step, so it lies on every constraint below; one more
    # constraint than the bound pushes out the first stack kept, and the
    # one Im d1 stays
    calls = _count_reductions(monkeypatch)
    images = _count_calls(monkeypatch, "_image")
    mu = catalog.structure("g_{5,3}")
    constraints = [("j", None), ("n", 3), ("n", 4), ("sn", 3), ("sn", 4), ("sn", 5)]
    bound = liealg.STACKS_PER_ENTRY
    assert len(constraints) > bound
    stacks = [cohomology._stack(mu, kind, k)[0] for kind, k in constraints]
    entry = liealg._entry(mu)
    assert list(entry.stacks) == constraints[-bound:]
    assert [entry.stacks[c][0] for c in constraints[-bound:]] == stacks[-bound:]
    for kind, k in constraints[-bound:]:
        cohomology._stack(mu, kind, k)
    assert calls == constraints and images == [mu]
    cohomology._stack(mu, "j", None)  # reduced again, and the next goes
    assert calls == constraints + [("j", None)] and len(entry.stacks) == bound
    assert list(entry.stacks) == constraints[-bound + 1:] + [("j", None)]


def test_an_evicted_entry_frees_every_part(catalog, monkeypatch):
    """Once sixteen other tables push the curve point's entry out of the
    memo, its operators, Im d1, stack and column index are freed: nothing
    else held them.  Each part is made of a weakly referable subclass."""

    class Basis(linalg.RowBasis):
        pass

    class Index(dict):
        pass

    class Rows(list):
        pass

    column_index, read = linalg.RowBasis.column_index, liealg._read_operators
    monkeypatch.setattr(linalg, "RowBasis", Basis)
    monkeypatch.setattr(Basis, "column_index", lambda basis: Index(column_index(basis)))

    def read_spy(mu, scaled):
        n, table, right = read(mu, scaled)
        return n, Rows(table), right

    monkeypatch.setattr(liealg, "_read_operators", read_spy)
    free_run, frozen_run = _curve_certificates(catalog)
    assert free_run().exact
    mu = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    entry = liealg._entry(mu)
    red, image, closed = entry.stacks["sn", 5]
    assert isinstance(red, Basis) and isinstance(image, Basis) and image is entry.image
    parts = [weakref.ref(part) for part in (entry.ops[1], image, red, closed._index)]
    del entry, red, image, closed
    assert all(ref() is not None for ref in parts)
    for other in [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 17)]:
        h2_dim(other)
    gc.collect()
    assert [ref() for ref in parts] == [None] * 4
    assert frozen_run().exact


@st.composite
def _two_route_points(draw):
    """A k-step table over Z or Z[i], given in the basis it is certified
    in by one route and not the other: the 2-step part of a
    ``random_structure`` (the brackets of the first m letters, on the
    others), its constants made Gaussian or not, or a printed nilpotent
    algebra (its name) with a basis of 1-4 transvections I + c E_ij, c an
    integer or a Gaussian integer."""
    gaussian = draw(st.booleans())
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        lift = (lambda v: QI(v, rng.choice((-2, -1, 1, 2)))) if gaussian else (lambda v: v)
        m = draw(st.integers(2, n - 1))
        brackets = {(i, j): {l: lift(v) for l, v in row.items() if l >= m}
                    for (i, j), row in random_structure(n, rng).c.items() if j < m}
        return StructureConstants(n, brackets)
    name, n = draw(st.sampled_from(_NILPOTENT))
    ints = st.integers(-2, 2)
    scalar = st.builds(QI, ints, ints.filter(bool)) if gaussian else ints
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for (i, j), c in draw(st.lists(st.tuples(pair, scalar), min_size=1, max_size=4)):
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return name, g


@settings(max_examples=60, deadline=None)
@given(_two_route_points(), st.integers(0, 1), st.booleans())
def test_h2_knil_and_exactness_with_no_tangent_give_one_answer(catalog, point, extra,
                                                                knil_first):
    """Two routes, one answer.  ``h2_knil(mu, k)`` reads Hamilton's
    sequence at mu's adapted table, and ``augmented_exactness`` with no
    free parameter reads it at mu as given: its dF is d1 alone.  So
    rank dF = b and dim Ker dG = z, and as Im d1 lies in Ker dG at a k-step
    point, the sequence is exact exactly when h = 0.  Either route may
    fill the entries first."""
    mu = point if isinstance(point, StructureConstants) else change_basis(
        catalog.structure(point[0]), point[1])
    k = max(nil_index(mu), 1) + extra
    if knil_first:
        knil = h2_knil(mu, k)
    exact = augmented_exactness(mu, {}, (), f"n{k}")
    if not knil_first:
        knil = h2_knil(mu, k)
    assert (exact.ker_dg_dim, exact.rank_df) == (knil.z, knil.b)
    assert exact.containment and exact.exact == (knil.h == 0)


@settings(max_examples=60, deadline=None)
@given(_two_route_points(), st.integers(0, 1))
def test_the_kept_h2_knil_stack_is_the_pickers_stack(catalog, point, extra):
    # over the letters _adapted proved, h2_knil keeps the reduced echelon
    # that the picker's letters give
    mu = point if isinstance(point, StructureConstants) else change_basis(
        catalog.structure(point[0]), point[1])
    k = max(nil_index(mu), 1) + extra
    h2_knil(mu, k)
    nu = liealg._adapted(mu)[0]
    letters = k_step_generators(nu, k)
    assert liealg._entry(nu).letters == letters
    kept = cohomology._stack(nu, "n", k)[0]
    assert kept.sparse_rows() == _constraint_reducer(nu, "n", k, letters).sparse_rows()


def _kept_image(mu, kind, k):
    """The sparse rows of the kept Im d1 at mu, off its ``_stack`` entry."""
    return cohomology._stack(mu, kind, k)[1].sparse_rows()


def _count_d1_streams(monkeypatch):
    """Spy on ``iter_d1_columns``; returns the list of tables it streamed."""
    streams = []
    d1_columns = cohomology.iter_d1_columns

    def spy(mu, scaled=True):
        streams.append(mu)
        return d1_columns(mu, scaled)

    monkeypatch.setattr(cohomology, "iter_d1_columns", spy)
    return streams


def test_a_repeated_certificate_at_a_point_streams_no_d1_column(catalog, monkeypatch):
    free_run, frozen_run = _curve_certificates(catalog)
    streams = _count_d1_streams(monkeypatch)
    free = free_run()
    assert len(streams) == 1  # Im d1, whose kept rows answer the containment
    frozen = frozen_run()
    assert len(streams) == 1
    info = liealg._entry.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert (free.rank_df, frozen.rank_df, free.containment, frozen.containment) == (41, 41,
                                                                                    True, True)
    # the free run's two tangents went into a copy: the kept Im d1 is d1's alone
    mu = catalog.structure("g_5(r,t)", {"r": Fraction(1), "t": Fraction(1)})
    assert _kept_image(mu, "sn", 5) == reduce_rows(
        (col for _, col in iter_d1_columns(mu)), Layout(mu.n).dim2).sparse_rows()


def test_the_containment_answer_is_kept_with_its_entry(catalog, monkeypatch):
    """``h2_dim`` never asks whether Im d1 lies in Ker dG.  While sixteen
    other tables pass through the memo by it, the curve point's entry stays
    kept and so does its answer; once it is pushed out, the answer goes
    with it."""
    free_run, frozen_run = _curve_certificates(catalog)
    others = [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 33)]
    calls = _count_reductions(monkeypatch)
    streams = _count_d1_streams(monkeypatch)
    entries = _track_entries(monkeypatch)
    free_run()
    for mu in others[:15]:
        h2_dim(mu)
    assert _kept(entries) == 16 and len(streams) == 1 + 15
    assert frozen_run().containment  # kept: the least recently used, now the most
    h2_dim(others[15])
    assert free_run().containment
    assert _kept(entries) == 16 and len(streams) == 1 + 16 and len(calls) == 1 + 16
    for mu in others[16:]:
        h2_dim(mu)
    assert frozen_run().containment  # pushed out: reduced and checked again
    assert len(streams) == 1 + 32 + 1 and len(calls) == 1 + 32 + 1


def _count_index_builds(monkeypatch):
    """Spy on ``RowBasis.column_index``; returns the list of ranks it indexed."""
    builds = []
    column_index = linalg.RowBasis.column_index

    def spy(basis):
        builds.append(basis.rank)
        return column_index(basis)

    monkeypatch.setattr(linalg.RowBasis, "column_index", spy)
    return builds


def test_one_column_index_is_built_per_kept_entry(catalog, monkeypatch):
    """The free and frozen runs at a curve point build one column index of
    the kept stack, with the first containment question; ``h2_knil`` and
    ``h2_dim`` ask none and build none; once the entry is pushed out of the
    memo, the next run builds it again with the entry."""
    free_run, frozen_run = _curve_certificates(catalog)
    builds = _count_index_builds(monkeypatch)
    assert free_run().exact and builds == [106]
    assert frozen_run().exact and builds == [106]
    knil, _, dim = _e147_1_certificates(catalog)
    knil()
    dim()
    others = [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 17)]
    for mu in others:
        h2_dim(mu)
        h2_knil(mu, 2)
    assert builds == [106]
    assert frozen_run().exact and builds == [106, 106]
    assert free_run().exact and builds == [106, 106]


def test_a_changed_tangent_fails_containment_on_a_memo_hit(catalog, monkeypatch):
    """After the free run at g_5(1,1) has built the kept index, each frozen
    run is a memo hit whose tangent has one entry changed by one: it stays
    in Ker dG exactly when no kept row meets that column, also where
    neither the d1 columns nor the free run's tangents do."""
    free_run, frozen_run = _curve_certificates(catalog)
    assert free_run().containment
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(1), "t": Fraction(1)}
    mu = table.evaluate(point)
    red = _sequence(mu, "sn", 5)[2]
    met = set().union(*red.sparse_rows())
    asked = set().union(*(col for _, col in iter_d1_columns(mu)),
                        *(cohomology._tangent(table, p, point) for p in ("r", "t")))
    assert met - asked and set(range(red.ncols)) - met
    tangent = cohomology._tangent
    for c in range(red.ncols):

        def changed(table, p, point, c=c):
            vec = dict(tangent(table, p, point))
            vec[c] = vec.get(c, 0) + 1
            return {j: v for j, v in vec.items() if v}

        monkeypatch.setattr(cohomology, "_tangent", changed)
        assert frozen_run().containment == (c not in met), c
    info = liealg._entry.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_a_corrupted_kept_stack_fails_containment_on_the_miss_and_the_hit(catalog,
                                                                          monkeypatch):
    """One entry of one kept row of the curve point's [d2 ; dSN_5] stack is
    changed, at a column some d1 column meets: both runs at the point see
    it, the first through the kept Im d1 rows it checks, which span what
    the d1 columns span, the second through the kept answer, with no d1
    column streamed."""
    reduce_stack = cohomology._constraint_reducer

    def corrupt(mu, kind, k, letters=None):
        red = reduce_stack(mu, kind, k, letters)
        met = set().union(*(col for _, col in iter_d1_columns(mu)))
        row = next(row for row in red.sparse_rows() if met.intersection(row))
        kept = red._rows[min(row)]
        c = min(met.intersection(kept))
        kept[c] += 1
        return red

    monkeypatch.setattr(cohomology, "_constraint_reducer", corrupt)
    streams = _count_d1_streams(monkeypatch)
    free_run, frozen_run = _curve_certificates(catalog)
    free = free_run()
    assert len(streams) == 1
    frozen = frozen_run()
    assert len(streams) == 1
    assert [(rep.containment, rep.exact) for rep in (free, frozen)] == [(False, False)] * 2


def _count_family_reads(monkeypatch):
    """Spy on ``StructureConstants.evaluate`` and on the polynomial read
    behind ``_tangent``; returns the lists of points evaluated and of
    (parameter, point) tangents read."""
    evaluated, read = [], []
    evaluate, read_tangent = StructureConstants.evaluate, cohomology._read_tangent

    def evaluate_spy(table, assignment=None):
        evaluated.append(dict(assignment or {}))
        return evaluate(table, assignment)

    def read_spy(table, p, point):
        read.append((p, dict(point)))
        return read_tangent(table, p, point)

    monkeypatch.setattr(StructureConstants, "evaluate", evaluate_spy)
    monkeypatch.setattr(cohomology, "_read_tangent", read_spy)
    return evaluated, read


def test_the_free_and_frozen_runs_evaluate_the_family_and_read_each_tangent_once(
        catalog, monkeypatch):
    """The free and the frozen run at g_5(1,1) share one kept entry of
    ``_at``: the family is evaluated once and each parameter's tangent read
    once.  Once eight other points have pushed the entry out, the next run
    evaluates and reads again."""
    free_run, frozen_run = _curve_certificates(catalog)
    evaluated, read = _count_family_reads(monkeypatch)
    point = {"r": Fraction(1), "t": Fraction(1)}
    assert free_run().exact and frozen_run().exact
    assert evaluated == [point] and read == [("r", point), ("t", point)]
    table = catalog.get("g_5(r,t)").symbolic()
    others = [{"r": Fraction(s), "t": Fraction(1)} for s in range(2, 10)]
    for other in others:
        cohomology._tangent(table, "t", other)
    assert evaluated == [point] + others and cohomology._at.cache_info().currsize == 8
    del evaluated[:], read[:]
    assert frozen_run().exact and free_run().exact
    assert evaluated == [point] and read == [("t", point), ("r", point)]


def test_a_memo_hit_clears_no_tangent_and_hashes_its_point_once(catalog, monkeypatch):
    """Once the free and frozen runs at g_5(2,3) have kept their tangents,
    each repeated run reads their cleared forms: it clears nothing
    (``linalg.int_cleared``), reads no tangent off the polynomials, and
    hashes each of the point's two values once, for the one key of the
    run."""
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(2), "t": Fraction(3)}
    runs = [(free, augmented_exactness(table, point, free, "sn5")) for free in (("r", "t"), ("t",))]
    cleared, hashed = [], []
    int_cleared, fraction_hash = linalg.int_cleared, Fraction.__hash__
    monkeypatch.setattr(linalg, "int_cleared", lambda vals: cleared.append(vals) or int_cleared(vals))
    evaluated, read = _count_family_reads(monkeypatch)
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    for free, expected in runs * 2:
        del hashed[:]
        assert augmented_exactness(table, point, free, "sn5") == expected
        assert sorted(hashed) == [2, 3], free
    assert cleared == [] and evaluated == [] and read == []
    assert [rep.exact for _, rep in runs] == [True, True]


def test_equal_points_share_one_kept_entry(catalog, monkeypatch):
    """A point given in another key order, or as ints or real QIs equal to
    the Fractions, hashes and compares equal, so it is served the kept
    table and tangents; another point misses."""
    table = catalog.get("g_5(r,t)").symbolic()
    evaluated, read = _count_family_reads(monkeypatch)
    first = augmented_exactness(table, {"r": Fraction(1), "t": Fraction(1)}, ("r", "t"), "sn5")
    mu = cohomology._at(table, frozenset({"r": Fraction(1), "t": Fraction(1)}.items()))[0]
    # the _stack lookups of a hit meet the kept table itself: no table is
    # compared by content
    compared = []
    eq = StructureConstants.__eq__
    monkeypatch.setattr(StructureConstants, "__eq__",
                        lambda a, b: compared.append((a, b)) or eq(a, b))
    for point in ({"t": Fraction(1), "r": Fraction(1)}, {"r": 1, "t": 1},
                  {"t": QI(1, 0), "r": QI(1)}):
        assert augmented_exactness(table, point, ("r", "t"), "sn5") == first
        assert cohomology._at(table, frozenset(point.items()))[0] is mu
    assert len(evaluated) == 1 and len(read) == 2 and compared == []
    info = cohomology._at.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    other = augmented_exactness(table, {"r": Fraction(2), "t": Fraction(3)}, ("r", "t"), "sn5")
    assert other.exact and len(evaluated) == 2 and len(read) == 4
    assert cohomology._at.cache_info().misses == 2
    assert liealg._entry.cache_info().misses == 2


def test_a_kept_tangent_refuses_writes(catalog):
    """The tangents a kept entry hands out are read-only, so no reader can
    change what the next run at the point reads."""
    free_run, frozen_run = _curve_certificates(catalog)
    expected = free_run()
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(1), "t": Fraction(1)}
    vec = cohomology._tangent(table, "t", point)
    assert vec is cohomology._tangent(table, "t", point)
    kept = dict(vec)
    c = next(iter(vec))
    for write in (lambda: vec.__setitem__(c, 5), lambda: vec.__delitem__(c),
                  lambda: vec.update({c: 5}), lambda: vec.pop(c), lambda: vec.clear(),
                  lambda: vec.setdefault(-1, 5), lambda: vec.popitem()):
        with pytest.raises(TypeError, match="^a kept tangent is read-only$"):
            write()
    assert vec == kept and isinstance(vec, dict)
    assert free_run() == expected and frozen_run().exact


def test_a_gaussian_tangent_leaves_the_kept_image_as_it_was():
    """At t = 0 the family [e0, e1] = e2, [e0, e2] = i t e3 is a rational
    table, whose kept Im d1 is a Q-span, and its tangent in t is i at one
    column outside Im d1.  Ranking that tangent against the kept Im d1, on
    a miss and on a hit, writes nothing to it: not a row, not its field
    flag."""
    t = MultiPoly.var("t")
    family = StructureConstants(4, {(0, 1): {2: MultiPoly.const(1)}, (0, 2): {3: t * QI(0, 1)}},
                                "sym", params=("t",))
    point = {"t": Fraction(0)}
    mu = cohomology._at(family, frozenset(point.items()))[0]
    assert mu.field == FIELD_Q
    image = cohomology._stack(mu, "j", None)[1]
    kept = image.sparse_rows()
    assert not image.gaussian
    reports = [augmented_exactness(family, point, ("t",), "j") for _ in range(2)]
    assert list(cohomology._tangent(family, "t", point).values()) == [QI(0, 1)]
    assert reports[0] == reports[1] and reports[0].rank_df == image.rank + 1
    assert cohomology._stack(mu, "j", None)[1] is image
    assert image.sparse_rows() == kept and not image.gaussian


def test_a_point_refused_by_the_guard_is_refused_again(catalog, monkeypatch):
    """g_5(1,1) is not 3-step nilpotent: the guard refuses it on every call.
    The point's evaluated family stays kept, since evaluating comes first,
    but no verdict and no tangent: none is read at a refused point."""
    table = catalog.get("g_5(r,t)").symbolic()
    point = {"r": Fraction(1), "t": Fraction(1)}
    evaluated, read = _count_family_reads(monkeypatch)
    for _ in range(2):
        with pytest.raises(NotInVariety, match="violates N_3 = 0"):
            augmented_exactness(table, point, ("r", "t"), "n3")
    assert len(evaluated) == 1 and read == []
    mu = cohomology._at(table, frozenset(point.items()))[0]
    assert liealg._entry.cache_info().misses == 1 and liealg._entry(mu).stacks == {}
    assert cohomology._at.cache_info().currsize == 1
    assert augmented_exactness(table, point, ("r", "t"), "sn5").exact


def test_the_nu_items_leave_the_kept_image_as_it_was(catalog, monkeypatch):
    """The nu items of ``reproduce`` read b and the rank with nu1, nu2 off
    ``_sequence``, whose Im d1 with no tangents is the kept one: they must
    add nothing to it."""
    calls = _count_reductions(monkeypatch)
    items = [item for item in reproduce._counterexample_items(catalog)
             if item[0].startswith("nu1, nu2")]
    assert len(items) == 2
    for _ in range(2):
        assert [run() for *_, run in items] == [True, True]
    mu = catalog.structure("g_{5,3}")
    rep = h2_knil(mu, 3)
    assert (rep.z, rep.b, rep.h) == (17, 15, 2)
    assert calls == [("n", 3)]
    assert _kept_image(mu, "n", 3) == cohomology._image(mu).sparse_rows()


@st.composite
def _points_and_tangents(draw):
    """A Lie table of ``structure_tables`` (the table itself if it is Lie,
    else its brackets of the first m letters on the others, which is a
    2-step nilpotent table) and 0-2 integer tangent 2-cochains, each random
    or an integer combination of two d1 columns."""
    mu = draw(structure_tables())
    if not is_lie(mu):
        m = draw(st.integers(1, mu.n - 1))
        brackets = {(i, j): {l: v for l, v in row.items() if l >= m}
                    for (i, j), row in mu.c.items() if j < m}
        mu = StructureConstants(mu.n, brackets, mu.field)
    dim2 = Layout(mu.n).dim2
    d1 = [col for _, col in iter_d1_columns(mu)]
    coeffs = st.integers(-3, 3)
    tangents = []
    for _ in range(draw(st.integers(0, 2))):
        if d1 and draw(st.booleans()):
            vec = {}
            for col in draw(st.lists(st.sampled_from(d1), min_size=1, max_size=2)):
                c = draw(coeffs)
                for j, v in col.items():
                    vec[j] = vec.get(j, 0) + c * v
            tangents.append({j: v for j, v in vec.items() if v})
        else:
            tangents.append(draw(st.dictionaries(st.integers(0, max(dim2 - 1, 0)), coeffs,
                                                 max_size=4 if dim2 else 0)))
    return mu, tangents


@settings(max_examples=40, deadline=None)
@given(_points_and_tangents())
def test_the_kept_image_and_closure_answer_as_one_reduction(point):
    """rank dF is the rank of [tangents | d1], and the kept answer with the
    tangents' own check is the containment of [tangents | d1] in the kernel
    of a stack over every letter; with an empty memo and a warm one, where
    the same point was just served with and without the tangents.  The
    kept Im d1 keeps its rows."""
    mu, tangents = point
    dim2 = Layout(mu.n).dim2
    d1 = [col for _, col in iter_d1_columns(mu)]
    b = reduce_rows(d1, dim2).rank
    step = nil_index(mu)
    kinds = [("j", None)] + ([("n", step)] if step is not None and step <= 3 else [])
    for kind, k in kinds:
        rank_df = reduce_rows(tangents + d1, dim2).rank
        closed = _constraint_reducer(mu, kind, k).annihilates(tangents + d1)
        liealg._entry.cache_clear()
        reds = []
        for _ in range(2):
            image = _kept_image(mu, kind, k)
            _, got, red = _sequence(mu, kind, k, tangents)
            reds.append(red)
            assert got == rank_df, (kind, k)
            assert _kept_image(mu, kind, k) == image
            assert (cohomology._stack(mu, kind, k)[2]()
                    and red.annihilates(tangents)) == closed, (kind, k)
            assert _sequence(mu, kind, k)[1] == b <= rank_df
        assert reds[0] is reds[1] and liealg._entry.cache_info().misses == 1


def _in_eight_threads(work):
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


def test_threads_get_the_single_threaded_answers():
    # eight threads share the memo of 24 stacks (h2_dim and h2_knil at twelve
    # tables, so every thread keeps evicting the others' stacks) and the
    # membership search of I_{6,4}
    tables = [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 13)]
    gens = nilpotency_ideal(6, 4).gens
    targets = [named_polynomial(q) for q in ("Q1", "Q5")]

    def work(shift):
        reports = [(h2_dim(mu), h2_knil(mu, 2))
                   for _ in range(40) for mu in tables[shift:] + tables[:shift]]
        return (sorted(reports, key=repr),
                [member_bounded(f, gens, 4).multipliers for f in targets])

    expected = work(0)
    assert _in_eight_threads(work) == [expected] * 8


def test_threads_share_the_containment_answers_of_the_curve_points(catalog, monkeypatch):
    # eight threads run the free and frozen SN_5 certificates at six curve
    # points, each after h2_dim at another table: 18 entries for 8 places,
    # so the entries whose containment answer one thread asks for keep
    # being pushed out and built again by the others; every Im d1 that an
    # entry hands out keeps the rows and flag it had when first handed out
    images = {}
    kept_stack = cohomology._stack

    def stack(mu, kind, k):
        entry = kept_stack(mu, kind, k)
        image = entry[1]
        images.setdefault(id(image), (image, image.sparse_rows(), image.gaussian))
        return entry

    monkeypatch.setattr(cohomology, "_stack", stack)
    points = [("g_5(r,t)", 1, 1), ("g_5(r,t)", 2, 3), ("g_5(r,t)", -1, 2),
              ("g_6(r,t)", 1, 1), ("g_6(r,t)", 2, 3), ("g_6(r,t)", Fraction(1, 2), Fraction(1, 3))]
    runs = [(catalog.get(fam).symbolic(), {"r": Fraction(r), "t": Fraction(t)}, free)
            for fam, r, t in points for free in (("r", "t"), ("t",))]
    tables = [StructureConstants(3, {(0, 1): {2: s}}) for s in range(1, 13)]

    def work(shift):
        reports = []
        for _ in range(3):
            for (table, point, free), mu in zip(runs[shift:] + runs[:shift], tables):
                reports.append(h2_dim(mu))
                reports.append(augmented_exactness(table, point, free, "sn5"))
        return sorted(reports, key=repr)

    expected = work(0)
    assert all(rep.exact for rep in expected if hasattr(rep, "exact"))
    before = len(images)
    assert _in_eight_threads(work) == [expected] * 8
    assert len(images) > before >= 12
    assert all((image.sparse_rows(), image.gaussian) == (rows, gaussian)
               for image, rows, gaussian in images.values())


def test_threads_share_the_kept_families_and_tangents_of_ten_points(catalog):
    # eight threads run the free and frozen SN_5 certificates at ten points
    # of the two curve families, each thread from its own point on: ten
    # (family, point) keys for the eight places of _at (and of _stack), so
    # the entries whose tangents one thread reads keep being pushed out and
    # built again by the others; (4, -1/4) on g_5 is not exact
    tables = {fam: catalog.get(fam).symbolic() for fam in ("g_5(r,t)", "g_6(r,t)")}
    points = [(fam, Fraction(r), Fraction(t)) for fam in tables
              for r, t in ((1, 1), (2, 3), (-1, 2), (3, 1), (4, Fraction(-1, 4)))]
    runs = [(tables[fam], {"r": r, "t": t}, free)
            for fam, r, t in points for free in (("r", "t"), ("t",))]

    def work(shift):
        order = runs[2 * shift:] + runs[:2 * shift]
        return sorted((augmented_exactness(table, point, free, "sn5")
                       for _ in range(2) for table, point, free in order), key=repr)

    expected = work(0)
    assert sorted(rep.exact for rep in expected) == [False] * 4 + [True] * 36
    assert _in_eight_threads(work) == [expected] * 8
    assert cohomology._at.cache_info().currsize == 8


def test_threads_fill_the_lazy_parts_of_three_entries(catalog):
    # eight threads read three tables at several levels: h2_knil at 3 and
    # 4, h2_dim, and exactness with no tangent under n3, n4, sn4 and sn5.
    # Two tables adapt to themselves and one does not, so each given
    # table's entry is asked for five stacks, one past its bound, and the
    # threads keep filling the same Im d1, adapted and stack slots while
    # others push stacks out of them
    tables = [catalog.structure("g_{5,3}"), catalog.structure("g_{247H}"),
              seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2)[1]]
    constraints = ("n3", "n4", "sn4", "sn5")

    def work(shift):
        reports = []
        for _ in range(3):
            for mu in tables[shift % 3:] + tables[:shift % 3]:
                reports += [h2_knil(mu, 3), h2_knil(mu, 4), h2_dim(mu)]
                reports += [augmented_exactness(mu, {}, (), c) for c in constraints]
        return sorted(reports, key=repr)

    expected = work(0)
    assert [rep.exact for rep in expected if hasattr(rep, "exact")].count(True) == 3
    assert _in_eight_threads(work) == [expected] * 8
    assert all(len(liealg._entry(mu).stacks) <= liealg.STACKS_PER_ENTRY for mu in tables)
