import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_rank,
    dense_rref,
    identity,
    kernel_basis,
    mat_vec,
    matmul,
    streaming_rank,
    transpose,
)
from nilcohom.errors import DimensionMismatch, ResourceCapExceeded, SingularMatrix
from nilcohom.linalg import (
    ExactMatrix,
    RowBasis,
    _integral_inverse,
    backend,
    dot,
    in_kernel,
    int_cleared,
    inverse,
    rank,
    reduce_rows,
    solve,
)
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI, promote


def rand_matrix(rng, nrows, ncols, density=0.6, bound=6):
    rows = []
    for _ in range(nrows):
        rows.append(
            [
                Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                if rng.random() < density
                else Fraction(0)
                for _ in range(ncols)
            ]
        )
    return rows


def test_rank_identity_and_proportional_rows():
    assert rank(identity(3)).rank == 3
    m = ExactMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(m) .rank == 1
    assert rank(m).pivot_cols() == [0]


def test_rank_agrees_with_dense_oracle_on_100_random_matrices():
    rng = random.Random(42)
    for _ in range(100):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = rand_matrix(rng, nr, nc)
        m = ExactMatrix.from_dense(rows)
        assert rank(m).rank == dense_rank(rows)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(60):
        rows = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = ExactMatrix.from_dense(rows)
        assert rank(m).rank == rank(transpose(m)).rank


def test_streaming_rank_examples():
    assert streaming_rank([[2**k, 2**k, 0] for k in range(4)], 3) == 1
    assert streaming_rank([], 3) == 0
    assert streaming_rank(iter([{0: Fraction(1, 2)}, {0: 3}]), 4) == 1
    with pytest.raises(DimensionMismatch):
        streaming_rank([[1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        streaming_rank([{5: 1}], 3)


def test_streaming_agrees_with_materialized_rank():
    rng = random.Random(3)
    for _ in range(50):
        rows = rand_matrix(rng, rng.randint(1, 12), rng.randint(1, 6))
        assert streaming_rank(rows, len(rows[0])) == dense_rank(rows)


def test_kernel_basis_examples():
    assert len(kernel_basis(ExactMatrix(2, 3))) == 3
    assert kernel_basis(identity(4)) == []


def test_kernel_vectors_annihilate_and_complement_row_space():
    rng = random.Random(9)
    for _ in range(40):
        rows = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        m = ExactMatrix.from_dense(rows)
        ker = kernel_basis(m)
        prof = rank(m)
        assert len(ker) == m.ncols - prof.rank
        for v in ker:
            assert not any(mat_vec(m, v))
        # kernel vectors stacked with a row basis span the whole space
        red = reduce_rows(rows, m.ncols)
        combined = red.basis_rows() + [v for v in ker]
        assert streaming_rank(combined, m.ncols) == m.ncols


def _augmented(rows, b):
    """The sparse augmented rows [row | b_i] of a dense system."""
    return [{c: v for c, v in enumerate(row + [bi]) if v} for row, bi in zip(rows, b)]


def _times(rows, x):
    return [sum((a * v for a, v in zip(row, x) if a), 0) for row in rows]


def test_solve_examples():
    x = solve([{0: 1, 2: 1}, {1: 1, 2: 2}], 2)
    assert x == [1, 2] and all(type(v) is int for v in x)
    x = solve([{0: 1, 1: 1, 2: 5}], 2)
    assert x is not None and x[0] + x[1] == 5
    assert solve([{0: 1}, {0: 1, 1: 1}], 1) is None
    # dense rows of length ncols + 1 are read as reduce_rows reads them
    x = solve([[2, 0, 4], [0, 3, 1]], 2)
    assert x == [2, Fraction(1, 3)] and type(x[0]) is int and type(x[1]) is Fraction
    # a rational system whose solution is integral is solved in ints
    x = solve([{0: Fraction(1, 2), 1: 3}], 1)
    assert x == [6] and type(x[0]) is int
    # no rows: every unknown is free
    assert solve([], 3) == [0, 0, 0]
    with pytest.raises(DimensionMismatch):
        solve([{0: 1, 3: 2}], 2)
    with pytest.raises(DimensionMismatch):
        solve([[1, 2, 3, 4]], 2)


def test_solve_random_consistency():
    rng = random.Random(13)
    for _ in range(40):
        rows = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(len(rows[0]))]
        b = _times(rows, x0)
        x = solve(_augmented(rows, b), len(rows[0]))
        assert x is not None and _times(rows, x) == b


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_gaussians = st.builds(QI, _rationals, _rationals)


@st.composite
def _systems(draw):
    """(dense rows, b, field) over Q or Q(i); b = rows @ x0 (consistent) or
    drawn freely."""
    gaussian = draw(st.booleans())
    scalar = _gaussians if gaussian else _rationals
    entry = st.one_of(st.just(0), scalar)
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        b = _times(rows, draw(st.lists(scalar, min_size=ncols, max_size=ncols)))
    else:
        b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, b, "Qi" if gaussian else "Q"


def _rref_solution(rows, b, field):
    """The solution read off the reduced row echelon form of [rows | b]."""
    n = len(rows[0])
    x = [QI(0) if field == "Qi" else Fraction(0)] * n
    for row in dense_rref([row + [v] for row, v in zip(rows, b)]):
        p = next(j for j, v in enumerate(row) if v)
        if p == n:
            return None
        x[p] = row[n]
    return x


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_solve_property(system):
    rows, b, field = system
    x = solve(_augmented(rows, b), len(rows[0]))
    consistent = dense_rank(rows) == dense_rank([r + [v] for r, v in zip(rows, b)])
    assert (x is not None) == consistent
    if x is not None:
        assert _times(rows, x) == b
        assert x == _rref_solution(rows, b, field)


def test_inverse_round_trip_and_singular():
    rng = random.Random(17)
    found = 0
    while found < 10:
        rows = rand_matrix(rng, 4, 4, density=0.8)
        m = ExactMatrix.from_dense(rows)
        if rank(m).rank < 4:
            continue
        found += 1
        assert matmul(m, inverse(m)).entries == identity(4).entries
    with pytest.raises(SingularMatrix):
        inverse(ExactMatrix.from_dense([[1, 2], [2, 4]]))


def test_the_fraction_free_inverse_is_integral():
    # den * M^{-1} in ints and Gaussian integers, for rational and Gaussian M
    rng = random.Random(46)
    found = 0
    while found < 12:
        gaussian = found % 2
        rows = rand_matrix(rng, 4, 4, density=0.7)
        if gaussian:
            rows = [[x + QI(0, rng.randint(-2, 2)) * x for x in row] for row in rows]
        form = _integral_inverse(rows, 4)
        if dense_rank(rows) < 4:
            assert form is None
            continue
        found += 1
        inv, den = form
        assert type(den) is int and den > 0
        for row in inv:
            for v in row.values():
                assert type(v) is int or (type(v.re) is int and type(v.im) is int)
        m = ExactMatrix.from_dense(rows, FIELD_QI if gaussian else FIELD_Q)
        scaled = ExactMatrix(4, 4, {(r, c): v for r, row in enumerate(inv) for c, v in row.items()},
                             m.field)
        assert matmul(m, scaled).entries == {(i, i): den for i in range(4)}
        assert inverse(m).entries == {key: promote(v, m.field) / den for key, v in scaled.entries.items()}


def test_gaussian_field_path():
    i = QI(0, 1)
    m = ExactMatrix.from_dense([[i, 1], [1, -i]], field="Qi")
    # second row is -i times the first
    assert rank(m).rank == 1
    ker = kernel_basis(m)
    assert len(ker) == 1 and not any(mat_vec(m, ker[0]))
    # promotion mid-stream: rational rows first, then a Gaussian one
    r = streaming_rank([[1, 0], [0, 1], [i, i]], 2)
    assert r == 2


def _monic(row, ncols):
    """A sparse retained row as a dense list divided by its lead entry."""
    lead = row[min(row)]
    dense = [Fraction(0)] * ncols
    for c, v in row.items():
        dense[c] = v / lead if isinstance(v, QI) else Fraction(v) / lead
    return dense


def _assert_canonical_integral(basis, dense_rows):
    """Retained rows are the dense RREF rows scaled to primitive integers
    with a positive lead; rank and pivots agree with the oracle."""
    ncols = basis.ncols
    ref = dense_rref(dense_rows)
    rows = basis.sparse_rows()
    assert basis.rank == len(ref) == dense_rank(dense_rows)
    assert basis.pivot_cols() == [next(j for j, v in enumerate(r) if v) for r in ref]
    for row in rows:
        assert all(isinstance(v, int) and v for v in row.values())
        assert row[min(row)] > 0 and gcd(*row.values()) == 1
    assert [_monic(row, ncols) for row in rows] == ref


def _dense(cols, vals, ncols):
    row = [0] * ncols
    for c, v in zip(cols, vals):
        row[c] = v
    return row


def test_integral_reduced_rows_equal_the_dense_rref():
    rng = random.Random(23)
    rows = []
    for _ in range(300):
        nnz = rng.randint(1, 8)
        cols = sorted(rng.sample(range(20), nnz))
        rows.append((cols, [rng.randint(-50, 50) or 3 for _ in cols]))
    basis = RowBasis(20)
    for cols, vals in rows:
        basis.add(dict(zip(cols, vals)))
    _assert_canonical_integral(basis, [_dense(c, v, 20) for c, v in rows])


def _state(basis):
    """Everything a reader of a basis may see: its rows, views and flag."""
    return (basis.sparse_rows(), set(basis._units), {j: dict(row) for j, row in basis._wide.items()},
            basis.gaussian)


def test_rank_with_leaves_the_basis_as_it_was():
    # a kept basis is shared, so the rank with more rows, a Gaussian one
    # among them, must write nothing to it, its field flag included
    rng = random.Random(7)
    rows = [{c: rng.randint(-4, 4) or 1 for c in rng.sample(range(12), 4)} for _ in range(6)]
    basis = reduce_rows(rows, 12)
    kept = _state(basis)
    extra = [{0: 1, 11: QI(0, 1)}, {c: 1 for c in range(12)}, {5: Fraction(1, 3)}]
    assert basis.rank_with(extra) == reduce_rows(rows + extra, 12).rank
    assert _state(basis) == kept and not basis.gaussian


def test_integral_reduced_rows_equal_the_dense_rref_past_the_machine_word():
    rng = random.Random(99)
    for _ in range(12):
        ncols = rng.randint(1, 25)
        basis = RowBasis(ncols)
        dense_rows = []
        for _ in range(rng.randint(1, 120)):
            nnz = rng.randint(1, ncols)
            cols = sorted(rng.sample(range(ncols), nnz))
            vals = []
            for _ in cols:
                mag = rng.choice([1, 5, 2**30, 2**40, 2**70, 2**100])
                vals.append(rng.randint(-mag, mag) or 1)
            before = basis.rank
            grew = basis.add(dict(zip(cols, vals)))
            assert grew == (basis.rank == before + 1)
            dense_rows.append(_dense(cols, vals, ncols))
        _assert_canonical_integral(basis, dense_rows)


@st.composite
def _streams(draw):
    """(rows, variant, ncols, field): rows over Q, over Q(i), or over Q with
    a Gaussian row arriving mid-stream, and the same rows rescaled,
    partly duplicated and permuted.  Some streams are long and narrow, so
    that they span several of the windows ``reduce_rows`` reads."""
    mode = draw(st.sampled_from(("Q", "Qi", "promote")))
    scalar = _rationals if mode == "Q" else st.one_of(_rationals, _gaussians)
    nonzero = scalar.filter(bool)
    if draw(st.booleans()):
        ncols, max_rows = draw(st.integers(1, 3)), 40
    else:
        ncols, max_rows = draw(st.integers(1, 6)), 8
    rows = draw(st.lists(
        st.lists(st.one_of(st.just(0), scalar), min_size=ncols, max_size=ncols),
        min_size=1, max_size=max_rows,
    ))
    if mode == "promote":
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [draw(_gaussians.filter(lambda z: z.im)) for _ in range(ncols)])
    scales = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    variant = [[c * v for v in row] for c, row in zip(scales, rows)]
    variant += [list(row) for row in draw(st.lists(st.sampled_from(variant), max_size=4))]
    variant = draw(st.permutations(variant))
    return rows, variant, ncols, FIELD_QI if mode == "Qi" else FIELD_Q


def _window_edges():
    """27 rows in 3 columns, which reduce_rows reads as windows of 13, 13 and
    1: e_1 ends the first window, e_2 starts the second, e_3 is the last."""
    rows = [[0, 0, 0] for _ in range(27)]
    rows[12][0] = rows[13][1] = rows[26][2] = 1
    return rows, rows[::-1], 3, FIELD_Q


@settings(max_examples=150, deadline=None)
@given(_streams())
@example(_window_edges())
def test_reduction_invariant_under_permutation_scaling_and_duplication(stream):
    rows, variant, ncols, field = stream
    red = reduce_rows(rows, ncols, field)
    other = reduce_rows(variant, ncols, field)
    ref = dense_rref(rows)
    assert red.rank == other.rank == len(ref)
    assert red.pivot_cols() == other.pivot_cols()
    assert red.sparse_rows() == other.sparse_rows()
    assert [_monic(row, ncols) for row in red.sparse_rows()] == ref
    # the same rows as {col: value} dicts, the rational ones cleared to ints,
    # fed to RowBasis.add, which leaves them as they were (callers such as
    # augmented_exactness reuse them)
    dicts = []
    for row in variant:
        cols = [c for c, v in enumerate(row) if v]
        vals = [row[c] for c in cols]
        if not any(isinstance(v, QI) for v in vals):
            vals = int_cleared(vals)
        dicts.append(dict(zip(cols, vals)))
    before = [[(c, type(v), v) for c, v in row.items()] for row in dicts]
    basis = RowBasis(ncols, field)
    for row in dicts:
        basis.add(row)
    assert [[(c, type(v), v) for c, v in row.items()] for row in dicts] == before
    assert basis.sparse_rows() == red.sparse_rows()
    # reduce_rows reorders within its windows; adding the rows one at a time
    # in arrival order gives the same basis
    arrival = RowBasis(ncols, field)
    for row in rows:
        arrival.add({c: v for c, v in enumerate(row) if v})
    assert arrival.rank == red.rank
    assert arrival.pivot_cols() == red.pivot_cols()
    assert arrival.sparse_rows() == red.sparse_rows()
    assert arrival.gaussian == red.gaussian


def test_reduce_rows_raises_what_its_stream_raises():
    # as a word walk raises at its resource cap, part-way through a window
    cap = ResourceCapExceeded("the word walk kept more than 3 nonzero words")

    def capped():
        for c in range(30):
            yield {c % 3: 1, 2: c}
        raise cap

    with pytest.raises(ResourceCapExceeded) as info:
        reduce_rows(capped(), 3)
    assert info.value is cap


def test_in_kernel_against_reduced_rows():
    rows = [[1, 1, 0], [0, 1, 1]]
    red = reduce_rows(rows, 3)
    assert red.sparse_rows() == [{0: 1, 2: -1}, {1: 1, 2: 1}]
    assert in_kernel([1, -1, 1], red.sparse_rows())
    assert not in_kernel([1, 0, 0], red.sparse_rows())
    assert in_kernel([1, -1, 1], red.basis_rows())
    assert dot([1, 2], [2, -1]) == 0


def test_backend_reports_a_name():
    assert backend() == "python"


# -- the Gaussian-integer rows ------------------------------------------------------


def _random_gaussian_rows(rng, nrows, ncols):
    """Rows of Gaussian rationals, some of them rational, some combinations
    of the ones before (so the rank is often short of full)."""
    def scalar():
        if rng.random() < 0.35:
            return 0
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.6 else 0
        return QI(re, im)

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = QI(rng.randint(-3, 3), rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.5:
            rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)])
        else:
            rows.append([scalar() for _ in range(ncols)])
    return rows


def _assert_normal_form(basis):
    """Each retained row has content 1 over Z[i] (by sympy's gcd on the
    Gaussian integers) and its lead has re > 0, im >= 0; real entries are
    ints, the others QIs with int parts."""
    from sympy.polys.domains import ZZ_I

    for row in basis.sparse_rows():
        parts = []
        for v in row.values():
            assert type(v) is int or (type(v.re) is int and type(v.im) is int and v.im)
            parts.append((v, 0) if type(v) is int else (v.re, v.im))
        g = ZZ_I.zero
        for re, im in parts:
            g = ZZ_I.gcd(g, ZZ_I(re, im))
        assert g.x ** 2 + g.y ** 2 == 1
        re, im = parts[list(row).index(min(row))]
        assert re > 0 and im >= 0


def _rational(q):
    return Fraction(int(q.numerator), int(q.denominator))


def test_gaussian_rank_and_echelon_match_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(x):
        x = promote(x, FIELD_QI)
        re, im = Fraction(x.re), Fraction(x.im)
        return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))

    rng = random.Random(31)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        rows = _random_gaussian_rows(rng, nrows, ncols)
        basis = reduce_rows(rows, ncols, FIELD_QI)
        dm = DomainMatrix([[to_sympy(x) for x in row] for row in rows], (nrows, ncols), QQ_I)
        rref, pivots = dm.rref()
        assert basis.rank == dm.rank() == len(pivots)
        assert basis.pivot_cols() == list(pivots)
        ref = [
            [QI(_rational(z.x), _rational(z.y)) for z in row]
            for row in rref.to_list()[: len(pivots)]
        ]
        assert [_monic(row, ncols) for row in basis.sparse_rows()] == ref
        _assert_normal_form(basis)


def test_gaussian_rows_do_not_depend_on_order_or_scale():
    """Permuting the rows and rescaling them by non-units of Z[i] and Q(i)
    gives exactly the same retained rows, value types included."""
    pytest.importorskip("sympy")
    rng = random.Random(8)
    scales = [QI(2, 1), 3, QI(1, -2), QI(0, 5), Fraction(-2, 7), QI(Fraction(1, 2), 3)]
    for _ in range(150):
        ncols = rng.randint(1, 7)
        rows = _random_gaussian_rows(rng, rng.randint(1, 8), ncols)
        variant = [[s * x for x in row] for row, s in zip(rows, rng.choices(scales, k=len(rows)))]
        rng.shuffle(variant)
        one, other = reduce_rows(rows, ncols, FIELD_QI), reduce_rows(variant, ncols, FIELD_QI)
        typed = [[(c, type(v), v) for c, v in sorted(row.items())] for row in one.sparse_rows()]
        assert [
            [(c, type(v), v) for c, v in sorted(row.items())] for row in other.sparse_rows()
        ] == typed
        _assert_normal_form(one)


def test_in_kernel_over_gaussian_rationals_matches_mat_vec():
    rng = random.Random(12)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_gaussian_rows(rng, nrows, ncols)
        m = ExactMatrix.from_dense(rows, FIELD_QI)
        basis = reduce_rows(rows, ncols, FIELD_QI)
        ker = kernel_basis(m)
        vecs = [[QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
                 for _ in range(ncols)]]
        if ker:  # a Gaussian-rational combination of kernel vectors
            c = [QI(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-3, 3)) for _ in ker]
            vecs.append([sum((ci * v[j] for ci, v in zip(c, ker)), QI(0)) for j in range(ncols)])
        for vec in vecs:
            expect = not any(mat_vec(m, vec))
            assert in_kernel(vec, basis.sparse_rows()) == expect
            assert in_kernel(vec, rows) == expect
            assert in_kernel({j: x for j, x in enumerate(vec) if x}, basis.basis_rows()) == expect


_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_GAUSSIANS = st.builds(QI, _FRACTIONS, _FRACTIONS)


@st.composite
def _stacks_and_vectors(draw):
    """(field, dense rows, vectors) over Q or Q(i), the entries with
    denominators (of both parts of a Gaussian entry): drawn vectors, mostly
    outside the kernel, and a combination of the kernel vectors, inside it."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    scalar = _FRACTIONS if field == FIELD_Q else st.one_of(_FRACTIONS, _GAUSSIANS)
    ncols = draw(st.integers(1, 6))
    vector = st.lists(st.one_of(st.just(0), scalar), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vector, min_size=1, max_size=6))
    vecs = draw(st.lists(vector, max_size=2))
    ker = kernel_basis(ExactMatrix.from_dense(rows, field))
    if ker:
        coeffs = draw(st.lists(scalar, min_size=len(ker), max_size=len(ker)))
        zero = QI(0) if field == FIELD_QI else Fraction(0)
        vecs.append([sum((c * v[j] for c, v in zip(coeffs, ker)), zero) for j in range(ncols)])
    return field, rows, vecs


@settings(max_examples=200, deadline=None)
@example((FIELD_Q, [[1, 1, 0], [0, 1, 1]], [[1, -1, 1], [1, 0, 0]]))
@example((FIELD_QI, [[QI(1, 1), Fraction(1, 2)]], [[1, QI(-2, -2)], [QI(0, Fraction(1, 3)), 0]]))
@given(_stacks_and_vectors())
def test_annihilates_agrees_with_mat_vec(case):
    """The column index answers as the product with the matrix itself, for
    dense and dict vectors, against the kept rows and against the rows as
    given (``in_kernel``)."""
    field, rows, vecs = case
    m = ExactMatrix.from_dense(rows, field)
    basis = reduce_rows(rows, m.ncols, field)
    inside = [not any(mat_vec(m, vec)) for vec in vecs]
    for vec, expect in zip(vecs, inside):
        for form in (vec, {j: x for j, x in enumerate(vec) if x}):
            assert basis.annihilates([form]) == expect
            assert in_kernel(form, rows) == expect
            assert in_kernel(form, basis.sparse_rows()) == expect
    assert basis.annihilates(vecs) == all(inside)


def test_gaussian_integer_rows_are_copied_and_the_rest_cleared():
    """A row of ints and QIs with int parts, real ones included, is only
    copied; Fraction(3) and QI(Fraction(3), 0) still come out as the int 3.
    Either way the retained rows are the same, value types included."""
    basis = RowBasis(3, FIELD_QI)
    row = {0: QI(2, -1), 1: QI(4, 0), 2: 6}
    got, gaussian = basis._reduced(row)
    assert got == row and got is not row and gaussian
    got, gaussian = basis._reduced({0: Fraction(3), 1: QI(Fraction(3), 0), 2: QI(0)})
    assert got == {0: 3, 1: 3} and all(type(v) is int for v in got.values()) and gaussian

    def typed(b):
        return [[(c, type(v), v) for c, v in sorted(r.items())] for r in b.sparse_rows()]

    rng = random.Random(19)
    for _ in range(150):
        ncols = rng.randint(1, 7)
        rows = [int_cleared(row) for row in _random_gaussian_rows(rng, rng.randint(1, 8), ncols)]
        real_qis = [[QI(x) if type(x) is int and rng.random() < 0.5 else x for x in row]
                    for row in rows]
        fractions = [[Fraction(x) if type(x) is int else QI(Fraction(x.re), x.im) for x in row]
                     for row in rows]
        want = typed(reduce_rows(rows, ncols, FIELD_QI))
        assert typed(reduce_rows(real_qis, ncols, FIELD_QI)) == want
        assert typed(reduce_rows(fractions, ncols, FIELD_QI)) == want


# -- the unit and wide views, and the column bounds ---------------------------------


def _assert_views(basis):
    """_units holds exactly the leads whose kept row is {j: 1}, and _wide maps
    every other lead to the very row object _rows holds."""
    rows = basis._rows
    assert basis._units == {j for j, row in rows.items() if row == {j: 1}}
    assert basis._wide.keys() == rows.keys() - basis._units
    assert all(basis._wide[j] is rows[j] for j in basis._wide)


_INTS = st.integers(-5, 5).filter(bool)
_GAUSSIAN_INTS = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)


@st.composite
def _unit_heavy_rows(draw):
    """(ncols, rows, cut): sparse rows over Z or Z[i], most of them single
    entries, repeats of earlier rows (rescaled) or the single entries that
    narrow an earlier row to its lead, so that back-substitution leaves it
    {lead: 1}; ``cut`` is where the rank with the rest is asked."""
    ncols = draw(st.integers(1, 8))
    scalar = draw(st.sampled_from((_INTS, st.one_of(_INTS, _GAUSSIAN_INTS))))
    col = st.integers(0, ncols - 1)
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("single", "single", "wide", "repeat", "narrow")))
        if kind == "single" or not rows and kind != "wide":
            rows.append({draw(col): draw(scalar)})
        elif kind == "wide":
            cols = draw(st.lists(col, min_size=1, max_size=4, unique=True))
            rows.append({c: draw(scalar) for c in cols})
        elif kind == "repeat":
            row, s = draw(st.sampled_from(rows)), draw(scalar)
            rows.append({c: s * v for c, v in row.items()})
        else:
            row = draw(st.sampled_from(rows))
            rows.extend({c: draw(scalar)} for c in sorted(row)[1:])
    return ncols, rows, draw(st.integers(0, len(rows)))


@settings(max_examples=200, deadline=None)
@example((3, [{0: 2, 1: 3, 2: 1}, {0: 1, 2: 1}, {1: -4}, {2: 5}, {0: 7}], 2))
@given(_unit_heavy_rows())
def test_unit_pivots_keep_the_reduced_echelon_and_the_views(case):
    """Rows that are mostly single entries reduce to the RREF of the dense
    oracle, and the views hold after every add; the rank with the rest of
    the rows, asked midway, is that of all of them and leaves the basis,
    its views and its flag as they were."""
    ncols, rows, cut = case
    field = FIELD_QI if any(isinstance(v, QI) for row in rows for v in row.values()) else FIELD_Q
    ref = dense_rref([_dense(list(row), list(row.values()), ncols) for row in rows])
    basis = RowBasis(ncols, field)
    for row in rows[:cut]:
        basis.add(row)
        _assert_views(basis)
    kept = _state(basis)
    assert basis.rank_with(rows[cut:]) == len(ref)
    _assert_views(basis)
    assert _state(basis) == kept
    for row in rows[cut:]:
        basis.add(row)
        _assert_views(basis)
    assert [_monic(row, ncols) for row in basis.sparse_rows()] == ref
    assert basis.sparse_rows() == reduce_rows(rows, ncols, field).sparse_rows()


@st.composite
def _rows_and_more_rows(draw):
    """(ncols, rows, extra): sparse rows over Z or Z[i], and more rows, over
    Z or Z[i] on their own draw, many of them an earlier extra row plus a
    multiple of a row of the first set, so that their residues against the
    first set's span depend on each other."""
    ncols = draw(st.integers(1, 8))
    scalars = st.sampled_from((_INTS, st.one_of(_INTS, _GAUSSIAN_INTS)))
    scalar, extra_scalar = draw(scalars), draw(scalars)
    col = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.dictionaries(col, scalar, min_size=1, max_size=4), max_size=8))
    extra = []
    for _ in range(draw(st.integers(0, 5))):
        if extra and draw(st.booleans()):
            vec = {c: draw(extra_scalar) * v for c, v in draw(st.sampled_from(extra)).items()}
            if rows:
                s = draw(scalar)
                for c, v in draw(st.sampled_from(rows)).items():
                    vec[c] = vec.get(c, 0) + s * v
            extra.append({c: v for c, v in vec.items() if v})
        else:
            extra.append(draw(st.dictionaries(col, extra_scalar, min_size=1, max_size=4)))
    return ncols, rows, extra


@settings(max_examples=200, deadline=None)
@example((2, [{0: 1}], [{1: 1}, {1: 2}]))
@example((3, [{0: 1, 1: 1}], [{1: QI(0, 1), 2: 1}, {0: QI(0, 1), 2: 1}]))
@given(_rows_and_more_rows())
def test_rank_with_is_the_rank_of_both_and_writes_nothing(case):
    """Over Z and Z[i], the rank with more rows is that of the stacked
    rows, and the basis keeps its rows, views and field flag: a basis over
    Q stays one when a Gaussian row is only ranked against it."""
    ncols, rows, extra = case
    basis = reduce_rows(rows, ncols)
    kept = _state(basis)
    assert basis.rank_with(extra) == reduce_rows(rows + extra, ncols).rank
    assert _state(basis) == kept
    _assert_views(basis)


def test_a_row_narrowed_to_its_lead_becomes_a_unit():
    basis = RowBasis(3)
    basis.add({0: 2, 1: 4, 2: 6})
    assert basis._units == set() and basis._wide == {0: {0: 1, 1: 2, 2: 3}}
    basis.add({1: 5, 2: 5})
    assert basis._units == set() and basis._wide == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}
    basis.add({2: -7})
    assert basis._units == {0, 1, 2} and basis._wide == {}
    _assert_views(basis)
    # a row in unit columns alone reduces to zero
    assert not basis.add({0: 3, 2: QI(0, 1)}) and basis.gaussian


@pytest.mark.parametrize("rows, ncols, message", [
    ([{0: 1, 3: 2}], 3, "column index outside 0..2"),
    ([{-1: 1}], 3, "column index outside 0..2"),
    ([{0: 1}, {1: 1}, {0: 2, 1: 3, 3: 1}], 3, "column index outside 0..2"),
    ([{0: 1, 1: 1}, {0: 2, 1: 2, -2: 1}], 3, "column index outside 0..2"),
    ([{0: 1, 4: 0}], 3, "column index outside 0..2"),
    ([{0: 1}, {0: 5, 4: 0}], 3, "column index outside 0..2"),
    ([{4: Fraction(0)}], 3, "column index outside 0..2"),
    ([{0: Fraction(1, 2), 3: Fraction(1, 3)}], 3, "column index outside 0..2"),
    ([{0: QI(1, 1), 3: QI(0, 1)}], 3, "column index outside 0..2"),
    ([{0: 1}, {0: QI(Fraction(1, 2), 1), 7: QI(0)}], 3, "column index outside 0..2"),
    ([{2: 1}], 0, "column index outside 0..-1"),
    ([[1, 2]], 3, "row has length 2, expected 3"),
    ([{0: 1}, [1, 2, 3, 4]], 3, "row has length 4, expected 3"),
])
def test_a_row_outside_the_columns_is_refused(rows, ncols, message):
    """Whether its bad column is its lead or not, zero or not, int or not,
    and wherever the row comes in the stream."""
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        reduce_rows(rows, ncols)


def test_add_refuses_a_row_outside_the_columns_and_keeps_the_basis():
    basis = reduce_rows([{0: 1}, {1: 2, 2: 3}], 3)
    kept = basis.sparse_rows()
    for row in ({3: 1}, {0: 1, 1: 1, 5: 2}, {-1: 4}, {2: 1, 6: 0}, {0: Fraction(1, 2), 4: 1}):
        with pytest.raises(DimensionMismatch, match=r"^column index outside 0\.\.2$"):
            basis.add(row)
        assert basis.sparse_rows() == kept
        _assert_views(basis)


def test_a_bad_row_is_refused_when_it_is_reached():
    # a window is read whole before its rows are added, so a stream that
    # raises later in the window a bad row came in raises its own error
    cap = ResourceCapExceeded("the word walk kept more than 3 nonzero words")

    def stream():
        yield {0: 1}
        yield {5: 1}
        raise cap

    with pytest.raises(ResourceCapExceeded) as info:
        reduce_rows(stream(), 3)
    assert info.value is cap
