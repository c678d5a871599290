import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rank, dense_rref
from nilcohom.errors import DimensionMismatch, SingularMatrix
from nilcohom.linalg import (
    ExactMatrix,
    RowBasis,
    backend,
    dot,
    in_kernel,
    inverse,
    kernel_basis,
    rank,
    reduce_rows,
    solve,
    streaming_rank,
)
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI


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
    assert rank(ExactMatrix.identity(3)).rank == 3
    m = ExactMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(m) .rank == 1
    assert rank(m).pivot_cols == (0,)


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
        assert rank(m).rank == rank(m.transpose()).rank


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
    assert kernel_basis(ExactMatrix.identity(4)) == []


def test_kernel_vectors_annihilate_and_complement_row_space():
    rng = random.Random(9)
    for _ in range(40):
        rows = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        m = ExactMatrix.from_dense(rows)
        ker = kernel_basis(m)
        prof = rank(m)
        assert len(ker) == m.ncols - prof.rank
        for v in ker:
            assert not any(m.mat_vec(v))
        # kernel vectors stacked with a row basis span the whole space
        red = reduce_rows(rows, m.ncols)
        combined = red.basis_rows() + [v for v in ker]
        assert streaming_rank(combined, m.ncols) == m.ncols


def test_solve_examples():
    assert solve(ExactMatrix.identity(2), [1, 2]) == [1, 2]
    x = solve(ExactMatrix.from_dense([[1, 1]]), [5])
    assert x is not None and x[0] + x[1] == 5
    assert solve(ExactMatrix.from_dense([[1], [1]]), [0, 1]) is None
    with pytest.raises(DimensionMismatch):
        solve(ExactMatrix.identity(2), [1, 2, 3])


def test_solve_random_consistency():
    rng = random.Random(13)
    for _ in range(40):
        rows = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        a = ExactMatrix.from_dense(rows)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(a.ncols)]
        b = a.mat_vec(x0)
        x = solve(a, b)
        assert x is not None and a.mat_vec(x) == b


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_gaussians = st.builds(QI, _rationals, _rationals)


@st.composite
def _systems(draw):
    """(a, b) over Q or Q(i); b = a @ x0 (consistent) or drawn freely."""
    gaussian = draw(st.booleans())
    scalar = _gaussians if gaussian else _rationals
    entry = st.one_of(st.just(0), scalar)
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    a = ExactMatrix.from_dense(rows, field="Qi" if gaussian else "Q")
    if draw(st.booleans()):
        b = a.mat_vec(draw(st.lists(scalar, min_size=ncols, max_size=ncols)))
    else:
        b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return a, rows, b


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
    a, rows, b = system
    x = solve(a, b)
    consistent = dense_rank(rows) == dense_rank([r + [v] for r, v in zip(rows, b)])
    assert (x is not None) == consistent
    if x is not None:
        assert a.mat_vec(x) == b
        assert x == _rref_solution(rows, b, a.field)


def test_inverse_round_trip_and_singular():
    rng = random.Random(17)
    found = 0
    while found < 10:
        rows = rand_matrix(rng, 4, 4, density=0.8)
        m = ExactMatrix.from_dense(rows)
        if rank(m).rank < 4:
            continue
        found += 1
        assert m.matmul(inverse(m)) == ExactMatrix.identity(4)
    with pytest.raises(SingularMatrix):
        inverse(ExactMatrix.from_dense([[1, 2], [2, 4]]))


def test_gaussian_field_path():
    i = QI(0, 1)
    m = ExactMatrix.from_dense([[i, 1], [1, -i]], field="Qi")
    # second row is -i times the first
    assert rank(m).rank == 1
    ker = kernel_basis(m)
    assert len(ker) == 1 and not any(m.mat_vec(ker[0]))
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
    basis = RowBasis(20, integral=True)
    for cols, vals in rows:
        basis.add(dict(zip(cols, vals)))
    _assert_canonical_integral(basis, [_dense(c, v, 20) for c, v in rows])


def test_integral_reduced_rows_equal_the_dense_rref_past_the_machine_word():
    rng = random.Random(99)
    for _ in range(12):
        ncols = rng.randint(1, 25)
        basis = RowBasis(ncols, integral=True)
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
    partly duplicated and permuted."""
    mode = draw(st.sampled_from(("Q", "Qi", "promote")))
    scalar = _rationals if mode == "Q" else st.one_of(_rationals, _gaussians)
    nonzero = scalar.filter(bool)
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(st.one_of(st.just(0), scalar), min_size=ncols, max_size=ncols),
        min_size=1, max_size=8,
    ))
    if mode == "promote":
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [draw(_gaussians.filter(lambda z: z.im)) for _ in range(ncols)])
    scales = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    variant = [[c * v for v in row] for c, row in zip(scales, rows)]
    variant += [list(row) for row in draw(st.lists(st.sampled_from(variant), max_size=4))]
    variant = draw(st.permutations(variant))
    return rows, variant, ncols, FIELD_QI if mode == "Qi" else FIELD_Q


@settings(max_examples=150, deadline=None)
@given(_streams())
def test_reduction_invariant_under_permutation_scaling_and_duplication(stream):
    rows, variant, ncols, field = stream
    red = reduce_rows(rows, ncols, field)
    other = reduce_rows(variant, ncols, field)
    ref = dense_rref(rows)
    assert red.rank == other.rank == len(ref)
    assert red.pivot_cols() == other.pivot_cols()
    assert red.sparse_rows() == other.sparse_rows()
    assert [_monic(row, ncols) for row in red.sparse_rows()] == ref


def test_in_kernel_against_reduced_rows():
    rows = [[1, 1, 0], [0, 1, 1]]
    red = reduce_rows(rows, 3)
    assert red.sparse_rows() == [{0: 1, 2: -1}, {1: 1, 2: 1}]
    assert in_kernel([1, -1, 1], red.sparse_rows())
    assert not in_kernel([1, 0, 0], red.sparse_rows())
    assert in_kernel([1, -1, 1], red.basis_rows())
    assert dot([1, 2], [2, -1]) == 0


def test_backend_reports_a_name():
    assert backend() in ("compiled", "python")
