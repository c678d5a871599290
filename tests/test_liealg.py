import random
from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adapted_by_two_echelons,
    center,
    contains_space,
    dense_rref,
    direct_sum,
    nilpotent_tables,
    random_structure,
    seeded_bases,
    structure_tables,
)
from nilcohom.errors import (
    DimensionMismatch,
    NotDerivation,
    NotLieAlgebra,
    SingularMatrix,
)
from nilcohom import liealg, linalg
from nilcohom.ideals import generic_chart
from nilcohom.liealg import (
    StructureConstants,
    _adapted,
    _brv,
    _brvv,
    _entry,
    _letter_operators,
    _read_operators,
    _transport,
    change_basis,
    derived_series,
    heisenberg,
    heisenberg_extension,
    is_lie,
    jacobi,
    k_step_generators,
    lower_central_series,
    n_k,
    nil_index,
    pencil,
    semidirect_by_derivation,
    sn_k,
    solvable_length,
    split_generators,
    table_in_basis,
)
from nilcohom.linalg import reduce_rows
from nilcohom.scalars import FIELD_Q, FIELD_QI, QI
from nilcohom.tables import parse_table

# every algebra with a hard-coded table, with its nilpotency step
NILPOTENT_CATALOG = [
    ("f_3", 2),
    ("f_4", 3),
    ("f_5", 4),
    ("f_3+R^2", 2),
    ("f_4+R", 3),
    ("g_{5,1}", 2),
    ("g_{5,2}", 2),
    ("g_{5,3}", 3),
    ("g_{5,4}", 3),
    ("g_{5,6}", 4),
    ("12346_E", 5),
    ("g_{137A}", 3),
    ("g_{137B}", 3),
    ("g_{137A_1}", 3),
    ("g_{137B_1}", 3),
    ("g_{137D}", 3),
    ("g_{147D}", 3),
    ("g_{247G}", 3),
    ("g_{247H}", 3),
    ("g_{247K}", 3),
    ("g_{247K}-GR", 3),
]

DIM5 = ("f_3+R^2", "g_{5,1}", "g_{5,2}", "f_4+R", "g_{5,3}", "g_{5,4}", "f_5", "g_{5,6}")
DIM7_3STEP = ("g_{137A}", "g_{137B}", "g_{137A_1}", "g_{137B_1}", "g_{137D}", "g_{147D}",
              "g_{247G}", "g_{247H}", "g_{247K}")
# the published sample points of the two 7-dimensional surfaces
CURVE_POINTS = (
    ("g_5(r,t)", 1, 1),
    ("g_5(r,t)", 2, 3),
    ("g_5(r,t)", -1, 2),
    ("g_6(r,t)", 1, 1),
    ("g_6(r,t)", 2, 3),
    ("g_6(r,t)", Fraction(1, 2), Fraction(1, 3)),
)


def test_bracket_is_bilinear_antisymmetric(catalog):
    mu = catalog.structure("12346_E")
    rng = random.Random(1)
    for _ in range(20):
        x = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        y = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        assert not any(mu.bracket(x, x))
        lhs = mu.bracket(x, y)
        rhs = mu.bracket(y, x)
        assert lhs == [-v for v in rhs]
    with pytest.raises(DimensionMismatch):
        mu.bracket([1, 2], [1, 2])


def test_bracket_table_values(catalog):
    f3 = catalog.structure("f_3")
    e = lambda n, i: [Fraction(j == i) for j in range(n)]
    assert f3.bracket(e(3, 0), e(3, 1)) == e(3, 2)  # [a,b] = c
    g = catalog.structure("12346_E")
    assert g.bracket(e(6, 2), e(6, 3)) == [0, 0, 0, 0, 0, Fraction(-1)]  # [c,d] = -f


def _with_ints(v):
    """v with every integral part an int."""
    if isinstance(v, QI):
        return QI(_with_ints(v.re), _with_ints(v.im))
    return int(v) if v.denominator == 1 else v


@settings(max_examples=150, deadline=None)
@given(structure_tables())
def test_equal_tables_hash_equal(mu):
    # the hash reads n and the brackets, as == does, and not the name, the
    # field, the order of the brackets or the types of the values
    equal = [
        StructureConstants(mu.n, dict(reversed(list(mu.c.items()))), mu.field),
        StructureConstants(mu.n, {pair: {k: _with_ints(v) for k, v in reversed(list(row.items()))}
                                  for pair, row in mu.c.items()}, mu.field),
        mu.with_name("other"),
        StructureConstants(mu.n, mu.c, FIELD_QI),
    ]
    for other in equal:
        assert other == mu and hash(other) == hash(mu)


def test_jacobi_detects_non_lie_brackets():
    assert jacobi(StructureConstants.abelian(4)) == {}
    # two overlapping brackets with no closing term violate Jacobi
    bad = StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}})
    assert jacobi(bad)
    assert not is_lie(bad)


def test_catalog_algebras_satisfy_jacobi(catalog):
    for name, _ in NILPOTENT_CATALOG:
        assert is_lie(catalog.structure(name)), name
    for name in ("g_5(r,t)", "g_6(r,t)", "g_{137D}(t)", "g_{247G}(t)",
                 "g_{247K}(t)", "g_{147E_1}(t)", "g_1(t)", "g_I(t)"):
        rec = catalog.get(name)
        for pt in rec.default_samples:
            assert is_lie(rec.structure(pt)), (name, pt)


def test_nested_word_values(catalog):
    f3 = catalog.structure("f_3")
    assert n_k(f3, 2) == {}
    g = catalog.structure("12346_E")
    # [[[[a,b],a],a],b] = -f, so the algebra is exactly 5-step
    assert n_k(g, 4)[(0, 1, 0, 0, 1)] == [0, 0, 0, 0, 0, Fraction(-1)]
    assert n_k(g, 5) == {}
    assert n_k(g, 6) == {}


def test_split_word_values(catalog):
    g = catalog.structure("12346_E")
    assert sn_k(g, 4)[(0, 1, 0, 1, 0)] == [0, 0, 0, 0, 0, Fraction(1)]
    # any 2-step algebra kills the split word: the inner value is central
    for name in ("g_{5,1}", "f_3+R^2"):
        assert sn_k(catalog.structure(name), 3) == {}
    rec = catalog.get("g_5(r,t)")
    for pt in rec.default_samples:
        assert sn_k(rec.structure(pt), 5) == {}


def test_lower_central_series_dims(catalog):
    dims = [s.rank for s in lower_central_series(catalog.structure("f_5"))]
    assert dims == [5, 3, 2, 1, 0]
    dims = [s.rank for s in lower_central_series(StructureConstants.abelian(4))]
    assert dims == [4, 0]
    solvable = catalog.structure("g_6(r,t)", {"r": 1, "t": 1})
    series = lower_central_series(solvable)
    assert series[-1].rank > 0 and nil_index(solvable) is None
    with pytest.raises(NotLieAlgebra):
        lower_central_series(StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}}))


def test_nil_index_is_minimal_word_length(catalog):
    for name, step in NILPOTENT_CATALOG:
        mu = catalog.structure(name)
        assert nil_index(mu) == step, name
        assert n_k(mu, step) == {}
        if step > 1:
            assert n_k(mu, step - 1), name


def test_derived_series(catalog):
    assert solvable_length(StructureConstants.abelian(3)) == 1
    rec = catalog.get("g_{5,3}")
    mu = rec.structure()
    deformed = pencil(mu, rec.cochain("nu2"), Fraction(1))
    assert is_lie(deformed)
    assert solvable_length(deformed) is not None
    assert nil_index(deformed) is None
    # members of the split variety have solvable length <= ceil(log2(k-1)) + 1
    bound = ceil(log2(5 - 1)) + 1
    for pt in catalog.get("g_5(r,t)").default_samples:
        mu = catalog.structure("g_5(r,t)", pt)
        assert solvable_length(mu) <= bound


def test_derived_series_inside_central_series(catalog):
    for name, _ in NILPOTENT_CATALOG:
        mu = catalog.structure(name)
        lower = lower_central_series(mu)
        derived = derived_series(mu)
        for i, d in enumerate(derived):
            j = min(2**i - 1, len(lower) - 1)
            assert contains_space(lower[j], d), (name, i)


def test_nilpotency_implies_split_word_vanishes(catalog):
    # with Jacobi, vanishing of the nested word forces the split word to vanish
    for name, step in NILPOTENT_CATALOG:
        if step >= 2:
            mu = catalog.structure(name)
            assert sn_k(mu, step) == {}, name


def test_sn_k_vanishes_agrees_with_the_split_word(catalog):
    tables = [catalog.structure(name) for name in DIM5 + DIM7_3STEP]
    tables += [catalog.structure(fam, {"r": r, "t": t}) for fam, r, t in CURVE_POINTS]
    rng = random.Random(41)
    randoms = []
    while len(randoms) < 12:
        brackets = random_structure(4, rng, density=0.15).c
        field = FIELD_QI if len(randoms) % 2 else FIELD_Q  # every other one over Q(i)
        if field == FIELD_QI:
            brackets = {p: {k: QI(v, rng.randint(-2, 2)) for k, v in c.items()}
                        for p, c in brackets.items()}
        mu = StructureConstants(4, brackets, field)
        if not is_lie(mu):
            randoms.append(mu)
    for mu in tables + randoms:
        for k in range(2, 7):
            assert (split_generators(mu, k) is not None) == (not sn_k(mu, k)), (mu, k)
        for k in range(1, 7):
            assert (k_step_generators(mu, k) is not None) == (not n_k(mu, k)), (mu, k)
    # the non-Jacobi brackets reach both answers
    vanishes = {split_generators(mu, k) is not None for mu in randoms for k in range(2, 7)}
    assert vanishes == {True, False}
    assert {k_step_generators(mu, k) is None for mu in tables for k in range(1, 7)} == {True, False}
    with pytest.raises(ValueError, match="k must be >= 2"):
        split_generators(tables[0], 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            k_step_generators(heisenberg(1), k)


def test_k_step_generators_span_g_modulo_g1(catalog):
    # the letters of the generator walk: n - dim g^1 basis vectors that span
    # g together with g^1, given exactly when N_k(mu) = 0
    rng = random.Random(18)
    tables = [catalog.structure(name) for name, _ in NILPOTENT_CATALOG]
    tables += [b for mu in tables for b in seeded_bases(mu, rng, 4)]
    assert {mu.field for mu in tables} == {FIELD_Q, FIELD_QI}
    for mu in tables:
        g1 = lower_central_series(mu)[1]
        for k in range(1, 7):
            letters = k_step_generators(mu, k)
            assert (letters is None) == bool(n_k(mu, k)), (mu, k)
            if letters is not None:
                assert len(letters) == mu.n - g1.rank, (mu, k)
                units = [{s: 1} for s in letters]
                assert reduce_rows(g1.sparse_rows() + units, mu.n, mu.field).rank == mu.n
    sl2 = StructureConstants(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert [k_step_generators(sl2, k) for k in range(1, 4)] == [None] * 3
    assert k_step_generators(StructureConstants.abelian(3), 1) == (0, 1, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        k_step_generators(heisenberg(1), 0)


def test_word_tensors_and_the_derived_series_refuse_bad_input():
    # N_k is defined for k >= 1 and SN_k for k >= 2; the derived series,
    # like the lower central one, needs the Jacobi identity
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        n_k(heisenberg(1), 0)
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        sn_k(heisenberg(1), 1)
    with pytest.raises(NotLieAlgebra, match="^derived series needs the Jacobi identity$"):
        derived_series(StructureConstants(5, {(0, 1): {2: 1}, (2, 3): {4: 1}}))


def _generated_dim(mu, letters):
    """Dimension of the subalgebra the e_s generate, closed by
    StructureConstants.bracket until its span stops growing."""
    span = reduce_rows([[int(i == s) for i in range(mu.n)] for s in letters], mu.n, mu.field)
    while True:
        rows = span.basis_rows()
        grown = reduce_rows(rows + [mu.bracket(u, v) for u in rows for v in rows],
                            mu.n, mu.field)
        if grown.rank == span.rank:
            return span.rank
        span = grown


def test_split_generators_generate_g(catalog):
    # the one picker: at a nilpotent point the n - dim g^1 span picks of
    # k_step_generators, which generate g; at a point that is not nilpotent
    # those picks extended until they generate g
    rng = random.Random(28)
    nilpotent = [(catalog.structure(name), step) for name, step in NILPOTENT_CATALOG if step > 1]
    nilpotent += [(b, step) for mu, step in nilpotent[:4] for b in seeded_bases(mu, rng, 2)]
    assert {mu.field for mu, _ in nilpotent} == {FIELD_Q, FIELD_QI}
    for mu, step in nilpotent:
        letters = split_generators(mu, step)
        assert letters == k_step_generators(mu, step), mu
        assert len(letters) == mu.n - lower_central_series(mu)[1].rank, mu
        assert _generated_dim(mu, letters) == mu.n, mu
    assert split_generators(StructureConstants(3, {(1, 2): {0: 1}}), 3) == (1, 2)
    solvable = StructureConstants(3, {(0, 1): {1: 1}, (0, 2): {2: -1}})
    assert nil_index(solvable) is None and split_generators(solvable, 3) == (0, 1, 2)
    curves = [catalog.structure(fam, {"r": r, "t": t}) for fam, r, t in CURVE_POINTS]
    assert [split_generators(mu, 5) for mu in curves] == [(0, 1)] * 6
    bases = seeded_bases(curves[0], rng, 4) + seeded_bases(curves[3], rng, 4)
    for mu in curves + bases:
        assert nil_index(mu) is None
        letters = split_generators(mu, 5)
        assert _generated_dim(mu, letters) == mu.n, mu
    # None exactly where SN_k does not vanish
    sl2 = StructureConstants(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert [split_generators(mu, k) for mu in (sl2, curves[0]) for k in (2, 4)] == [None] * 4
    with pytest.raises(ValueError, match="k must be >= 2"):
        split_generators(solvable, 1)


def _series_oracle(mu, derived=False):
    """g^i = [g^{i-1}, g], or g^(i) = [g^(i-1), g^(i-1)] when ``derived``, as
    monic reduced row echelon forms, by StructureConstants.bracket and the
    dense Gauss-Jordan oracle."""
    units = [[Fraction(i == j) for j in range(mu.n)] for i in range(mu.n)]
    series = [units]
    while True:
        others = series[-1] if derived else units
        nxt = dense_rref([mu.bracket(u, e) for u in series[-1] for e in others])
        if len(nxt) == len(series[-1]):
            return series
        series.append(nxt)
        if not nxt:
            return series


def _monic(basis):
    """The retained rows of a RowBasis, each divided by its lead."""
    out = []
    for row in basis.basis_rows():
        lead = next(v for v in row if v)
        out.append([Fraction(v, lead) for v in row])
    return out


def test_lower_central_series_rows_match_the_bracket_oracle(catalog):
    tables = [catalog.structure(name) for name, _ in NILPOTENT_CATALOG]
    tables += [catalog.structure(fam, {"r": r, "t": t}) for fam, r, t in CURVE_POINTS]
    for mu in tables:
        got = lower_central_series(mu)
        assert [_monic(s) for s in got] == _series_oracle(mu), mu
        got = derived_series(mu)
        assert [_monic(s) for s in got] == _series_oracle(mu, True), mu


def test_change_basis_identity_and_inverse(catalog):
    mu = catalog.structure("g_{5,3}")
    ident = [[Fraction(i == j) for j in range(5)] for i in range(5)]
    assert change_basis(mu, ident) == mu
    rng = random.Random(5)
    done = 0
    while done < 5:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
        try:
            moved = change_basis(mu, g)
        except SingularMatrix:
            continue
        done += 1
        ginv_back = change_basis(moved, _inv(g))
        assert ginv_back == mu
    with pytest.raises(SingularMatrix):
        change_basis(mu, [[0] * 5 for _ in range(5)])


def test_change_basis_gaussian_matrix_on_rational_algebra(catalog):
    # a Q(i) transvection g = 1 + i E_{1,3} moves a Q algebra into Q(i);
    # table_in_basis with the columns of g^{-1} is the same change of basis
    mu = catalog.structure("g_{5,3}")
    g = [[Fraction(r == c) for c in range(5)] for r in range(5)]
    g[0][2] = QI(0, 1)
    vectors = [[Fraction(r == c) for r in range(5)] for c in range(5)]
    vectors[2][0] = QI(0, -1)
    moved = change_basis(mu, g)
    assert moved.field == "Qi"
    assert moved == table_in_basis(mu, vectors)
    g[0][2] = QI(0, -1)
    assert change_basis(moved, g) == mu


def test_a_basis_change_over_qi_keeps_a_table_of_real_values_over_qi(catalog):
    # e_1, e_2 -> i e_1, i e_2 and e_3 -> -e_3 leaves ab = c with real values;
    # the Gaussian basis still puts it over Q(i), every value a QI
    i = QI(0, 1)
    moved = table_in_basis(catalog.structure("f_3"), [[i, 0, 0], [0, i, 0], [0, 0, -1]])
    assert moved == parse_table("ab = c", 3) and moved.field == FIELD_QI
    assert all(type(v) is QI for row in moved.c.values() for v in row.values())


def test_pencil_joins_the_declared_fields_and_reads_the_values(catalog):
    f3, f4 = catalog.structure("f_3"), catalog.structure("f_4")
    with pytest.raises(DimensionMismatch):
        pencil(f3, f4, 1)
    nu = parse_table("ac = b", 3)
    declared = StructureConstants(3, {(0, 1): {2: 1}}, FIELD_QI)
    for mu in (pencil(declared, nu, 2), pencil(nu, declared, 2)):
        assert mu.field == FIELD_QI
        assert all(type(v) is QI for row in mu.c.values() for v in row.values())
    # a real Gaussian t leaves real tables over Q, a nonreal one does not
    mu = pencil(f3, nu, QI(2, 0))
    assert mu == parse_table("ab = c, ac = 2b", 3) and mu.field == FIELD_Q
    assert all(type(v) is Fraction for row in mu.c.values() for v in row.values())
    assert pencil(f3, nu, QI(0, 2)).field == FIELD_QI


def _inv(rows):
    from nilcohom.linalg import ExactMatrix, inverse

    m = inverse(ExactMatrix.from_dense(rows))
    n = m.nrows
    return [[m.entries.get((i, j), Fraction(0)) for j in range(n)] for i in range(n)]


def _in_basis_by_definition(mu, vectors):
    """mu written in the basis ``vectors`` by the definition: each
    mu(v_i, v_j), through ``StructureConstants.bracket``, solved against the
    vectors by dense Gauss-Jordan (``dense_rref``), over Q(i) when mu is or
    a vector has a Gaussian entry.  The independent oracle of the
    transport."""
    n = mu.n
    gaussian = mu.field == FIELD_QI or any(isinstance(x, QI) for v in vectors for x in v)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = mu.bracket(vectors[i], vectors[j])
            rref = dense_rref([[v[r] for v in vectors] + [w[r]] for r in range(n)])
            brackets[(i, j)] = {k: row[n] for k, row in enumerate(rref)}
    return StructureConstants(n, brackets, FIELD_QI if gaussian else FIELD_Q)


def _typed(mu):
    """The field and every value of a table with its type."""
    return mu.field, sorted((p, k, v, type(v)) for p, row in mu.c.items() for k, v in row.items())


def _transvections(n, rng, coeffs):
    """Rows of a product of three transvections I + c E_ij, c from ``coeffs``."""
    g = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


def test_change_basis_and_table_in_basis_match_the_definition(catalog):
    # the fraction-free transport, divided by its scale, against the tables
    # written by the definition: equal values, value types and field
    rng = random.Random(46)
    rational = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    gaussian = (QI(0, 1), QI(1, 1), QI(0, -1), QI(Fraction(1, 2), 1))
    tables = [catalog.structure(name) for name, _ in NILPOTENT_CATALOG]
    tables += [_LIE[0], StructureConstants(3, {(0, 1): {2: QI(1, 2)}})]
    for mu in tables:
        for coeffs in (rational, gaussian):
            g = _transvections(mu.n, rng, coeffs)
            columns = [[g[r][c] for r in range(mu.n)] for c in range(mu.n)]
            assert _typed(table_in_basis(mu, columns)) == _typed(_in_basis_by_definition(mu, columns))
            inv = dense_rref([row + [int(r == c) for c in range(mu.n)] for r, row in enumerate(g)])
            inv_columns = [[inv[r][mu.n + c] for r in range(mu.n)] for c in range(mu.n)]
            want = _in_basis_by_definition(mu, inv_columns)
            if coeffs is gaussian:  # g^{-1} may come out real; g makes it Q(i)
                want = StructureConstants(mu.n, want.c, FIELD_QI)
            assert _typed(change_basis(mu, g)) == _typed(want)


def test_table_in_basis_refuses_dependent_vectors(catalog):
    mu = catalog.structure("g_{5,3}")
    vectors = [[Fraction(i == j) for j in range(5)] for i in range(5)]
    vectors[4] = [a + 2 * b for a, b in zip(vectors[0], vectors[1])]
    with pytest.raises(SingularMatrix):
        table_in_basis(mu, vectors)
    assert _transport(mu, vectors) is None


def test_a_table_refuses_writes(catalog):
    mu = catalog.structure("g_{5,3}")
    before, row = hash(mu), next(iter(mu.c))
    writes = (
        lambda: mu.c.__setitem__((0, 4), {1: 1}),
        lambda: mu.c.pop(row),
        lambda: mu.c.update({}),
        lambda: mu.c[row].__setitem__(0, 1),
        lambda: mu.c[row].setdefault(0, 1),
        lambda: mu.c[row].clear(),
        lambda: setattr(mu, "n", 6),
        lambda: setattr(mu, "c", {}),
        lambda: delattr(mu, "field"),
    )
    for write in writes:
        with pytest.raises((TypeError, AttributeError), match="^a StructureConstants table is read-only$"):
            write()
    # still dicts, for readers that test for one; nothing changed
    assert isinstance(mu.c, dict) and all(isinstance(r, dict) for r in mu.c.values())
    assert mu == catalog.structure("g_{5,3}") and hash(mu) == before
    assert mu.with_name("other")._hash == before


def test_the_adapted_table_is_sparser_or_the_table_itself(catalog):
    rng = random.Random(6)
    for name, _ in NILPOTENT_CATALOG:
        g = catalog.structure(name)
        for mu in (g, change_basis(g, _transvections(g.n, rng, (1, -1, 2)))):
            nu, letters = _adapted(mu)
            nnz = [sum(map(len, t.c.values())) for t in (mu, nu)]
            assert nu is mu or nnz[1] < nnz[0], name
            # a uniform scale of mu in another basis: the same step
            assert nil_index(nu) == nil_index(mu)
            # the letters it proved to generate nu are the picker's
            assert letters == k_step_generators(nu, nil_index(nu)), name
    # not nilpotent: the table as it is; sl(2) is not generated by the
    # letters outside its g^1, so no letters are proved, and g_5(1,1) is
    # generated by e_0, e_1
    for mu, letters in ((_LIE[0], None),
                        (catalog.structure("g_5(r,t)", {"r": 1, "t": 1}), (0, 1))):
        assert _adapted(mu) == (mu, letters) and _adapted(mu)[0] is mu


def test_a_dependent_adapted_basis_is_a_fault(catalog, monkeypatch):
    # the basis is independent by construction; the echelon that chose it
    # reading as dependent is a bug, not a refusal of the input: pivots
    # other than 0..n-1, or the shared inverse reader failing
    mu = change_basis(catalog.structure("g_{5,3}"), [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                                                     [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
                                                     [0, 0, 0, 0, 1]])
    assert _adapted(mu)[0] != mu
    faults = [(linalg.RowBasis, "pivot_cols", lambda self: sorted(self._rows)[1:] + [2 * mu.n]),
              (liealg, "_read_inverse", lambda basis, n: None)]
    for owner, name, fault in faults:
        liealg._adapted_form.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fault)
            with pytest.raises(RuntimeError, match="^the basis built from the generators is dependent$"):
                _adapted(mu)


@st.composite
def _moved_tables(draw, catalog):
    """A drawn nilpotent or arbitrary table, or an algebra of ``catalog``,
    as it is or, past dimension 1, moved by ``table_in_basis`` to the
    columns of seeded transvections over Z or Z[i]."""
    names = [name for name, _ in NILPOTENT_CATALOG]
    mu = draw(st.one_of(nilpotent_tables(), structure_tables(),
                        st.sampled_from(names).map(catalog.structure)))
    move = draw(st.sampled_from((None, (1, -1, 2), (QI(0, 1), QI(1, 1), QI(0, -1)))))
    if move is not None and mu.n > 1:
        g = _transvections(mu.n, random.Random(draw(st.integers(0, 2 ** 16))), move)
        mu = table_in_basis(mu, [[g[r][c] for r in range(mu.n)] for c in range(mu.n)])
    return mu


def _form_typed(form):
    """An ``_adapted_form`` value with the table's field, its values with
    their types, the order of its pairs, and the letters with their type."""
    nu, letters = form
    return (None if nu is None else (_typed(nu), list(nu.c)), letters, type(letters))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_one_echelon_adapted_form_is_the_two_echelon_one(catalog, data):
    # the basis chosen and inverted in one echelon gives the table and the
    # letters that choosing it in one and inverting it in another gave
    mu = data.draw(_moved_tables(catalog))
    assert _form_typed(liealg._adapted_form.__wrapped__(mu)) == _form_typed(adapted_by_two_echelons(mu))


def test_an_adapted_form_miss_reduces_one_augmented_echelon(catalog, monkeypatch):
    # a seeded 7-dimensional table: g^1, then one echelon of [b | e_t] that
    # chooses the basis and is read for its inverse; the n - |S| brackets
    # that made a basis vector are written without a product
    mu = seeded_bases(catalog.structure("g_{137A}"), random.Random(45), 2)[1]
    reduced, inverted, products, written = [], [], [], []
    reduce, brvv, write = liealg.reduce_rows, liealg._brvv, liealg._written

    def spy_reduce(rows, ncols):
        reduced.append(ncols)
        return reduce(rows, ncols)

    def spy_brvv(right, n, x, y):
        products.append((tuple(x), tuple(y)))
        return brvv(right, n, x, y)

    def spy_write(right, n, basis, form, known):
        written.append((right, basis, known))
        return write(right, n, basis, form, known)

    monkeypatch.setattr(liealg, "reduce_rows", spy_reduce)
    monkeypatch.setattr(liealg, "_integral_inverse", lambda *args: inverted.append(args))
    monkeypatch.setattr(liealg, "_brvv", spy_brvv)
    monkeypatch.setattr(liealg, "_written", spy_write)
    nu, letters = _adapted(mu)
    assert nu != mu and reduced == [7, 14] and inverted == []
    [(right, basis, known)] = written
    assert len(known) == 7 - len(letters) > 0
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    assert products == [(tuple(basis[i]), tuple(basis[j])) for i, j in pairs if (i, j) not in known]
    for (i, j), row in known.items():
        [(t, _)] = row.items()
        assert brvv(right, 7, basis[i], basis[j]) in (basis[t], [-x for x in basis[t]])


def test_table_in_basis_matches_manual_relabeling(catalog):
    # writing h_2 in the relabeled order gives the two-pair table directly
    h2 = heisenberg(2)
    assert h2 == parse_table("ab = e, cd = e", 5)
    # permuting basis vectors permutes the table accordingly
    f3 = catalog.structure("f_3")
    e = lambda i: [Fraction(j == i) for j in range(3)]
    swapped = table_in_basis(f3, [e(1), e(0), e(2)])
    assert swapped == parse_table("ab = -c", 3)


def test_direct_sum(catalog):
    f3 = catalog.structure("f_3")
    s = direct_sum(f3, StructureConstants.abelian(2))
    assert s == catalog.structure("f_3+R^2")
    assert nil_index(s) == 2
    assert direct_sum(StructureConstants.abelian(2), StructureConstants.abelian(3)).is_abelian()
    s = direct_sum(catalog.structure("f_4"), StructureConstants.abelian(1))
    assert s.n == 5 and nil_index(s) == 3


def test_semidirect_by_derivation(catalog):
    f3 = catalog.structure("f_3")
    zero = [[0] * 3 for _ in range(3)]
    ext = semidirect_by_derivation(f3, zero)
    assert ext == direct_sum(StructureConstants.abelian(1), f3)
    # scaling a alone fails: D[a,b] = 0 but [Da,b] = c
    not_deriv = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(NotDerivation, match=r"^matrix is not a derivation \(fails on e_0, e_1\)$"):
        semidirect_by_derivation(f3, not_deriv)
    # only D is checked, not the Jacobi identity of the base table
    skew = parse_table("ab = c, ac = a", 3)
    assert not is_lie(skew)
    ext = semidirect_by_derivation(skew, zero)
    assert ext == direct_sum(StructureConstants.abelian(1), skew)
    # a Gaussian D does not fit a Q algebra
    with pytest.raises(ValueError):
        semidirect_by_derivation(f3, [[QI(0, 1), 0, 0], [0, 0, 0], [0, 0, 0]])


def test_heisenberg_extensions():
    for m, dim, step in ((2, 6, 3), (3, 8, 4)):
        ext = heisenberg_extension(m)
        assert ext.n == dim
        assert nil_index(ext) == step
        assert sn_k(ext, m)  # nonzero: outside the split variety
    assert sn_k(heisenberg_extension(3), 4) == {}  # but inside at its own step


def test_heisenberg_tables():
    assert heisenberg(1) == parse_table("ab = c", 3)
    for m in range(1, 5):
        h = heisenberg(m)
        assert nil_index(h) == (2 if m else 1)
        assert center(h).rank == 1


def test_center_of_abelian_is_everything():
    assert center(StructureConstants.abelian(4)).rank == 4


def test_subspace_span_and_membership():
    s = reduce_rows([[1, 1, 0], [0, 2, 0]], 3)
    assert s.rank == 2
    assert contains_space(s, reduce_rows([{0: 5, 1: -3}], 3))
    assert not contains_space(s, reduce_rows([{2: 1}], 3))
    assert contains_space(reduce_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), s)
    assert not contains_space(s, reduce_rows([[0, 1, 1]], 3))


def _jacobi_oracle(mu):
    """The cyclic Jacobi sum on each basis triple i < j < l, by
    StructureConstants.bracket on unit vectors; only the nonzero ones."""
    n = mu.n
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                acc = [0] * n
                for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
                    w = mu.bracket(mu.bracket(units[x], units[y]), units[z])
                    acc = [a + b for a, b in zip(acc, w)]
                if any(acc):
                    out[(i, j, l)] = acc
    return out


def test_random_brackets_jacobi_consistency(catalog):
    # jacobi() entry for entry against the cyclic sum of brackets, on tables
    # with denominators, Gaussian tables, non-Lie tables, the catalog and the
    # generic charts, whose entries are polynomials
    rng = random.Random(2)
    tables = [random_structure(n, rng, density=d) for n in (3, 4, 5) for d in (0.2, 0.5)]
    for _ in range(6):
        n = rng.randint(3, 5)
        brackets = {(i, j): {k: QI(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                   rng.randint(-2, 2))
                             for k in range(n) if rng.random() < 0.4}
                    for i in range(n) for j in range(i + 1, n)}
        tables.append(StructureConstants(n, brackets, FIELD_QI))
    zero = StructureConstants.abelian(4)
    tables += [pencil(zero, random_structure(4, rng, lo=-3, hi=3), Fraction(1, 6))
               for _ in range(3)]
    tables += [catalog.structure(name) for name, _ in NILPOTENT_CATALOG]
    tables += [catalog.structure(fam, {"r": r, "t": t}) for fam, r, t in CURVE_POINTS]
    tables += [generic_chart(n) for n in range(3, 7)]
    assert any(jacobi(mu) for mu in tables) and any(not jacobi(mu) for mu in tables)
    assert any(mu.field == FIELD_QI and jacobi(mu) for mu in tables)
    for mu in tables:
        assert jacobi(mu) == _jacobi_oracle(mu), mu


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_gaussians = st.builds(QI, _rationals, _rationals)


@st.composite
def _tables_and_vectors(draw):
    """A table over Q or Q(i), with denominators, and two vectors over its
    field.  With ``dependent`` every head mu(e_i, e_j) is a combination of
    one or two shared directions, so the heads are linearly dependent."""
    n = draw(st.integers(1, 5))
    gaussian = draw(st.booleans())
    scalar = st.one_of(_rationals, _gaussians) if gaussian else _rationals
    vec = st.lists(st.one_of(st.just(0), scalar), min_size=n, max_size=n)
    dependent = draw(st.booleans())
    directions = draw(st.lists(vec, min_size=1, max_size=2))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if dependent:
                head = [0] * n
                for d in directions:
                    c = draw(st.one_of(st.just(0), scalar))
                    head = [h + c * x for h, x in zip(head, d)]
            else:
                head = draw(vec)
            brackets[(i, j)] = {k: c for k, c in enumerate(head) if c}
    mu = StructureConstants(n, brackets, FIELD_QI if gaussian else FIELD_Q)
    return mu, draw(vec), draw(vec)


@settings(max_examples=120, deadline=None)
@given(_tables_and_vectors())
def test_sparse_letter_operators_match_the_bracket(case):
    """mu(x, y) and mu(x, e_b) through the per-letter operators equal the
    bilinear evaluation of the tensor."""
    mu, x, y = case
    n, _, right = _letter_operators(mu, scaled=False)
    zero = [0] * n
    assert (_brvv(right, n, x, y) or zero) == mu.bracket(x, y)
    for b in range(n):
        e_b = [int(c == b) for c in range(n)]
        assert (_brv(right, n, x, b) or zero) == mu.bracket(x, e_b)
        assert (_brvv(right, n, e_b, y) or zero) == mu.bracket(e_b, y)


# Lie brackets whose Jacobi sums cancel between several terms once moved
# into a basis with denominators: sl_2 (h, e, f), the filiform f_4, h_1 and
# the shift extension of h_2
_LIE = (
    StructureConstants(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    StructureConstants(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    heisenberg(1),
    heisenberg_extension(2),
)


@st.composite
def _lie_tables(draw):
    """One of ``_LIE`` in the basis g = L U, for unitriangular L and U with
    entries over Q or Q(i), with denominators."""
    mu = draw(st.sampled_from(_LIE))
    n = mu.n
    entry = st.one_of(st.just(0), draw(st.sampled_from((_rationals, _gaussians))))
    lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    g = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return change_basis(mu, g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(structure_tables(), _lie_tables()))
def test_the_kept_scaled_operators_and_the_guard_read_the_table(mu):
    # is_lie reads the kept scaled operators and agrees with the unscaled
    # Jacobi tensor; content-equal twins (brackets in reverse order, another
    # name, the table declared over Q(i)) are served the ints of a fresh read
    lie = not jacobi(mu)
    fresh = _read_operators(mu, scaled=True)
    twins = [
        mu,
        StructureConstants(mu.n, dict(reversed(list(mu.c.items()))), mu.field),
        mu.with_name("other"),
        StructureConstants(mu.n, mu.c, FIELD_QI),
    ]
    for twin in twins:
        assert _letter_operators(twin, scaled=True) == fresh
        assert is_lie(twin) == lie


def test_the_guard_reads_a_polynomial_table_as_it_is():
    # the generic charts are over "sym": no scaled read, and none kept
    assert [is_lie(generic_chart(n)) for n in (4, 5)] == [True, False]
    assert not jacobi(generic_chart(4)) and jacobi(generic_chart(5))
    assert _entry.cache_info().currsize == 0
