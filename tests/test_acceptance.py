"""Acceptance gate: one test per published claim group, exact comparisons.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines with timings.  Every comparison is integer/rational equality;
the stated runtime targets are printed, not asserted.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (contains_space, dense_rank, dj_matrix, dnk_matrix, dsnk_matrix, mat_vec,
                      matmul)
from nilcohom import catalog as cat_mod
from nilcohom.catalog import Catalog, named_polynomial
from nilcohom.cohomology import (
    augmented_exactness,
    cochain_vector,
    d1_matrix,
    d2_matrix,
    h2_dim,
    h2_knil,
)
from nilcohom.errors import ExternalDataRequired
from nilcohom.ideals import (
    generators,
    groebner_small,
    member_bounded,
    nilpotency_ideal,
    non_membership,
    substitute,
)
from nilcohom.liealg import (
    derived_series,
    heisenberg_extension,
    is_lie,
    lower_central_series,
    n_k,
    nil_index,
    pencil,
    sn_k,
    solvable_length,
)
from nilcohom.linalg import ExactMatrix, RowBasis, rank
from nilcohom.tables import parse_tpoly

CAT = Catalog()

F = Fraction


@contextmanager
def criterion(num, summary):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {summary} ({time.perf_counter() - t0:.2f} s)")
        raise
    print(f"[PASS] criterion {num}: {summary} ({time.perf_counter() - t0:.2f} s)")


def test_criterion_01_dim5_table():
    expected = {
        ("f_3+R^2", 2): (20, 9, 11),
        ("g_{5,1}", 2): (10, 10, 0),
        ("g_{5,2}", 2): (12, 12, 0),
        ("f_4+R", 3): (18, 14, 4),
        ("g_{5,3}", 3): (17, 15, 2),
        ("g_{5,4}", 3): (15, 15, 0),
        ("f_5", 4): (17, 16, 1),
        ("g_{5,6}", 4): (17, 17, 0),
    }
    with criterion(1, "all eight 5-dim (z, b, h) triples match the table"):
        for (name, k), want in expected.items():
            rep = h2_knil(CAT.structure(name), k)
            assert (rep.z, rep.b, rep.h) == want, (name, rep)


def test_criterion_02_nu_certificate():
    with criterion(2, "nu1/nu2 witness h=2 for g_{5,3} and deform solvably"):
        rec = CAT.get("g_{5,3}")
        mu = rec.structure()
        d2 = d2_matrix(mu)
        dn3 = dnk_matrix(mu, 3)
        d1 = d1_matrix(mu)
        cols = {}
        for (r, c), v in d1.entries.items():
            cols.setdefault(c, {})[r] = v
        red = RowBasis(d1.nrows, mu.field)
        for c in sorted(cols):
            red.add(cols[c])
        b = red.rank
        for key in ("nu1", "nu2"):
            nu = rec.cochain(key)
            vec = cochain_vector(nu)
            assert not any(mat_vec(d2, vec))
            assert not any(mat_vec(dn3, vec))
            assert red.add({i: x for i, x in enumerate(vec) if x})  # independent mod Im d1
            # Jacobi of the pencil is quadratic in t: 3 points certify identity
            for t in (1, 2, 3):
                assert is_lie(pencil(mu, nu, F(t)))
            deformed = pencil(mu, nu, F(1))
            assert solvable_length(deformed) is not None
            assert nil_index(deformed) is None
        assert red.rank == b + 2


def test_criterion_03_split_word_counterexample():
    with criterion(3, "12346_E: 5-step, split word hits f, long words vanish,"
                      " (28,28,0)"):
        mu = CAT.structure("12346_E")
        assert nil_index(mu) == 5
        assert sn_k(mu, 4)[(0, 1, 0, 1, 0)] == [0, 0, 0, 0, 0, F(1)]
        assert n_k(mu, 6) == {}
        rep = h2_knil(mu, 5)
        assert (rep.z, rep.b, rep.h) == (28, 28, 0) and rep.rigid_certificate


def test_criterion_04_heisenberg_extensions():
    with criterion(4, "R D |x h_m is (m+1)-step of dim 2m+2 with SN_m != 0"):
        for m in (2, 3):
            ext = heisenberg_extension(m)
            assert ext.n == 2 * m + 2
            assert nil_index(ext) == m + 1
            assert sn_k(ext, m) != {}


def test_criterion_05_generator_lists():
    with criterion(5, "chart generators match the printed lists as sets"):
        def keyset(ps):
            return {frozenset(p.primitive().terms.items()) for p in ps}

        P = cat_mod.NAMED_POLYNOMIALS
        assert keyset(generators(5, 4, "J")) == keyset(
            [parse_tpoly(P["P1"]), parse_tpoly(P["P2"])]
        )
        assert keyset(generators(5, 3, "SN")) == keyset(
            [parse_tpoly(P["Q1"]), parse_tpoly(P["Q2"])]
        )
        g = generators(6, 4, "J")
        want = [parse_tpoly(s) for s in cat_mod.PRINTED_J_64]
        assert len(g) == len(want) and keyset(g) == keyset(want)
        g = generators(6, 4, "N")
        want = [parse_tpoly(s) for s in cat_mod.PRINTED_N_64]
        assert len(g) == 24 and keyset(g) == keyset(want)


def test_criterion_06_ideal_membership():
    with criterion(6, "Q1..Q12 in, squares in, Q13/Q14 out: the ideal is not"
                      " radical"):
        ideal = nilpotency_ideal(6, 4)
        for i in range(1, 13):
            c = member_bounded(named_polynomial(f"Q{i}"), ideal.gens, 4)
            assert c is not None and c.verify(ideal.gens), f"Q{i}"
        for i in (13, 14):
            q = named_polynomial(f"Q{i}")
            csq = member_bounded(q * q, ideal.gens, 6)
            assert csq is not None and csq.verify(ideal.gens), f"Q{i}^2"
        assert non_membership(named_polynomial("Q14"), ideal.gens,
                              cat_mod.Q14_ASSIGNMENT)
        assert non_membership(named_polynomial("Q13"), ideal.gens,
                              cat_mod.Q13_ASSIGNMENT)
        # the substituted ideal really is the printed two-generator one
        subs = []
        for g in ideal.gens:
            gs = substitute(g, cat_mod.Q14_ASSIGNMENT)
            if gs:
                subs.append(gs)
        gb = groebner_small([parse_tpoly(s) for s in cat_mod.RESTRICTED_IDEAL_64])
        assert all(gb.contains(g) for g in subs)


def test_criterion_07_rigid_points_dim7():
    with criterion(7, "three printed rigid points in the 3-step dim-7 variety"):
        for name, orbit in (("g_{137B}", 36), ("g_{137B_1}", 36), ("g_{247H}", 38)):
            rep = h2_knil(CAT.structure(name), 3)
            assert rep.h == 0 and rep.rigid_certificate, name
            assert rep.b == orbit, name
        try:
            rec = CAT.get("g_{247H_1}")
        except ExternalDataRequired:
            print("  (g_{247H_1} skipped: data pack not installed)")
        else:
            rep = h2_knil(rec.structure(), 3)
            assert rep.h == 0 and rep.b == 38


def test_criterion_08_nonrigid_points_and_witnesses():
    with criterion(8, "h=1 points and all four degeneration witnesses,"
                      " including the Gaussian one"):
        for name in ("g_{247K}", "g_{147D}", "g_{137A}", "g_{137D}", "g_{137A_1}"):
            rep = h2_knil(CAT.structure(name), 3)
            assert rep.h == 1, name
        runs = [
            ("137B-from-curve", F(2)),
            ("147E1-to-147D", None),
            ("247H-to-247G-curve", F(2)),
            ("247K-GR-form", None),
            ("247H-to-247K-curve", F(1)),
        ]
        for wid, at in runs:
            ok, diffs = CAT.verify_witness(wid, at=at)
            assert ok, (wid, diffs)
        assert CAT.verify_degeneration("g_{137D}(t)", F(0), "g_{137D}")
        assert CAT.verify_degeneration("g_{247G}(t)", F(0), "g_{247G}")
        assert CAT.verify_degeneration("g_{247K}(t)", F(0), "g_{247K}")


@pytest.fixture(scope="module")
def exactness_reports():
    reports = {}
    for fam, points in (
        ("g_5(r,t)", ({"r": F(1), "t": F(1)}, {"r": F(2), "t": F(3)},
                      {"r": F(-1), "t": F(2)})),
        ("g_6(r,t)", ({"r": F(1), "t": F(1)}, {"r": F(2), "t": F(3)},
                      {"r": F(1, 2), "t": F(1, 3)})),
    ):
        table = CAT.get(fam).symbolic()
        for pt in points:
            for free in (("r", "t"), ("t",)):
                key = (fam, tuple(sorted(pt.items())), free)
                reports[key] = augmented_exactness(table, pt, free, "sn5", name=fam)
    return reports


def test_criterion_09_rigid_curve_exactness(exactness_reports):
    with criterion(9, "surface exactness at 3 points each, free and frozen,"
                      " and generic H^2 = 9"):
        per_point = {}
        for (fam, pt, free), rep in exactness_reports.items():
            assert rep.exact and rep.containment, (fam, pt, free)
            assert rep.codomain_dim == 823788
            assert rep.middle_dim == 147
            per_point.setdefault((fam, pt), []).append(rep)
        assert len(per_point) == 6
        for t in (F(2), F(3), F(5)):
            assert h2_dim(CAT.structure("g_1(t)", {"t": t})).h == 9
            assert h2_dim(CAT.structure("g_I(t)", {"t": t})).h == 9


def test_criterion_10_curve_cohomology():
    with criterion(10, "g_{147E_1}(t): h = 1 with the class spanned by the"
                       " tangent vector"):
        table = CAT.get("g_{147E_1}(t)").symbolic()
        for t in (F(3, 2), F(2), F(5)):
            rep = h2_knil(CAT.structure("g_{147E_1}(t)", {"t": t}), 3)
            assert rep.h == 1, t
            ex = augmented_exactness(table, {"t": t}, ("t",), "n3")
            assert ex.exact and ex.rank_df == ex.ker_dg_dim, t
        try:
            rec = CAT.get("g_{147E}(t)")
        except ExternalDataRequired:
            print("  (g_{147E}(2) skipped: data pack not installed)")
        else:
            rep = h2_knil(rec.structure({"t": F(2)}), 3)
            assert rep.h == 3


def test_criterion_11_property_suites():
    import random

    with criterion(11, "structural identities, expansions, oracle agreement,"
                       " series containments"):
        names = [
            "f_3", "f_4", "f_5", "f_3+R^2", "f_4+R", "g_{5,1}", "g_{5,2}",
            "g_{5,3}", "g_{5,4}", "g_{5,6}", "12346_E", "g_{137A}", "g_{137B}",
            "g_{137A_1}", "g_{137B_1}", "g_{137D}", "g_{147D}", "g_{247G}",
            "g_{247H}", "g_{247K}", "g_{247K}-GR",
        ]
        for name in names:
            mu = CAT.structure(name)
            d1, d2 = d1_matrix(mu), d2_matrix(mu)
            assert not matmul(d2, d1).entries, name
            assert dj_matrix(mu).entries == {k: -v for k, v in d2.entries.items()}
            k = nil_index(mu)
            if 1 <= k <= 4:
                assert not matmul(dnk_matrix(mu, k), d1).entries, name
            lower = lower_central_series(mu)
            for i, d in enumerate(derived_series(mu)):
                j = min(2**i - 1, len(lower) - 1)
                assert contains_space(lower[j], d), name

        # first-order expansion identities for both word operators
        from conftest import random_structure
        rng = random.Random(1234)
        for k, kind in ((2, "n"), (3, "n"), (3, "sn"), (4, "sn")):
            mu = random_structure(4, rng)
            sigma = random_structure(4, rng)
            mat = dnk_matrix(mu, k) if kind == "n" else dsnk_matrix(mu, k)
            applied = mat_vec(mat, cochain_vector(sigma))
            word = n_k if kind == "n" else sn_k
            # the tensor along mu + h*sigma is a degree-k polynomial in h;
            # matching its exact linear coefficient makes the remainder after
            # subtracting the constant and linear parts divisible by h^2
            pts = list(range(k + 1))
            vals = [word(pencil(mu, sigma, F(h)), k) for h in pts]
            keys = set()
            for v in vals:
                keys.update(v)
            for key in keys:
                idx = 0
                for a in key:
                    idx = idx * 4 + a
                for m in range(4):
                    # Lagrange linear coefficient
                    acc = F(0)
                    for i2, h in enumerate(pts):
                        roots = [p for p in pts if p != h]
                        denom = F(1)
                        for r in roots:
                            denom *= h - r
                        from itertools import combinations
                        e = F(0)
                        for comb in combinations(roots, len(roots) - 1):
                            prod = F(1)
                            for r in comb:
                                prod *= r
                            e += prod
                        lin = (-1) ** (len(roots) - 1) * e / denom
                        acc += lin * vals[i2].get(key, [0] * 4)[m]
                    assert acc == applied[idx * 4 + m]

        # rank oracle agreement on 100 random matrices up to 8x8
        rng = random.Random(4321)
        for _ in range(100):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            rows = [
                [F(rng.randint(-5, 5)) if rng.random() < 0.6 else F(0)
                 for _ in range(nc)]
                for _ in range(nr)
            ]
            assert rank(ExactMatrix.from_dense(rows)).rank == dense_rank(rows)
