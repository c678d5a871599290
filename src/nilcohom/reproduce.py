"""Reproduction suites: every published number this package recomputes.

Each suite is a list of items; an item recomputes one fact and compares it
exactly with the printed value (source strings cite the published tables and
classifications by content).  Items whose structure tables are not printed
anywhere are skipped, with the data-pack prerequisite noted, unless a pack
supplies them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import catalog as cat
from .cohomology import (
    augmented_exactness,
    cochain_vector,
    d2_matrix,
    dnk_matrix,
    h2_dim,
    h2_knil,
    iter_d1_columns,
)
from .errors import ExternalDataRequired
from .ideals import (
    generators,
    member_bounded,
    nilpotency_ideal,
    non_membership,
    substitute,
    groebner_small,
)
from .liealg import (
    Layout,
    heisenberg_extension,
    is_lie,
    n_k,
    nil_index,
    pencil,
    sn_k,
    sn_k_value,
    solvable_length,
)
from .linalg import reduce_rows
from .polynomials import distinct_primitive
from .tables import parse_tpoly

_F = Fraction

SUITES = ("dim5", "dim6", "n73", "curves", "ideals", "counterexamples")


@dataclass
class ItemResult:
    name: str
    source: str
    expected: str
    computed: str
    status: str  # pass | fail | skip
    seconds: float

    def to_dict(self):
        return {
            "name": self.name,
            "source": self.source,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class ReproductionReport:
    suite: str
    items: list = dc_field(default_factory=list)
    pack: str | None = None
    pack_checksum: str | None = None

    @property
    def passed(self):
        return all(item.status != "fail" for item in self.items)

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "skip": 0}
        for item in self.items:
            c[item.status] += 1
        return c

    def to_dict(self):
        return {
            "suite": self.suite,
            "pack": self.pack,
            "pack_checksum": self.pack_checksum,
            "counts": self.counts,
            "pass": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def _run_items(suite, items, catalog):
    report = ReproductionReport(suite, pack=catalog.pack_name,
                                pack_checksum=catalog.pack_checksum)
    for name, source, fn in items:
        t0 = time.perf_counter()
        try:
            expected, computed = fn()
            status = "pass" if expected == computed else "fail"
        except ExternalDataRequired as s:
            expected, computed, status = "", str(s), "skip"
        report.items.append(
            ItemResult(name, source, str(expected), str(computed), status,
                       time.perf_counter() - t0)
        )
    return report


# -- dim 5 ------------------------------------------------------------------------

_DIM5 = [
    ("f_3+R^2", 2, (20, 9, 11)),
    ("g_{5,1}", 2, (10, 10, 0)),
    ("g_{5,2}", 2, (12, 12, 0)),
    ("f_4+R", 3, (18, 14, 4)),
    ("g_{5,3}", 3, (17, 15, 2)),
    ("g_{5,4}", 3, (15, 15, 0)),
    ("f_5", 4, (17, 16, 1)),
    ("g_{5,6}", 4, (17, 17, 0)),
]


def _dim5_items(catalog):
    items = []
    for name, k, zbh in _DIM5:
        def fn(name=name, k=k, zbh=zbh):
            rep = h2_knil(catalog.structure(name), k, name)
            return f"(z,b,h)={zbh}", f"(z,b,h)=({rep.z}, {rep.b}, {rep.h})"
        items.append((f"{name} k={k}", "published table: 5-dim nilpotent algebras", fn))
    return items


# -- dim 6 ------------------------------------------------------------------------

_DIM6 = [
    ("36", 2, (18, 18, 0)),
    ("13+13", 2, (20, 20, 0)),
    ("246_E", 3, (26, 24, 2)),
    ("136_A", 3, (25, 25, 0)),
    ("1246", 4, (27, 26, 1)),
    ("1346_C", 4, (26, 26, 0)),
    ("12346_E", 5, (28, 28, 0)),
]


def _dim6_items(catalog):
    items = []
    for name, k, zbh in _DIM6:
        def fn(name=name, k=k, zbh=zbh):
            rec = catalog.get(name)  # may raise ExternalDataRequired -> skip
            rep = h2_knil(rec.structure(), k, name)
            return f"(z,b,h)={zbh}", f"(z,b,h)=({rep.z}, {rep.b}, {rep.h})"
        items.append((f"{name} k={k}", "published table: rigid 6-dim nilpotent algebras", fn))
    return items


# -- counterexamples and certificates -------------------------------------------------


def _counterexample_items(catalog):
    src31 = "split-word counterexample, 6-dim 5-step algebra"
    src32 = "Heisenberg extension counterexamples"
    src41 = "rigid 3-step 5-dim algebra with nonzero restricted H^2"

    def e12346_nil():
        mu = catalog.structure("12346_E")
        return "5-step", f"{nil_index(mu)}-step"

    def e12346_sn4():
        mu = catalog.structure("12346_E")
        vec = sn_k_value(mu, 4, (0, 1, 0, 1, 0))
        want = [0, 0, 0, 0, 0, 1]
        return "SN_4(a,b,a,b,a) = f", (
            "SN_4(a,b,a,b,a) = f" if vec == want else f"SN_4(a,b,a,b,a) = {vec}"
        )

    def e12346_n6():
        mu = catalog.structure("12346_E")
        ok = not n_k(mu, 5) and not n_k(mu, 6)
        return "N_5 = N_6 = 0", "N_5 = N_6 = 0" if ok else "nonzero"

    def e12346_h2():
        rep = h2_knil(catalog.structure("12346_E"), 5, "12346_E")
        return "(z,b,h)=(28, 28, 0)", f"(z,b,h)=({rep.z}, {rep.b}, {rep.h})"

    def heis(m):
        def fn():
            mu = heisenberg_extension(m)
            step = nil_index(mu)
            snm = sn_k(mu, m) if m >= 2 else None
            got = f"dim {mu.n}, {step}-step, SN_{m} {'!= 0' if snm else '= 0'}"
            want = f"dim {2 * m + 2}, {m + 1}-step, SN_{m} != 0"
            return want, got
        return fn

    def nu_cocycles():
        rec = catalog.get("g_{5,3}")
        mu = rec.structure()
        d2 = d2_matrix(mu)
        dn3 = dnk_matrix(mu, 3)
        ok = True
        for key in ("nu1", "nu2"):
            v = cochain_vector(rec.cochain(key))
            ok &= not any(d2.mat_vec(v)) and not any(dn3.mat_vec(v))
        return "holds", "holds" if ok else "fails"

    def nu_independent():
        rec = catalog.get("g_{5,3}")
        mu = rec.structure()
        red = reduce_rows((col for _, col in iter_d1_columns(mu)), Layout(mu.n).dim2, mu.field)
        b = red.rank
        for key in ("nu1", "nu2"):
            vec = cochain_vector(rec.cochain(key))
            red.add({i: x for i, x in enumerate(vec) if x})
        return "rank(Im d1 + nu1 + nu2) = b + 2", (
            "rank(Im d1 + nu1 + nu2) = b + 2"
            if red.rank == b + 2
            else f"rank = b + {red.rank - b}"
        )

    def nu_deformations():
        rec = catalog.get("g_{5,3}")
        mu = rec.structure()
        ok = True
        for key in ("nu1", "nu2"):
            nu = rec.cochain(key)
            # Jacobi of the pencil is quadratic in t: three points certify
            for t in (1, 2, 3):
                ok &= is_lie(pencil(mu, nu, _F(t)))
            def1 = pencil(mu, nu, _F(1))
            ok &= solvable_length(def1) is not None and nil_index(def1) is None
        want = "Lie for all t; solvable, non-nilpotent at t=1"
        return want, want if ok else "fails"

    return [
        ("12346_E nilpotency step", src31, e12346_nil),
        ("12346_E split word value", src31, e12346_sn4),
        ("12346_E vanishing of long words", src31, e12346_n6),
        ("12346_E restricted H^2", src31, e12346_h2),
        ("R D |x h_2", src32, heis(2)),
        ("R D |x h_3", src32, heis(3)),
        ("nu1, nu2 are restricted cocycles", src41, nu_cocycles),
        ("nu1, nu2 independent mod Im d1", src41, nu_independent),
        ("mu + t*nu_i solvable deformations", src41, nu_deformations),
    ]


# -- dim 7, 3-step ----------------------------------------------------------------


def _n73_items(catalog):
    src = "rigid points and degenerations, 3-step 7-dim classification"
    items = []
    for name, orbit in (("g_{137B}", 36), ("g_{137B_1}", 36), ("g_{247H}", 38)):
        def fn(name=name, orbit=orbit):
            rep = h2_knil(catalog.structure(name), 3, name)
            return (
                f"h=0 (rigid), orbit dim {orbit}",
                f"h={rep.h}{' (rigid)' if rep.rigid_certificate else ''}, orbit dim {rep.b}",
            )
        items.append((f"{name} rigidity", src, fn))

    def h1_pack():
        rec = catalog.get("g_{247H_1}")
        rep = h2_knil(rec.structure(), 3, rec.name)
        return "h=0 (rigid), orbit dim 38", (
            f"h={rep.h}{' (rigid)' if rep.rigid_certificate else ''}, orbit dim {rep.b}"
        )

    items.append(("g_{247H_1} rigidity", src, h1_pack))

    for name in ("g_{247K}", "g_{147D}", "g_{137A}", "g_{137D}", "g_{137A_1}", "g_{247G}"):
        def fn(name=name):
            rep = h2_knil(catalog.structure(name), 3, name)
            return "h=1", f"h={rep.h}"
        items.append((f"{name} restricted H^2", src, fn))

    witness_runs = [
        ("137B-from-curve", _F(2)),
        ("147E1-to-147D", None),
        ("247H-to-247G-curve", _F(2)),
        ("247K-GR-form", None),
        ("247H-to-247K-curve", _F(1)),
    ]
    for wid, at in witness_runs:
        def fn(wid=wid, at=at):
            ok, diffs = catalog.verify_witness(wid, at=at)
            return "tables match", "tables match" if ok else f"{len(diffs)} brackets differ"
        items.append((f"witness {wid}" + (f" at t={at}" if at is not None else ""), src, fn))

    for fam, val, tgt, _mode in catalog.degenerations():
        def fn(fam=fam, val=val, tgt=tgt):
            ok = catalog.verify_degeneration(fam, val, tgt)
            return f"{fam} at t={val} is {tgt}", (
                f"{fam} at t={val} is {tgt}" if ok else "tables differ"
            )
        items.append((f"degeneration {fam} -> {tgt}", src, fn))
    return items


# -- curves -----------------------------------------------------------------------


def _curves_items(catalog):
    src = "rigid curves: augmented tangent sequence exactness"
    items = []
    for fam_name, points in (
        ("g_5(r,t)", ({"r": _F(1), "t": _F(1)}, {"r": _F(2), "t": _F(3)}, {"r": _F(-1), "t": _F(2)})),
        ("g_6(r,t)", ({"r": _F(1), "t": _F(1)}, {"r": _F(2), "t": _F(3)}, {"r": _F(1, 2), "t": _F(1, 3)})),
    ):
        for pt in points:
            for free in (("r", "t"), ("t",)):
                def fn(fam_name=fam_name, pt=pt, free=free):
                    table = catalog.get(fam_name).symbolic()
                    rep = augmented_exactness(table, pt, free, "sn5", name=fam_name)
                    label = "exact" if rep.exact else (
                        f"not exact (rank dF={rep.rank_df}, dim Ker dG={rep.ker_dg_dim})"
                    )
                    return "exact", label
                tag = "free r,t" if len(free) == 2 else "r frozen"
                pts = ",".join(f"{k}={v}" for k, v in pt.items())
                items.append((f"{fam_name} at ({pts}), {tag}", src, fn))

    def h2_generic(name, t):
        def fn():
            rep = h2_dim(catalog.structure(name, {"t": t}))
            return "dim H^2 = 9", f"dim H^2 = {rep.h}"
        return fn

    for name in ("g_1(t)", "g_I(t)"):
        for t in (_F(2), _F(3)):
            items.append((f"{name} at t={t}: generic H^2", src, h2_generic(name, t)))

    def nilpotency(name, expect_step):
        def fn():
            ok = True
            for t in (_F(1), _F(2), _F(-1)):
                mu = catalog.structure(name, {"t": t})
                ok &= nil_index(mu) == expect_step
            return f"{expect_step}-step nilpotent on r=0", (
                f"{expect_step}-step nilpotent on r=0" if ok else "mismatch"
            )
        return fn

    items.append(("g_5(0,t) nilpotency step", src, nilpotency("g_1(t)", 5)))
    items.append(("g_6(0,t) nilpotency step", src, nilpotency("g_I(t)", 6)))

    def non_nilpotent(fam):
        def fn():
            mu = catalog.structure(fam, {"r": _F(1), "t": _F(1)})
            ok = nil_index(mu) is None and solvable_length(mu) is not None
            return "solvable, not nilpotent off r=0", (
                "solvable, not nilpotent off r=0" if ok else "mismatch"
            )
        return fn

    items.append(("g_5(1,1) is not nilpotent", src, non_nilpotent("g_5(r,t)")))
    items.append(("g_6(1,1) is not nilpotent", src, non_nilpotent("g_6(r,t)")))

    def sn5_vanishes(fam):
        def fn():
            rec = catalog.get(fam)
            ok = all(not sn_k(rec.structure(pt), 5) for pt in rec.default_samples)
            return "SN_5 = 0 on the surface", "SN_5 = 0 on the surface" if ok else "nonzero"
        return fn

    items.append(("g_5(r,t) inside the split variety", src, sn5_vanishes("g_5(r,t)")))
    items.append(("g_6(r,t) inside the split variety", src, sn5_vanishes("g_6(r,t)")))

    src2 = "curve cohomology in the 3-step 7-dim variety"
    for t in (_F(3, 2), _F(2), _F(5)):
        def fn(t=t):
            mu = catalog.structure("g_{147E_1}(t)", {"t": t})
            rep = h2_knil(mu, 3)
            table = catalog.get("g_{147E_1}(t)").symbolic()
            ex = augmented_exactness(table, {"t": t}, ("t",), "n3")
            got = f"h={rep.h}, tangent spans" if ex.exact else f"h={rep.h}, tangent does not span"
            return "h=1, tangent spans", got
        items.append((f"g_{{147E_1}}({t}) restricted H^2", src2, fn))

    def e147_pack():
        rec = catalog.get("g_{147E}(t)")
        rep = h2_knil(rec.structure({"t": _F(2)}), 3, rec.name)
        return "h=3 at t=2", f"h={rep.h} at t=2"

    items.append(("g_{147E}(2) restricted H^2", src2, e147_pack))
    return items


# -- ideals -----------------------------------------------------------------------


def _ideal_items(catalog):
    src = "structure-constant ideal computations, dims 5 and 6"
    items = []

    def gens_match(n, k, kind, printed):
        def fn():
            got = generators(n, k, kind)
            want = [parse_tpoly(s) for s in printed]
            ok = set(distinct_primitive(got)) == set(distinct_primitive(want)) and len(got) == len(want)
            return (
                f"{len(want)} generators, matching the printed list",
                f"{len(got)} generators, matching the printed list"
                if ok
                else f"{len(got)} generators, set differs",
            )
        return fn

    P = cat.NAMED_POLYNOMIALS
    items.append(("generators(5,4,J) = {P1, P2}", src,
                  gens_match(5, 4, "J", (P["P1"], P["P2"]))))
    items.append(("generators(5,4,N) trivial", src,
                  lambda: ("0 generators", f"{len(generators(5, 4, 'N'))} generators")))
    items.append(("generators(5,3,SN) = {Q1, Q2}", src,
                  gens_match(5, 3, "SN", (P["Q1"], P["Q2"]))))
    items.append(("generators(6,4,J) = printed degree-2 list", src,
                  gens_match(6, 4, "J", cat.PRINTED_J_64)))
    items.append(("generators(6,4,N) = printed degree-4 list", src,
                  gens_match(6, 4, "N", cat.PRINTED_N_64)))
    items.append(("generators(6,3,SN) = {Q1..Q14}", src,
                  gens_match(6, 3, "SN", tuple(P[f"Q{i}"] for i in range(1, 15)))))

    def memberships():
        ideal = nilpotency_ideal(6, 4)
        good = []
        for i in range(1, 13):
            c = member_bounded(cat.named_polynomial(f"Q{i}"), ideal.gens, 4)
            good.append(c is not None and c.verify(ideal.gens))
        return "Q1..Q12 all certified", (
            "Q1..Q12 all certified" if all(good) else f"failures at {[i+1 for i, g in enumerate(good) if not g]}"
        )

    items.append(("Q1..Q12 in the dim-6 ideal (D=4)", src, memberships))

    def squares():
        ideal = nilpotency_ideal(6, 4)
        ok = True
        for i in (13, 14):
            q = cat.named_polynomial(f"Q{i}")
            c = member_bounded(q * q, ideal.gens, 6)
            ok &= c is not None and c.verify(ideal.gens)
        return "Q13^2, Q14^2 certified", "Q13^2, Q14^2 certified" if ok else "failure"

    items.append(("Q13^2, Q14^2 in the dim-6 ideal (D=6)", src, squares))

    def nonmembers():
        ideal = nilpotency_ideal(6, 4)
        ok14 = non_membership(cat.named_polynomial("Q14"), ideal.gens, cat.Q14_ASSIGNMENT)
        ok13 = non_membership(cat.named_polynomial("Q13"), ideal.gens, cat.Q13_ASSIGNMENT)
        return "Q13, Q14 certified outside (ideal not radical)", (
            "Q13, Q14 certified outside (ideal not radical)"
            if ok13 and ok14
            else f"Q13: {ok13}, Q14: {ok14}"
        )

    items.append(("Q13, Q14 not in the dim-6 ideal", src, nonmembers))

    def restricted():
        ideal = nilpotency_ideal(6, 4)
        subs = distinct_primitive(substitute(g, cat.Q14_ASSIGNMENT) for g in ideal.gens)
        printed = [parse_tpoly(s) for s in cat.RESTRICTED_IDEAL_64]
        gb_s, gb_p = groebner_small(subs), groebner_small(printed)
        same = all(gb_p.contains(g) for g in subs) and all(gb_s.contains(g) for g in printed)
        q14r = substitute(cat.named_polynomial("Q14"), cat.Q14_ASSIGNMENT)
        want_q14 = parse_tpoly("t_{1,2,3}*t_{2,3,4}*t_{3,4,6}")
        return "restriction matches the printed pair; Q14 restricts to t123*t234*t346", (
            "restriction matches the printed pair; Q14 restricts to t123*t234*t346"
            if same and q14r == want_q14
            else "mismatch"
        )

    items.append(("restricted dim-6 ideal", src, restricted))
    return items


def run_suite(suite, catalog=None) -> ReproductionReport:
    catalog = catalog or cat.default_catalog()
    builders = {
        "dim5": _dim5_items,
        "dim6": _dim6_items,
        "n73": _n73_items,
        "curves": _curves_items,
        "ideals": _ideal_items,
        "counterexamples": _counterexample_items,
    }
    if suite == "all":
        items = []
        for name in SUITES:
            items.extend(builders[name](catalog))
        return _run_items("all", items, catalog)
    if suite not in builders:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)} or all)")
    return _run_items(suite, builders[suite](catalog), catalog)
