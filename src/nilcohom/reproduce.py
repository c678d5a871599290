"""Reproduction suites: every published number this package recomputes.

Each suite is a list of items ``(name, source, expected, compute)``: the
expected text is the printed value, stated once, and ``compute()`` returns
the computed text, or ``True`` when the fact holds as printed (source strings
cite the published tables and classifications by content).  An item whose
structure table is not printed anywhere is skipped, with the data-pack
prerequisite noted, unless a pack supplies it; an item whose computation
raises any other error fails with that error as its computed text.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import catalog as cat
from .cohomology import (
    _sequence,
    augmented_exactness,
    cochain_vector,
    h2_dim,
    h2_knil,
)
from .errors import ExternalDataRequired, ResourceCapExceeded
from .ideals import (
    generators,
    member_bounded,
    nilpotency_ideal,
    non_membership,
    substitute,
    groebner_small,
)
from .liealg import (
    heisenberg_extension,
    is_lie,
    n_k,
    nil_index,
    pencil,
    sn_k,
    solvable_length,
)
from .polynomials import distinct_primitive
from .tables import parse_tpoly

_F = Fraction


class ItemResult(namedtuple("ItemResult", "name source expected computed status seconds")):
    """One item's outcome; ``status`` is "pass", "fail" or "skip"."""

    __slots__ = ()

    def to_dict(self):
        return {**self._asdict(), "seconds": round(self.seconds, 3)}


class ReproductionReport:
    """A suite's ItemResults, which ``_run_items`` appends one at a time,
    and the data pack, if any, that it ran with."""

    __slots__ = ("suite", "items", "pack", "pack_checksum")

    def __init__(self, suite, items=None, pack=None, pack_checksum=None):
        self.suite, self.pack, self.pack_checksum = suite, pack, pack_checksum
        self.items = [] if items is None else items

    def __repr__(self):
        return (f"ReproductionReport(suite={self.suite!r}, items={self.items!r},"
                f" pack={self.pack!r}, pack_checksum={self.pack_checksum!r})")

    def __eq__(self, other):
        return type(other) is ReproductionReport and all(
            getattr(self, a) == getattr(other, a) for a in self.__slots__)

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
    for name, source, expected, compute in items:
        t0 = time.perf_counter()
        try:
            computed = compute()
            computed = expected if computed is True else str(computed)
            status = "pass" if computed == expected else "fail"
        except ExternalDataRequired as s:
            expected, computed, status = "", str(s), "skip"
        except ResourceCapExceeded:
            raise
        except Exception as e:  # the item fails; the rest of the suite still runs
            computed, status = str(e), "fail"
        report.items.append(
            ItemResult(name, source, expected, computed, status, time.perf_counter() - t0)
        )
    return report


# -- restricted H^2 items ---------------------------------------------------------


def _h2_item(catalog, label, source, expected, name, k, show, params=None):
    """An item on h2_knil(name at params, k), its report printed by show."""
    return label, source, expected, lambda: show(h2_knil(catalog.structure(name, params), k))


def _zbh(rep):
    return f"(z,b,h)=({rep.z}, {rep.b}, {rep.h})"


def _table_items(catalog, source, rows):
    """One item per printed (z, b, h) row (name, k, (z, b, h))."""
    return [_h2_item(catalog, f"{name} k={k}", source, f"(z,b,h)={zbh}", name, k, _zbh)
            for name, k, zbh in rows]


def _dim5_items(catalog):
    return _table_items(catalog, "published table: 5-dim nilpotent algebras", [
        ("f_3+R^2", 2, (20, 9, 11)),
        ("g_{5,1}", 2, (10, 10, 0)),
        ("g_{5,2}", 2, (12, 12, 0)),
        ("f_4+R", 3, (18, 14, 4)),
        ("g_{5,3}", 3, (17, 15, 2)),
        ("g_{5,4}", 3, (15, 15, 0)),
        ("f_5", 4, (17, 16, 1)),
        ("g_{5,6}", 4, (17, 17, 0)),
    ])


def _dim6_items(catalog):
    return _table_items(catalog, "published table: rigid 6-dim nilpotent algebras", [
        ("36", 2, (18, 18, 0)),
        ("13+13", 2, (20, 20, 0)),
        ("246_E", 3, (26, 24, 2)),
        ("136_A", 3, (25, 25, 0)),
        ("1246", 4, (27, 26, 1)),
        ("1346_C", 4, (26, 26, 0)),
        ("12346_E", 5, (28, 28, 0)),
    ])


# -- counterexamples and certificates -------------------------------------------------


def _counterexample_items(catalog):
    src31 = "split-word counterexample, 6-dim 5-step algebra"
    src32 = "Heisenberg extension counterexamples"
    src41 = "rigid 3-step 5-dim algebra with nonzero restricted H^2"

    def e12346():
        return catalog.structure("12346_E")

    def split_word():
        mu = e12346()
        vec = sn_k(mu, 4).get((0, 1, 0, 1, 0), [0] * mu.n)
        return vec == [0, 0, 0, 0, 0, 1] or f"SN_4(a,b,a,b,a) = {vec}"

    def long_words():
        mu = e12346()
        return (not n_k(mu, 5) and not n_k(mu, 6)) or "nonzero"

    def heis(m):
        mu = heisenberg_extension(m)
        return f"dim {mu.n}, {nil_index(mu)}-step, SN_{m} {'!= 0' if sn_k(mu, m) else '= 0'}"

    def g53():
        rec = catalog.get("g_{5,3}")
        return rec.structure(), [rec.cochain(key) for key in ("nu1", "nu2")]

    def nu_cocycles():
        mu, nus = g53()
        red = _sequence(mu, "n", 3)[2]
        return red.annihilates(cochain_vector(nu) for nu in nus) or "fails"

    def nu_independent():
        mu, nus = g53()
        b = _sequence(mu, "n", 3)[1]
        rank = _sequence(mu, "n", 3, map(cochain_vector, nus))[1]
        return rank == b + 2 or f"rank = b + {rank - b}"

    def nu_deformations():
        mu, nus = g53()
        ok = True
        for nu in nus:
            # Jacobi of the pencil is quadratic in t: three points certify
            ok &= all(is_lie(pencil(mu, nu, _F(t))) for t in (1, 2, 3))
            def1 = pencil(mu, nu, _F(1))
            ok &= solvable_length(def1) is not None and nil_index(def1) is None
        return ok or "fails"

    return [
        ("12346_E nilpotency step", src31, "5-step", lambda: f"{nil_index(e12346())}-step"),
        ("12346_E split word value", src31, "SN_4(a,b,a,b,a) = f", split_word),
        ("12346_E vanishing of long words", src31, "N_5 = N_6 = 0", long_words),
        _h2_item(catalog, "12346_E restricted H^2", src31, "(z,b,h)=(28, 28, 0)",
                 "12346_E", 5, _zbh),
        ("R D |x h_2", src32, "dim 6, 3-step, SN_2 != 0", partial(heis, 2)),
        ("R D |x h_3", src32, "dim 8, 4-step, SN_3 != 0", partial(heis, 3)),
        ("nu1, nu2 are restricted cocycles", src41, "holds", nu_cocycles),
        ("nu1, nu2 independent mod Im d1", src41, "rank(Im d1 + nu1 + nu2) = b + 2",
         nu_independent),
        ("mu + t*nu_i solvable deformations", src41,
         "Lie for all t; solvable, non-nilpotent at t=1", nu_deformations),
    ]


# -- dim 7, 3-step ----------------------------------------------------------------


def _rigidity(rep):
    return f"h={rep.h}{' (rigid)' if rep.rigid_certificate else ''}, orbit dim {rep.b}"


def _n73_items(catalog):
    src = "rigid points and degenerations, 3-step 7-dim classification"
    items = [
        _h2_item(catalog, f"{name} rigidity", src, f"h=0 (rigid), orbit dim {orbit}",
                 name, 3, _rigidity)
        for name, orbit in (("g_{137B}", 36), ("g_{137B_1}", 36), ("g_{247H}", 38),
                            ("g_{247H_1}", 38))
    ]
    items += [
        _h2_item(catalog, f"{name} restricted H^2", src, "h=1", name, 3,
                 lambda rep: f"h={rep.h}")
        for name in ("g_{247K}", "g_{147D}", "g_{137A}", "g_{137D}", "g_{137A_1}", "g_{247G}")
    ]

    def witness(wid, at):
        ok, diffs = catalog.verify_witness(wid, at=at)
        return ok or f"{len(diffs)} brackets differ"

    def degeneration(fam, val, tgt):
        return catalog.verify_degeneration(fam, val, tgt) or "tables differ"

    for wid, at in (
        ("137B-from-curve", _F(2)),
        ("147E1-to-147D", None),
        ("247H-to-247G-curve", _F(2)),
        ("247K-GR-form", None),
        ("247H-to-247K-curve", _F(1)),
    ):
        items.append((f"witness {wid}" + (f" at t={at}" if at is not None else ""), src,
                      "tables match", partial(witness, wid, at)))
    for fam, val, tgt, _mode in catalog.degenerations():
        items.append((f"degeneration {fam} -> {tgt}", src, f"{fam} at t={val} is {tgt}",
                      partial(degeneration, fam, val, tgt)))
    return items


# -- curves -----------------------------------------------------------------------


def _curves_items(catalog):
    src = "rigid curves: augmented tangent sequence exactness"
    items = []

    def exactness(fam, pt, free):
        rep = augmented_exactness(catalog.get(fam).symbolic(), pt, free, "sn5")
        return rep.exact or f"not exact (rank dF={rep.rank_df}, dim Ker dG={rep.ker_dg_dim})"

    def generic_h2(name, t):
        return f"dim H^2 = {h2_dim(catalog.structure(name, {'t': t})).h}"

    def nilpotent_line(name, step):
        steps = [nil_index(catalog.structure(name, {"t": _F(t)})) for t in (1, 2, -1)]
        return all(s == step for s in steps) or "mismatch"

    def non_nilpotent(fam):
        mu = catalog.structure(fam, {"r": _F(1), "t": _F(1)})
        return (nil_index(mu) is None and solvable_length(mu) is not None) or "mismatch"

    def sn5_vanishes(fam):
        rec = catalog.get(fam)
        return all(not sn_k(rec.structure(pt), 5) for pt in rec.default_samples) or "nonzero"

    for fam, points in (
        ("g_5(r,t)", ({"r": _F(1), "t": _F(1)}, {"r": _F(2), "t": _F(3)}, {"r": _F(-1), "t": _F(2)})),
        ("g_6(r,t)", ({"r": _F(1), "t": _F(1)}, {"r": _F(2), "t": _F(3)}, {"r": _F(1, 2), "t": _F(1, 3)})),
    ):
        for pt in points:
            pts = ",".join(f"{k}={v}" for k, v in pt.items())
            for free, tag in ((("r", "t"), "free r,t"), (("t",), "r frozen")):
                items.append((f"{fam} at ({pts}), {tag}", src, "exact",
                              partial(exactness, fam, pt, free)))
    for name in ("g_1(t)", "g_I(t)"):
        for t in (_F(2), _F(3)):
            items.append((f"{name} at t={t}: generic H^2", src, "dim H^2 = 9",
                          partial(generic_h2, name, t)))
    for label, name, step in (("g_5(0,t)", "g_1(t)", 5), ("g_6(0,t)", "g_I(t)", 6)):
        items.append((f"{label} nilpotency step", src, f"{step}-step nilpotent on r=0",
                      partial(nilpotent_line, name, step)))
    for n in (5, 6):
        items.append((f"g_{n}(1,1) is not nilpotent", src, "solvable, not nilpotent off r=0",
                      partial(non_nilpotent, f"g_{n}(r,t)")))
    for n in (5, 6):
        items.append((f"g_{n}(r,t) inside the split variety", src, "SN_5 = 0 on the surface",
                      partial(sn5_vanishes, f"g_{n}(r,t)")))

    src2 = "curve cohomology in the 3-step 7-dim variety"

    def e147_1(t):
        rep = h2_knil(catalog.structure("g_{147E_1}(t)", {"t": t}), 3)
        table = catalog.get("g_{147E_1}(t)").symbolic()
        ex = augmented_exactness(table, {"t": t}, ("t",), "n3")
        return f"h={rep.h}, tangent {'spans' if ex.exact else 'does not span'}"

    for t in (_F(3, 2), _F(2), _F(5)):
        items.append((f"g_{{147E_1}}({t}) restricted H^2", src2, "h=1, tangent spans",
                      partial(e147_1, t)))
    items.append(_h2_item(catalog, "g_{147E}(2) restricted H^2", src2, "h=3 at t=2",
                          "g_{147E}(t)", 3, lambda rep: f"h={rep.h} at t=2", {"t": _F(2)}))
    return items


# -- ideals -----------------------------------------------------------------------


def _ideal_items(catalog):
    src = "structure-constant ideal computations, dims 5 and 6"
    P = cat.NAMED_POLYNOMIALS

    def gens_item(label, n, k, kind, printed):
        def compute():
            got = generators(n, k, kind)
            want = [parse_tpoly(s) for s in printed]
            same = set(distinct_primitive(got)) == set(distinct_primitive(want))
            return (same and len(got) == len(want)) or f"{len(got)} generators, set differs"
        return label, src, f"{len(printed)} generators, matching the printed list", compute

    def memberships():
        ideal = nilpotency_ideal(6, 4)
        bad = []
        for i in range(1, 13):
            c = member_bounded(cat.named_polynomial(f"Q{i}"), ideal.gens, 4)
            if c is None or not c.verify(ideal.gens):
                bad.append(i)
        return not bad or f"failures at {bad}"

    def squares():
        ideal = nilpotency_ideal(6, 4)
        ok = True
        for i in (13, 14):
            q = cat.named_polynomial(f"Q{i}")
            c = member_bounded(q * q, ideal.gens, 6)
            ok &= c is not None and c.verify(ideal.gens)
        return ok or "failure"

    def nonmembers():
        ideal = nilpotency_ideal(6, 4)
        ok14 = non_membership(cat.named_polynomial("Q14"), ideal.gens, cat.Q14_ASSIGNMENT)
        ok13 = non_membership(cat.named_polynomial("Q13"), ideal.gens, cat.Q13_ASSIGNMENT)
        return (ok13 and ok14) or f"Q13: {ok13}, Q14: {ok14}"

    def restricted():
        ideal = nilpotency_ideal(6, 4)
        subs = distinct_primitive(substitute(g, cat.Q14_ASSIGNMENT) for g in ideal.gens)
        printed = [parse_tpoly(s) for s in cat.RESTRICTED_IDEAL_64]
        gb_s, gb_p = groebner_small(subs), groebner_small(printed)
        same = all(gb_p.contains(g) for g in subs) and all(gb_s.contains(g) for g in printed)
        q14r = substitute(cat.named_polynomial("Q14"), cat.Q14_ASSIGNMENT)
        return (same and q14r == parse_tpoly("t_{1,2,3}*t_{2,3,4}*t_{3,4,6}")) or "mismatch"

    return [
        gens_item("generators(5,4,J) = {P1, P2}", 5, 4, "J", (P["P1"], P["P2"])),
        ("generators(5,4,N) trivial", src, "0 generators",
         lambda: f"{len(generators(5, 4, 'N'))} generators"),
        gens_item("generators(5,3,SN) = {Q1, Q2}", 5, 3, "SN", (P["Q1"], P["Q2"])),
        gens_item("generators(6,4,J) = printed degree-2 list", 6, 4, "J", cat.PRINTED_J_64),
        gens_item("generators(6,4,N) = printed degree-4 list", 6, 4, "N", cat.PRINTED_N_64),
        gens_item("generators(6,3,SN) = {Q1..Q14}", 6, 3, "SN",
                  tuple(P[f"Q{i}"] for i in range(1, 15))),
        ("Q1..Q12 in the dim-6 ideal (D=4)", src, "Q1..Q12 all certified", memberships),
        ("Q13^2, Q14^2 in the dim-6 ideal (D=6)", src, "Q13^2, Q14^2 certified", squares),
        ("Q13, Q14 not in the dim-6 ideal", src,
         "Q13, Q14 certified outside (ideal not radical)", nonmembers),
        ("restricted dim-6 ideal", src,
         "restriction matches the printed pair; Q14 restricts to t123*t234*t346", restricted),
    ]


_BUILDERS = {
    "dim5": _dim5_items,
    "dim6": _dim6_items,
    "n73": _n73_items,
    "curves": _curves_items,
    "ideals": _ideal_items,
    "counterexamples": _counterexample_items,
}
SUITES = tuple(_BUILDERS)


def run_suite(suite, catalog) -> ReproductionReport:
    if suite == "all":
        items = [item for build in _BUILDERS.values() for item in build(catalog)]
        return _run_items("all", items, catalog)
    if suite not in _BUILDERS:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)} or all)")
    return _run_items(suite, _BUILDERS[suite](catalog), catalog)
