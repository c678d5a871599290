"""The four certificate workloads.

Each workload builds its reused objects in ``setup`` (timed as ``setup_s``),
generates its certificate batch from a seed in ``inputs``, and computes one
certificate either through the public API (``run``, the untraced path) or as
the same computation decomposed into the package's per-module calls with a
span around each (``run_traced``).  Both paths return the same result tuple,
which is compared exactly with the certificate's known answer.

``nc`` is a namespace holding the imported ``nilcohom`` modules; the set-up
re-imports the package, so every call goes through the modules it returns.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement

_F = Fraction


@dataclass(frozen=True)
class Cert:
    """One certificate of a batch: what to compute and its known answer."""

    cid: str
    kind: str
    args: tuple
    expect: tuple


def _span(tr, name):
    return nullcontext() if tr is None else tr.span(name)


def _load_catalog(nc, tr):
    with _span(tr, "catalog.load"):
        return nc.catalog.Catalog()


def table_nnz(mu):
    return sum(len(coeffs) for coeffs in mu.c.values())


def _scalar_bits(v):
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return max(_scalar_bits(v.re), _scalar_bits(v.im))  # QI


def max_coeff_bits(rows):
    return max((_scalar_bits(v) for row in rows for v in row if v), default=0)


def _reduce_constraints(nc, tr, mu, d2, word_rows):
    """The constraint reducer of the package (d2 rows, then word rows), timed
    as one ``linalg.reduce`` span, with its exact counters."""
    with tr.span("linalg.reduce"):
        d2_rows = ({c: v for c, v in zip(cols, vals)} for cols, vals in d2.iter_rows() if cols)
        red = nc.linalg.reduce_rows(chain(d2_rows, word_rows), d2.ncols, mu.field)
        basis = red.basis_rows()
    rows_in = sum(1 for cols, _ in d2.iter_rows() if cols) + len(word_rows)
    tr.count("linalg.rows_in", rows_in)
    tr.count("linalg.rank", red.rank)
    tr.count_max("linalg.max_coeff_bits", max_coeff_bits(basis))
    return red, basis


def _drain_word_rows(tr, gen):
    with tr.span("cohomology.word_rows"):
        rows = [row for _, row in gen]
    tr.count("cohomology.word_rows", len(rows))
    tr.count("cohomology.word_rows_distinct", len({frozenset(r.items()) for r in rows}))
    return rows


def _transvection_basis(n, rng, count, coeffs, one):
    """Rows of a product of ``count`` elementary transvections I + c E_ij."""
    g = [[one if i == j else 0 * one for j in range(n)] for i in range(n)]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


# -- curves-sn5 -----------------------------------------------------------------

# The published sample points of the two 7-dimensional surfaces; each is
# certified with both parameters free and with r frozen.  At every one of them
# the augmented sequence is exact with rank dF = dim Ker dG = 41 (the rank is
# pinned from this package's own exact computation; "exact" is the printed
# claim).  Off these points the answer is not known in advance: at
# (r, t) = (4, -1/4), for example, g_5 is not exact.
CURVE_POINTS = (
    ("g_5(r,t)", (_F(1), _F(1))),
    ("g_5(r,t)", (_F(2), _F(3))),
    ("g_5(r,t)", (_F(-1), _F(2))),
    ("g_6(r,t)", (_F(1), _F(1))),
    ("g_6(r,t)", (_F(2), _F(3))),
    ("g_6(r,t)", (_F(1, 2), _F(1, 3))),
)
CURVE_FREE = (("r", "t"), ("t",))
CURVE_EXPECT = (41, 41, True, True)  # rank dF, dim Ker dG, containment, exact
SN_K = 5


class CurvesSN5:
    name = "curves-sn5"
    nominal_batch_s = 13.0

    def setup(self, nc, tr=None):
        catalog = _load_catalog(nc, tr)
        with _span(tr, "catalog.load"):
            tables = {fam: catalog.get(fam).symbolic() for fam, _ in CURVE_POINTS}
        return {"tables": tables}

    def inputs(self, nc, ctx, seed):
        certs = []
        for fam, (r, t) in CURVE_POINTS:
            for free in CURVE_FREE:
                cid = f"{fam}@r={r},t={t};free={','.join(free)}"
                certs.append(Cert(cid, "exactness", (fam, {"r": r, "t": t}, free), CURVE_EXPECT))
        random.Random(f"{self.name}:{seed}").shuffle(certs)
        return certs

    def run(self, nc, ctx, cert):
        fam, point, free = cert.args
        rep = nc.cohomology.augmented_exactness(
            ctx["tables"][fam], point, free, f"sn{SN_K}", name=fam
        )
        return (rep.rank_df, rep.ker_dg_dim, rep.containment, rep.exact)

    def run_traced(self, nc, ctx, cert, tr):
        """augmented_exactness, one package call per span."""
        coh, lin, lie = nc.cohomology, nc.linalg, nc.liealg
        fam, point, free = cert.args
        table = ctx["tables"][fam]
        with tr.span("catalog.evaluate"):
            mu = table.evaluate(point)
            tangents = [coh.cochain_vector(table.derivative(p).evaluate(point)) for p in free]
        with tr.span("liealg.guard"):
            in_variety = lie.is_lie(mu) and not lie.sn_k(mu, SN_K)
        if not in_variety:
            raise nc.errors.NotInVariety("point is not on the SN_5 variety")
        tr.count("liealg.table_nnz", table_nnz(mu))
        with tr.span("cohomology.d1_d2"):
            d1 = coh.d1_matrix(mu)
            d2 = coh.d2_matrix(mu)
            d1_cols = [[_F(0)] * d2.ncols for _ in range(d1.ncols)]
            for (r, c), v in d1.entries.items():
                d1_cols[c][r] = v
        cols = tangents + d1_cols
        with tr.span("linalg.d1_rank"):
            rank_df = lin.reduce_rows(cols, d2.ncols, mu.field).rank
        word_rows = _drain_word_rows(tr, coh.iter_dsnk_rows(mu, SN_K))
        tr.count("cohomology.word_rows_nominal", mu.n ** (SN_K + 2))
        red, basis = _reduce_constraints(nc, tr, mu, d2, word_rows)
        with tr.span("linalg.in_kernel"):
            failing = next((v for v in cols if not lin.in_kernel(v, basis)), None)
        containment = failing is None
        # in_kernel stops at the first vector outside, and within it at the
        # first row with a nonzero dot product
        if containment:
            dots = len(cols) * len(basis)
        else:
            hit = next(i for i, row in enumerate(basis) if lin.dot(failing, row))
            dots = cols.index(failing) * len(basis) + hit + 1
        tr.count("linalg.in_kernel_dots", dots)
        ker_dg = d2.ncols - red.rank
        return (rank_df, ker_dg, containment, containment and rank_df == ker_dg)


# -- rigidity-q and rigidity-qi --------------------------------------------------

# (name, k, (z, b, h)): the printed table of the eight non-abelian nilpotent
# algebras of dimension 5.
DIM5_TABLE = (
    ("f_3+R^2", 2, (20, 9, 11)),
    ("g_{5,1}", 2, (10, 10, 0)),
    ("g_{5,2}", 2, (12, 12, 0)),
    ("f_4+R", 3, (18, 14, 4)),
    ("g_{5,3}", 3, (17, 15, 2)),
    ("g_{5,4}", 3, (15, 15, 0)),
    ("f_5", 4, (17, 16, 1)),
    ("g_{5,6}", 4, (17, 17, 0)),
)

# (name, (z, b, h)) in the 3-step variety of dimension 7.  Printed: h for all
# nine, and the orbit dimension b for the three rigid ones; the remaining
# entries are basis-independent invariants pinned from this package's exact
# computation on the printed tables.
DIM7_TABLE = (
    ("g_{137B}", (36, 36, 0)),
    ("g_{137B_1}", (36, 36, 0)),
    ("g_{247H}", (38, 38, 0)),
    ("g_{247K}", (38, 37, 1)),
    ("g_{147D}", (35, 34, 1)),
    ("g_{137A}", (36, 35, 1)),
    ("g_{137D}", (36, 35, 1)),
    ("g_{137A_1}", (36, 35, 1)),
    ("g_{247G}", (38, 37, 1)),
)


def _h2_knil_traced(nc, tr, mu, k):
    """h2_knil, one package call per span."""
    coh, lin, lie = nc.cohomology, nc.linalg, nc.liealg
    with tr.span("liealg.guard"):
        in_variety = lie.is_lie(mu) and not lie.n_k(mu, k)
    if not in_variety:
        raise nc.errors.NotInVariety(f"bracket is not {k}-step nilpotent")
    tr.count("liealg.table_nnz", table_nnz(mu))
    with tr.span("cohomology.d1_d2"):
        d1 = coh.d1_matrix(mu)
    with tr.span("linalg.d1_rank"):
        b = lin.rank(d1).rank
    with tr.span("cohomology.d1_d2"):
        d2 = coh.d2_matrix(mu)
    word_rows = _drain_word_rows(tr, coh.iter_dnk_rows(mu, k))
    tr.count("cohomology.word_rows_nominal", mu.n ** (k + 2))
    red, _ = _reduce_constraints(nc, tr, mu, d2, word_rows)
    z = d2.ncols - red.rank
    return (z, b, z - b)


class _Rigidity:
    """h2_knil on printed algebras moved to a seeded random basis.

    The cost of one certificate follows the density of its table steeply:
    dense tables defeat the word generator's pruning, and the reduction's
    cost grows with the number of rows.  Candidate bases are therefore drawn
    until the table's nonzero count falls in ``nnz_window[name]``, which
    keeps a batch's cost, and the spread of its certificate times, close to
    the same across seeds.  The cost of one certificate still varies with
    the order its rows arrive in, so a batch holds ``copies`` random bases
    of each algebra.
    """

    table = ()  # (name, k, (z, b, h))
    copies = 1
    nnz_window = {}
    max_tries = 200

    def setup(self, nc, tr=None):
        catalog = _load_catalog(nc, tr)
        with _span(tr, "catalog.load"):
            algebras = {name: catalog.structure(name) for name, _, _ in self.table}
        return {"algebras": algebras}

    def inputs(self, nc, ctx, seed):
        rng = random.Random(f"{self.name}:{seed}")
        certs = []
        for copy in range(self.copies):
            for name, k, zbh in self.table:
                mu = self.random_basis(nc, ctx["algebras"][name], rng)
                certs.append(Cert(f"{name}#{copy}", "h2_knil", (mu, k), zbh))
        rng.shuffle(certs)
        return certs

    def random_basis(self, nc, mu, rng):
        """The first candidate inside the density window, else the closest."""
        lo, hi = self.nnz_window[mu.name]
        best = None
        for _ in range(self.max_tries):
            cand = self.candidate(nc, mu, rng)
            if cand is None:
                continue
            nnz = table_nnz(cand)
            miss = max(lo - nnz, nnz - hi, 0)
            if best is None or miss < best[0]:
                best = (miss, cand)
            if miss == 0:
                break
        return best[1]

    def run(self, nc, ctx, cert):
        mu, k = cert.args
        rep = nc.cohomology.h2_knil(mu, k)
        return (rep.z, rep.b, rep.h)

    def run_traced(self, nc, ctx, cert, tr):
        mu, k = cert.args
        return _h2_knil_traced(nc, tr, mu, k)


class RigidityQ(_Rigidity):
    name = "rigidity-q"
    nominal_batch_s = 24.0
    table = DIM5_TABLE + tuple((name, 3, zbh) for name, zbh in DIM7_TABLE)
    copies = 9
    nnz_window = {name: (13, 14) for name, _, _ in DIM5_TABLE}
    nnz_window["f_3+R^2"] = (8, 9)  # its one bracket spreads to at most ~9
    nnz_window.update((name, (15, 16)) for name, _ in DIM7_TABLE)

    def candidate(self, nc, mu, rng):
        """mu in the basis g, a product of 3-8 integer transvections."""
        g = _transvection_basis(mu.n, rng, rng.randint(3, 8), (-1, 1), 1)
        return nc.liealg.change_basis(mu, g)


class RigidityQI(_Rigidity):
    name = "rigidity-qi"
    nominal_batch_s = 25.0
    table = DIM5_TABLE
    copies = 6
    # about 0.45 s per certificate for every algebra (reference host)
    nnz_window = {
        "f_3+R^2": (6, 6),
        "g_{5,1}": (6, 6),
        "g_{5,2}": (5, 6),
        "f_4+R": (4, 4),
        "g_{5,3}": (4, 5),
        "g_{5,4}": (4, 5),
        "f_5": (4, 4),
        "g_{5,6}": (4, 5),
    }

    def candidate(self, nc, mu, rng):
        """mu in a basis of 1-2 Gaussian transvections, or None when every
        structure constant stays real.

        Built through ``table_in_basis``: ``change_basis`` rejects a Gaussian
        matrix on a rational algebra (see README)."""
        qi = nc.scalars.QI
        coeffs = (qi(0, 1), qi(0, -1), qi(1, 1), qi(1, -1))
        g = _transvection_basis(mu.n, rng, rng.randint(1, 2), coeffs, qi(1))
        vectors = [[g[r][c] for r in range(mu.n)] for c in range(mu.n)]
        cand = nc.liealg.table_in_basis(mu, vectors)
        if any(v.im for coeffs_ in cand.c.values() for v in coeffs_.values()):
            return cand
        return None


# -- ideal-membership ------------------------------------------------------------

IDEAL_N, IDEAL_K = 6, 4


def torus_weight(mono, n=IDEAL_N):
    """Weight of a chart monomial: t_{i,j,k} has weight e_i + e_j - e_k."""
    w = [0] * n
    for (i, j, k), e in mono:
        w[i - 1] += e
        w[j - 1] += e
        w[k - 1] -= e
    return tuple(w)


class IdealMembership:
    name = "ideal-membership"
    nominal_batch_s = 22.0
    # Seeded members per degree, and the window on the number of (generator,
    # monomial) pairs of the chosen degree and torus weight: that number is
    # the column count of the membership solve, so the window fixes its size.
    # Most members are of degree 6, so the median certificate falls inside
    # that group rather than at its edge.
    SEEDED = {4: (4, (14, 32)), 6: (40, (110, 140))}

    def setup(self, nc, tr=None):
        _load_catalog(nc, tr)  # every set-up builds the Catalog, as the CLI does
        with _span(tr, "ideals.generators"):
            ideal = nc.ideals.nilpotency_ideal(IDEAL_N, IDEAL_K)
        with _span(tr, "catalog.load"):
            q = {i: nc.catalog.named_polynomial(f"Q{i}") for i in range(1, 15)}
        return {"gens": list(ideal.gens), "q": q}

    def inputs(self, nc, ctx, seed):
        cat, q = nc.catalog, ctx["q"]
        certs = [Cert(f"Q{i}", "member", (q[i], 4), ("member", True)) for i in range(1, 13)]
        certs += [Cert(f"Q{i}^2", "member", (q[i] * q[i], 6), ("member", True)) for i in (13, 14)]
        for i, assignment in ((13, cat.Q13_ASSIGNMENT), (14, cat.Q14_ASSIGNMENT)):
            certs.append(Cert(f"Q{i}-out", "nonmember", (q[i], assignment), ("nonmember", True)))
        rng = random.Random(f"{self.name}:{seed}")
        for degree, (count, window) in self.SEEDED.items():
            for s, f in enumerate(seeded_members(nc, ctx["gens"], degree, count, window, rng)):
                certs.append(Cert(f"seeded-d{degree}-{s}", "member", (f, degree), ("member", True)))
        rng.shuffle(certs)
        return certs

    def run(self, nc, ctx, cert):
        gens = ctx["gens"]
        if cert.kind == "member":
            f, bound = cert.args
            c = nc.ideals.member_bounded(f, gens, bound)
            return ("member", c is not None and c.verify(gens))
        f, assignment = cert.args
        return ("nonmember", nc.ideals.non_membership(f, gens, assignment))

    def run_traced(self, nc, ctx, cert, tr):
        ideals, gens = nc.ideals, ctx["gens"]
        if cert.kind == "member":
            f, bound = cert.args
            with tr.span("ideals.member_bounded"):
                c = ideals.member_bounded(f, gens, bound)
            if c is None:
                return ("member", False)
            tr.count("ideals.multiplier_terms", sum(len(m.terms) for m in c.multipliers))
            with tr.span("polynomials.verify"):
                return ("member", c.verify(gens))
        # non_membership, with the Buchberger run in its own span
        f, assignment = cert.args
        with tr.span("ideals.nonmember"):
            fs = ideals.substitute(f, assignment)
            if fs.is_zero():
                return ("nonmember", False)
            sub_gens, seen = [], set()
            for g in gens:
                gs = ideals.substitute(g, assignment)
                if not gs.is_zero():
                    p = gs.primitive()
                    key = frozenset(p.terms.items())
                    if key not in seen:
                        seen.add(key)
                        sub_gens.append(p)
            with tr.span("ideals.groebner"):
                gb = ideals.groebner_small(sub_gens)
            tr.count("ideals.groebner_basis_size", len(gb.members))
            return ("nonmember", not gb.contains(fs))


def seeded_members(nc, gens, degree, count, window, rng):
    """``count`` random elements sum c * m * g_j of one degree and torus weight.

    Every product m * g_j has the same degree and weight, so the sum is
    multihomogeneous and a membership certificate exists at that degree.
    The weight is drawn among those whose (generator, monomial) pairs number
    within ``window``.
    """
    MultiPoly = nc.polynomials.MultiPoly
    variables = nc.ideals.chart_variables(IDEAL_N)
    gdeg = [g.degree() for g in gens]
    gwt = [torus_weight(next(iter(g.terms))) for g in gens]
    monos = {}
    for d in {degree - dg for dg in gdeg if dg <= degree}:
        monos[d] = []
        for combo in combinations_with_replacement(variables, d):
            mono = {}
            for v in combo:
                mono[v] = mono.get(v, 0) + 1
            mono = tuple(sorted(mono.items()))
            monos[d].append((mono, torus_weight(mono)))

    def pairs():
        for j, g in enumerate(gens):
            if gdeg[j] <= degree:
                for mono, w in monos[degree - gdeg[j]]:
                    yield j, mono, tuple(a + b for a, b in zip(w, gwt[j]))

    sizes = {}
    for _, _, w in pairs():
        sizes[w] = sizes.get(w, 0) + 1
    lo, hi = window
    by_weight = {w: [] for w, s in sizes.items() if lo <= s <= hi}
    for j, mono, w in pairs():
        if w in by_weight:
            by_weight[w].append((j, mono))
    weights = sorted(by_weight)
    out = []
    while len(out) < count:
        cands = by_weight[rng.choice(weights)]
        f = MultiPoly()
        for j, mono in rng.sample(cands, rng.randint(2, 4)):
            f = f + MultiPoly.term(_F(rng.choice((-3, -2, -1, 1, 2, 3))), mono) * gens[j]
        if not f.is_zero():
            out.append(f)
    return out


WORKLOADS = {w.name: w for w in (CurvesSN5(), RigidityQ(), RigidityQI(), IdealMembership())}
