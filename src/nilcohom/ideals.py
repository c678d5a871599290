"""Structure-constant ideals of the nilpotency varieties.

In the upper-triangular chart mu(e_i, e_j) = sum_{k>j} t_{i,j,k} e_k (1-based,
i < j) the coordinates of the Jacobi tensor and of the nested-word operators
are polynomials in the t_{i,j,k}.  This module evaluates the operators on the
generic chart point to produce those generator lists, decides bounded-degree
ideal membership, and carries a small capped Buchberger engine for the
substitution-based non-membership certificates.

Bounded-degree membership is one exact linear system whose columns are the
products m * g_j.  When f and every generator are torus-homogeneous
(t_{i,j,k} has weight e_i + e_j - e_k) the multiplier monomials m are
generated by a depth-first search that only ever reaches weight
w(f) - w(g_j), so the columns that could never appear in a certificate are
not built.  The search picks the variables that may extend a prefix by
ANDing one bitmask per weight coordinate over the variables, without testing
them one by one, and with three letters or fewer left reads exactly those
that reach the weight from a table of pair sums or steps, built once per
search shape, or from a memo of triple sums filled as the searches meet
them; when f or any generator has no torus weight it runs, for every
generator, with weights of no coordinates, which filter nothing.  What
the generators alone decide (their variables, degrees and torus weights)
is worked out once per generator list and kept, by content, for the last
four lists (``_presentation``); a call works out only f's.
The system goes to ``linalg.solve`` as one sparse augmented row per
monomial, and the answer is read off its reduced row echelon form.  Within
one call a monomial is one int, the exponents in fixed bit fields, so a
product of monomials is an addition; the certificate leaves and is
re-verified in the exponent tuples of ``MultiPoly``.

Positive membership is primarily the linear-algebra route; the Groebner route
is kept for restricted (few-variable) systems and never silently degrades: a
capped run raises instead of answering.  Buchberger runs on the MultiPoly
terms themselves, in grevlex with the variables in sorted order.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import add, or_, sub

from .errors import Budget, ResourceCapExceeded
from .liealg import StructureConstants, _word_tensor, jacobi
from .linalg import solve
from .polynomials import MultiPoly, _mono_mul, distinct_primitive, mono_degree, rational_content
from .tables import _MAX_DEGREE


def chart_variables(n):
    """Chart variables (i, j, k), 1-based, i < j < ... with k > j."""
    return [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    ]


def generic_chart(n) -> StructureConstants:
    """The generic strictly upper-triangular bracket with polynomial entries."""
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            row = {k - 1: MultiPoly.var((i, j, k)) for k in range(j + 1, n + 1)}
            if row:
                brackets[(i - 1, j - 1)] = row
    return StructureConstants(n, brackets, field="sym")


# Above this many argument tuples of N_k or SN_k (n^(k+1)), or above this
# chart dimension for any kind, generators raises ResourceCapExceeded instead
# of building the chart.  The cost follows the C(n, 3) chart variables and
# the size of the generator polynomials, not only the word count: under the
# word cap, with the dimension cap lifted, (26, 2, "N") took 1.1 s of CPU and
# (26, 2, "J") 0.95 s (2-vCPU host); under both caps (10, 4, "SN") took
# 1.1 s and (12, 3, "SN") 0.9 s of wall time.
MAX_CHART_WORDS = 100_000
MAX_CHART_DIM = 12


def generators(n, k, kind):
    """Distinct nonzero coordinate polynomials of J, N_k or SN_k on the chart.

    Scalar-multiple duplicates are dropped; order is fixed by scanning the
    argument tuples and coordinates lexicographically.  Raises
    ResourceCapExceeded, before building anything, when n is above
    MAX_CHART_DIM or N_k or SN_k has more than MAX_CHART_WORDS argument
    tuples.
    """
    kind = kind.upper()
    if kind not in ("J", "N", "SN"):
        raise ValueError(f"kind must be J, N or SN, not {kind!r}")
    if n > MAX_CHART_DIM:
        raise ResourceCapExceeded(
            f"the {n}-dimensional chart is over the cap {MAX_CHART_DIM} on its dimension"
        )
    if kind != "J" and k >= 1 and n ** (k + 1) > MAX_CHART_WORDS:
        raise ResourceCapExceeded(
            f"{kind}_{k} on the {n}-dimensional chart has {n}^{k + 1} argument tuples,"
            f" over the cap {MAX_CHART_WORDS}"
        )
    mu = generic_chart(n)
    # the tuple (x2, x1, ...) of N_k or SN_k gives minus the coordinates of
    # (x1, x2, ...), which sorts first, so only x1 < x2 is walked
    tensor = jacobi(mu) if kind == "J" else _word_tensor(mu, k, kind == "SN", half=True)
    return distinct_primitive(
        coord for args in sorted(tensor) for coord in tensor[args] if isinstance(coord, MultiPoly)
    )


class IdealPresentation(namedtuple("IdealPresentation", "n k jacobi_gens word_gens")):
    """Tagged generating set of the ideal cut out by J and N_k."""

    __slots__ = ()

    @property
    def gens(self):
        return list(self.jacobi_gens) + list(self.word_gens)


def nilpotency_ideal(n, k) -> IdealPresentation:
    return IdealPresentation(
        n, k, tuple(generators(n, k, "J")), tuple(generators(n, k, "N"))
    )


def substitute(f: MultiPoly, assignment) -> MultiPoly:
    """Evaluation homomorphism on the assigned variables (others survive)."""
    return f.substitute(assignment)


# -- bounded-degree membership by exact linear algebra ------------------------------


class MembershipCertificate(namedtuple("MembershipCertificate", "target multipliers bound")):
    """sum m_j * g_j = ``target``, with one MultiPoly m_j in ``multipliers``
    per generator g_j and deg(m_j g_j) <= ``bound``."""

    __slots__ = ()

    def verify(self, gens) -> bool:
        """True iff sum m_j * g_j is exactly the target: every term product
        is summed into one dict, whose nonzero terms must be the target's."""
        acc = {}
        for m, g in zip(self.multipliers, gens):
            for m1, c1 in m.terms.items():
                for m2, c2 in g.terms.items():
                    mono = _mono_mul(m1, m2)
                    acc[mono] = acc.get(mono, 0) + c1 * c2
        return {mono: c for mono, c in acc.items() if c} == self.target.terms


def _index_weight(mono, at):
    """Torus weight of a chart monomial, t_{i,j,k} of weight e_i + e_j - e_k,
    as a vector with the weight of e_p at ``at[p]``."""
    acc = [0] * len(at)
    for (i, j, k), e in mono:
        acc[at[i]] += e
        acc[at[j]] += e
        acc[at[k]] -= e
    return tuple(acc)


def _weight(poly):
    """Torus weight of a polynomial as {p: weight of e_p} over the indices p
    of its variables, or None when a variable is no index triple or two
    terms differ in weight."""
    names = poly.variables()
    if not all(isinstance(v, tuple) for v in names):
        return None
    at = {p: r for r, p in enumerate(sorted({p for v in names for p in v}))}
    weights = {_index_weight(mono, at) for mono in poly.terms}
    return dict(zip(at, next(iter(weights), ()))) if len(weights) < 2 else None


@lru_cache(maxsize=4)
def _presentation(gens):
    """What the generator tuple ``gens`` alone decides for the search: the
    set of their variables, (j, deg g_j) for each nonzero g_j, and the
    ``_weight`` of each of those.  Keyed by content (MultiPoly hashes as
    ``==``), so an equal list in new objects hits and an edited generator
    misses; it holds no column and charges no Budget, so no answer,
    certificate or cap depends on the calls made before."""
    live = tuple((j, g.degree()) for j, g in enumerate(gens) if not g.is_zero())
    names = frozenset().union(*(g.variables() for g in gens))
    return names, live, tuple(_weight(gens[j]) for j, _ in live)


# Above this many multiplier columns, counted as the search finds them,
# member_bounded raises ResourceCapExceeded instead of building the system.
# It bounds the unknowns, not the fill-in of the sparse echelon (RowBasis)
# that sets time and memory.  Peak RSS of one process (2-vCPU host, 17 MB
# after the import): a member over nilpotency_ideal(7, 2), D = 3, 4,200
# columns, 0.2 s CPU, 19 MB; three dense inhomogeneous quadrics in four chart
# variables, D = 13, 4,095 columns, 2,380 rows, 143 s CPU, 154 MB.
MAX_UNWEIGHTED_COLUMNS = 5_000

# Above this many monomial prefixes visited by the weight-directed search of
# one member_bounded call, it raises ResourceCapExceeded: the search may visit
# far more prefixes than it finds columns, so the column cap alone does not
# bound its time.  On I_{6,4} the published certificates visit at most 488
# prefixes and Q13^3 at D = 9 visits 34,942, while Q5^4 at D = 12 visits
# 473,414 (about 2 us each on a 2-vCPU host) to find one column.  A visit with
# three letters left to a weight no search met before, and within the L1
# norm of three steps, also makes one pair lookup per variable that passes
# the box rule, up to 220 on the 12-dimensional chart, where a search can
# take 1.9-2.8 s of CPU to reach the cap.
MAX_WEIGHTED_NODES = 200_000


@lru_cache(maxsize=32)
def _search_masks(steps, depth):
    """(reach, off, below, exact, pair, triple, far) for the searches of degree
    <= ``depth`` over ``steps``, a tuple of step tuples: reach and far bound
    the coordinates of a step and the L1 norm of three, below[p][v + off]
    holds the indices whose step at p is below v (every prefix has
    |rem_p| <= reach * left, so its band stays within [-off, off]),
    exact[step] the indices with that step, pair[sum] (if depth >= 2) the
    indices i with steps[i] + steps[j] = sum for a j >= i, and triple an
    empty memo that ``_weighted_monomials`` fills as it meets each weight
    with three letters left.  The tables of one search shape are built once
    per process and shared: the searches only read them, and add to the memo
    only entries that depend on their key alone.
    Each weight coordinate holds 4 * reach * depth + 2 * reach + 2 masks,
    which stays small: a weighted search has depth at most deg(f), and a
    target read from the command line has degree at most 64, since the
    parser refuses bigger powers and products (``tables._MAX_DEGREE``); a
    deeper search builds its tables uncached.  An unweighted search, which
    may run to the bound, has no coordinates and builds no ``below`` table."""
    full = (1 << len(steps)) - 1
    reach = max((abs(e) for s in steps for e in s), default=0)
    pad = 2 * reach * depth
    below, exact, pair = [], {}, {}
    for p in range(len(steps[0]) if steps else 0):
        masks = [0] * (2 * reach + 2)
        for i, s in enumerate(steps):
            masks[s[p] + reach + 1] |= 1 << i
        below.append([0] * pad + list(accumulate(masks, or_)) + [full] * pad)
    for i, s in enumerate(steps):
        exact[s] = exact.get(s, 0) | 1 << i
    items = list(exact.items()) if depth >= 2 else []
    for n, (a, ma) in enumerate(items):
        for b, mb in items[n:]:
            # i of ma has a j >= i in mb iff i <= the last index of mb, and vice versa
            key = tuple(map(add, a, b))
            pair[key] = (pair.get(key, 0) | ma & (1 << mb.bit_length()) - 1
                         | mb & (1 << ma.bit_length()) - 1)
    far = 3 * max((sum(map(abs, s)) for s in exact), default=0)
    return reach, pad + reach, below, exact, pair, {}, far


def _weighted_monomials(units, steps, masks, rem, d, columns, nodes):
    """Degree-d monomials of dense weight ``rem``, each as the sum of the
    packed codes ``units[i]`` of its letters, in the order in which
    ``combinations_with_replacement(range(len(units)), d)`` lists their
    letter indices.

    ``steps[i]`` is the dense weight of the i-th variable, ``masks`` come from
    ``_search_masks`` and their ``reach`` bounds every coordinate of every
    step in absolute value, so with ``left`` >= 4 letters still to place a
    prefix extends by index i >= ``start`` only if
    |rem_p - steps[i][p]| <= lim = reach * (left - 1) at every coordinate p.
    Coordinate p allows the indices whose step at p lies in
    [rem_p - lim, rem_p + lim], a difference of two cumulative bitmasks; the
    children are the set bits of the AND over the coordinates that do not
    allow every index.  At ``left`` 2 or 1 one lookup keyed by ``rem``, in
    ``pair`` or ``exact``, gives exactly the indices that can still reach it
    (the sum tables of Horowitz and Sahni, 1974).
    At ``left`` 3 the ``triple`` memo does: on the first visit of a rem it
    keeps, of the indices that pass the box rule, those i whose step leaves
    a pair sum with an index >= i, so its cost follows the weights the
    searches meet, one ``pair`` lookup per index in the box, not the cube of
    the distinct steps; a rem whose L1 norm is over ``far`` keeps none,
    without lookups.  The masks are shared between calls and only read; the
    memo is filled.
    Steps of no coordinates (``reach`` 0, ``rem`` empty) filter nothing.
    The search runs depth first on a stack of pending prefixes
    ``(start, code, rem, left)``: each pass pops one and pushes its children
    highest index first, so that they are visited in ascending order; a
    prefix with two letters left walks its children and their leaves in
    place, in that order, with no push.
    Each monomial found is charged to the Budget ``columns`` and each prefix
    visited to the Budget ``nodes``, in that depth-first order, a leaf as a
    visit and then a find, so each cap trips at the same prefix whichever
    way the prefix is reached; both raise ResourceCapExceeded past their
    limits, and every letter costs a visit, so ``nodes`` bounds d too.
    """
    reach, off, below, exact, pair, triple, far = masks
    full = (1 << len(units)) - 1
    out = []
    visit, find = nodes.charge, columns.charge
    rem = tuple(rem)
    stack = [(0, 0, rem, d)] if all(abs(c) <= reach * d for c in rem) else []
    while stack:
        start, code, rem, left = stack.pop()
        visit()
        if not left:  # the prefix reached rem exactly
            find()
            out.append(code)
            continue
        sel = full >> start << start
        if left == 1:
            sel &= exact.get(rem, 0)
        elif left == 2:
            # each child i, then its leaves j >= i, in ascending order, a leaf
            # charged as a visit and then a find; pair keeps only the i whose
            # rest is a step, so exact holds it
            sel &= pair.get(rem, 0)
            while sel:
                i = (sel & -sel).bit_length() - 1
                sel &= sel - 1
                visit()
                head, leaves = code + units[i], exact[tuple(map(sub, rem, steps[i]))] >> i << i
                while leaves:
                    visit()
                    find()
                    out.append(head + units[(leaves & -leaves).bit_length() - 1])
                    leaves &= leaves - 1
            continue
        elif left == 3 and rem in triple:
            sel &= triple[rem]
        elif left == 3 and sum(map(abs, rem)) > far:
            sel = triple[rem] = 0  # no three steps reach that far
        else:
            lim = reach * (left - 1)
            hi, lo = off + lim + 1, off - lim
            box = full
            for cum, r in zip(below, rem):
                allowed = cum[r + hi] ^ cum[r + lo]
                if allowed != full:
                    box &= allowed
            if left == 3:
                # keep the i of the box whose rest is a pair sum with an index >= i,
                # that is whose pair mask is at least 1 << i
                kept = 0
                while box:
                    low = box & -box
                    box ^= low
                    if pair.get(tuple(map(sub, rem, steps[low.bit_length() - 1])), 0) >= low:
                        kept |= low
                box = triple[rem] = kept
            sel &= box
        while sel:
            i = sel.bit_length() - 1
            sel ^= 1 << i
            stack.append((i, code + units[i], tuple(map(sub, rem, steps[i])), left - 1))
    return out


def _multiplier_columns(f, gens, bound):
    """The sorted variable universe of f and ``gens``, and the (generator
    index, packed monomial) pairs m * g_j a certificate may use.

    A monomial is packed into one int: the exponent of ``universe[r]`` is
    bit field r, of width ``bound.bit_length()``, which holds every exponent
    of a product of degree <= bound, so a product of monomials is the sum
    of their codes.  Ordered by generator, then degree, then the
    ``combinations_with_replacement`` order of the universe.
    ``_weighted_monomials`` finds them, charging one Budget of columns and
    one of prefixes for the whole call: when f and every nonzero g_j have a
    torus weight, those of weight w(f) - w(g_j); otherwise, with steps of no
    coordinates that filter nothing, all of each admissible degree.
    The variables, degrees and weights of ``gens`` come from
    ``_presentation``, which keeps them for the last four generator lists;
    a call works out f's, and each step e_i + e_j - e_k of t_{i,j,k}.
    """
    names, live, weights = _presentation(tuple(gens))
    # a multiplier variable absent from f and every generator could be set to
    # 0 in any certificate, so this universe is enough
    universe = sorted(names.union(f.variables()))
    wf = _weight(f)
    # a weight fixes the degree, as a chart variable's has coordinate sum 1
    homog = wf is not None and None not in weights
    if homog:
        pos = {p: r for r, p in enumerate(sorted({p for v in universe for p in v}))}
        steps = tuple(_index_weight(((v, 1),), pos) for v in universe)
        rems = [[wf.get(p, 0) - wg.get(p, 0) for p in pos] for wg in weights]
    else:  # weights on only some polynomials would drop certificates
        homog = f.is_homogeneous() and all(g.is_homogeneous() for g in gens)
        steps, rems = ((),) * len(universe), [[]] * len(live)

    df = f.degree()
    top = df if homog else bound
    depth = max([0] + [top - dg for _, dg in live])
    masks = (_search_masks if depth <= _MAX_DEGREE else _search_masks.__wrapped__)(steps, depth)
    budgets = (
        Budget(MAX_UNWEIGHTED_COLUMNS,
               f"membership system needs more than {MAX_UNWEIGHTED_COLUMNS}"
               f" multiplier columns, over the cap {MAX_UNWEIGHTED_COLUMNS}"),
        Budget(MAX_WEIGHTED_NODES,
               f"membership search visits more than {MAX_WEIGHTED_NODES}"
               " multiplier monomial prefixes, over the cap"),
    )
    width = bound.bit_length()
    units = [1 << r * width for r in range(len(universe))]
    columns = []
    for (j, dg), rem in zip(live, rems):
        degs = ([df - dg] if df >= dg else []) if homog else range(bound - dg + 1)
        for d in degs:
            codes = _weighted_monomials(units, steps, masks, rem, d, *budgets)
            columns.extend((j, code) for code in codes)
    return universe, columns


def member_bounded(f: MultiPoly, gens, bound) -> MembershipCertificate | None:
    """Search multipliers m_j with deg(m_j g_j) <= bound and sum m_j g_j = f.

    Returns a verified certificate, or None (which is *not* a proof of
    non-membership, only of absence at this bound).  Homogeneity of f and
    of every generator, in total degree or in the torus multigrading of the
    chart variables, restricts the multiplier monomials without losing any
    certificate, since membership identities project onto graded pieces;
    a grading that f or some generator lacks is not used at all.
    The system is keyed by the packed monomials of ``_multiplier_columns``:
    f and the terms of each generator that gets columns are packed once, a
    row's monomial m * g_j is the sum of two codes, and only the multiplier
    monomials with a nonzero coefficient are unpacked to tuples, which
    ``MembershipCertificate.verify`` re-checks without the packing.
    Raises ResourceCapExceeded past a cap of the multiplier search
    (MAX_UNWEIGHTED_COLUMNS, MAX_WEIGHTED_NODES).
    """
    gens = list(gens)
    if f.is_zero():
        return MembershipCertificate(f, [MultiPoly() for _ in gens], bound)
    if bound < f.degree():
        raise ValueError("bound is smaller than deg(f)")
    universe, columns = _multiplier_columns(f, gens, bound)
    width = bound.bit_length()
    shift = {v: r * width for r, v in enumerate(universe)}

    def pack(mono):
        return sum(e << shift[v] for v, e in mono)

    # one augmented row per monomial (distinct g_j terms give distinct
    # monomials m * g_j), with the coefficient in f at column len(columns);
    # the columns of one generator are consecutive
    rows = {}
    last = None
    for cidx, (j, code) in enumerate(columns):
        if j != last:
            last, g_terms = j, [(pack(gm), gc) for gm, gc in gens[j].terms.items()]
        for gm, gc in g_terms:
            rows.setdefault(code + gm, {})[cidx] = gc
    for m, c in f.terms.items():
        row = rows.get(pack(m))
        if row is None:
            return None
        row[len(columns)] = c
    x = solve(rows.values(), len(columns))
    if x is None:
        return None
    # the monomials of one generator's columns are distinct
    mask = (1 << width) - 1
    terms = [{} for _ in gens]
    for cidx, (j, code) in enumerate(columns):
        if x[cidx]:
            mono = tuple((v, e) for v, r in shift.items() if (e := code >> r & mask))
            terms[j][mono] = x[cidx]
    cert = MembershipCertificate(f, [MultiPoly(t) for t in terms], bound)
    if not cert.verify(gens):
        raise RuntimeError("membership certificate failed re-verification")
    return cert


# -- small capped Buchberger --------------------------------------------------------
# A polynomial is a MultiPoly term dict {monomial: coefficient}.


def _grevlex(rank):
    """The grevlex sort key of monomials, with the variables ranked by ``rank``."""
    return lambda mono: (mono_degree(mono), tuple((-rank[v], -e) for v, e in reversed(mono)))


def _quotient(m, lm):
    """The monomial m / lm, or None when lm does not divide m."""
    exps = dict(m)
    for v, e in lm:
        left = exps.get(v, 0) - e
        if left < 0:
            return None
        if left:
            exps[v] = left
        else:
            del exps[v]
    return tuple(exps.items())


def _lcm(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = max(e, exps.get(v, 0))
    return tuple(sorted(exps.items()))


def _shift(poly, mono, coeff):
    return {_mono_mul(m, mono): c * coeff for m, c in poly.items()}


def _sub_inplace(f, g):
    for m, c in g.items():
        s = f.get(m, 0) - c
        if s:
            f[m] = s
        elif m in f:
            del f[m]


def _nf(f, basis, key):
    """Full normal form against the records ``basis``: every term reduced,
    by the first record whose lead divides it."""
    work = dict(f)
    out = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, lc, g in basis:
            q = _quotient(m, lm)
            if q is not None:
                work[m] = c
                _sub_inplace(work, _shift(g, q, c / lc))
                break
        else:
            out[m] = c
    return out


def _record(p, key):
    """The basis record of the nonzero ``p`` divided by its content, with a
    positive lead coefficient."""
    lead = max(p, key=key)
    content = rational_content(p.values())
    if p[lead] < 0:
        content = -content
    terms = {m: c / content for m, c in p.items()}
    return lead, terms[lead], terms


class GroebnerBasis:
    """Reduced Groebner basis (graded reverse lexicographic order, variables
    in sorted order) with a normal-form oracle."""

    def __init__(self, universe, records):
        self.universe = list(universe)
        self._records = records
        self.members = [MultiPoly(terms) for _, _, terms in records]

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        # ranking the variables of f outside the universe among the sorted
        # ones keeps grevlex on the members, so their leads and S-pairs are
        # unchanged, the records stay a Groebner basis and the remainder is
        # the unique one
        rank = {v: i for i, v in enumerate(sorted(f.variables().union(self.universe)))}
        return MultiPoly(_nf(f.terms, self._records, _grevlex(rank)))

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()


# Caps of groebner_small, which raises ResourceCapExceeded past them: the
# S-pairs popped, the size of the basis and the total degree of a new basis
# element.  They are a deliberate wall for anything big.  Every run of the
# certificates (``reproduce ideals``, ``ideal nonmember 6 4 Q13``/``Q14``,
# and the non-members of certbench's ideal-membership batches, seeds 1-11)
# pops 3 S-pairs and forms 5 records of degree <= 4: the 2 generators, 1
# S-polynomial and the 2 elements it ends with.  The fixed tests pop at most
# 1,176, in ``ideal nonmember 6 4 Q14 --zeros ''`` (all of I_{6,4}, nothing
# zeroed), which ends with 29 elements of degree <= 6; the nonmember targets
# that the argv property draws popped at most 1,035 S-pairs, with a basis of
# at most 46 elements of degree <= 6, over 31 runs of the property.
MAX_GROEBNER_PAIRS = 20_000
MAX_GROEBNER_BASIS = 120
MAX_GROEBNER_DEGREE = 60


def groebner_small(gens):
    """Buchberger in grevlex with hard caps on the distinct nonzero ``gens``
    up to scalars; raises ResourceCapExceeded rather than guess.

    Meant for the restricted few-variable systems that substitution produces;
    see MAX_GROEBNER_PAIRS, MAX_GROEBNER_BASIS and MAX_GROEBNER_DEGREE.
    """
    polys = distinct_primitive(gens)
    universe = sorted(set().union(*(g.variables() for g in polys)))
    key = _grevlex({v: i for i, v in enumerate(universe)})
    basis = [_record(g.terms, key) for g in polys]
    pairs = []
    for i in range(len(basis)):
        for j in range(i):
            lcm = _lcm(basis[i][0], basis[j][0])
            heapq.heappush(pairs, (mono_degree(lcm), j, i, lcm))
    popped = Budget(MAX_GROEBNER_PAIRS, f"Buchberger pair cap {MAX_GROEBNER_PAIRS} exceeded")
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        popped.charge()
        (lmi, lci, fi), (lmj, lcj, fj) = basis[i], basis[j]
        if _mono_mul(lmi, lmj) == lcm:
            continue  # coprime leading monomials: s-poly reduces to zero
        s = _shift(fi, _quotient(lcm, lmi), 1 / lci)
        _sub_inplace(s, _shift(fj, _quotient(lcm, lmj), 1 / lcj))
        s = _nf(s, basis, key)
        if not s:
            continue
        rec = _record(s, key)
        if max(map(mono_degree, s)) > MAX_GROEBNER_DEGREE:
            raise ResourceCapExceeded(f"degree cap {MAX_GROEBNER_DEGREE} exceeded")
        basis.append(rec)
        if len(basis) > MAX_GROEBNER_BASIS:
            raise ResourceCapExceeded(f"basis-size cap {MAX_GROEBNER_BASIS} exceeded")
        new = len(basis) - 1
        for t in range(new):
            lcm = _lcm(basis[t][0], rec[0])
            heapq.heappush(pairs, (mono_degree(lcm), t, new, lcm))

    # the unique reduced basis, in one pass by ascending lead: a record whose
    # lead a kept lead divides is dropped (of equal leads the first stays),
    # and every other is reduced by the kept records before it; the later
    # leads are larger, so none of them divides a term below its lead
    basis.sort(key=lambda rec: key(rec[0]))
    reduced = []
    for lm, _, terms in basis:
        if all(_quotient(lm, m) is None for m, _, _ in reduced):
            reduced.append(_record(_nf(terms, reduced, key), key))
    return GroebnerBasis(universe, reduced)


def non_membership(f: MultiPoly, gens, assignment) -> bool:
    """True certifies f not in ideal(gens), via an evaluation homomorphism.

    Substitution preserves membership, so a nonzero normal form of the
    substituted target against a Groebner basis of the substituted ideal is
    a sound non-membership certificate.  False means "no conclusion".
    """
    fs = substitute(f, assignment)
    if fs.is_zero():
        return False
    return not groebner_small(substitute(g, assignment) for g in gens).contains(fs)
