"""Differentials at a bracket and the nilpotent deformation cohomology.

Cochain coordinates: a 1-cochain alpha lives in g* (x) g with column p*n+q
meaning alpha(e_p) = e_q; a 2-cochain sigma has coordinate k of
sigma(e_p, e_q) at column first + k, where (first, sign) = Layout.sigma[p][q]
is the one table every stream reads: first = t*n for the t-th pair of
Layout.pairs, shared by (p, q) and (q, p), and sign +1 exactly when p < q.
3-cochains use ordered triples the same way.
The multilinear operators map into full tensor powers, so their differentials
are indexed by arbitrary (k+1)-tuples of basis letters.

Every differential reads the bracket through ``liealg._letter_operators``
and reaches the reducer in one format, sparse {column: value} dicts with
no zero entry, never empty: d1 as its columns (d1 of each basis
1-cochain), d2 and the word derivatives dN_k, dSN_k as their rows, each
group of rows built as {m: {column: value}} by output coordinate m.  The
certificates only ever stream them; ``ExactMatrix`` is built only by
``d1_matrix`` and ``d2_matrix``, from the same streams.

The derivative of a nested bracket word at mu is the sum over replacing one
mu by sigma.  The rows come from the same word walker that evaluates N_k and
SN_k (``liealg.walk_words``), run in forward mode: each word carries its
value and its tangent, one letter at a time, so the tall matrices (for
example the 7^6-tuple one in dimension 7) are streamed and never stored.
The tangent is kept by output coordinate, {m: {column: value}}, which is
the row format itself, so a word's rows are yielded as they are.  The split
word combines each inner word with every leading pair by the product rule,
its rows being combinations of the inner word's rows plus single entries
for the leading pair's own terms.  d2, the derivative of the cyclic Jacobi
sum, keeps its six-term formula and builds each triple's rows in the same
format; its sigma(mu(e_x, e_y), e_z) terms, the walker's sigma(v, e_b) and
the split word's wedge sigma(a, B) all go through ``liealg._add_sigma``.
Both words are antisymmetric in their first two letters, and the split
word also in its third and fourth (through the inner word), so the
streams carry one row per unordered pair:
every row left out is an emitted row up to sign, or zero, and the row space
(hence rank, kernel and the canonical reduced rows) is that of the full
matrix.

The certificates reduce the stacks [d2 ; dN_k] and [d2 ; dSN_k] with two
restrictions of the walked words (for dSN_k, the inner words), each
proved in ``walk_words``: only the words that start with their least
letter, and only the words over a set S of basis indices whose e_s
generate g (the leading pair of dSN_k keeps every letter).  Beside the d2
rows, which every stack holds, the rows left span what every word row
spans, at a Lie point for the first and where N_k(mu) = 0 or
SN_k(mu) = 0 for the second, so the stack keeps its row space and its
reduced rows; the word rows alone can span less, so the public streams
and the tensors ``n_k``/``sn_k`` keep every word.  S comes from one
picker in ``liealg``: the e_s that span g modulo g^1
(``k_step_generators``, which at a k-step point generate g), extended at
a point that is not nilpotent by each e_j outside the subalgebra
generated so far (``split_generators``; the curve algebras are solvable,
not nilpotent).  So every certificate builds its sequence in one
routine, ``_sequence``, and its stack in ``_stack``: it checks Jacobi,
and the picker both decides W(mu) = 0 and gives S, or refuses the point
(``h2_knil`` runs no picker, below).

What is kept of a table is one entry, ``liealg._entry``, for each of the
last sixteen tables, keyed by content: the scaled letter operators, the
letters that generate it where ``h2_knil`` proved them (below), one
Im d1, and up to ``liealg.STACKS_PER_ENTRY`` reduced stacks by (kind, k),
each with its ``_Containment``, ``closed``, which checks once whether the
Im d1 rows lie in the stack's kernel and keeps one column index of its
rows for the tangents (``h2_knil`` and ``h2_dim`` build none).  A second
memo, ``_at``, keeps the family evaluated at each of the last eight
points and each tangent read and cleared of denominators once
(``_tangent``), but no entry.  A run at a kept point thus evaluates,
differentiates and clears nothing, hashes its point once and meets the
kept table itself: it ranks the cleared tangents against the kept Im d1
read-only, for rank dF, and checks them against the kept index.

``h2_knil`` certifies mu in a basis built from its generators
(``liealg._adapted``, kept by content for the last sixteen given tables
in ``liealg._adapted_form``, so a given table keeps no entry), times one
positive integer, wherever that table has fewer structure constants than
mu.  Its z and b are those of mu: a change of basis carries Ker d2,
Ker dN_k and Im d1 onto those of the new table, and a uniform scale of
the table changes no span, rank or kernel, since d1 and d2 are linear in
mu and dN_k is homogeneous in it.  Jacobi and N_k = 0 do not depend on
the basis either, so ``_stack`` refuses the adapted table exactly where
it would refuse mu, with the same message.  ``_adapted`` also proves
which letters generate that table, at a nilpotent point the picks of
``k_step_generators``, and ``_stack`` walks them with no lower central
series: at a Lie point N_k(mu) = 0 exactly when every least-first
(k+1)-letter word over them vanishes, so the dN_k stream refuses the
first that does not, and where it meets a cap the picker decides.  The
stacks cost what the table's density costs, and the adapted table is
about half as dense on seeded dense bases.  Its stacks are kept in the
adapted table's entry, so an adapted ``h2_knil`` and an
``augmented_exactness`` at the same point do not share one; isomorphic
inputs often adapt to one table and then do.

The streams read the table scaled by one global integer (``scaled=True``),
to ints over Q and to ints and Gaussian integers over Q(i).  Each
differential is homogeneous in mu (d1 and d2 are linear), so that
multiplies all its rows or columns by one positive integer, changes no
span, rank or containment, and keeps the whole pipeline fraction-free on
the one reducer.  The Jacobi guard reads the same scaled table, as J is
homogeneous of degree 2 in mu.  The scaled read is the entry's, so the
guard, the picker, d1, d2 and the word walk of one certificate build it
once.  The unscaled read, of ``d1_matrix``, ``d2_matrix`` and the public
tensors, is built on each call: a Q(i) twin holds QIs where its Q twin
holds Fractions, which scaled become the same ints.  The tangents of
``augmented_exactness`` stay unscaled.  Membership in the k-step and
split varieties is checked by the lower central series, in polynomial
time, not by enumerating the words.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

from .errors import NotInVariety, NotLieAlgebra, ResourceCapExceeded
from .liealg import (
    MAX_WALK_DEPTH,
    STACKS_PER_ENTRY,
    Layout,
    StructureConstants,
    _Generators,
    _ReadOnly,
    _adapted,
    _add_sigma,
    _apply_to_rows,
    _brv,
    _entry,
    _letter_operators,
    _walk_budget,
    is_lie,
    k_step_generators,
    split_generators,
    walk_words,
)
from .linalg import ExactMatrix, _cleared, _sparse_from, _vanish, reduce_rows
from .scalars import FIELD_Q, FIELD_QI, is_nonreal, promote


def _cochain_entries(sigma):
    """(column, value) for each entry of the table ``sigma`` read as a
    2-cochain: coordinate k of sigma(e_i, e_j), i < j, at column
    first + k, for first = Layout.sigma[i][j][0].  The one layout rule of
    ``cochain_vector`` and ``_tangent``."""
    lay = Layout(sigma.n)
    for (i, j), coeffs in sigma.c.items():
        first = lay.sigma[i][j][0]
        for k, val in coeffs.items():
            yield first + k, val


def cochain_vector(sigma: StructureConstants):
    """Coordinates of a 2-cochain in the (pair, k) layout."""
    v = [Fraction(0)] * Layout(sigma.n).dim2
    for c, val in _cochain_entries(sigma):
        v[c] = val
    return v


@lru_cache(maxsize=8)
def _at(table, point):
    """(mu, tangents): the family ``table`` over "sym" evaluated at
    ``point``, a frozenset of (parameter, value), and its tangents by
    parameter, each kept read-only once ``_tangent`` has read it.  The last
    eight (family, point) pairs are kept, with no stack: a point the guard
    refuses may keep its table here, never a verdict.  Equal values hash
    and compare equal, so a point given in another order or as equal ints
    or QIs shares the entry, whose content does not depend on which of
    them built it."""
    return table.evaluate(point), {}


class _KeptTangent(_ReadOnly):
    """A tangent kept in an entry of ``_at``, which refuses writes, and its
    one positive multiple of Gaussian integers ``cleared`` (``_cleared``)."""

    __slots__ = ("cleared",)
    _what = "a kept tangent"

    def __init__(self, vec):
        super().__init__(vec)
        self.cleared = dict(_cleared(vec))


def _tangent(table, p, point):
    """The tangent of the family ``table`` in its parameter ``p`` at
    ``point`` (a dict, or the frozenset of its items that keys ``_at``), as
    a read-only sparse 2-cochain, read once per kept entry of ``_at``."""
    key = point if isinstance(point, frozenset) else frozenset(point.items())
    kept = _at(table, key)[1]
    if p not in kept:
        kept[p] = _KeptTangent(_read_tangent(table, p, dict(key)))
    return kept[p]


def _read_tangent(table, p, point):
    """dP/dp at ``point`` for each bracket entry P of ``table``, read off
    its polynomial, as a sparse 2-cochain {column: value}.  The values are
    those of ``cochain_vector(table.derivative(p).evaluate(point))`` with
    the zeros dropped: Fractions, or QIs when one is nonreal, as the
    evaluated table holds them."""
    vals = {c: poly.diff(p).evaluate(point) for c, poly in _cochain_entries(table)}
    field = FIELD_QI if any(map(is_nonreal, vals.values())) else FIELD_Q
    return {c: promote(v, field) for c, v in vals.items() if v}


# -- streamed differentials -----------------------------------------------------


def iter_d1_columns(mu, scaled=True):
    """d1 of each basis 1-cochain, as a sparse 2-cochain {column: value}.

    d1(alpha)(x, y) = mu(x, alpha y) + mu(alpha x, y) - alpha(mu(x, y)); the
    basis 1-cochain alpha(e_p) = e_q is yielded at its column p*n+q, with
    (p*n+q, cochain) for every nonzero one.  These are the columns of
    ``d1_matrix``: their span is Im d1 and their rank is b.
    """
    lay = Layout(mu.n)
    n, table, right = _letter_operators(mu, scaled)
    # hits[p]: (first column of the pair {i, j}, coefficient of e_p in
    # mu(e_i, e_j)) for i < j
    hits = [[] for _ in range(n)]
    for i, j in lay.pairs:
        if table[i][j] is not None:
            for p, co in enumerate(table[i][j]):
                if co:
                    hits[p].append((lay.sigma[i][j][0], co))
    for p in range(n):
        for q in range(n):
            col = {}
            # mu(e_x, alpha e_p) = mu(e_x, e_q), at the pair {x, p}
            for x, terms in right[q]:
                if x != p:
                    first, sgn = lay.sigma[x][p]
                    for m, w in terms:
                        col[first + m] = sgn * w
            # -alpha(mu(e_i, e_j))
            for first, co in hits[p]:
                c = first + q
                v = col.get(c, 0) - co
                if v:
                    col[c] = v
                else:
                    del col[c]
            if col:
                yield p * n + q, col


def iter_d2_rows(mu, scaled=True):
    """Sparse rows of the six-term adjoint differential on 2-cochains.

    One row {column: value} per output coordinate m of each basis triple
    i < j < l, at row t * n + m for the t-th triple: the rows of
    ``d2_matrix``.  Each triple's rows are built in the tangent-row format
    of the word streams, {m: {column: value}}: mu(e_x, sigma(e_y, e_z))
    puts each coefficient w of e_m in mu(e_x, e_s) at the column of
    (y, z, s) in row m, and sigma(mu(e_x, e_y), e_z) puts each coefficient
    of mu(e_x, e_y) at the columns of its pair with z in every row.
    """
    lay = Layout(mu.n)
    n, table, right = _letter_operators(mu, scaled)
    for t, (i, j, l) in enumerate(lay.triples):
        rows = {}
        # mu(e_x, sigma(e_y, e_z)) terms, signs +, -, +, read off
        # mu(e_s, e_x) = -mu(e_x, e_s); no column repeats
        for x, (y, z), sgn in ((i, (j, l), -1), (j, (i, l), 1), (l, (i, j), -1)):
            base = lay.sigma[y][z][0]
            for s, terms in right[x]:
                for m, w in terms:
                    rows.setdefault(m, {})[base + s] = sgn * w
        # sigma(mu(e_x, e_y), e_z) terms, signs -, +, -
        for (x, y), z, sgn in (((i, j), l, -1), ((i, l), j, 1), ((j, l), i, -1)):
            v = table[x][y]
            if v is not None:
                sig = []
                for p, co in enumerate(v):
                    if co and p != z:
                        first, s2 = lay.sigma[p][z]
                        sig.append((first, sgn * s2 * co))
                if sig:
                    _add_sigma(rows, sig, n)
        for m in sorted(rows):
            if rows[m]:
                yield t * n + m, rows[m]


def iter_dnk_rows(mu, k, scaled=True, least_first=False, letters=None):
    """Sparse rows of the derivative of the k-fold nested bracket at mu.

    One row per unordered leading pair: only the words with a1 < a2 are
    emitted.  The word and its derivative are antisymmetric in (a1, a2), so
    every row left out is minus an emitted one (or zero, at a1 = a2) and the
    row space is the full matrix's.  With ``least_first`` only the words
    that start with their least letter are emitted, whose rows span the
    others' only beside the d2 rows at a Lie point (see ``walk_words``).
    With ``letters`` (basis indices) only the words over those letters are
    emitted; at a k-step point, with letters that generate, their rows span
    beside the d2 rows what every word row spans (again ``walk_words``).
    Over letters that generate g where N_k(mu) = 0 is not yet decided
    (``liealg._Generators``), a nonzero word raises NotInVariety: at a Lie
    point N_k(mu) = 0 exactly when every least-first word over them does.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, _, right = _letter_operators(mu, scaled)
    words = walk_words(right, k + 1, Layout(n), least_first=least_first, letters=letters)
    refuse = isinstance(letters, _Generators)
    for index, value, tangent in words:
        if refuse and value is not None:
            raise NotInVariety(f"point violates N_{k} = 0")
        for m in sorted(tangent):
            yield index * n + m, tangent[m]


def iter_dsnk_rows(mu, k, scaled=True, least_first=False, letters=None):
    """Rows of the derivative of the split word mu(mu(x1,x2), N_{k-2}(...)).

    The value B and tangent rows of each inner (k-1)-letter word are
    computed once and combined with every leading pair a = mu(e_x1, e_x2)
    by the product rule, row m of the split word being the sum of
    - mu(a, F_tail): a combination of the inner word's own rows, through
      mu(a, e_q) for each letter q, computed once per stream;
    - mu(sigma(e_x1, e_x2), B): mu(e_s, B) at the column of (x1, x2, s);
    - sigma(a, B): the wedge of a and B, at the columns of coordinate m.
    The split word is antisymmetric in (x1, x2), and for k >= 3 also in
    (x3, x4) through the inner word, so only the tuples with x1 < x2 (and
    x3 < x4) are emitted: every row left out is plus or minus an emitted
    one, or zero, and the row space is the full matrix's.  With
    ``least_first`` only the inner words that start with their least letter
    are walked, as in ``iter_dnk_rows``: the outer bracket with the leading
    pair is linear, so the rows of every other inner word are again
    combinations of these and of d2 rows.  With ``letters`` (basis indices)
    only the inner words over those letters are walked, and the leading
    pair keeps every letter; where SN_k(mu) = 0, with letters that generate
    g, their rows span beside the d2 rows what every row spans (the lemma
    in ``walk_words``).  Each emitted row is charged to the stream's one
    counter (``liealg._walk_budget``), as each kept inner word is: one kept
    word can emit up to n times the number of leading pairs rows.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lay = Layout(mu.n)
    n, table, right = _letter_operators(mu, scaled)
    heads = []
    for x1, x2 in lay.pairs:
        a = table[x1][x2]
        a_of = []  # (q, [(m, w), ...]) for the nonzero mu(a, e_q)
        if a is not None:
            for q in range(n):
                w = _brv(right, n, a, q)
                if w is not None:
                    a_of.append((q, [(m, x) for m, x in enumerate(w) if x]))
        heads.append((x1 * n + x2, lay.sigma[x1][x2][0], a, a_of))
    tail_span = n ** (k - 1)
    budget = _walk_budget()
    tails = walk_words(right, k - 1, lay, least_first=least_first, letters=letters,
                       budget=budget)
    for tailidx, bvec, ftail in tails:
        # es_b[m][s]: coefficient of e_m in mu(e_s, B), read off
        # mu(e_q, e_s) = -mu(e_s, e_q)
        es_b = {}
        if bvec is not None:
            for s in range(n):
                for q, terms in right[s]:
                    cq = bvec[q]
                    if cq:
                        for m, w in terms:
                            acc = es_b.setdefault(m, {})
                            acc[s] = acc.get(s, 0) - cq * w
        for pair, base, a, a_of in heads:
            rows = _apply_to_rows(a_of, ftail)
            for m, coeffs in es_b.items():
                acc = rows.get(m)
                if acc is None:
                    rows[m] = {base + s: x for s, x in coeffs.items()}
                else:
                    for s, x in coeffs.items():
                        acc[base + s] = acc.get(base + s, 0) + x
            if a is not None and bvec is not None:
                wedge = []
                sup = [p for p in range(n) if a[p] or bvec[p]]
                for ii, p in enumerate(sup):
                    for q in sup[ii + 1 :]:
                        co = a[p] * bvec[q] - a[q] * bvec[p]
                        if co:
                            wedge.append((lay.sigma[p][q][0], co))
                if wedge:
                    _add_sigma(rows, wedge, n)
            if rows:
                index = (pair * tail_span + tailidx) * n
                for m in sorted(rows):
                    row = {c: x for c, x in rows[m].items() if x}
                    if row:
                        budget.charge()
                        yield index + m, row


# the word constraints: the picker of their walked letters, and their rows
_WORDS = {"n": (k_step_generators, iter_dnk_rows), "sn": (split_generators, iter_dsnk_rows)}


def _picked(mu, kind, k):
    """The letters of the picker of ``_WORDS`` at mu; a point where the
    word W of ``kind`` does not vanish is refused."""
    letters = _WORDS[kind][0](mu, k)
    if letters is None:
        raise NotInVariety(f"point violates {kind.upper()}_{k} = 0")
    return letters


# -- materialized matrices ---------------------------------------------------------


def d1_matrix(mu) -> ExactMatrix:
    """alpha |-> mu(x, alpha y) + mu(alpha x, y) - alpha(mu(x, y)): n^2 -> C(n,2)*n."""
    lay = Layout(mu.n)
    entries = {(r, c): v for c, col in iter_d1_columns(mu, scaled=False) for r, v in col.items()}
    return ExactMatrix(lay.dim2, lay.dim1, entries, mu.field)


def d2_matrix(mu) -> ExactMatrix:
    """The six-term adjoint differential on 2-cochains: C(n,2)*n -> C(n,3)*n."""
    lay = Layout(mu.n)
    entries = {(r, c): v for r, row in iter_d2_rows(mu, scaled=False) for c, v in row.items()}
    return ExactMatrix(lay.dim3, lay.dim2, entries, mu.field)


# -- cohomology reports ------------------------------------------------------------


class CohomologyReport(namedtuple("CohomologyReport", "algebra n k z b h rigid_certificate")):
    """z = dim(Ker d2 ^ Ker dN_k), b = dim Im d1, h = z - b; ``algebra`` is
    the table's name or None, and ``k`` is None for the plain H^2."""

    __slots__ = ()

    def to_dict(self):
        return {
            "algebra": self.algebra,
            "k": self.k,
            "z": self.z,
            "b": self.b,
            "h": self.h,
            "rigid_certificate": self.rigid_certificate,
            "orbit_dim": self.b,
        }


def _image(mu):
    """The RowBasis of Im d1, of rank b: the d1 columns, streamed and
    reduced.  d1 is linear in mu, so its scaled columns span Im d1."""
    return reduce_rows((col for _, col in iter_d1_columns(mu)), Layout(mu.n).dim2)


def _constraint_reducer(mu, kind, k, letters=None):
    """Reduce the stacked constraint-differential rows; returns the reducer.

    The d2 rows are in the stack, so the word rows are streamed least-first:
    at a Lie point they span, beside the d2 rows, what every word row spans.
    ``reduce_rows`` may add the rows in any order; the span is the same.
    The dN_k words and the inner words of dSN_k are walked over
    ``letters``, every letter when not given.
    """
    rows = iter_d2_rows(mu)
    if kind in _WORDS:
        rows = chain(rows, _WORDS[kind][1](mu, k, least_first=True, letters=letters))
    return reduce_rows((row for _, row in rows), Layout(mu.n).dim2)


class _Containment:
    """Whether rows of Gaussian integers lie in Ker dG, the kernel of the
    kept stack ``red``.  Called, it answers whether Im d1 does (``closed``),
    once, with the rows of the kept Im d1 ``image``; ``holds`` answers it
    for Im d1 and the given rows together.  Both read one column index of
    the stack's rows (``RowBasis.column_index``), built at the first
    question and kept, so each check sums over the rows its vectors meet."""

    __slots__ = ("red", "image", "_index", "_closed")

    def __init__(self, red, image):
        self.red, self.image = red, image
        self._index = self._closed = None

    def __call__(self):
        if self._closed is None:
            self._closed = self._check(self.image.sparse_rows())
        return self._closed

    def holds(self, rows):
        return self() and self._check(rows)

    def _check(self, rows):
        if self._index is None:
            self._index = self.red.column_index()
        return _vanish(self._index, (row.items() for row in rows))


def _stack(mu, kind, k, letters=None):
    """(red, im_d1, closed): the reduced [d2 ; dW] stack at mu, for W of
    ``kind`` "j", "n" (N_k) or "sn" (SN_k), the entry's Im d1 and the
    stack's ``_Containment``, kept in mu's entry under (kind, k), read-only
    and shared.  ``letters``, when given, are the ``_Generators`` that
    ``liealg._adapted`` proved for mu, kept in its entry first.  A point
    off the variety (not Lie, or W(mu) != 0, as the picker decides, or for
    N_k the stream over the entry's ``letters``, then the picker where it
    meets a cap) is refused; a refusal or a cap keeps no stack.  Past
    STACKS_PER_ENTRY the first kept goes, off one copy of the keys and
    popped with a default, so threads cannot make it raise."""
    entry = _entry(mu)
    if letters is not None:
        entry.letters = letters
    kept = entry.stacks.get((kind, k))
    if kept is not None:
        return kept
    if not is_lie(mu):
        raise NotInVariety("point violates the Jacobi identity")
    letters = entry.letters if kind == "n" else None
    if kind in _WORDS and letters is None:
        letters = _picked(mu, kind, k)
    try:
        red = _constraint_reducer(mu, kind, k, letters)
    except ResourceCapExceeded:
        if isinstance(letters, _Generators):
            _picked(mu, kind, k)  # refuses as the picker would
        raise
    if entry.image is None:
        entry.image = _image(mu)
    stacks = entry.stacks
    stacks[kind, k] = kept = (red, entry.image, _Containment(red, entry.image))
    for old in list(stacks)[:-STACKS_PER_ENTRY]:
        stacks.pop(old, None)
    return kept


def _sequence(mu, kind, k, tangents=()):
    """Hamilton's sequence at mu, [tangents | d1] -> C^2 -> [d2 ; dW], for W
    of ``kind`` "j", "n" or "sn".  Returns (contained, rank_df, red): the
    call that answers whether Im dF lies in Ker dG, for its one reader
    ``augmented_exactness``, the kept Im d1's ``rank_with`` the tangents,
    and the kept stack.  Both read the tangents' ``cleared`` forms, any
    tangent not kept cleared here: a positive multiple changes no span."""
    red, im_d1, closed = _stack(mu, kind, k)
    rows = [vec.cleared if type(vec) is _KeptTangent
            else dict(_cleared(_sparse_from(vec, im_d1.ncols))) for vec in tangents]
    return partial(closed.holds, rows), im_d1.rank_with(rows), red


def h2_knil(mu, k) -> CohomologyReport:
    """Deformation cohomology inside the k-step nilpotent variety.

    z and b are invariants of the point, unchanged by a change of basis and
    by a uniform scale of the table, so they are read off ``_sequence`` at
    mu written in a basis built from its generators (``liealg._adapted``),
    where that table has fewer structure constants: the stacks cost what
    the table's density costs.  mu keeps no entry; the adapted table's
    keeps the letters that generate it, which ``_stack`` stores on its one
    lookup of that entry.  With no tangents b is the rank of Im d1."""
    nu, letters = _adapted(mu)
    red, im_d1, _ = _stack(nu, "n", k, letters)
    z = Layout(mu.n).dim2 - red.rank
    b = im_d1.rank
    return CohomologyReport(mu.name, mu.n, k, z, b, z - b, z == b)


def h2_dim(mu) -> CohomologyReport:
    """Ordinary adjoint H^2 dimensions (z, b, h)."""
    _, b, red = _sequence(mu, "j", None)
    z = Layout(mu.n).dim2 - red.rank
    return CohomologyReport(mu.name, mu.n, None, z, b, z - b, False)


def derivation_dim(mu) -> int:
    if not is_lie(mu):
        raise NotLieAlgebra("derivations are defined for Lie brackets")
    entry = _entry(mu)  # the Im d1 of h2_dim and the certificates
    if entry.image is None:
        entry.image = _image(mu)
    return mu.n * mu.n - entry.image.rank


# -- augmented exactness for parametric families -------------------------------------


class ExactnessReport(namedtuple("ExactnessReport",
                                 "family point free_params constraint domain_dim middle_dim"
                                 " codomain_dim rank_df ker_dg_dim containment exact")):
    """Is the image of the augmented tangent map exactly Ker dG?  ``family``
    is the name or None, ``point`` the sorted (symbol, value) pairs."""

    __slots__ = ()

    def to_dict(self):
        return {
            "family": self.family,
            "point": {p: str(v) for p, v in self.point},
            "free_params": list(self.free_params),
            "constraint": self.constraint,
            "dims": [self.domain_dim, self.middle_dim, self.codomain_dim],
            "rank_dF": self.rank_df,
            "ker_dG_dim": self.ker_dg_dim,
            "containment": self.containment,
            "exact": self.exact,
        }


def parse_constraint(text):
    t = text.strip().lower()
    if t == "j":
        return "j", None
    for prefix, kind in (("sn", "sn"), ("n", "n")):
        if t.startswith(prefix) and t[len(prefix) :].isdigit():
            return kind, int(t[len(prefix) :])
    raise ValueError(f"bad constraint {text!r} (expected j, nK or snK)")


def augmented_exactness(table, point, free_params, constraint, name=None) -> ExactnessReport:
    """Exactness of [tangents | d1] -> middle -> [d2 ; d(constraint)] at a point.

    ``table`` is a StructureConstants over polynomials (field "sym") with
    its parameters in ``params``; a numeric table answers as its twin over
    polynomials (``StructureConstants.symbolic``), whose constants evaluate
    to its values and have zero derivatives.  The point must satisfy the constraint exactly (Jacobi,
    plus vanishing of the chosen word operator).  One column is adjoined to
    d1 per free parameter: the exact derivative of the table in that
    parameter at the point, read as a sparse cochain off the polynomials
    (``_tangent``) once ``_stack`` has admitted the point.  The
    evaluated table and the tangents are kept by (family, point) in
    ``_at``, so a repeated run reads them there.  The containment of Im dF
    in Ker dG is the entry's ``closed`` answer and the tangents' check
    against its kept column index, on every run.  Words longer than
    the walk's MAX_WALK_DEPTH letters raise ResourceCapExceeded at once.
    """
    kind, k = parse_constraint(constraint)
    if k is not None and k + 1 > MAX_WALK_DEPTH:
        raise ResourceCapExceeded(f"the words of {kind.upper()}_{k} have {k + 1} letters,"
                                  f" over the cap {MAX_WALK_DEPTH} on the word walk's depth")
    point = dict(point)
    free_params = tuple(free_params)
    for t, p in enumerate(free_params):
        if p not in table.params:
            raise ValueError(f"free parameter {p!r} is not a parameter of the family")
        if p in free_params[:t]:
            raise ValueError(f"free parameter {p!r} given twice")
    table = table.symbolic()  # a numeric table answers as its twin
    key = frozenset(point.items())
    mu = _at(table, key)[0]
    lay = Layout(mu.n)
    # a generator: the tangents are read only at a point the guards admit
    contained, rank_df, red = _sequence(mu, kind, k,
                                        (_tangent(table, p, key) for p in free_params))
    containment = contained()
    ker_dg = lay.dim2 - red.rank
    codom = lay.dim3 if kind == "j" else lay.dim3 + mu.n ** (k + 2)
    return ExactnessReport(
        family=name,
        point=tuple(sorted((str(p), v) for p, v in point.items())),
        free_params=free_params,
        constraint=constraint,
        domain_dim=len(free_params) + lay.dim1,
        middle_dim=lay.dim2,
        codomain_dim=codom,
        rank_df=rank_df,
        ker_dg_dim=ker_dg,
        containment=containment,
        exact=containment and rank_df == ker_dg,
    )
