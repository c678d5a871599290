"""Structure constants, nilpotency operators, series and constructions.

A bracket on an n-dimensional space is stored as the antisymmetric tensor
c[i][j][k] with only i < j kept; reading (j, i) negates.  Nothing here
assumes the Jacobi identity unless stated: a :class:`StructureConstants` is
just a point of the ambient space of antisymmetric bilinear maps, which is
exactly what the deformation-variety computations need.  Over the field
"sym" the coefficients are polynomials: a family's table in its parameters,
or the generic chart; it is differentiated and evaluated exactly.

Indices are 0-based internally; table text and the JSON schema are 1-based.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (Budget, DimensionMismatch, NotDerivation, NotLieAlgebra, NotNumeric,
                     ResourceCapExceeded, SingularMatrix, TableError)
from .linalg import (ExactMatrix, _denominator, _integral_inverse, _read_inverse, int_cleared,
                     inverse, reduce_rows)
from .polynomials import MultiPoly
from .scalars import FIELD_Q, FIELD_QI, QI, is_nonreal, join_fields, promote


class _ReadOnly(dict):
    """A dict that refuses writes: the brackets of a table and each of their
    rows, and, as a subclass that names itself in ``_what``, the tangents
    ``cohomology._at`` keeps.  It is still a dict, so readers that test for
    one keep working."""

    __slots__ = ()
    _what = "a StructureConstants table"

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{self._what} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


class StructureConstants:
    """Antisymmetric coefficient tensor of a bracket (or any 2-cochain), over
    Q, Q(i) or "sym", whose coefficients are ``MultiPoly`` polynomials in the
    symbols ``params`` names; zero coefficients and empty pairs are dropped.
    Here alone a numeric table not declared Q(i) takes its field from its
    values: Q(i) when one is nonreal, else Q, with every value a Fraction.

    A table is read-only once built: its attributes cannot be rebound, and
    ``c`` and its rows refuse writes, so the content hash is taken once."""

    __slots__ = ("n", "field", "c", "name", "params", "_hash")

    def __init__(self, n, brackets=None, field=FIELD_Q, name=None, params=()):
        if n < 1:
            raise DimensionMismatch("dimension must be positive")
        brackets = brackets or {}
        if field == FIELD_Q and any(is_nonreal(v) for row in brackets.values()
                                    for v in row.values()):
            field = FIELD_QI
        c = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise DimensionMismatch(f"bad basis pair ({i},{j}) for dim {n}")
            row = {}
            for k, v in coeffs.items():
                if not 0 <= k < n:
                    raise DimensionMismatch(f"bad target index {k} for dim {n}")
                if field in (FIELD_Q, FIELD_QI):
                    v = promote(v, field)
                if v:
                    row[k] = v
            if row:
                c[(i, j)] = _ReadOnly(row)
        self._fill(n, field, _ReadOnly(c), name, tuple(params), None)

    def _fill(self, *values):
        """Set the slots, in their order; the one writer of a table."""
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, *args):
        raise AttributeError("a StructureConstants table is read-only")

    __delattr__ = __setattr__

    @classmethod
    def abelian(cls, n):
        return cls(n)

    # -- access --------------------------------------------------------------

    def brackets(self):
        return sorted(self.c)

    def bracket_basis(self, i, j):
        """Coefficients of [e_i, e_j] as {k: scalar} (sign-aware)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.c.get((i, j), {}))
        return {k: -v for k, v in self.c.get((j, i), {}).items()}

    def entry(self, i, j, k):
        return self.bracket_basis(i, j).get(k, 0)

    def bracket(self, x, y):
        """Bilinear antisymmetric evaluation of the tensor on two vectors."""
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("vectors must have the algebra's dimension")
        out = [0] * self.n
        for (i, j), coeffs in self.c.items():
            co = x[i] * y[j] - x[j] * y[i]
            if co:
                for k, v in coeffs.items():
                    out[k] = out[k] + co * v
        return out

    def is_abelian(self):
        return not self.c

    def with_name(self, name):
        out = StructureConstants.__new__(StructureConstants)
        out._fill(self.n, self.field, self.c, name, self.params, self._hash)
        return out

    # -- polynomial coefficients ------------------------------------------------

    def free_symbols(self):
        """The symbols the polynomial coefficients use."""
        return set().union(*(p.variables() for row in self.c.values() for p in row.values()))

    def derivative(self, sym):
        """The table of the coefficients' exact derivatives in ``sym``."""
        brackets = {pair: {k: p.diff(sym) for k, p in coeffs.items()}
                    for pair, coeffs in self.c.items()}
        return StructureConstants(self.n, brackets, self.field, params=self.params)

    def symbolic(self):
        """The table over polynomials (field "sym") whose constants are the
        values of this one, with its ``params``: its twin over "sym", which
        evaluates to it at any point and differentiates to zero.  A table
        over "sym" is its own."""
        if self.field == "sym":
            return self
        brackets = {pair: {k: MultiPoly.const(v) for k, v in row.items()}
                    for pair, row in self.c.items()}
        return StructureConstants(self.n, brackets, "sym", params=self.params)

    def evaluate(self, assignment=None):
        """The table at a value per symbol (TableError if one has none), over
        Q(i) exactly when some value there is nonreal."""
        assignment = dict(assignment or {})
        missing = sorted(self.free_symbols() - set(assignment))
        if missing:
            raise TableError(f"unresolved parameter symbols: {', '.join(missing)}")
        brackets = {pair: {k: p.evaluate(assignment) for k, p in coeffs.items()}
                    for pair, coeffs in self.c.items()}
        return StructureConstants(self.n, brackets)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        """By content, as ``__eq__``: n and the brackets, not name or field.
        Taken on the first call and kept (``_content_hash``): the content
        cannot change."""
        h = self._hash
        if h is None:
            h = _content_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        label = self.name or f"{self.n}-dim bracket"
        return f"StructureConstants({label}, nnz={sum(len(v) for v in self.c.values())})"


def _content_hash(mu):
    """The hash of n and the brackets, which ``__hash__`` keeps."""
    return hash((mu.n, frozenset((p, frozenset(row.items())) for p, row in mu.c.items())))


def pencil(mu, nu, t):
    """mu + t * nu, over Q(i) when mu or nu is, or when a value is nonreal."""
    if mu.n != nu.n:
        raise DimensionMismatch("mixed dimensions")
    brackets = {pair: dict(coeffs) for pair, coeffs in mu.c.items()}
    for pair, coeffs in nu.c.items():
        row = brackets.setdefault(pair, {})
        for k, v in coeffs.items():
            row[k] = row.get(k, 0) + t * v
    return StructureConstants(mu.n, brackets, join_fields(mu.field, nu.field))


# -- operators ----------------------------------------------------------------


def jacobi(mu):
    """Cyclic Jacobi tensor on basis triples i<j<k; empty dict iff Lie."""
    return dict(_jacobi_terms(*_letter_operators(mu, scaled=False)))


def is_lie(mu):
    """Whether the Jacobi tensor vanishes, read off the scaled operators of
    a numeric table: J is homogeneous of degree 2 in mu, so scaling mu by N
    scales J by N^2 and keeps which entries vanish.  A table over "sym" has
    no scaled read and is read as it is."""
    ops = _letter_operators(mu, scaled=mu.field in (FIELD_Q, FIELD_QI))
    return next(_jacobi_terms(*ops), None) is None


def _jacobi_terms(n, table, right):
    """((i, j, l), J(e_i, e_j, e_l)) for each triple i < j < l where the
    cyclic sum of mu(mu(e_x, e_y), e_z) is nonzero, from the operators of
    ``_letter_operators``."""
    for i, j, l in Layout(n).triples:
        acc = [0] * n
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            # mu(mu(e_x, e_y), e_z)
            w = None if table[x][y] is None else _brv(right, n, table[x][y], z)
            if w is not None:
                acc = [a + b for a, b in zip(acc, w)]
        if any(acc):
            yield (i, j, l), acc


# -- left-nested words over the dense table ------------------------------------

# One word stream raises ResourceCapExceeded once the nonzero words its walk
# keeps, of all lengths, and the rows the split-word stream emits pass this
# many together, counted on one ``errors.Budget`` per stream
# (``_walk_budget``), or before extending a nonzero word past MAX_WALK_DEPTH
# letters (each letter is one nested generator frame, well below the
# interpreter's recursion limit).  On a nilpotent table every word of more
# than about twice the nilpotency index vanishes with its tangent.  The
# largest streams count 34,984 in the tests (the full dSN_5 stream of
# g_5(1,1) in a seeded basis), 343 in ``reproduce all`` and 6,326 in
# certbench (its full dSN_5 streams), and the chart generators (n >= 3
# letters, at most MAX_CHART_WORDS = n^(k+1) words of full length) at most
# 150,000.  At the non-nilpotent curve points the dSN_k stack walks its
# inner words over e_0, e_1: at g_5(1,1) ``exactness`` answers up to sn199
# (43,413 counted there), and at g_6(1,1) it stops at the cap from sn15, in
# about 1.5 s.
MAX_WALK_NODES = 200_000
MAX_WALK_DEPTH = 200


@lru_cache(maxsize=None)
class Layout:
    """Index bookkeeping for the cochain spaces of an n-dimensional algebra."""

    def __init__(self, n):
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.triples = [
            (i, j, l)
            for i in range(n)
            for j in range(i + 1, n)
            for l in range(j + 1, n)
        ]
        self.dim1 = n * n
        self.dim2 = len(self.pairs) * n
        self.dim3 = len(self.triples) * n
        # sigma[p][q]: (first column of the pair {p, q}, sign of sigma(e_p, e_q)),
        # None on the diagonal; coordinate k of sigma(e_p, e_q) is column first + k
        self.sigma = [[None] * n for _ in range(n)]
        for t, (i, j) in enumerate(self.pairs):
            self.sigma[i][j] = (t * n, 1)
            self.sigma[j][i] = (t * n, -1)


def _letter_operators(mu, scaled):
    """The bracket table, read once: (n, table, right).

    table[p][q] is mu(e_p, e_q) as a length-n list, or None when it is
    zero; right[b] lists (p, [(m, w), ...]) for every nonzero mu(e_p, e_b),
    p ascending, with its nonzero coefficients w of e_m.  Since
    mu(e_b, e_p) = -mu(e_p, e_b), right[b] read with the signs flipped is
    the left operator mu(e_b, .).  J, d1, d2, the words, their derivatives
    and the series read the coefficients here and nowhere else.
    scaled=True multiplies every entry by one global integer, which is
    legitimate anywhere a uniform per-row scale is (rank, kernel, whether J
    vanishes); the scaled entries are ints, and QIs with int parts where
    they are not real.  The scaled read is the ``ops`` of the table's kept
    entry (``_entry``), so a certificate builds it once for its guard,
    picker and streams; it is shared and read-only.  The unscaled read is
    built on every call: a Q(i) twin of a rational table is equal to it but
    holds QIs where it holds Fractions, and a kept entry would hand one
    table the other's values.  Scaled, both are the same ints.
    """
    return _entry(mu).ops if scaled else _read_operators(mu, scaled=False)


# The most reduced stacks one entry keeps, the first kept first out.
STACKS_PER_ENTRY = 3


class _Entry:
    """A table's kept parts: ``ops``, its scaled letter operators, and,
    filled on first use by ``cohomology``, ``letters`` (the ``_Generators``
    of ``_adapted``), ``image`` (Im d1) and ``stacks`` (the reduced stacks
    by (kind, k))."""

    __slots__ = ("ops", "letters", "image", "stacks")

    def __init__(self, ops):
        self.ops, self.letters, self.image, self.stacks = ops, None, None, {}


@lru_cache(maxsize=16)
def _entry(mu):
    """The ``_Entry`` of each of the last sixteen tables, keyed by content
    (n and the brackets, not the name or the field: a Q(i) table of real
    values reads, scaled, as the ints of its Q twin).  A table that
    ``h2_knil`` is given makes none: ``_adapted`` reads it."""
    return _Entry(_read_operators(mu, scaled=True))


def _read_operators(mu, scaled):
    """``_letter_operators`` without the memo; only it, ``_entry`` and
    ``_adapted_form`` call this.  A table over "sym" has no scaled read,
    since its coefficients are polynomials, not numbers to clear of
    denominators; every certificate, change of basis and series reads the
    scaled operators, so each refuses such a table here, with NotNumeric."""
    if scaled and mu.field not in (FIELD_Q, FIELD_QI):
        raise NotNumeric('a table over polynomials (field "sym") has no numeric read;'
                         ' evaluate the family at a point first')
    n = mu.n
    keys = [(i, j, k) for (i, j), coeffs in mu.c.items() for k in coeffs]
    vals = [mu.c[i, j][k] for i, j, k in keys]
    if scaled:
        vals = int_cleared(vals)
    table = [[None] * n for _ in range(n)]
    for (i, j, k), v in zip(keys, vals):
        if table[i][j] is None:
            table[i][j], table[j][i] = [0] * n, [0] * n
        table[i][j][k] = v
        table[j][i][k] = -v
    right = [[] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            if table[p][q] is not None:
                right[q].append((p, [(m, w) for m, w in enumerate(table[p][q]) if w]))
    return n, table, right


def _brv(right, n, v, b):
    """mu(v, e_b) for a dense vector v, through the right operators; None
    when zero."""
    out = None
    for p, terms in right[b]:
        co = v[p]
        if co:
            if out is None:
                out = [0] * n
            for m, w in terms:
                out[m] = out[m] + co * w
    if out is not None and any(out):
        return out
    return None


def _brvv(right, n, x, y):
    """mu(x, y) for two dense vectors, through the right operators over the
    nonzero y_q; None when zero."""
    out = None
    for q, cq in enumerate(y):
        if not cq:
            continue
        for p, terms in right[q]:
            cp = x[p]
            if cp:
                if out is None:
                    out = [0] * n
                co = cp * cq
                for m, w in terms:
                    out[m] = out[m] + co * w
    if out is not None and any(out):
        return out
    return None


def _add_sigma(rows, sig, n):
    """Add a sigma term, given as sig = [(first column, value), ...], to a
    tangent kept by output row, {m: {column: value}}: each value at column
    first + s of row s, for every s.  Entries that cancel are dropped; a row
    may be left empty."""
    for s in range(n):
        acc = rows.get(s)
        if acc is None:
            rows[s] = {col + s: co for col, co in sig}
        else:
            for col, co in sig:
                y = acc.get(col + s, 0) + co
                if y:
                    acc[col + s] = y
                else:
                    del acc[col + s]


def _apply_to_rows(op, rows):
    """A linear map e_p -> sum w e_m, given as op = [(p, [(m, w), ...]), ...],
    applied to a tangent kept by output row, {p: {column: value}}: row m of
    the image is the sum of w * rows[p].  Entries that cancel are dropped;
    a row may be left empty."""
    out = {}
    for p, terms in op:
        row = rows.get(p)
        if row is not None:
            for m, w in terms:
                acc = out.get(m)
                if acc is None:
                    out[m] = {c: w * x for c, x in row.items()}
                else:
                    for c, x in row.items():
                        y = acc.get(c, 0) + w * x
                        if y:
                            acc[c] = y
                        else:
                            del acc[c]
    return out


def _walk_budget():
    """The counter of one word stream's kept words and split-word rows."""
    n = MAX_WALK_NODES
    return Budget(n, f"the word walk counted more than {n} nonzero words and rows")


def walk_words(right, length, lay=None, least_first=False, letters=None, budget=None, _half=False):
    """Left-nested words [..[[e_a1, e_a2], e_a3].., e_aL] of ``length`` letters.

    ``right`` is the right operator list of ``_letter_operators``, of length n.
    Depth-first over the letters, so a shared prefix is evaluated once, and a
    branch is pruned as soon as its value and its tangent both vanish.
    Yields (index, value, tangent) for every word left: the index has the
    base-n digits a1..aL, the value is a dense vector or None when zero.
    With a Layout the tangent is the derivative of the word at mu along a
    2-cochain sigma, stored by output row as {m: {sigma column: value}}
    without zeros: exactly the rows the derivative streams emit.  It is
    carried forward as T <- mu(T, e_b) + sigma(v, e_b): row m' of the new
    tangent gathers w * T[p] over the nonzero coefficients w of e_m' in
    mu(e_p, e_b), plus the entry v[p] at the column of sigma(e_p, e_b) in
    coordinate m'.  Without a Layout it stays {} (values only).

    With a Layout (the derivative row streams) or ``_half`` (the chart
    generators) only the words with a1 < a2 are walked; otherwise (the
    tensors ``n_k`` and ``sn_k``) every word is.  Value and tangent are
    antisymmetric in (a1, a2), as mu and sigma are, so the word at
    (a2, a1, ...) is exactly minus the one at (a1, a2, ...) and the word at
    a1 = a2 is zero.

    With ``least_first`` (given only with a Layout) only the words whose
    first letter is their least one are walked: a1 < a2 and
    a1 <= a3, ..., aL.  The left-normed brackets [y_1, y_s(2), ..., y_s(L)]
    of L distinct letters that start with y_1 form a basis of the
    multilinear part of degree L of the free Lie algebra (Reutenauer, *Free
    Lie Algebras*, 1993, ch. 5), so every left-normed word in distinct
    letters is a fixed integer combination of those that start with its
    least letter, modulo antisymmetry and the Jacobi identity.  Substituting
    basis letters, repeats allowed, for the y's keeps such an identity.  At
    a Lie point mu the Jacobi terms vanish, and their derivatives along
    sigma are d2(sigma) at some vectors, mapped by brackets with mu: they
    lie in the span of the d2 rows.  So the least-first word rows span,
    together with the d2 rows and not alone, what every word row spans.
    This is valid only in a stack that holds the d2 rows; the generator
    lists and the public row streams walk every word.

    With ``letters`` (basis indices; None for all n) only the words whose
    letters all lie in that set are walked, in the same order.  What such a
    restriction keeps is one lemma.  Let mu be a Lie bracket, S a set of
    basis indices whose e_s generate g as a Lie algebra, so that every
    element is a combination of bracket monomials in them, and sigma a
    2-cochain with d2(sigma) = 0; under mu_e = mu + e sigma the Jacobiator
    is O(e^2), as mu satisfies Jacobi and its first-order part is
    d2(sigma).  Let W be N_k, the left-normed word of k + 1 letters, or
    SN_k, mu(mu(x_1, x_2), w) with w the left-normed inner word of the
    last k - 1 letters, and let W vanish on all of g at mu.  The walked
    word is the whole word for N_k and w for SN_k.  Write D for the
    derivative of W at mu along sigma, the first-order part in e of W
    under mu_e.  Claim: if D vanishes whenever every letter of the walked
    word is an e_s, it vanishes everywhere.  D is multilinear, so it is
    enough to take each walked letter a bracket monomial in the e_s (the
    leading pair of SN_k arbitrary), and to induct on the total bracket
    depth of the walked letters.  At depth 0 every one is an e_s.
    Otherwise one is mu(y, z), with y and z of smaller depth.
    - mu(y, z) = mu_e(y, z) - e sigma(y, z).  The first-order part of the
      e term is W at mu with sigma(y, z) in that place: 0.
    - With mu_e(y, z) in that place the walked word is, up to O(e^2), a
      difference of two left-normed words [w'', t] of one more letter, t
      the last, and the letters of w'' have a smaller total depth.  If
      the letter is the walked word's only one (SN_2), it is [y, z]
      itself.  Otherwise, by antisymmetry in the first two letters, it is
      not the first; with P the word of the letters before it,
      mu_e(P, mu_e(y, z)) = mu_e(mu_e(P, y), z) - mu_e(mu_e(P, z), y) plus
      the Jacobiator at (P, y, z), and the later letters are linear
      brackets on the right.
    - N_k: the first-order part of mu_e(w'', t) is mu(D(w''), t) +
      sigma(N_k(w''), t), where N_k(w'') = 0 at mu and D(w'') = 0 by
      induction.
    - SN_k, with u = mu_e(x_1, x_2): up to O(e^2), by Jacobi again,
      mu_e(u, [w'', t]) = mu_e(mu_e(u, w''), t) - mu_e(mu_e(u, t), w'').
      The first-order part of the first term is mu(D(x_1, x_2; w''), t)
      plus sigma of a value of SN_k at mu: 0 by induction.  The second is
      the sum over i, j of u_i t_j mu_e(mu_e(e_i, e_j), w''), whose
      first-order part is the sum of u_i t_j D(e_i, e_j; w'') at mu plus
      values of SN_k at mu: 0 by induction, which covers every leading
      pair.  That arbitrary pair is why the leading pair keeps every
      letter.
    So for sigma in Ker d2 the S-letter word rows vanish only where every
    word row does: beside the d2 rows they span every word row, and a stack
    keeps its reduced rows.  The least-first restriction keeps the letters
    of a word, so both restrictions hold together.  For N_k, S is
    ``k_step_generators``: at a k-step point g is nilpotent, and e_s that
    span g modulo g^1 = mu(g, g) generate it; or the letters ``_adapted``
    proved to generate g, the same picks there.  For SN_k, S is
    ``split_generators``, which extends those picks at a point that is not
    nilpotent.  The proof needs W(mu) = 0: where W does not vanish, the
    value terms remain and the restricted rows can span less.

    The walk charges each nonzero word it keeps, of any length, to
    ``budget`` (a fresh ``_walk_budget()`` when not given; the split-word
    stream passes its own and charges its rows to it too), which raises
    ResourceCapExceeded past MAX_WALK_NODES; the walk also raises it before
    going deeper than MAX_WALK_DEPTH letters.  A word whose value and
    tangent never vanish (on a table that is not nilpotent) would otherwise
    run without bound, and each letter is one nested generator frame.
    """

    n = len(right)
    # atoms[b]: (p, first column of the pair {p, b}, sign of sigma(e_p, e_b))
    atoms = None if lay is None else [
        [(p, *lay.sigma[p][b]) for p in range(n) if p != b] for b in range(n)
    ]
    alphabet = range(n) if letters is None else sorted(letters)
    from_letter = [[b for b in alphabet if b >= lo] for lo in range(n + 1)]
    if budget is None:
        budget = _walk_budget()

    def extend(index, depth, v, tangent):
        if depth == 1:
            lo = index + 1 if lay is not None or _half else 0
        else:
            lo = index // n ** (depth - 1) if least_first else 0
        for b in from_letter[lo]:
            t2 = _apply_to_rows(right[b], tangent) if tangent else {}
            if lay is not None and v is not None:
                # sigma(v, e_b): v[p] at column pair(p, b) * n + s of row s
                sig = [(col, v[p] if sgn > 0 else -v[p]) for p, col, sgn in atoms[b] if v[p]]
                if sig:
                    _add_sigma(t2, sig, n)
            t2 = {m: row for m, row in t2.items() if row}
            v2 = None if v is None else _brv(right, n, v, b)
            if t2 or v2 is not None:
                budget.charge()
                if depth + 1 == length:
                    yield index * n + b, v2, t2
                elif depth + 1 >= MAX_WALK_DEPTH:
                    raise ResourceCapExceeded(
                        f"the word walk reached {MAX_WALK_DEPTH} letters without vanishing"
                    )
                else:
                    yield from extend(index * n + b, depth + 1, v2, t2)

    for a in alphabet:
        if length == 1:
            yield a, _unit(n, a), {}
        else:
            yield from extend(a, 1, _unit(n, a), {})


def _letters(index, n, length):
    """The letters a1..aL of a word: the base-n digits of its index."""
    return tuple(index // n ** (length - 1 - p) % n for p in range(length))


def n_k(mu, k):
    """Left-nested bracket tensor: nonzero values on basis (k+1)-tuples.

    Empty dict means the whole tensor vanishes; together with Jacobi that is
    membership in the k-step nilpotent variety.
    """
    return _word_tensor(mu, k, split=False)


def sn_k(mu, k):
    """Tensor mu(mu(x1,x2), N_{k-2}(x3..x_{k+1})) on basis tuples, k >= 2.

    k = 2 takes the inner word to be the identity, so the tensor coincides
    with the left-nested 3-letter one; k >= 3 is the usual split word.
    """
    return _word_tensor(mu, k, split=True)


def _word_tensor(mu, k, split, half=False):
    """``sn_k`` when ``split``, else ``n_k``; with ``half`` only on the
    tuples with x1 < x2, which give the rest: both tensors are antisymmetric
    in (x1, x2)."""
    if k < 1 + split:
        raise ValueError(f"k must be >= {1 + split}")
    n, table, right = _letter_operators(mu, scaled=False)
    if not split:
        return {_letters(i, n, k + 1): v for i, v, _ in walk_words(right, k + 1, _half=half)}
    tails = [(_letters(t, n, k - 1), b) for t, b, _ in walk_words(right, k - 1)]
    out = {}
    for i in range(n):
        for j in range(i + 1 if half else 0, n):
            a = table[i][j]
            if a is None:
                continue
            for tail, bvec in tails:
                w = _brvv(right, n, a, bvec)
                if w is not None:
                    out[(i, j) + tail] = w
    return out


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


# -- series ---------------------------------------------------------------------


def lower_central_series(mu):
    """g^0 = g, g^i = [g^{i-1}, g]; stops at 0 or at stabilization.

    Each term is a RowBasis: its ``rank`` is the dimension and its
    ``basis_rows()`` the reduced row echelon form, each row primitive.
    """
    if not is_lie(mu):
        raise NotLieAlgebra("lower central series needs the Jacobi identity")
    return _series(mu)


def _series(mu, derived=False):
    """The lower central or the derived series, without the Jacobi check.

    Each term is spanned by mu(u, e_b) (lower central) or mu(u, v) (derived)
    over the retained rows u, v of the previous one's RowBasis, taken on the
    dense table cleared of denominators, so over Q and Q(i) alike the
    brackets are of ints and Gaussian integers.  For any bilinear bracket
    each term lies in the one before, so an equal rank means stabilization.
    """
    n, _, right = _letter_operators(mu, scaled=True)
    rows = [_unit(n, i) for i in range(n)]
    series = [reduce_rows(rows, n)]
    while rows:
        if derived:
            brackets = (_brvv(right, n, u, v) for i, u in enumerate(rows) for v in rows[i + 1:])
        else:
            brackets = (_brv(right, n, u, b) for u in rows for b in range(n))
        basis = reduce_rows((w for w in brackets if w is not None), n)
        if basis.rank == len(rows):
            break
        rows = basis.basis_rows()
        series.append(basis)
    return series


def _generators(mu, series):
    """Basis indices S whose e_s generate g as a Lie algebra, ascending.

    ``series`` is the lower central series of mu (``_series``).  First e_s
    is taken when it is independent of g^1 and of the e_s taken before it.
    At a nilpotent point those n - dim g^1 picks generate g.  Only where
    the series does not reach 0 is S extended, by each e_j, in turn, that
    lies outside the subalgebra the picks so far generate, which is closed
    under the bracket as it grows.
    """
    n = mu.n
    nilpotent = not series[-1].rank
    span = series[min(1, len(series) - 1)]
    picks = [s for s in range(n) if span.add({s: 1})]
    if nilpotent:
        return tuple(picks)
    _, _, right = _letter_operators(mu, scaled=True)
    sub = reduce_rows((), n)
    kept = []  # the vectors added to sub, each outside the span of those before

    def take(u):
        """Add u to sub, closing sub under the bracket; True iff u was outside."""
        if not sub.add({i: x for i, x in enumerate(u) if x}):
            return False
        brackets = [w for x in kept if (w := _brvv(right, n, u, x)) is not None]
        kept.append(u)
        for w in brackets:
            take(w)
        return True

    for s in picks:
        take(_unit(n, s))
    return tuple(j for j in range(n) if j in picks or take(_unit(n, j)))


def k_step_generators(mu, k):
    """Basis indices S whose e_s span g modulo g^1 when N_k(mu) = 0, else None.

    For any bilinear bracket g^k is spanned by the left-nested (k+1)-letter
    words, so N_k = 0 iff g^k = 0; Jacobi is not assumed.  Then g is
    nilpotent and S, from ``_generators``, has n - dim g^1 elements and
    generates g.  One lower central series serves both answers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    series = _series(mu)
    if series[min(k, len(series) - 1)].rank:
        return None
    return _generators(mu, series)


def split_generators(mu, k):
    """Basis indices S whose e_s generate g when SN_k(mu) = 0, else None.

    The leading pairs mu(x1, x2) span g^1 and the inner words span g^{k-2}
    (g^0 = g), so SN_k = 0 iff mu(g^1, g^{k-2}) = 0, decided by the lower
    central series in polynomial time.  Jacobi is not assumed: g^i lies in
    g^{i-1} for any bilinear bracket, so once the series stops its last
    term stands for every later one.  The retained rows are brackets on
    the table cleared of denominators, so they are bracketed on that table
    too: a uniform scale does not change which brackets vanish.  S comes
    from ``_generators`` on the same series.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    series = _series(mu)
    last = len(series) - 1
    n, _, right = _letter_operators(mu, scaled=True)
    inner = series[min(k - 2, last)].basis_rows()
    for u in series[min(1, last)].basis_rows():
        if any(_brvv(right, n, u, v) is not None for v in inner):
            return None
    return _generators(mu, series)


def nil_index(mu):
    """Minimal i with g^i = 0, or None for a non-nilpotent algebra."""
    series = lower_central_series(mu)
    if series[-1].rank == 0:
        return len(series) - 1
    return None


def derived_series(mu):
    """g^(0) = g, g^(i) = [g^(i-1), g^(i-1)]; stops at 0 or stabilization."""
    if not is_lie(mu):
        raise NotLieAlgebra("derived series needs the Jacobi identity")
    return _series(mu, derived=True)


def solvable_length(mu):
    series = derived_series(mu)
    if series[-1].rank == 0:
        return len(series) - 1
    return None


# -- basis change and constructions ----------------------------------------------


def _square(m, n, field):
    """``m`` (rows, or an ExactMatrix) as an n x n ExactMatrix over ``field``,
    or over Q(i) if it has a Gaussian entry."""
    if not isinstance(m, ExactMatrix):
        if any(isinstance(v, QI) for row in m for v in row):
            field = FIELD_QI
        m = ExactMatrix.from_dense(m, field)
    if (m.nrows, m.ncols) != (n, n):
        raise DimensionMismatch("basis matrix must be n x n")
    return m


def _transport(mu, vectors):
    """(brackets, scale): the brackets of mu in the basis ``vectors`` (n dense
    vectors of ints, Fractions or QIs), each times the positive int
    ``scale``, as {(i, j): {k: value}} of ints and Gaussian integers; None
    when the vectors are dependent.  The transport of ``table_in_basis``.

    Fraction-free.  The vectors are cleared of denominators by one factor
    D, into b_0..b_{n-1}, the rows [b_j | e_j] are reduced once
    (``linalg._integral_inverse``), and ``_written`` writes the scaled
    operators (s mu, ints) in the basis b, den times.  In the basis b mu is
    D times its table in the basis ``vectors``, so scale = den * s * D.
    """
    n, _, right = _letter_operators(mu, scaled=True)
    flat = [x for v in vectors for x in v]
    cleared = int_cleared(flat)
    basis = [cleared[t * n:(t + 1) * n] for t in range(n)]
    form = _integral_inverse(basis, n)
    if form is None:
        return None
    s = _denominator(v for row in mu.c.values() for v in row.values())
    return _written(right, n, basis, form, {}), form[1] * s * _denominator(flat)


def _written(right, n, basis, form, known):
    """The brackets of the scaled operators ``right`` in ``basis``, n
    independent dense vectors b_0..b_{n-1} of ints and Gaussian integers,
    each times den, as {(i, j): {k: value}} over i < j, zeros dropped.  The
    one writer of a table in a new basis, for ``_transport`` and
    ``_adapted_form``.

    ``form`` is (inv, den) of the matrix of rows b_j
    (``linalg._read_inverse``): row m of inv holds den times the
    coordinates of e_m in the basis b.  Each bracket of two basis vectors is
    read off the operators by ``_brvv`` and written in the basis b by
    summing those rows; a pair in ``known`` is written as the row it maps
    to, with no product."""
    coords = form[0]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = known.get((i, j))
            if row is None:
                w = _brvv(right, n, basis[i], basis[j])
                if w is None:
                    continue
                row = {}
                for m, x in enumerate(w):
                    if x:
                        for k, y in coords[m].items():
                            row[k] = row.get(k, 0) + x * y
                row = {k: v for k, v in row.items() if v}
            if row:
                brackets[(i, j)] = row
    return brackets


class _Generators(tuple):
    """Letters that ``_adapted`` proved to generate its table, where N_k = 0
    is not yet decided: the dN_k stream over them decides it."""

    __slots__ = ()


def _adapted(mu):
    """(nu, letters): mu in a basis built from its generators, times a
    positive integer, when that table has fewer structure constants than
    mu, else mu itself, the caller's object; and the ``_Generators`` of nu,
    or None where none are proved.  Kept by ``_adapted_form``.

    g^1 is the span of the nonzero mu(e_i, e_j), and S the indices whose e_s
    are independent of g^1 and of the e_s before them, as ``_generators``
    picks them.  Layer 0 is the e_s; each later layer holds the brackets
    mu(u, e_s) of the last layer's vectors u with the letters s of S, each
    kept when it is independent of every vector kept before it.  All of it
    is read off the scaled operators, so the vectors are of ints and
    Gaussian integers.

    At a nilpotent Lie point there are n kept vectors.  The e_s span g
    modulo g^1, so they generate g, and every element of g is a
    combination of left-normed words in them.  By induction on t, the
    vectors kept up to layer t span every left-normed S-word of t + 1
    letters: such a word is mu(w, e_s) with w of t letters, a combination
    of vectors u kept up to layer t - 1; each mu(u, e_s) was offered to a
    layer up to t, and was kept there or lay in the span of the vectors
    kept before it.  The last layer keeps nothing, so the kept vectors span
    every S-word, hence g, and are independent.  Wherever n vectors are
    kept, the S-words span g, so the letters S (in the new basis the first
    |S| vectors) generate it; at a nilpotent Lie point they are the picks
    of ``k_step_generators``, as g^1 is the span of the later layers.

    Fewer than n means the point is not nilpotent, or not Lie: mu is
    returned, with no letters, and ``cohomology._stack`` refuses it as it
    would any such point.  At n vectors ``_adapted_form`` writes mu in them,
    and a dependent basis there is a fault of this routine: RuntimeError.
    The basis and a uniform scale change neither Jacobi, nor N_k = 0, nor
    the ranks that a certificate reads (z and b are invariants, and d1, d2
    and dN_k are homogeneous in mu).
    """
    nu, letters = _adapted_form(mu)
    return (mu if nu is None else nu), letters


@lru_cache(maxsize=16)
def _adapted_form(mu):
    """``_adapted`` of each of the last sixteen tables, keyed by content,
    with None for a table that keeps its basis, so that a hit on an equal
    table hands back no other object.  It makes no entry for mu.

    One echelon over 2n columns both chooses the basis and inverts it.
    Each vector offered, a letter e_s or a bracket w = mu(b_a, e_s), enters
    it once, as the row [w | e_t] with t the number of vectors kept so far,
    and is kept as b_t when its residue leads below n: the residue's first
    n entries are w less a combination of b_0..b_{t-1}, zero exactly when w
    is one.  The layers are walked breadth first, b_a in the order kept,
    until n are kept.  The rows kept are those of [B | I], B of rows b_t,
    so the echelon is the one ``linalg._integral_inverse`` would reduce,
    and ``linalg._read_inverse`` reads (inv, den) off it; pivots other than
    0..n-1 are the fault.  A bracket mu(b_a, b_i) that made b_t (b_i = e_s,
    the i-th letter) is den e_t in the new basis, written with no product
    (``_written``), and the table is built only when it has fewer
    structure constants than mu.
    """
    n, table, right = _read_operators(mu, scaled=True)
    g1 = reduce_rows((table[i][j] for i in range(n) for j in range(i + 1, n)
                     if table[i][j] is not None), n)
    letters = [s for s in range(n) if g1.add({s: 1})]
    echelon = reduce_rows(({s: 1, n + t: 1} for t, s in enumerate(letters)), 2 * n)
    basis = [_unit(n, s) for s in letters]
    made = {}  # (a, i) -> t, for b_t = mu(b_a, e_s), s the i-th letter
    a = 0
    while a < len(basis) < n:
        for i, s in enumerate(letters):
            w = _brv(right, n, basis[a], s)
            if w is None:
                continue
            t = len(basis)
            if echelon.add({**{c: x for c, x in enumerate(w) if x}, n + t: 1}, n):
                made[a, i] = t
                basis.append(w)
                if t + 1 == n:
                    break
        a += 1
    if len(basis) < n:
        return None, None
    form = _read_inverse(echelon, n)
    if form is None:
        raise RuntimeError("the basis built from the generators is dependent")
    den = form[1]
    known = {(min(a, i), max(a, i)): {t: den if a < i else -den} for (a, i), t in made.items()}
    brackets = _written(right, n, basis, form, known)
    if sum(map(len, brackets.values())) < sum(map(len, mu.c.values())):
        return StructureConstants(n, brackets), _Generators(range(len(letters)))
    return None, _Generators(letters)


def change_basis(mu, g):
    """The bracket g . mu : (x, y) -> g(mu(g^{-1}x, g^{-1}y)).

    ``g`` is an n x n matrix (rows, or an ExactMatrix) over Q or Q(i); the
    result is over Q(i) when either the algebra or ``g`` is.  Raises
    SingularMatrix when ``g`` is not invertible.  It is mu in the basis of
    the columns of g^{-1} (``table_in_basis``).
    """
    n = mu.n
    inv = inverse(_square(g, n, mu.field))
    return table_in_basis(mu, [[inv.entries.get((r, c), 0) for r in range(n)] for c in range(n)])


def table_in_basis(mu, vectors):
    """Structure table of mu written in the new basis ``vectors``.

    Equivalent to change_basis(mu, V^{-1}) where V has the new basis vectors
    as columns; this is the form every isomorphism witness uses.  Over Q(i)
    when mu is or a vector has a Gaussian entry; raises SingularMatrix when
    the vectors are dependent.  The fraction-free ``_transport`` divided by
    its scale.
    """
    n = mu.n
    if len(vectors) != n:
        raise DimensionMismatch(f"need {n} basis vectors")
    v = _square([[x[r] for x in vectors] for r in range(n)], n, mu.field)
    form = _transport(mu, [[v.entries.get((r, c), 0) for r in range(n)] for c in range(n)])
    if form is None:
        raise SingularMatrix("matrix is not invertible")
    brackets, scale = form
    field = join_fields(mu.field, v.field)
    exact = {pair: {k: promote(x, field) / scale for k, x in row.items()}
             for pair, row in brackets.items()}
    return StructureConstants(n, exact, field)


def semidirect_by_derivation(mu, d_rows):
    """Adjoin a generator acting by the derivation D: [e_0, x] = D x.

    D is checked against the derivation identity for mu, read off the
    Jacobi tensor of the extension on the triples through e_0:
    J(e_0, e_i, e_j) = [De_i, e_j] + [e_i, De_j] - D[e_i, e_j].  The Jacobi
    identity of mu itself is not checked.
    """
    n = mu.n
    d = [list(row) for row in d_rows]
    if len(d) != n or any(len(r) != n for r in d):
        raise DimensionMismatch("derivation matrix must be n x n")
    brackets = {}
    for (i, j), coeffs in mu.c.items():
        brackets[(i + 1, j + 1)] = {k + 1: v for k, v in coeffs.items()}
    for p in range(n):
        col = {q + 1: d[q][p] for q in range(n) if d[q][p]}
        if col:
            brackets[(0, p + 1)] = col
    ext = StructureConstants(n + 1, brackets, mu.field)
    for z, i, j in jacobi(ext):
        if z == 0:
            raise NotDerivation(f"matrix is not a derivation (fails on e_{i - 1}, e_{j - 1})")
    return ext


def heisenberg(m, name=None):
    """(2m+1)-dimensional Heisenberg: [x_i, y_i] = z, basis x1,y1,..,xm,ym,z."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m + 1
    brackets = {(2 * i, 2 * i + 1): {n - 1: 1} for i in range(m)}
    return StructureConstants(n, brackets, name=name or f"h_{m}")


def heisenberg_extension(m):
    """R D |x h_m for the shift derivation D x_i = x_{i+1}, D y_i = -y_{i-1}."""
    h = heisenberg(m)
    n = h.n
    d = [[0] * n for _ in range(n)]
    for i in range(1, m):  # x_i -> x_{i+1}
        d[2 * i][2 * (i - 1)] = 1
    for i in range(2, m + 1):  # y_i -> -y_{i-1}
        d[2 * (i - 2) + 1][2 * (i - 1) + 1] = -1
    return semidirect_by_derivation(h, d)
