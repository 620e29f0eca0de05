"""The canonical presentation of an acting group, and coset enumeration.

Generators: one `StabilizerLetter` g@v per vertex v and nonidentity
element g fixing v, the letter type of the expression words, so words
trace through coset tables and abelianized images letter by letter.
Relators come in three families; `abelian.colimit_H1` reuses the edge
words and the mult words whose g lies in a generating set of G_v:

  mult  g@v . h@v . (gh)@v^-1          (per-vertex multiplication tables)
  edge  g@u . g@w^-1                   (u-w an edge, g fixing both ends)
  conj  g@v . h@w . g@v^-1 . (ghg^-1)@g(w)^-1   (all ordered vertex pairs)

A relator is a word of letter codes: code x is generator x >> 1,
inverted when x & 1 is set, so x ^ 1 is its inverse and x is the
letter's `todd_coxeter` column; letters are spelled only on output.  A
`Presentation` holds the mult and edge words as `Relator`s, and the conj
family, most relators (f3: 13,335 of 13,995), as a `ConjRule`.
`todd_coxeter` takes a Tietze step and enumerates over R' of the
relators R, R less each conj relator whose a or b is not the root of
its Tietze class (f3: 2,263 of 13,995).  It enumerates the cosets of H,
the subgroup that the letters at v* generate, v* the least vertex with
the most letters, when P's mult words close those letters under
products, so that |H| <= h, their count plus 1; otherwise H is trivial
and h = 1.  Every entry of a complete HLT table comes from H's letters
fixing coset 0, a definition, a deduction or a coincidence, so each of
its n labels is a coset H . w of Gamma(R'), the labels are closed under
every letter and so hold every coset of H, and the table bounds
|Gamma(R')| by n . h with no relator checked at every coset.  When
n . h is |G| (the rule's element count), `todd_coxeter` returns that
table; otherwise HLT scans on until every relator closes at every
label, so n is the exact index of H.  `verify_theorem` psi-checks all
of R, the rule once per element row by conjugation composed along G's
generators (by sg is by g, then s), and that psi is onto, so |G| <=
|Gamma(R)| <= |Gamma(R')| <= n . h = |G|: Gamma(R) is a quotient of
Gamma(R'), and the presented group is the acting group.  A table from
another presentation is refused.

`pi1_presentation` is the classical edge-path presentation of the
fundamental group (generators: edges off a spanning tree; relators:
triangle boundaries less their tree edges, cyclically reduced and
distinct by construction), fed as built to the same enumerator.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property, reduce
from itertools import chain, count, product

from .armstrong import StabilizerLetter, armstrong_express, psi_evaluate
from .complexes import _discoveries, simplex
from .errors import (
    CertificateFailed,
    Disconnected,
    PreconditionUnvalidated,
    UnknownSymbol,
    UnknownVertex,
)
from .actions import edge_stabilizer
from .record import Record

DEFAULT_MAX_COSETS = 10**6


class EdgeSymbol(Record):
    """A fundamental-group generator: an off-tree edge, crossed low-to-high."""

    __slots__ = ("edge",)

    def __init__(self, edge):
        self._set("edge", edge)

    @property
    def name(self):
        return f"{self.edge[0]}-{self.edge[1]}"


class Relator(Record):
    """A word of letter codes: code x is generator x >> 1, inverted when
    x & 1 is set."""

    __slots__ = ("word", "tag")

    def __init__(self, word, tag):
        self._set("word", word)  # int codes in range(2 * generator count); x ^ 1 inverts x
        self._set("tag", tag)  # "mult" | "edge" | "conj" | "tri"


class ConjRule(Record):
    """The `conj` relators a b a^-1 c^-1, one per ordered pair of letters
    a = g@v and b = h@w but the pairs `skip` lists for a; c is the letter
    (ghg^-1)@g(w), and `conjugate[g]` lists the code of c^-1 for each b.

    The skips are the words the tests' reference normaliser drops: b = a,
    whose word reduces to nothing, and b < a with c = b (g fixes w, gh =
    hg) and h fixing v, whose word inverts the earlier word of (b, a).
    No other rotation or inversion keeps the sign pattern ++--."""

    __slots__ = ("element", "conjugate", "skip")

    def __init__(self, element=(), conjugate=(), skip=()):
        self._set("element", element)  # the element number g of each letter g@v, by generator
        self._set("conjugate", conjugate)  # by element number g: c^-1's code for each b, or None
        self._set("skip", skip)  # by letter a: the codes b of the pairs left out

    def __len__(self):
        return len(self.element) ** 2 - sum(map(len, self.skip))


class Presentation(Record):
    """Generators, the relators held as `Relator`s, then the `conj` rule's.
    `len`, `counts_by_tag`, `relator_words` and `verify_theorem` read the
    rule as it is; only `relators` spells out every relator."""

    def __init__(self, generators, explicit, conj=ConjRule()):  # explicit: of Relator
        n = len(generators)
        # elements and letter codes index lists and table rows, where a negative
        # one would wrap around and anything but an int would fail deep inside
        known, elements = range(len(conj.conjugate)), dict.fromkeys(conj.element)
        rows = [conj.conjugate[g] if type(g) is int and g in known else None for g in elements]
        if None in rows or (
            conj.element and {len(conj.element), len(conj.skip), *map(len, rows)} != {n}
        ):
            raise ValueError("a conj rule needs one entry per generator")
        letters = tuple(chain(chain.from_iterable(r.word for r in explicit), *rows, *conj.skip))
        codes = range(2 * n)
        if not (set(map(type, letters)) <= {int} and set(letters) <= set(codes)):
            raise UnknownSymbol(next(x for x in letters if type(x) is not int or x not in codes))
        self._set("generators", generators)
        self._set("explicit", explicit)
        self._set("conj", conj)

    def __len__(self):
        return len(self.explicit) + len(self.conj)

    @cached_property
    def relators(self):
        """Every relator in order: the explicit ones, then the rule's by
        letter a, then by letter b."""
        rule = self.conj
        conj = (
            Relator((a, b, a + 1, c_inv), "conj")
            for a, g, skip in zip(count(0, 2), rule.element, rule.skip)
            for b, c_inv in zip(count(0, 2), rule.conjugate[g])
            if b not in skip
        )
        return self.explicit + tuple(conj)

    def relator_words(self, image, roots):
        """The distinct words image[x1] .. image[xn] of the relators x1 .. xn
        of R', in the order of their first relator: every relator but each
        conj relator a b a^-1 c^-1 with a or b not in the set `roots`.  An
        explicit relator tagged conj is read the same way, by its first two
        letters.  No rule word of a pair outside `roots` is formed."""
        words = dict.fromkeys(
            tuple(map(image.__getitem__, r.word))
            for r in self.explicit
            if r.tag != "conj" or roots.issuperset(r.word[:2])
        )
        rule = self.conj
        kept = [a for a in range(0, 2 * len(rule.element), 2) if a in roots]
        for a in kept:
            skip, row = rule.skip[a >> 1], rule.conjugate[rule.element[a >> 1]]
            x, x_inv = image[a], image[a + 1]
            for b in kept:
                if b not in skip:
                    words[x, image[b], x_inv, image[row[b >> 1]]] = None
        return words

    @cached_property
    def gen_index(self):
        return {s: i for i, s in enumerate(self.generators)}

    def letter_indices(self, word):
        """The generator indices of a stabilizer word's nonidentity letters."""
        try:
            return [self.gen_index[letter] for letter in word.normalize().letters]
        except KeyError as exc:
            raise UnknownSymbol(exc.args[0]) from None

    def counts_by_tag(self):
        counts = Counter(r.tag for r in self.explicit)
        counts["conj"] += len(self.conj)
        return {tag: n for tag, n in counts.items() if n}

    def to_text(self):
        names = [s.name for s in self.generators]
        spelled = [name + inverse for name in names for inverse in ("", "^-1")]
        rels = ", ".join(" ".join(map(spelled.__getitem__, r.word)) for r in self.relators)
        return f"< {', '.join(names)} | {rels} >"

    def to_json_obj(self):
        names = [s.name for s in self.generators]
        return {
            "generators": names,
            "relators": [
                {"tag": r.tag, "word": [[names[x >> 1], -1 if x & 1 else 1] for x in r.word]}
                for r in self.relators
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)


def _local_words(A, spanning=False):
    """The letters g@v of a validated action in generator order, the
    letter code 2i of each keyed by (v, number of g), and an iterator
    over its tagged `mult` and `edge` words of letter codes: the
    relators that hold within one vertex or edge stabilizer.

    The `mult` words at v are s@v . h@v . (sh)@v^-1, or s@v . h@v when
    sh = 1, for each letter h at v and each left factor s: every letter
    at v, or with `spanning` those of S_v, each letter at v not in the
    subgroup the earlier ones generate, in element-number order.  Left
    multiplication by s permutes G_v and S_v generates G_v, so either
    family presents G_v on these letters.  A word s . s^-1 is emitted
    only for s no later than s^-1, as its other order is a rotation of
    it; each s of S_v is, as an earlier s^-1 would have spanned s."""
    if not A.validated_without_rotations:
        raise PreconditionUnvalidated("action must be validated without rotations")
    G = A.group
    stab = {v: [G.number[g] for g in s[1:]] for v, s in G.stabilizers.items()}
    letters = []
    code_of = {}
    for v in A.complex.sorted_vertices:
        for g in stab[v]:
            code_of[v, g] = 2 * len(letters)
            letters.append(StabilizerLetter(G.elements[g], v))

    def generating_set(elements):  # S_v, greedily
        chosen, span = [], {0}  # element 0 is the identity
        for g in elements:
            if g not in span:
                # Dimino: <H, g>, H the span, is the union of the cosets H r,
                # r reached from g by right multiplication by chosen elements
                chosen.append(g)
                subgroup, reps = [h for h in span if h], [g]
                for r in reps:
                    if r not in span:
                        span.add(r)
                        span.update(G.product(h, r) for h in subgroup)
                        reps += (rs for s in chosen if (rs := G.product(r, s)) not in span)
        return chosen

    def words():
        for v in A.complex.sorted_vertices:
            left = generating_set(stab[v]) if spanning else stab[v]
            for g, h in product(left, stab[v]):
                k = G.product(g, h)
                if k:
                    yield (code_of[v, g], code_of[v, h], code_of[v, k] + 1), "mult"
                elif g <= h:
                    yield (code_of[v, g], code_of[v, h]), "mult"

        for u, w in A.complex.sorted_edges:
            for g in edge_stabilizer(A, (u, w))[1:]:
                # legal precisely because pointwise = setwise stabilizers here
                i = G.number[g]
                yield (code_of[u, i], code_of[w, i] + 1), "edge"

    return tuple(letters), code_of, words()


def build_presentation(A, Q):
    """The stabilizer presentation of a validated action: the `mult` and
    `edge` words of `_local_words` as `Relator`s, then the `conj` family
    as a `ConjRule`.

    Conjugation by g acts on the letters, h@w -> (ghg^-1)@g(w), and sg
    acts as s after g.  So only each generator s's row is conjugated out
    with `G.product`; every other element's row is s's composed with its
    parent's in a breadth-first search of G from the identity, and only
    the rows of letter elements are kept.

    The words are freely reduced and distinct up to rotation and
    inversion, so none is dropped.  A mult word has the signs ++- or
    ++, and an edge word +-; only the identity rotation keeps those, and
    inversion keeps +- only for the reversed edge, never emitted.  So the
    one coincidence is g@v . g^-1@v and its rotation, which
    `_local_words` emits once; the conj skips are the rule's.  Relators
    are not evaluated here: `verify_theorem` psi-checks them.
    """
    generators, code_of, local = _local_words(A)
    G = A.group
    letters = list(code_of)  # (v, g) of each letter g@v, in generator order
    element = tuple(g for _, g in letters)
    elements = dict.fromkeys(element)
    steps = []  # (s, its row of c^-1 codes, indexed by b^-1's code) per generator s
    for x in G.generators:
        s = G.number[x]
        k = {h: G.product(G.product(s, h), G.inverse_of[s]) for h in elements}
        step = [None] * 2 * len(letters)
        step[1::2] = (code_of[x(w), k[h]] + 1 for w, h in letters)
        steps.append((s, step))
    rows = {0: tuple(range(1, 2 * len(letters), 2))}  # the identity's
    queue = [0]
    for g in queue:
        for s, step in steps:
            if (sg := G.product(s, g)) not in rows:
                rows[sg] = tuple(map(step.__getitem__, rows[g]))
                queue.append(sg)
    conjugate = tuple(rows[g] if g in elements else None for g in range(G.order()))
    # g -> the codes b = h@w with c = b: g fixes w, gh = hg
    fixed = {g: [b for b, c in zip(count(0, 2), conjugate[g]) if b + 1 == c] for g in elements}
    skip = tuple(
        tuple(b for b in fixed[g] if b == a or (b < a and (v, element[b >> 1]) in code_of))
        for a, (v, g) in zip(count(0, 2), letters)
    )
    rule = ConjRule(element, conjugate, skip)
    return Presentation(generators, tuple(Relator(word, tag) for word, tag in local), rule)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the largest vertex stabilizer's letters


class CosetTable(Record):
    """Compacted (not standardized) table of the enumerated `presentation`
    over the cosets of the subgroup H that the `subgroup` generators
    generate (trivial when there are none), live cosets in index order,
    coset 0 being H; row[x] is the image under letter code x, so row[2i]
    is the gen-i image and row[2i+1] its inverse.

    A complete table's order is n . h, its label count n times h, the
    subgroup's letters plus 1 (so n for the trivial subgroup): an upper
    bound on the order of the group R' presents.  For a rule presentation
    with n . h = |G|, where HLT stops early, it is exact once psi is
    onto, which `verify_theorem` checks; otherwise HLT scanned every
    label, and n is the exact index of H."""

    __slots__ = ("presentation", "table", "status", "order", "bound", "subgroup")

    def __init__(self, presentation, table, status, order=None, bound=None, subgroup=()):
        self._set("presentation", presentation)
        self._set("table", table)
        self._set("status", status)  # "complete" | "exhausted"
        self._set("order", order)  # n . h when complete
        self._set("bound", bound)  # the max_cosets hit when exhausted
        self._set("subgroup", subgroup)  # the generator indices fixing coset 0: H's letters

    def trace(self, coset, word):
        """Follow a word of letter codes, the relator shape, through the
        table: code x is column x."""
        table = self.table
        for x in word:
            coset = table[coset][x]
        return coset


def _find(parent, x):
    """The root of x in the union-find forest `parent`, halving its path;
    which nodes are roots does not change.  The package's one find."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


class _CosetBoundHit(Exception):
    """Raised by `todd_coxeter`'s define step when max_cosets is reached."""


def _stabilizer_subgroup(P):
    """The generator indices of the letters at v*, the least vertex among
    those with the most letters, when every generator of P is a
    `StabilizerLetter` and P's explicit words close those letters L under
    products; otherwise ().

    Closed means every ordered pair (a, b) of L has a word a b c^-1 with c
    in L, or a word a b or b a.  Then L and 1 are closed under products
    in the presented group, so they are the subgroup H that L generates,
    and |H| <= |L| + 1.  Explicit words tagged conj are not counted: R'
    may leave them out."""
    generators = P.generators
    if not generators or not all(isinstance(s, StabilizerLetter) for s in generators):
        return ()
    letters = Counter(s.vertex for s in generators)
    most = max(letters.values())
    star = min(v for v, k in letters.items() if k == most)
    at = {2 * i for i, s in enumerate(generators) if s.vertex == star}
    covered = set()
    for r in P.explicit:
        w = r.word
        if r.tag != "conj" and len(w) in (2, 3) and w[0] in at and w[1] in at:
            if len(w) == 2:
                covered.update((w, w[::-1]))
            elif w[2] ^ 1 in at:
                covered.add(w[:2])
    return tuple(x >> 1 for x in sorted(at)) if len(covered) == len(at) ** 2 else ()


def todd_coxeter(P, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of H in the presented group: H is generated by
    the letters at the vertex `_stabilizer_subgroup` names, when P's
    words close them under products, and is trivial otherwise.

    Returns a CosetTable with status "complete" (order = n . h, the label
    count n times h, H's letters plus 1; see below) or "exhausted" (more
    than max_cosets cosets of H would be needed).

    A Tietze step runs first: a relator x y of two generators says
    y = x^-1, so one pass over the two-letter relators unions such
    generators and maps every letter code to a compact code of its
    class's root, its earliest letter.  R' is the relators R of P less
    each conj relator a b a^-1 c^-1 whose a or b is not a root; Gamma(R)
    is a quotient of Gamma(R').  HLT (scan every word at each live coset,
    then fill its row) runs over the compact codes, on the distinct
    mapped words of R' in the order of their first relator, less those
    that map to c c^-1; once every live row is full the table is
    complete, and HLT may stop there (see below).  The table is then
    compacted, and every column must be a permutation.  Coset 0 starts
    with each of H's letters defined as fixing it (HLT with subgroup
    generators: Neubüser 1982; Holt, Eick and O'Brien 2005, ch. 5).

    The lemma (Todd and Coxeter 1936; Neubüser 1982): every entry of that
    table came from H's letters fixing coset 0, a definition, a deduction
    from a word of R', or a coincidence, so label k is the coset H . w_k
    of a word w_k and each entry k . x = m holds in Gamma(R').  The
    labels hold H and are closed under every letter and its inverse, so
    they hold every coset of H, and |Gamma(R')| <= n . |H| <= n . h,
    whether or not every word closes at every label.  The table is
    returned as it is when n . h = |G|, the rule's element count
    (`build_presentation` writes one rule row per element number): psi
    onto G with psi(R) = 1, which `verify_theorem` checks, gives |G| <=
    |Gamma(R)| <= |Gamma(R')| <= n . h, so the table is G acting on the
    cosets of a subgroup of order h, on which every word of R' closes.
    Fullness is checked before each row is scanned, so when H's seeded
    row 0 is full and h = |G| it is returned with no word of R' formed.

    Otherwise, presentations without a rule (pi1) and counts that are not
    |G| included, HLT scans on over the rows it has not processed.  Every
    row is full, so no coset is defined; a word that fails to close is a
    coincidence.  Once the last row is passed every word closes at every
    live coset (Neubüser 1982), so the table is the complete one's
    quotient by the least congruence under which every word closes, each
    class named by its least coset, and n is the exact index of H.

    The table copies each compact column to every letter mapped to it,
    so it has a column per letter code of P.
    """
    # equal[x]: a letter code equal to x, of an earlier generator unless x
    # is its class's root; the roots of x and x ^ 1 are always inverse
    equal = list(range(2 * len(P.generators)))
    for r in P.explicit:  # every rule word has four letters
        if len(r.word) == 2:
            x, y = r.word
            a, b = sorted((_find(equal, x), _find(equal, y ^ 1)))  # x y = 1, so x = y^-1
            if a >> 1 != b >> 1:
                equal[b], equal[b ^ 1] = a, a ^ 1
    compact = {}  # root generator -> compact generator index
    code = []  # letter code -> compact code
    for x in range(len(equal)):
        a = _find(equal, x)
        code.append(2 * compact.setdefault(a >> 1, len(compact)) + (a & 1))
    width = 2 * len(compact)

    subgroup = _stabilizer_subgroup(P)
    h = len(subgroup) + 1  # the bound on |H|; 1 for the trivial subgroup
    table = [[-1] * width]
    parent = [0]
    for i in subgroup:  # H fixes coset 0
        x = code[2 * i]
        table[0][x] = table[0][x ^ 1] = 0

    def define(alpha, x):
        if len(table) >= max_cosets:
            raise _CosetBoundHit
        beta = len(table)
        table.append([-1] * width)
        parent.append(beta)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha

    def merge(a, b, queue):
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            mu, nu = (a, b) if a < b else (b, a)
            parent[nu] = mu
            queue.append(nu)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            row = table[gamma]
            for x in range(width):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][x ^ 1] = -1
                mu = _find(parent, gamma)
                nu = _find(parent, delta)
                if table[mu][x] != -1:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] != -1:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(alpha, word):
        f = alpha
        b = alpha
        i = 0
        j = len(word) - 1
        while True:
            while i <= j and table[f][word[i]] != -1:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] != -1:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    alpha = 0
    full = 0  # every live row below `full` is full; None once HLT scans on
    rels = None  # the words of R', formed before the first scan
    try:
        while alpha < len(table):
            if full is not None:
                # processed rows stay full under coincidences, so the table
                # is complete once every live row from alpha on is full
                full = max(full, alpha)
                while full < len(table) and (parent[full] != full or -1 not in table[full]):
                    full += 1
                if full == len(table):
                    # the lemma: at n . h = |G| the table is returned as it
                    # is, the seeded row 0 too; at any other count every live
                    # row is scanned, so n is exact
                    if sum(k == p for k, p in enumerate(parent)) * h == len(P.conj.conjugate):
                        break
                    full = None
            if parent[alpha] != alpha:
                alpha += 1
                continue
            if rels is None:
                words = P.relator_words(code, {x for x, y in enumerate(equal) if x == y})
                rels = [w for w in words if len(w) != 2 or w[0] != w[1] ^ 1]
            for w in rels:
                # most words already close at alpha: trace forward, and
                # scan and fill only a trace that stops or ends elsewhere
                f = alpha
                for x in w:
                    f = table[f][x]
                    if f < 0:
                        break
                if f != alpha:
                    scan_and_fill(alpha, w)
                    if parent[alpha] != alpha:
                        break
            if parent[alpha] == alpha:
                for x in range(width):
                    if table[alpha][x] == -1:
                        define(alpha, x)
            alpha += 1
    except _CosetBoundHit:
        return CosetTable(P, (), "exhausted", bound=max_cosets, subgroup=subgroup)

    live = [k for k, p in enumerate(parent) if k == p]
    renumber = {k: i for i, k in enumerate(live)}
    final = tuple(
        tuple(-1 if c == -1 else renumber[_find(parent, c)] for c in table[k]) for k in live
    )
    identity = list(range(len(live)))
    for col in set(zip(*final)):  # sorted to 0..n-1, so no entry is undefined or dangling
        if sorted(col) != identity:
            raise AssertionError("generator column is not a permutation")
    full_width = tuple(tuple(map(row.__getitem__, code)) for row in final)
    return CosetTable(P, full_width, "complete", order=len(final) * h, subgroup=subgroup)


def word_to_coset(T, w):
    """Trace a stabilizer word from coset 0, H, to the row of its coset
    H . w; identity letters contribute nothing.  Words for one element
    land on one row, and a letter of H lands on coset 0."""
    if T.status != "complete":
        raise PreconditionUnvalidated("coset table is not complete")
    return T.trace(0, (2 * i for i in T.presentation.letter_indices(w)))


class TheoremCertificate(Record):
    __slots__ = ("checks", "group_order", "enumerated_order")

    def __init__(self, checks, group_order, enumerated_order):
        self._set("checks", checks)  # of (name, detail) in pass order
        self._set("group_order", group_order)
        self._set("enumerated_order", enumerated_order)

    def to_json_obj(self):
        return {
            "checks": [{"name": n, "detail": d} for n, d in self.checks],
            "group_order": self.group_order,
            "enumerated_order": self.enumerated_order,
        }


def verify_theorem(A, Q, P, T):
    """Certify that the presented group is the acting group.

    (i) every relator of P, all of R, psi-evaluates to the identity, (ii)
    the enumeration completed with order exactly |G|, from this
    presentation, (iii) every group element is hit by the expression
    procedure (psi is onto).  Raises CertificateFailed on the first
    violation, else returns the certificate.

    A complete table of R' from `todd_coxeter` with order n . h = |G|
    bounds |Gamma(R')|, and so its quotient |Gamma(R)|, by |G|; by (i)
    and (iii) psi maps Gamma(R) onto G, so Gamma(R) = G.  The bound is
    the lemma of `todd_coxeter`: n labels of cosets of a subgroup of
    order at most h, whether or not every label was scanned, which it is
    not when n . h is |G|.  So (ii) refuses any order but |G| and any
    table from another presentation, and (i) and (iii) are what make the
    bound exact.

    Checks (i) and (iii) fold element numbers.  A word is 1 exactly when
    its prefix folds to its last letter's inverse, which closes each
    distinct explicit word.  A rule word g h g^-1 c^-1 is 1 exactly when
    c^-1 is g h^-1 g^-1: conjugation is taken with `G.product` for G's
    generators s only, and composed for sg as for g, then s, breadth-first
    over G, so each distinct (g, rule row) is compared with no product.
    Only when a word or row fails, or a generator is not a letter of G,
    are the relators walked in order, naming the first failing relator.
    """
    G = A.group
    checks = []
    # the element number of each letter code: g, then g^-1, per generator (None off G)
    numbers = []
    for s in P.generators:
        g = G.number.get(s.element) if isinstance(s, StabilizerLetter) else None
        numbers += (g, None) if g is None else (g, G.inverse_of[g])
    product, inverse_of, rule = G.product, G.inverse_of, P.conj

    def fold(word):  # the element number of a word of element numbers
        return reduce(product, word) if word else 0  # the identity is 0

    def closes(word):  # the prefix folds to the last letter's inverse
        return not word or fold(word[:-1]) == inverse_of[word[-1]]

    def rows_hold():
        # conj[g]: g h^-1 g^-1, the value of c^-1, at each letter b = h@w;
        # n stands for any element that is not a letter's, and never matches
        n, letters, steps = G.order(), dict.fromkeys(numbers), []
        for x in G.generators:
            s = G.number[x]
            step = [n] * (n + 1)
            for y in letters:
                step[y] = product(product(s, y), inverse_of[s])
            steps.append((s, step))
        conj, queue = {0: tuple(numbers[1::2])}, [0]
        for g in queue:  # breadth-first: conj_sg is conj_s after conj_g
            for s, step in steps:
                if (sg := product(s, g)) not in conj:
                    conj[sg] = tuple(map(step.__getitem__, conj[g]))
                    queue.append(sg)
        return all(
            tuple(map(numbers.__getitem__, rule.conjugate[e])) == conj[g]
            for g, e in dict.fromkeys(zip(numbers[::2], rule.element))
        )

    explicit = {tuple(map(numbers.__getitem__, r.word)) for r in P.explicit}
    if None in numbers or not all(map(closes, explicit)) or not rows_hold():
        for r in P.relators:  # name the first failing relator, in relator order
            values = [numbers[x] for x in r.word]
            if None in values:
                x = r.word[values.index(None)]
                detail = f"letter {P.generators[x >> 1].name} is not an element of the acting group"
            elif acc := fold(values):
                detail = f"{r.tag} relator evaluates to {G.elements[acc].cycle_string()}"
            else:
                continue
            raise CertificateFailed("relators_psi_identity", detail)
    checks.append(("relators_psi_identity", f"{len(P)} relators"))

    if T.status != "complete":
        raise CertificateFailed("enumeration_complete", f"status {T.status}")
    checks.append(("enumeration_complete", f"order {T.order}"))

    order = G.order()
    if T.order != order:
        raise CertificateFailed(
            "order_matches", f"enumerated {T.order}, group order {order}"
        )
    E = T.presentation
    if E != P:
        raise CertificateFailed(
            "order_matches",
            f"table enumerated from another presentation ({len(E.generators)} generators, "
            f"{len(E)} relators; certifying {len(P.generators)}, {len(P)})",
        )
    checks.append(("order_matches", f"{order}"))

    basepoint = min(A.complex.vertices)
    for i, g in enumerate(G.elements):
        word = armstrong_express(A, Q, basepoint, g)
        values = [G.number.get(letter.element) for letter in word.letters]
        if None in values or fold(values) != i:
            value = psi_evaluate(word, G.identity)  # composed only to name a failure
            if value != g:
                raise CertificateFailed(
                    "psi_surjective",
                    f"expression of {g.cycle_string()} evaluates to {value.cycle_string()}",
                )
    checks.append(("psi_surjective", f"all {order} elements expressed"))

    return TheoremCertificate(tuple(checks), order, T.order)


# ---------------------------------------------------------------------------
# Edge-path presentation of the fundamental group


def pi1_presentation(K, basepoint):
    """Spanning-tree presentation of pi1(K, basepoint).

    The tree is the parents of `find_path`'s unseeded search from the
    basepoint.  Generators: non-tree edges (crossing low vertex to high).
    Relators: triangle boundary words with tree edges deleted, used as
    they are.  None is empty (tree edges close no cycle) or reduces (a
    triangle's edges are distinct generators), and no two agree up to
    rotation and inversion: abc and abd with only ab off-tree would make
    a-c-b-d-a a cycle of tree edges.
    """
    if basepoint not in K.vertices:
        raise UnknownVertex(basepoint)
    parent = {}
    for _ in _discoveries(K.adjacency, basepoint, parent):
        pass
    if len(parent) != len(K.vertices):
        raise Disconnected(basepoint, min(K.vertices - parent.keys()))
    tree = {simplex((v, w)) for w, v in parent.items() if v is not None}

    generators = tuple(EdgeSymbol(e) for e in K.sorted_edges if e not in tree)
    code_of = {s.edge: 2 * i for i, s in enumerate(generators)}

    def step(u, w):
        e = simplex((u, w))
        if e in tree:
            return None
        return code_of[e] + ((u, w) != e)

    relators = (
        Relator(tuple(s for s in (step(a, b), step(b, c), step(c, a)) if s is not None), "tri")
        for a, b, c in K.sorted_triangles
    )
    return Presentation(generators, tuple(relators))
