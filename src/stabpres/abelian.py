"""The abelianized side of the theorem.

Everything here runs over Python's arbitrary-precision integers, and
every Smith form comes from the one dense elimination in `linalg`.
Invariant factors (homology, presentation abelianization) first go
through `linalg`'s sparse unit-pivot pass, so the dense elimination sees
only what that pass leaves: nothing for the boundary maps of Sd^2(f3).
Homology hands that pass d2 as the sparse rows `complexes.d2_rows`
builds, so it allocates no dense matrix.  `AbelianizedWords` needs the
Smith basis, so it uses the dense, tracked `smith_normal_form`.

The relator side never spells out `P.relators`: the conj rule's words
a b a^-1 c^-1 abelianise to e_b - e_c, so it reads the explicit words
and one two-letter word b c^-1 per rule element and letter b
(`_abelian_words`), and `_contracted_relations` unions the letters of
every such word, as of the colimit's orbit and edge words, without
forming an exponent vector:

  homology_invariants      simplicial H1/H2: the Smith diagonal of d2,
                           and rank d1 from the component count
  group_abelianization     G/[G,G], [G,G] the normal closure of [s, t],
                           split off one cyclic factor of largest order
                           at a time
  presentation_abelianization   coker of the relator exponent matrix,
                           after contracting generator identifications
  AbelianizedWords         stabilizer words mapped into that cokernel
  colimit_H1               G-coinvariants of the direct sum of stabilizer
                           H1's over X, modulo edge identifications
  is_simply_connected      pi1 trivial (coset enumeration)
  is_two_connected         pi1 trivial and H2 = 0, its rank from V - E + T

The headline identity the package certifies on the abelian side is
colimit_H1(A, Q) == group_abelianization(G).
"""

from __future__ import annotations

from itertools import chain, count

from .actions import close_under_product
from .complexes import d2_rows
from .errors import Disconnected, MalformedInput
from .linalg import _eye, invariant_factors, smith_normal_form, sparse_invariant_factors
from .presentation import _conjugation_steps, _find, _local_words, pi1_presentation, todd_coxeter
from .record import Record

PI1_BOUND = 10_000


class AbelianInvariants(Record):
    """A finitely generated abelian group, canonically Z^rank + sum Z/d_i
    with d_1 | d_2 | ... and every d_i > 1."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion):
        if not all(d > 1 for d in torsion):
            raise MalformedInput(f"torsion factors must exceed 1, got {torsion}")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise MalformedInput(f"torsion {torsion} is not a divisibility chain")
        self._set("rank", rank)
        self._set("torsion", torsion)

    @classmethod
    def from_relation_matrix(cls, rows, n_columns):
        """Invariants of Z^n modulo the row lattice."""
        diag = invariant_factors(rows)
        return cls(n_columns - len(diag), tuple(d for d in diag if d != 1))

    def order(self):
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def homology_invariants(K, k):
    """H_k of the complex (k = 1 or 2) as AbelianInvariants.

    Only d2 is eliminated, built as sparse rows (`d2_rows`), so no dense
    matrix is allocated.  H1 = ker d1 / im d2: its torsion is read from
    the Smith diagonal of d2, and rank d1 = |V| - components because the
    image of d1 is the augmentation kernel of each component.  H2 is
    ker d2, free because there are no 3-cells.
    """
    if k not in (1, 2):
        raise ValueError(f"homology degree {k} not supported (use 1 or 2)")
    diag2 = sparse_invariant_factors(d2_rows(K))
    if k == 1:
        rank_d1 = len(K.vertices) - K.components()
        return AbelianInvariants(
            len(K.edges) - rank_d1 - len(diag2), tuple(d for d in diag2 if d > 1)
        )
    return AbelianInvariants(len(K.triangles) - len(diag2), ())


def group_abelianization(G):
    """G/[G,G] split into cyclic factors, independent of any presentation
    and of the Smith machinery.  It multiplies permutations directly and
    reads no product memo (`PermGroup.product`), so the oracle stays
    independent of the memo the colimit side is built with.

    In a finite abelian group a cyclic subgroup of largest order is a
    direct summand, so its order is the largest invariant factor and the
    other factors are those of the quotient by it.  Starting from
    N = [G,G], each round takes the first element g whose order modulo N
    is largest, records that order and replaces N by N<g> (the products
    n g^k), until N = G; the recorded orders, last first, are the
    invariant factors.
    """
    N = _derived_subgroup(G)
    orders = []
    while len(N) < G.order():
        top, best = 1, None
        for g in G.elements:
            o, p = 1, g
            while p not in N:
                p = p * g
                o += 1
            if o > top:
                top, best = o, g
        layer = N
        for _ in range(top - 1):
            layer = {n * best for n in layer}
            N |= layer
        orders.append(top)
    return AbelianInvariants(0, tuple(reversed(orders)))


def _derived_subgroup(G):
    """[G,G], the normal closure of the commutators [s, t] of G's generators."""
    gens = [(s, s.inverse()) for s in G.generators]
    normal = {s * t * si * ti for s, si in gens for t, ti in gens}
    while True:
        derived = set(close_under_product(G.domain, normal))
        new = {s * x * si for s, si in gens for x in normal} - derived
        if not new:
            return derived
        normal |= new


def _contracted_relations(words, n):
    """The exponent matrix of relator words of letter codes over n
    generators, with its trivial part contracted.

    Rows of the shape e_i - e_j just identify generators (union-find),
    and duplicate rows collapse; the contraction is an isomorphism of the
    cokernel.  A two-letter word x y^-1 or x^-1 y is such a row (or zero),
    so its letters are unioned with no exponent vector formed; every
    other word's vector is summed and classified.  Each class is rooted
    at its least generator, so the result does not depend on the order
    of the words.  Returns (rows, column, width): the sorted distinct
    nonzero rows, the column of each generator, and the column count.
    """
    parent = list(range(n))

    def union(i, j):
        a, b = _find(parent, i), _find(parent, j)
        if a != b:
            parent[max(a, b)] = min(a, b)

    rest = []
    for word in words:
        if len(word) == 2 and (word[0] ^ word[1]) & 1:
            union(word[0] >> 1, word[1] >> 1)
            continue
        vec = {}
        for x in word:
            vec[x >> 1] = vec.get(x >> 1, 0) + (-1 if x & 1 else 1)
        vec = {i: c for i, c in vec.items() if c}
        if sorted(vec.values()) == [-1, 1]:
            union(*vec)
        elif vec:
            rest.append(vec)

    classes = sorted({_find(parent, i) for i in range(n)})
    col_of = {c: j for j, c in enumerate(classes)}
    column = [col_of[_find(parent, i)] for i in range(n)]
    dedup = set()
    for vec in rest:
        row = [0] * len(classes)
        for i, c in vec.items():
            row[column[i]] += c
        if any(row):
            dedup.add(tuple(row))
    return [list(r) for r in sorted(dedup)], column, len(classes)


def _abelian_words(P):
    """Words of letter codes with the same exponent rows as P's relators,
    up to zero and repeated rows: the explicit words, and for each
    distinct element g of the conj rule and each letter b, the word
    b c^-1 of the rule row of g.  Every conj word a b a^-1 c^-1, a = g@v,
    abelianises to e_b - e_c whatever v is, and the skipped pairs have
    c = b, zero rows; so `P.relators` is never spelled out."""
    rule = P.conj
    pairs = (
        (b, c_inv)
        for g in dict.fromkeys(rule.element)
        for b, c_inv in zip(count(0, 2), rule.conjugate[g])
    )
    return chain((r.word for r in P.explicit), pairs)


def presentation_abelianization(P):
    """Invariants of the presented group's abelianization: the cokernel
    of the contracted relator exponent matrix."""
    rows, _, width = _contracted_relations(_abelian_words(P), len(P.generators))
    return AbelianInvariants.from_relation_matrix(rows, width)


class AbelianizedWords:
    """Canonical images of stabilizer words in the presented group's
    abelianization; two words agree there iff their images are equal.

    Images are coordinates in the Smith basis of the contracted relator
    matrix, each reduced modulo its invariant factor.
    """

    def __init__(self, P):
        self.P = P
        rows, self.column, width = _contracted_relations(_abelian_words(P), len(P.generators))
        if rows:
            S, _, V = smith_normal_form(rows)
            self.V = V
            self.diag = [S[i][i] for i in range(min(len(rows), width))]
        else:
            self.V = _eye(width)
            self.diag = []

    def exponent_vector(self, word):
        vec = [0] * len(self.V)
        for i in self.P.letter_indices(word):
            vec[self.column[i]] += 1
        return vec

    def image(self, word):
        vec = self.exponent_vector(word)
        n = len(vec)
        out = []
        for j in range(n):
            y = sum(vec[i] * self.V[i][j] for i in range(n))
            d = self.diag[j] if j < len(self.diag) else 0
            out.append(y % d if d else y)
        return tuple(out)


def colimit_H1(A, Q):
    """H1 of the stabilizer colimit: the G-coinvariants of the direct sum
    of H1(G_v) over every vertex v of X, modulo the edge identifications.

    The letters and the `edge` words are the presentation's own
    (`_local_words`), and of its `mult` words only the s . h . (sh)^-1
    with s in S_v, a generating set of G_v, which present G_v as the
    full table does, so the cokernel is the same.  One orbit word h@v .
    (s h s^-1)@s(v)^-1 per letter and generator s of G gives the
    coinvariants, as x - (st)x is (x - tx) + (y - sy) with y = tx; orbit
    words need not hold in G.  They are read off the build's generator
    rows (`presentation._conjugation_steps`), which conjugate once per
    generator and distinct letter element.  The contraction unions the
    letters of every edge and orbit word, each of the two-letter shape
    x y^-1, and drops zero and repeated rows, so no normaliser runs.  Q
    is not read; it stays in the signature for existing callers, the
    benchmark among them.
    """
    letters, code_of, local = _local_words(A, spanning=True)
    steps = _conjugation_steps(A.group, code_of)
    orbit = ((a, step[a + 1]) for _, step in steps for a in range(0, 2 * len(letters), 2))
    words = chain((word for word, _ in local), orbit)
    rows, _, width = _contracted_relations(words, len(letters))
    return AbelianInvariants.from_relation_matrix(rows, width)


class TwoConnectedResult(Record):
    __slots__ = ("verdict", "witness")

    def __init__(self, verdict, witness=""):
        self._set("verdict", verdict)  # "yes" | "no" | "unknown"
        self._set("witness", witness)

    def __bool__(self):
        return self.verdict == "yes"


def is_simply_connected(K, bound=PI1_BOUND):
    """Is the complex nonempty and connected with pi1 = 1?

    pi1 is checked by coset enumeration on the edge-path presentation
    (Unknown if it exhausts the bound); building it finds a disconnection.
    """
    if not K.vertices:
        return TwoConnectedResult("no", "empty complex")
    try:
        P = pi1_presentation(K, min(K.vertices))
    except Disconnected:
        return TwoConnectedResult("no", "not connected")
    T = todd_coxeter(P, max_cosets=bound)
    if T.status != "complete":
        return TwoConnectedResult("unknown", f"pi1 enumeration exhausted {bound} cosets")
    if T.order != 1:
        return TwoConnectedResult("no", f"pi1 has order {T.order}")
    return TwoConnectedResult("yes")


def is_two_connected(K, bound=PI1_BOUND):
    """Is the complex simply connected with H2 = 0?

    H2 = 0 via Hurewicz stands in for pi2 once pi1 is trivial.  Then H0 =
    Z and H1 = 0, and H2 = ker d2 is free (no 3-cells), so V - E + T =
    1 + rank H2, and no matrix is eliminated.
    """
    verdict = is_simply_connected(K, bound)
    if not verdict:
        return verdict
    rank = len(K.vertices) - len(K.edges) + len(K.triangles) - 1
    if rank:
        return TwoConnectedResult("no", f"H2 = {AbelianInvariants(rank, ())}")
    return TwoConnectedResult("yes")
