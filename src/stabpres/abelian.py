"""Integer linear algebra and the abelianized side of the theorem.

Everything here runs over Python's arbitrary-precision integers; no
float ever appears.  One elimination computes every Smith form:
`invariant_factors` keeps only its positive diagonal, and
`smith_normal_form` also tracks the transforms and asserts U*M*V == S
and the diagonal divisibility chain on every call.  U and V are
products of elementary operations, so they are unimodular by
construction; that is recomputed by Bareiss for matrices small enough
to keep it cheap.  On top of it:

  homology_invariants      simplicial H1/H2: the Smith diagonal of d2,
                           and rank d1 from the component count
  group_abelianization     G/[G,G] by brute-force commutator closure
  presentation_abelianization   coker of the relator exponent matrix,
                           after contracting generator identifications
  AbelianizedWords         stabilizer words mapped into that cokernel
  colimit_H1               the edge-identified direct sum of stabilizer
                           H1's over the quotient 1-skeleton
  is_simply_connected      pi1 trivial (coset enumeration)
  is_two_connected         pi1 trivial and H2 = 0

The headline identity the package certifies on the abelian side is
colimit_H1(A, Q) == group_abelianization(G).
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import all_transporters, close_under_product, edge_stabilizer, stabilizer
from .complexes import simplex
from .errors import PreconditionUnvalidated
from .presentation import pi1_presentation, todd_coxeter

PI1_BOUND = 10_000


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    n = len(A)
    k = len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def det_bareiss(M):
    """Exact integer determinant by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


_BAREISS_LIMIT = 80


def _smith(M, track):
    """The Smith elimination: returns (S, U, V).

    S is M diagonalized over Z with a nonnegative divisibility chain on
    its diagonal.  With track, U and V are the transforms with
    U*M*V == S; without it they are None.  Both are built only from
    swaps, additions of a multiple of another row or column, and row
    negation, so they are unimodular.  Rows and columns before the pivot
    are already finished (zero off the diagonal), so the operations on S
    skip them.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(r) for r in M]
    U = _eye(m) if track else None
    V = _eye(n) if track else None
    t = 0

    def row_swap(a, b):
        if a != b:
            A[a], A[b] = A[b], A[a]
            if track:
                U[a], U[b] = U[b], U[a]

    def col_swap(a, b):
        if a != b:
            for i in range(t, m):
                row = A[i]
                row[a], row[b] = row[b], row[a]
            if track:
                for row in V:
                    row[a], row[b] = row[b], row[a]

    def row_add(dst, src, c):
        Ad, As = A[dst], A[src]
        for j in range(t, n):
            Ad[j] += c * As[j]
        if track:
            Ud, Us = U[dst], U[src]
            for j in range(m):
                Ud[j] += c * Us[j]

    def col_add(dst, src, c):
        for i in range(t, m):
            row = A[i]
            row[dst] += c * row[src]
        if track:
            for row in V:
                row[dst] += c * row[src]

    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = Ai[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # shrink until the pivot exactly divides its row and column
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    row_add(i, t, -q)
            At = A[t]
            for j in range(t + 1, n):
                q = At[j] // p
                if q:
                    col_add(j, t, -q)
            residue = None
            for i in range(t + 1, m):
                if A[i][t]:
                    residue = i
                    break
            if residue is not None:
                row_swap(t, residue)
                continue
            for j in range(t + 1, n):
                if At[j]:
                    residue = j
                    break
            if residue is not None:
                col_swap(t, residue)
                continue
            # pivot must divide the rest of the submatrix for the chain;
            # a unit always does
            if p == 1 or p == -1:
                break
            witness = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_add(t, witness, 1)
        if A[t][t] < 0:
            row_add(t, t, -2)  # negate the row: A[t] + (-2)A[t] = -A[t]
        t += 1
    return A, U, V


def smith_normal_form(M):
    """Diagonalize M over Z: returns (S, U, V) with U*M*V == S, U and V
    unimodular, and S's diagonal a divisibility chain d1 | d2 | ...

    U*M*V == S, the zero off-diagonal and the chain are asserted before
    returning.  Unimodularity holds by construction (see `_smith`); for
    matrices of at most _BAREISS_LIMIT rows and columns it is also
    recomputed by fraction-free elimination.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A, U, V = _smith(M, track=True)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert A[i][j] == 0, "SNF left off-diagonal residue"
    diag = [A[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0), "divisibility chain broken"
    assert matmul(matmul(U, [list(r) for r in M]), V) == A, "U*M*V != S"
    if max(m, n) <= _BAREISS_LIMIT:
        assert abs(det_bareiss(U)) == 1, "U not unimodular"
        assert abs(det_bareiss(V)) == 1, "V not unimodular"
    return A, U, V


def invariant_factors(M):
    """The positive diagonal of the Smith form (no transforms tracked);
    its length is the rank of M."""
    S = _smith(M, track=False)[0]
    return [row[i] for i, row in enumerate(S) if i < len(row) and row[i]]


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group, canonically Z^rank + sum Z/d_i
    with d_1 | d_2 | ... and every d_i > 1."""

    rank: int
    torsion: tuple

    def __post_init__(self):
        assert all(d > 1 for d in self.torsion)
        for a, b in zip(self.torsion, self.torsion[1:]):
            assert b % a == 0, "torsion not a divisibility chain"

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


def boundary_matrices(K):
    """(d1, d2): the edge->vertex and triangle->edge boundary maps with
    orientation signs from the sorted vertex order."""
    verts = K.sorted_vertices
    edges = K.sorted_edges
    tris = K.sorted_triangles
    v_index = {v: i for i, v in enumerate(verts)}
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in verts]
    for j, (u, w) in enumerate(edges):
        d1[v_index[u]][j] -= 1
        d1[v_index[w]][j] += 1
    d2 = [[0] * len(tris) for _ in edges]
    for j, (a, b, c) in enumerate(tris):
        d2[e_index[simplex((b, c))]][j] += 1
        d2[e_index[simplex((a, c))]][j] -= 1
        d2[e_index[simplex((a, b))]][j] += 1
    return d1, d2


def homology_invariants(K, k):
    """H_k of the complex (k = 1 or 2) as AbelianInvariants.

    Only d2 is eliminated.  H1 = ker d1 / im d2: its torsion is read from
    the Smith diagonal of d2, and rank d1 = |V| - components because the
    image of d1 is the augmentation kernel of each component.  H2 is
    ker d2, free because there are no 3-cells.
    """
    if k not in (1, 2):
        raise ValueError(f"homology degree {k} not supported (use 1 or 2)")
    diag2 = invariant_factors(boundary_matrices(K)[1])
    if k == 1:
        rank_d1 = len(K.vertices) - K.components()
        return AbelianInvariants(
            len(K.edges) - rank_d1 - len(diag2), tuple(d for d in diag2 if d > 1)
        )
    return AbelianInvariants(len(K.triangles) - len(diag2), ())


def group_abelianization(G):
    """G/[G,G] decomposed by element order statistics, independent of any
    presentation and of the Smith machinery.

    For each prime p the number of cosets killed by p^j determines the
    p-primary type (v_p of the count ratios is the conjugate partition);
    the primary types merge largest-with-largest into invariant factors.
    """
    elements = G.elements
    commutators = set()
    for g in elements:
        gi = g.inverse()
        for h in elements:
            commutators.add(g * h * gi * h.inverse())
    derived = set(close_under_product(G.domain, commutators))
    reps = []
    seen = set()
    for g in elements:
        if g in seen:
            continue
        reps.append(g)
        seen.update(g * d for d in derived)
    orders = []
    for g in reps:
        o = 1
        p = g
        while p not in derived:
            p = p * g
            o += 1
        orders.append(o)

    primary = {}
    for p in _prime_factors(len(reps)):
        mults = []  # mults[j-1] = number of cyclic p-factors of exponent >= j
        prev = 1
        j = 1
        while True:
            pj = p**j
            c = sum(1 for o in orders if pj % o == 0)
            if c == prev:
                break
            ratio, rem = divmod(c, prev)
            assert rem == 0
            m = 0
            while ratio > 1:
                assert ratio % p == 0
                ratio //= p
                m += 1
            mults.append(m)
            prev = c
            j += 1
        top = mults[0] if mults else 0
        primary[p] = [sum(1 for m in mults if m >= i) for i in range(1, top + 1)]

    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    return AbelianInvariants(0, tuple(reversed(factors)))


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _contracted_relations(P):
    """The relator exponent matrix with its trivial part contracted.

    Rows of the shape e_i - e_j just identify generators (union-find),
    and duplicate rows collapse; the contraction is an isomorphism of the
    cokernel.  Needed because the conjugation family is quadratic in the
    generator count.  Returns (rows, column, width): the sorted distinct
    nonzero rows, the column of each generator, and the column count.
    """
    n = len(P.generators)
    index = P.gen_index
    raw = []
    for r in P.relators:
        vec = {}
        for s, e in r.word:
            i = index[s]
            vec[i] = vec.get(i, 0) + e
        raw.append({i: c for i, c in vec.items() if c})

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rest = []
    for vec in raw:
        items = sorted(vec.items())
        if len(items) == 2 and {items[0][1], items[1][1]} == {1, -1}:
            a, b = find(items[0][0]), find(items[1][0])
            if a != b:
                parent[max(a, b)] = min(a, b)
            continue
        rest.append(vec)

    classes = sorted({find(i) for i in range(n)})
    col_of = {c: j for j, c in enumerate(classes)}
    column = [col_of[find(i)] for i in range(n)]
    dedup = set()
    for vec in rest:
        row = [0] * len(classes)
        for i, c in vec.items():
            row[column[i]] += c
        if any(row):
            dedup.add(tuple(row))
    return [list(r) for r in sorted(dedup)], column, len(classes)


def presentation_abelianization(P):
    """Invariants of the presented group's abelianization: the cokernel
    of the contracted relator exponent matrix."""
    rows, _, width = _contracted_relations(P)
    return AbelianInvariants.from_relation_matrix(rows, width)


class AbelianizedWords:
    """Canonical images of stabilizer words in the presented group's
    abelianization; two words agree there iff their images are equal.

    Images are coordinates in the Smith basis of the contracted relator
    matrix, each reduced modulo its invariant factor.
    """

    def __init__(self, P):
        self.P = P
        rows, self.column, width = _contracted_relations(P)
        if rows:
            S, _, V = smith_normal_form(rows)
            self.V = V
            self.diag = [S[i][i] for i in range(min(len(rows), width))]
        else:
            self.V = _eye(width)
            self.diag = []

    def exponent_vector(self, word):
        vec = [0] * len(self.V)
        for letter in word.normalize().letters:
            vec[self.column[self.P.gen_index[letter]]] += 1
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
    """H1 of the stabilizer colimit over the quotient's 1-skeleton.

    One block of generators per quotient vertex (all nonidentity elements
    of the canonical lift's stabilizer, with multiplication-table
    relations abelianized); for each quotient edge, the lifted edge
    stabilizer's images in both endpoint blocks are identified, after
    conjugating each endpoint to the canonical lift (inner automorphisms
    act trivially on H1, so the transporter choice is immaterial).
    """
    if not (A.validated_simplicial and A.validated_without_rotations):
        raise PreconditionUnvalidated("action must be validated without rotations")
    columns = []
    col_of = {}
    blocks = {}
    for qv in Q.quotient.sorted_vertices:
        lift = Q.lifts((qv,))[0][0]
        elems = stabilizer(A, lift)[1:]  # the identity comes first
        blocks[qv] = (lift, elems)
        for g in elems:
            col_of[(qv, g)] = len(columns)
            columns.append((qv, g))

    rows = []
    for qv, (lift, elems) in blocks.items():
        for g in elems:
            for h in elems:
                k = g * h
                row = [0] * len(columns)
                row[col_of[(qv, g)]] += 1
                row[col_of[(qv, h)]] += 1
                if not k.is_identity():
                    row[col_of[(qv, k)]] -= 1
                rows.append(row)

    for qe in Q.quotient.sorted_edges:
        lifted = Q.lifts(qe)[0]
        ends = []
        for x in lifted:
            qv = Q.projection[x]
            canon = blocks[qv][0]
            ends.append((qv, all_transporters(A.group.elements, x, canon)[0]))
        for k in edge_stabilizer(A, lifted)[1:]:
            row = [0] * len(columns)
            for sign, (qv, t) in zip((1, -1), ends):
                moved = t * k * t.inverse()
                assert not moved.is_identity()
                row[col_of[(qv, moved)]] += sign
            rows.append(row)

    return AbelianInvariants.from_relation_matrix(rows, len(columns))


@dataclass(frozen=True)
class TwoConnectedResult:
    verdict: str  # "yes" | "no" | "unknown"
    witness: str = ""

    def __bool__(self):
        return self.verdict == "yes"


def is_simply_connected(K, bound=PI1_BOUND):
    """Is the complex nonempty and connected with pi1 = 1?

    pi1 is checked by coset enumeration on the edge-path presentation
    (Unknown if it exhausts the bound).
    """
    if not K.vertices:
        return TwoConnectedResult("no", "empty complex")
    if K.components() != 1:
        return TwoConnectedResult("no", "not connected")
    P = pi1_presentation(K, min(K.vertices))
    T = todd_coxeter(P, max_cosets=bound)
    if T.status != "complete":
        return TwoConnectedResult("unknown", f"pi1 enumeration exhausted {bound} cosets")
    if T.order != 1:
        return TwoConnectedResult("no", f"pi1 has order {T.order}")
    return TwoConnectedResult("yes")


def is_two_connected(K, bound=PI1_BOUND):
    """Is the complex simply connected with H2 = 0?

    H2 = 0 via Hurewicz stands in for pi2 once pi1 is trivial.
    """
    verdict = is_simply_connected(K, bound)
    if not verdict:
        return verdict
    h2 = homology_invariants(K, 2)
    if h2.rank != 0 or h2.torsion:
        return TwoConnectedResult("no", f"H2 = {h2}")
    return TwoConnectedResult("yes")
