"""Finite permutation groups acting simplicially on a complex.

Permutations are immutable maps on the complex's sorted vertex tuple,
stored as index tuples: position i holds the position of the image of
vertex i, and one vertex-to-position dict is shared by all products.
This module is the only one that knows that format.  Groups are
enumerated exhaustively (everything here is desk scale; the cap guards
against runaway input).  The canonical order on group elements is the
lexicographic order of index tuples, which is the order of image-name
tuples over the sorted vertex list; the identity always sorts first.
Each group numbers its elements once, by their place in the canonical
order (`PermGroup.number`, so the identity is 0), and multiplies by
number.  An element is fixed by its images of a base (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, ch. 4), and the
canonical base keeps each sorted point whose images split elements the
earlier ones leave together, so `PermGroup.product(i, j)` reads element
i at element j's base images and memoizes the number by (i, j): no
|G|^2 table (groups reach `GROUP_CAP`), and no whole-domain product.
Each group also indexes its vertex stabilizers once, in one pass over
its elements (`PermGroup.stabilizers`); every stabilizer query reads
that index, and lifting reads each pivot's transporters by number from
a memo beside it (`PermGroup.transporters`).  Orbits stay scans of G:
their one caller, `build_quotient`, scans once per vertex orbit (from
its least vertex, skipping the vertices that orbit projected) and once
per simplex orbit, so no orbit is asked for twice and an index would
add code without removing a query.

The quotient of an action is the complex whose simplices are the orbits.
That only makes sense when the action is "without rotations" (a setwise
simplex stabilizer fixes the simplex pointwise) and no two distinct
orbits share a quotient vertex set; `refine_action` establishes both by
barycentric subdivision (at most two are ever needed).
"""

from __future__ import annotations

import json
import re
from functools import cached_property

from .complexes import (
    SimplicialComplex,
    barycenter_name,
    barycentric_subdivision,
    complex_from_json_obj,
    simplex,
)
from .errors import (
    GroupTooLarge,
    MalformedInput,
    NotABijection,
    NotSimplicial,
    OrbitCollision,
    PreconditionUnvalidated,
    RefinementFailed,
    UnknownVertex,
)
from .record import Record

GROUP_CAP = 100_000
MAX_SUBDIVISIONS = 2


class Permutation:
    """A bijection of a sorted vertex domain: `perm[i]` is the position of
    the image of `domain[i]`, and the vertex-to-position dict `index` is
    shared by reference with every product and inverse."""

    __slots__ = ("domain", "index", "perm", "_hash")

    def __init__(self, domain, index, perm):
        self.domain = domain
        self.index = index
        self.perm = perm
        self._hash = hash(perm)

    @classmethod
    def identity(cls, domain):
        return cls.from_mapping(domain, {})

    @classmethod
    def from_mapping(cls, domain, mapping):
        images = tuple(mapping.get(v, v) for v in domain)
        if sorted(images) != list(domain):
            raise NotABijection(f"images {images} do not permute the domain")
        index = {v: i for i, v in enumerate(domain)}
        return cls(domain, index, tuple(map(index.__getitem__, images)))

    @classmethod
    def from_cycles(cls, domain, cycles):
        mapping = {}
        for cyc in cycles:
            cyc = list(cyc)
            if len(cyc) < 2:
                raise MalformedInput(f"cycle {cyc} too short")
            for v in cyc:
                if v not in domain:
                    raise UnknownVertex(v)
                if v in mapping:
                    raise MalformedInput(f"vertex {v!r} appears in two cycles")
            for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
                if a in mapping:  # only a repeat within this cycle gets here
                    raise MalformedInput(f"vertex {a!r} appears twice in one cycle")
                mapping[a] = b
        return cls.from_mapping(domain, mapping)

    def __call__(self, v):
        try:
            return self.domain[self.perm[self.index[v]]]
        except (KeyError, TypeError):
            raise UnknownVertex(v) from None

    def apply(self, s):
        """Image of a simplex (sorted tuple in, sorted tuple out)."""
        d, p, index = self.domain, self.perm, self.index
        return simplex(d[p[index[v]]] for v in s)

    def __mul__(self, other):
        # (a * b)(x) = a(b(x)): right factor acts first.
        perm = tuple(map(self.perm.__getitem__, other.perm))
        return Permutation(self.domain, self.index, perm)

    def inverse(self):
        p = self.perm
        inv = tuple(sorted(range(len(p)), key=p.__getitem__))
        return Permutation(self.domain, self.index, inv)

    def is_identity(self):
        return self.perm == tuple(range(len(self.perm)))

    def cycles(self):
        """Disjoint cycles (fixed points omitted), canonically ordered."""
        d, p = self.domain, self.perm
        seen = set()
        out = []
        for i in range(len(p)):
            if i in seen or p[i] == i:
                continue
            cyc = []
            j = i
            while j not in seen:
                seen.add(j)
                cyc.append(d[j])
                j = p[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self):
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in self.cycles()) or "()"

    def __eq__(self, other):
        return (
            isinstance(other, Permutation)
            and self.perm == other.perm
            and self.domain == other.domain
        )

    def __lt__(self, other):
        return self.perm < other.perm

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Permutation({self.cycle_string()})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text):
    """Parse "(a b)(c d e)" into a list of name lists; "()" means identity."""
    text = text.strip()
    if text in ("", "()"):
        return []
    spans = _CYCLE_RE.findall(text)
    if "".join("(" + s + ")" for s in spans).replace(" ", "") != text.replace(" ", ""):
        raise MalformedInput(f"unparseable cycle notation: {text!r}")
    cycles = []
    for span in spans:
        names = span.split()
        if len(names) < 2:
            raise MalformedInput(f"cycle ({span}) too short")
        cycles.append(names)
    return cycles


def close_under_product(domain, perms):
    """Generate the subgroup containing the given permutations (BFS closure).

    Every element found is held until the closure ends, so just before
    `GroupTooLarge` at `GROUP_CAP` (100,000) it holds that many
    permutations, each an index tuple over the domain: about 8 |domain| +
    270 bytes apiece at the peak (tracemalloc, CPython 3.11, S8 on 8 to
    1,008 points), so about 110 MB on a 100-point domain and 0.8 GB on a
    1,000-point one."""
    identity = Permutation.identity(domain)
    elements = {identity}
    frontier = [identity]
    gens = list(perms)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in elements:
                    if len(elements) >= GROUP_CAP:
                        raise GroupTooLarge(GROUP_CAP)
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(elements))


class PermGroup:
    """A finite permutation group, fully enumerated on first use."""

    def __init__(self, domain, generators):
        self.domain = domain
        self.generators = tuple(generators)
        self._products = {}  # (i, j) -> number of elements[i] * elements[j]
        self._transporters = {}  # (v, x, y) -> numbers fixing v, sending x to y

    @cached_property
    def elements(self):
        return close_under_product(self.domain, self.generators)

    @cached_property
    def identity(self):
        return Permutation.identity(self.domain)

    @cached_property
    def number(self):
        """Element -> its position in `elements`; the identity is 0."""
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def inverse_of(self):
        """The number of each element's inverse, by element number."""
        number = self.number
        return tuple(number[g.inverse()] for g in self.elements)

    @cached_property
    def _base(self):
        """(each element's base images, by number; the number by images)."""
        images, told = [()] * self.order(), 1
        for i in range(len(self.domain)):
            if told == len(images):
                break
            split = [k + (g.perm[i],) for k, g in zip(images, self.elements)]
            if len(set(split)) > told:
                images, told = split, len(set(split))
        return images, {k: i for i, k in enumerate(images)}

    def product(self, i, j):
        """The number of elements[i] * elements[j], memoized by (i, j): the
        one element that sends each base point b to elements[i](elements[j](b))."""
        k = self._products.get((i, j))
        if k is None:
            images, by_images = self._base
            k = by_images[tuple(map(self.elements[i].perm.__getitem__, images[j]))]
            self._products[i, j] = k
        return k

    @cached_property
    def stabilizers(self):
        """Vertex -> the elements fixing it, in canonical order (identity first)."""
        fixers = [[] for _ in self.domain]
        for g in self.elements:
            for i, j in enumerate(g.perm):
                if i == j:
                    fixers[i].append(g)
        return dict(zip(self.domain, map(tuple, fixers)))

    def transporters(self, v, x, y):
        """The numbers of `all_transporters(stabilizers[v], x, y)`, in that
        order, memoized by (v, x, y).  Lifting and the edge words ask only
        for neighbours x and y of v, so the memo holds at most |V|·deg² keys."""
        key = (v, x, y)
        found = self._transporters.get(key)
        if found is None:
            number = self.number
            found = tuple(number[g] for g in all_transporters(self.stabilizers[v], x, y))
            self._transporters[key] = found
        return found

    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.number


class GroupAction(Record):
    """A simplicial action as `validate_simplicial_action` checked it; the
    flag records whether `check_without_rotations` has passed."""

    __slots__ = ("complex", "group", "validated_without_rotations", "subdivisions")

    def __init__(self, complex, group, validated_without_rotations=False, subdivisions=0):
        self._set("complex", complex)
        self._set("group", group)
        self._set("validated_without_rotations", validated_without_rotations)
        self._set("subdivisions", subdivisions)


def validate_simplicial_action(K, generators):
    """Check each generator is a simplicial automorphism; enumerate the group."""
    domain = K.sorted_vertices
    perms = list(generators)
    for g in perms:
        if g.domain != domain:
            raise NotABijection("generator domain differs from complex vertices")
    for g in perms:
        for e in K.sorted_edges:
            if g.apply(e) not in K.edges:
                raise NotSimplicial(g.cycle_string(), e)
        for t in K.sorted_triangles:
            if g.apply(t) not in K.triangles:
                raise NotSimplicial(g.cycle_string(), t)
    group = PermGroup(domain, perms)
    group.elements  # force enumeration so GroupTooLarge surfaces here
    return GroupAction(K, group)


def check_without_rotations(A):
    """Does every setwise simplex stabilizer fix the simplex pointwise?

    Returns (True, None) or (False, (element, simplex)): the first element
    in canonical order that fixes some simplex setwise but not pointwise,
    with the least such simplex, edges before triangles.  An element does
    that only by swapping the two ends of an edge or 3-cycling a
    triangle, and a triangle it fixes setwise through a transposition has
    a swapped edge, which sorts first.  So each element's permutation is
    scanned once for 2-cycles that are edges and 3-cycles that are
    triangles, not applied to every simplex.
    """
    K = A.complex
    for g in A.group.elements:
        d, p = g.domain, g.perm  # the domain is the sorted vertex tuple
        edges, tris = [], []
        for i, j in enumerate(p):
            if j <= i:
                continue
            k = p[j]
            if k == i:
                e = (d[i], d[j])
                if e in K.edges:
                    edges.append(e)
            elif k > i and p[k] == i:  # i is the least point of its 3-cycle
                t = (d[i], d[min(j, k)], d[max(j, k)])
                if t in K.triangles:
                    tris.append(t)
        if edges or tris:
            return False, (g, min(edges or tris))
    return True, None


def rotation_string(witness):
    """Describe a `check_without_rotations` witness (element, simplex)."""
    g, s = witness
    return f"{g.cycle_string()} rotates simplex {{{','.join(map(str, s))}}}"


def mark_without_rotations(A):
    ok, witness = check_without_rotations(A)
    if not ok:
        raise PreconditionUnvalidated(rotation_string(witness))
    return GroupAction(A.complex, A.group, True, A.subdivisions)


def orbit_of_vertex(A, v):
    if v not in A.complex.vertices:
        raise UnknownVertex(v)
    return tuple(sorted({g(v) for g in A.group.elements}))


def orbit_of_simplex(A, s):
    s = simplex(s)
    return tuple(sorted({g.apply(s) for g in A.group.elements}))


def stabilizer(A, v):
    """All elements fixing the vertex, identity first, canonical order."""
    if v not in A.complex.vertices:
        raise UnknownVertex(v)
    return A.group.stabilizers[v]


def edge_stabilizer(A, e):
    """Pointwise stabilizer of an edge (= setwise, when without rotations)."""
    u, w = simplex(e)
    return tuple(g for g in stabilizer(A, u) if g(w) == w)


def all_transporters(subgroup, x, y):
    """The elements of the subgroup sending x to y, in the subgroup's order."""
    return tuple(g for g in subgroup if g(x) == y)


def refine_action_tracked(A):
    """Subdivide (at most `MAX_SUBDIVISIONS` times) until the action is
    without rotations and simplex orbits form a simplicial quotient.

    Returns (refined action, lift, quotient): lift sends any element of
    the original group to the induced element of the refined group, and
    quotient is the refined action's `build_quotient`, the orbit-collision
    check that ended the refinement.
    """
    stages = []  # (complex, its subdivision), one per round
    current = A
    while True:
        ok, witness = check_without_rotations(current)
        if ok:
            refined = GroupAction(current.complex, current.group, True, current.subdivisions)
            try:
                quotient = build_quotient(refined)
            except OrbitCollision as exc:
                detail = exc.witness
            else:
                break
        else:
            detail = rotation_string(witness)
        if len(stages) == MAX_SUBDIVISIONS:
            raise RefinementFailed(detail, MAX_SUBDIVISIONS)
        subdivided = subdivide_action(current)
        stages.append((current.complex, subdivided.complex))
        current = subdivided

    def lift(g):
        for K, sd in stages:
            g = _induced_on_subdivision(K, sd, g)
        return g

    return refined, lift, quotient


def refine_action(A):
    return refine_action_tracked(A)[0]


def _induced_on_subdivision(K, sd, g):
    """The permutation of Sd(K)'s barycenters induced by g acting on K."""
    mapping = {barycenter_name(s): barycenter_name(g.apply(s)) for s in K.simplices()}
    return Permutation.from_mapping(sd.sorted_vertices, mapping)


def subdivide_action(A):
    """Barycentric subdivision of the complex with the induced action."""
    sd, _ = barycentric_subdivision(A.complex)
    gens = [_induced_on_subdivision(A.complex, sd, g) for g in A.group.generators]
    refined = validate_simplicial_action(sd, gens)
    return GroupAction(refined.complex, refined.group, subdivisions=A.subdivisions + 1)


class QuotientData(Record):
    """Quotient complex, vertex projection, and simplex lift index."""

    __slots__ = ("quotient", "projection", "lift_index")
    _hidden = ("lift_index",)

    def __init__(self, quotient, projection, lift_index):
        self._set("quotient", quotient)
        self._set("projection", projection)
        self._set("lift_index", lift_index)

    def project_path(self, vertices):
        return tuple(self.projection[v] for v in vertices)

    def lifts(self, s):
        return self.lift_index[simplex(s)]


def build_quotient(A):
    """Quotient complex whose simplices are the orbits.

    Quotient vertices are named by the minimum vertex in their orbit.
    Raises OrbitCollision if orbits do not form a simplicial complex.
    """
    if not A.validated_without_rotations:
        raise PreconditionUnvalidated("action must be validated without rotations")
    proj = {}
    lift = {}
    for v in A.complex.sorted_vertices:
        if v in proj:
            continue
        # v is the least vertex not yet projected, so the least of its orbit
        orb = orbit_of_vertex(A, v)
        proj.update(dict.fromkeys(orb, v))
        lift[(v,)] = tuple((u,) for u in orb)
    q_edges = set()
    q_tris = set()
    for s in list(A.complex.sorted_edges) + list(A.complex.sorted_triangles):
        img = tuple(sorted({proj[v] for v in s}))
        if len(img) < len(s):
            raise OrbitCollision(f"orbit of {s} maps to degenerate vertex set {img}")
        if img in lift:
            if s not in lift[img]:
                raise OrbitCollision(
                    f"distinct orbits of {lift[img][0]} and {s} share vertex set {img}"
                )
            continue
        lift[img] = orbit_of_simplex(A, s)
        (q_edges if len(img) == 2 else q_tris).add(img)
    quotient = SimplicialComplex(
        frozenset(proj[v] for v in A.complex.vertices),
        frozenset(q_edges),
        frozenset(q_tris),
    )
    return QuotientData(quotient, proj, lift)


def action_from_json_obj(obj):
    """Load {"complex": ..., "generators": [[[...cycle...], ...], ...]}."""
    if not isinstance(obj, dict):
        raise MalformedInput("action must be a JSON object")
    if "complex" not in obj or "generators" not in obj:
        raise MalformedInput('action object needs "complex" and "generators"')
    K = complex_from_json_obj(obj["complex"])
    gens_json = obj["generators"]
    if not isinstance(gens_json, list):
        raise MalformedInput("generators must be a list")
    domain = K.sorted_vertices
    gens = []
    for g in gens_json:
        if not isinstance(g, list) or not all(isinstance(c, list) for c in g):
            raise MalformedInput(f"generator {g!r} must be a list of cycles")
        cycles = [[str(v) for v in c] for c in g]
        gens.append(Permutation.from_cycles(domain, cycles))
    return validate_simplicial_action(K, gens)


def action_to_json_obj(A):
    return {
        "complex": A.complex.to_json_obj(),
        "generators": [
            [[str(v) for v in c] for c in g.cycles()] for g in A.group.generators
        ],
    }


def _read_json(path):
    """Parse a JSON file; unreadable files and bad JSON are MalformedInput."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON in {path}: {exc}") from exc


def load_action(path):
    return action_from_json_obj(_read_json(path))
