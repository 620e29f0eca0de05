"""Finite simplicial complexes of dimension <= 2, edge paths, subdivision.

A complex is stored by its vertex set plus sorted-tuple edges and
triangles.  All operations keep simplices as sorted tuples so that set
membership and JSON round-trips are canonical.  Vertex identifiers are
opaque but must be mutually orderable; the shipped corpus uses strings.
"""

from __future__ import annotations

import json
from functools import cached_property

from .errors import (
    EmptyPath,
    InvalidComplex,
    MalformedInput,
    NotAnEdge,
    SimplexNotInComplex,
)
from .linalg import IntegerSolver
from .record import Record


def simplex(vertices):
    """Canonical (sorted tuple) form of a simplex given any iterable."""
    return tuple(sorted(vertices))


def faces(s):
    """All proper nonempty faces of a simplex, canonical form."""
    out = []
    n = len(s)
    if n >= 2:
        for i in range(n):
            out.append(s[:i] + s[i + 1 :])
    if n == 3:
        for v in s:
            out.append((v,))
    return out


def _discoveries(adjacency, u, parent, rng=None):
    """The one graph search: yield u's component breadth-first, each vertex
    as it is discovered, recording its parent (None for u) in `parent`;
    an rng shuffles each expanded neighbour list."""
    parent[u] = None
    yield u
    queue = [u]
    for v in queue:  # grows while it is walked
        neighbours = adjacency[v]
        if rng is not None:
            neighbours = list(neighbours)
            rng.shuffle(neighbours)
        for nb in neighbours:
            if nb not in parent:
                parent[nb] = v
                queue.append(nb)
                yield nb


class SimplicialComplex(Record):
    def __init__(self, vertices, edges, triangles):  # frozensets
        self._set("vertices", vertices)
        self._set("edges", edges)
        self._set("triangles", triangles)

    @cached_property
    def sorted_vertices(self):
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edges(self):
        return tuple(sorted(self.edges))

    @cached_property
    def sorted_triangles(self):
        return tuple(sorted(self.triangles))

    @cached_property
    def adjacency(self):
        """vertex -> sorted tuple of neighbours."""
        nbrs = {v: [] for v in self.vertices}
        for u, w in self.edges:
            nbrs[u].append(w)
            nbrs[w].append(u)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_property
    def edge_apexes(self):
        """edge -> sorted tuple of vertices completing it to a triangle."""
        apex = {e: [] for e in self.edges}
        for a, b, c in self.triangles:
            apex[a, b].append(c)
            apex[a, c].append(b)
            apex[b, c].append(a)
        return {e: tuple(sorted(a)) for e, a in apex.items()}

    @cached_property
    def edge_index(self):
        """edge -> its position in sorted_edges, the row of d1 and d2."""
        return {e: i for i, e in enumerate(self.sorted_edges)}

    @cached_property
    def filling_solver(self):
        """`IntegerSolver` for d2: the integral 2-chains bounding a 1-cycle,
        from one Smith elimination shared by every loop in the complex."""
        return IntegerSolver(_dense_d2(self))

    @cached_property
    def fillings(self):
        """Loop vertex tuple -> its solved filling, `homotopy._filling`'s memo."""
        return {}

    @cached_property
    def contractions(self):
        """(loop vertex tuple, budget) -> its seed-0 moves, `search_contraction`'s memo."""
        return {}

    def has_simplex(self, s):
        s = tuple(s)
        if len(s) == 1:
            return s[0] in self.vertices
        if len(s) == 2:
            return s in self.edges
        if len(s) == 3:
            return s in self.triangles
        return False

    def simplices(self):
        """All simplices as sorted tuples, vertices first, canonical order."""
        for v in self.sorted_vertices:
            yield (v,)
        yield from self.sorted_edges
        yield from self.sorted_triangles

    def counts(self):
        return (len(self.vertices), len(self.edges), len(self.triangles))

    def components(self):
        """The number of connected components (0 for the empty complex)."""
        found = {}
        roots = 0
        for root in self.sorted_vertices:
            if root not in found:
                roots += 1
                for _ in _discoveries(self.adjacency, root, found):
                    pass
        return roots

    def to_json_obj(self):
        return {
            "vertices": [str(v) for v in self.sorted_vertices],
            "edges": [[str(u), str(w)] for u, w in self.sorted_edges],
            "triangles": [[str(u), str(w), str(x)] for u, w, x in self.sorted_triangles],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)


def d2_rows(K):
    """The triangle->edge boundary map as sparse rows, {edge index:
    {triangle index: +-1}}, indices into `sorted_edges` and
    `sorted_triangles`, signs from the sorted vertex order: the sorted
    triangle (a, b, c) has boundary (b, c) - (a, c) + (a, b).  Edges on
    no triangle have no row."""
    rows = {}
    e_index = K.edge_index
    for j, (a, b, c) in enumerate(K.sorted_triangles):
        rows.setdefault(e_index[b, c], {})[j] = 1
        rows.setdefault(e_index[a, c], {})[j] = -1
        rows.setdefault(e_index[a, b], {})[j] = 1
    return rows


def _dense_d2(K):
    """`d2_rows` filled in: the dense triangle->edge boundary map."""
    d2 = [[0] * len(K.triangles) for _ in K.edges]
    for i, row in d2_rows(K).items():
        for j, a in row.items():
            d2[i][j] = a
    return d2


def boundary_matrices(K):
    """(d1, d2): the edge->vertex and triangle->edge boundary maps with
    orientation signs from the sorted vertex order, dense; d2 is
    `d2_rows` filled in."""
    verts = K.sorted_vertices
    edges = K.sorted_edges
    v_index = {v: i for i, v in enumerate(verts)}
    d1 = [[0] * len(edges) for _ in verts]
    for j, (u, w) in enumerate(edges):
        d1[v_index[u]][j] -= 1
        d1[v_index[w]][j] += 1
    return d1, _dense_d2(K)


def validate_complex(vertices, edges=(), triangles=()):
    """Build a SimplicialComplex, collecting every violation before failing.

    Violations: MissingFace (an edge's vertex or a triangle's edge absent),
    DuplicateSimplex, DegenerateSimplex (repeated vertex or wrong arity).
    """
    violations = []
    vset = set()
    for v in vertices:
        if v in vset:
            violations.append(("DuplicateSimplex", f"vertex {v!r}"))
        vset.add(v)

    eset = set()
    for e in edges:
        e = tuple(e)
        if len(e) != 2 or len(set(e)) != 2:
            violations.append(("DegenerateSimplex", f"edge {e}"))
            continue
        e = simplex(e)
        if e in eset:
            violations.append(("DuplicateSimplex", f"edge {e}"))
        eset.add(e)
        for v in e:
            if v not in vset:
                violations.append(("MissingFace", f"vertex {v!r} of edge {e}"))

    tset = set()
    for t in triangles:
        t = tuple(t)
        if len(t) != 3 or len(set(t)) != 3:
            violations.append(("DegenerateSimplex", f"triangle {t}"))
            continue
        t = simplex(t)
        if t in tset:
            violations.append(("DuplicateSimplex", f"triangle {t}"))
        tset.add(t)
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            if e not in eset:
                violations.append(("MissingFace", f"edge {e} of triangle {t}"))

    if violations:
        raise InvalidComplex(violations)
    return SimplicialComplex(frozenset(vset), frozenset(eset), frozenset(tset))


def complex_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise MalformedInput("complex must be a JSON object")
    try:
        vertices = obj["vertices"]
        edges = obj.get("edges", [])
        triangles = obj.get("triangles", [])
    except (TypeError, KeyError) as exc:
        raise MalformedInput(f"complex object missing key: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInput("complex vertices must be a list of strings")
    for name, part in (("edges", edges), ("triangles", triangles)):
        if not isinstance(part, list) or not all(
            isinstance(s, list) and all(isinstance(v, str) for v in s) for s in part
        ):
            raise MalformedInput(f"complex {name} must be a list of lists of strings")
    return validate_complex(vertices, edges, triangles)


def star(K, s):
    """The closed star of a simplex: every simplex joinable to s, plus faces."""
    s = simplex(s)
    if not K.has_simplex(s):
        raise SimplexNotInComplex(s)
    cofaces = [t for t in K.simplices() if set(s) <= set(t)]
    vs, es, ts = set(), set(), set()
    for t in cofaces:
        for f in [t] + faces(t):
            if len(f) == 1:
                vs.add(f[0])
            elif len(f) == 2:
                es.add(f)
            else:
                ts.add(f)
    return SimplicialComplex(frozenset(vs), frozenset(es), frozenset(ts))


def barycenter_name(s):
    """Canonical name of the barycenter vertex over a simplex."""
    if len(s) == 1:
        return str(s[0])
    return "b(" + ",".join(str(v) for v in s) + ")"


def barycentric_subdivision(K):
    """First barycentric subdivision.

    Returns (Sd(K), names) where names maps each simplex of K to its
    barycenter's vertex name in Sd(K).  Simplices of Sd(K) are chains in
    the face order of K; vertices keep their name, higher barycenters get
    canonical "b(...)" names.  Counts obey #V' = #V + #E + #T.
    """
    names = {s: barycenter_name(s) for s in K.simplices()}
    vertices = set(names.values())
    edges = set()
    triangles = set()
    for t in K.sorted_triangles:
        bt = names[t]
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            be = names[e]
            edges.add(simplex((be, bt)))
            for v in e:
                bv = names[(v,)]
                edges.add(simplex((bv, bt)))
                triangles.add(simplex((bv, be, bt)))
    for e in K.sorted_edges:
        be = names[e]
        for v in e:
            edges.add(simplex((names[(v,)], be)))
    sd = SimplicialComplex(frozenset(vertices), frozenset(edges), frozenset(triangles))
    return sd, names


class EdgePath(Record):
    """A walk along edges; consecutive vertices are distinct and adjacent."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        self._set("vertices", vertices)

    def __len__(self):
        # length in edges, not vertices
        return len(self.vertices) - 1

    @property
    def start(self):
        return self.vertices[0]

    def is_loop(self):
        return self.vertices[0] == self.vertices[-1]


def validate_path(K, seq):
    """Check a vertex sequence is an edge path of K; error names the first bad step."""
    seq = tuple(seq)
    if not seq:
        raise EmptyPath()
    for i, v in enumerate(seq):
        if v not in K.vertices:
            raise NotAnEdge(i, f"vertex {v!r} not in complex")
    for i in range(len(seq) - 1):
        e = simplex((seq[i], seq[i + 1]))
        if len(set(e)) != 2 or e not in K.edges:
            raise NotAnEdge(i, f"{seq[i]!r}-{seq[i + 1]!r} is not an edge")
    return EdgePath(seq)
