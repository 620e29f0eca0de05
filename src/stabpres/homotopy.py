"""Loop contraction by elementary moves, and the disc collapse calculus.

Two moves act on an edge loop:

  TriangleInsert ("tri"):  ... x1 - x2 ...  ->  ... x1 - y - x2 ...
      legal when {x1, x2, y} is a triangle of the complex.
  BacktrackDelete ("back"): ... x1 - x2 - x1 ...  ->  ... x1 ...
      legal when the middle vertex differs from the loop's basepoint.

These are the boundary traces of the two collapses of a disc spanning
the loop (a two-dimensional collapse pushes a boundary edge across its
triangle; a one-dimensional collapse retracts a boundary spur), so a
loop contracts to the constant loop exactly when it spans a disc.
`search_contraction` finds a move log by iterative-deepening search and
`contract_loop` replay-verifies it before returning; no disc is ever
constructed.  The search is pruned by the loop's integral 2-chain
filling c (d2 c = the loop's 1-chain): when H2 = 0, as for the
2-connected quotients of the theorem, c is unique and every insert
changes one coefficient by 1, so at least |c|_1 inserts remain.  The
filling comes from one Smith elimination of d2 per complex
(`SimplicialComplex.filling_solver`), and each loop's is solved once per
complex and memoized (`SimplicialComplex.fillings`): the memo grows by
one entry per distinct filled loop that callers submit.  Canonical (seed
0) moves are memoized beside them, one per distinct (loop, budget).

`collapse_disc` is the disc side of the same calculus: it collapses an
explicit (possibly degenerate) disc to its basepoint and returns the
boundary MoveLog it induces.  That log is the whole certificate:
`verify_collapse` reads each move as the collapse it traces.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from .complexes import EdgePath, SimplicialComplex, simplex, validate_path
from .errors import (
    BadSize,
    BudgetExhausted,
    IllegalMove,
    MalformedInput,
    NotCollapsible,
)
from .record import Record

TRI = "tri"
BACK = "back"

MAX_DISC_BOUNDARY = 64


class Move(Record):
    __slots__ = ("kind", "pos", "apex")

    def __init__(self, kind, pos, apex=None):
        self._set("kind", kind)
        self._set("pos", pos)
        self._set("apex", apex)

    def to_json_obj(self):
        if self.kind == TRI:
            return {"kind": TRI, "pos": self.pos, "apex": str(self.apex)}
        return {"kind": BACK, "pos": self.pos}


class MoveLog(Record):
    __slots__ = ("initial", "moves")

    def __init__(self, initial, moves):
        self._set("initial", initial)  # an EdgePath
        self._set("moves", moves)

    def replay(self, K):
        """All intermediate loops, legality-checked; raises IllegalMove."""
        loop = self.initial
        states = [loop]
        for m in self.moves:
            loop = apply_move(K, loop, m)
            states.append(loop)
        return states

    def final_loop(self, K):
        return self.replay(K)[-1]

    def move_counts(self):
        """(tri, back) counts, read by `perfbench/workloads.py`."""
        tri = sum(1 for m in self.moves if m.kind == TRI)
        back = len(self.moves) - tri
        return tri, back

    def to_json_obj(self):
        return {
            "initial": [str(v) for v in self.initial.vertices],
            "moves": [m.to_json_obj() for m in self.moves],
        }


def _position(m):
    if type(m["pos"]) is not int:  # not int(): it truncates 2.5 and accepts true and "0"
        raise MalformedInput(f"bad move log: position {m['pos']!r} is not an integer")
    return m["pos"]


def _apex(m, K):
    apex = m["apex"]
    if type(apex) in (list, dict) or apex not in K.vertices:  # a list or dict cannot be looked up
        raise MalformedInput(f"bad move log: apex {apex!r} is not a vertex of the complex")
    return apex


def move_log_from_json_obj(obj, K):
    try:
        initial = validate_path(K, obj["initial"])
        moves = []
        for m in obj["moves"]:
            if m["kind"] == TRI:
                moves.append(Move(TRI, _position(m), _apex(m, K)))
            elif m["kind"] == BACK:
                moves.append(Move(BACK, _position(m)))
            else:
                raise MalformedInput(f"unknown move kind {m['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad move log: {exc}") from exc
    return MoveLog(initial, tuple(moves))


def apply_move(K, loop, move):
    """Apply one move to a based loop, checking legality."""
    vs = loop.vertices
    base = vs[0]
    if move.kind == TRI:
        i = move.pos
        if not 0 <= i <= len(vs) - 2:
            raise IllegalMove(f"tri position {i} out of range")
        tri = simplex((vs[i], vs[i + 1], move.apex))
        if len(set(tri)) != 3 or tri not in K.triangles:
            raise IllegalMove(f"{tri} is not a triangle")
        return EdgePath(vs[: i + 1] + (move.apex,) + vs[i + 1 :])
    if move.kind == BACK:
        i = move.pos
        if not 0 <= i <= len(vs) - 3:
            raise IllegalMove(f"back position {i} out of range")
        if vs[i] != vs[i + 2]:
            raise IllegalMove(f"no backtrack at {i}: {vs[i]!r} vs {vs[i + 2]!r}")
        if vs[i + 1] == base:
            raise IllegalMove("backtrack middle vertex is the basepoint")
        return EdgePath(vs[: i + 1] + vs[i + 3 :])
    raise IllegalMove(f"unknown move kind {move.kind!r}")


def default_budget(loop_len):
    return 6 * loop_len + 16


def contract_loop(K, loop, basepoint, budget=None, seed=0):
    """`search_contraction`'s move log, replay-verified before it is returned."""
    log = search_contraction(K, loop, basepoint, budget, seed)
    if log.final_loop(K).vertices != (basepoint,):
        raise AssertionError("contraction replay failed")
    return log


def _filling(K, vertices, budget):
    """The loop's integral 2-chain filling c, with d2 c equal to its
    1-chain, as a new dict keyed by triangle, which the caller may edit;
    None when d2 is not injective (fillings then differ by 2-cycles and
    none bounds the moves).  Raises BudgetExhausted when there is no
    filling: a loop that is not null-homologous over Z never contracts.

    Each solved filling is memoized in `K.fillings` by the loop's vertex
    tuple, once `solve` has checked it; a loop with no filling is not.
    So the memo holds one entry per distinct filled loop that callers
    submit for K."""
    solver = K.filling_solver
    c = K.fillings.get(vertices)
    if c is None:
        index = K.edge_index
        chain = [0] * len(index)
        for a, b in zip(vertices, vertices[1:]):
            if a < b:
                chain[index[(a, b)]] += 1
            else:
                chain[index[(b, a)]] -= 1
        c = solver.solve(chain)
        if c is None:
            raise BudgetExhausted(budget, "the loop is not null-homologous, so no budget contracts it")
        K.fillings[vertices] = c
    return dict(zip(K.sorted_triangles, c)) if solver.injective else None


def search_contraction(K, loop, basepoint, budget=None, seed=0):
    """Find a move log taking an EdgePath loop to the constant loop at its
    basepoint.

    Iterative-deepening depth-first search over loops as vertex tuples,
    with a fresh memo of the best remaining depth per loop at each depth
    limit.  Each loop's successors are (move, next loop) pairs of plain
    tuples in canonical order (backtrack deletes by position, then
    triangle inserts by position and apex) unless a nonzero seed shuffles
    them; `Move`s are built only for the returned log.  Triangle inserts
    are tried only on loops of at most 3 * len(loop) + 8 vertices.

    A loop is pruned when even its cheapest finish exceeds the depth
    left.  When d2 is injective (H2 = 0, as for a 2-connected quotient)
    each loop has exactly one integral filling c, and a triangle insert
    changes one coefficient of c by 1, so at least |c|_1 inserts remain;
    otherwise the bound uses |c|_1 = 0.  The bound never overestimates,
    so the first shortest log is the one found without it.  At the start
    loop it is b0 = |c|_1 + (len(loop) + 1 + |c|_1) // 2, and no log is
    shorter.  Every lower depth limit is pruned at the start loop before
    any successor is drawn, so deepening starts at b0 and no seeded draw
    moves.  With no budget given the search runs to
    max(default_budget(len(loop)), 2 * b0).

    The log is not replayed here: callers replay it once (`contract_loop`,
    `armstrong_express`).  Raises BudgetExhausted when no log of length
    <= budget exists under that cap, and before any search when the loop
    has no integral filling or the given budget is below b0.

    Seed 0's moves are memoized in `K.contractions` by (loop vertices,
    budget), one entry per distinct pair submitted; BudgetExhausted is not.
    """
    start = validate_path(K, loop.vertices).vertices
    if not loop.is_loop() or loop.start != basepoint:
        raise IllegalMove(f"not a loop based at {basepoint!r}")
    key = (start, budget)
    if not seed and key in K.contractions:
        return MoveLog(loop, K.contractions[key])
    filling = _filling(K, start, budget)
    norm = sum(map(abs, filling.values())) if filling is not None else 0
    b0 = norm + (len(start) + norm) // 2  # the start loop's bound in `dfs`
    if budget is None:
        budget = max(default_budget(len(loop)), 2 * b0)
    elif budget < b0:
        raise BudgetExhausted(budget, f"budget {budget} is below the filling bound b0 = {b0}")
    max_len = 3 * len(loop) + 8
    rng = random.Random(seed) if seed else None
    apexes = K.edge_apexes
    target = (basepoint,)

    def successors(state):
        n = len(state)
        out = [
            ((BACK, i), state[: i + 1] + state[i + 3 :])
            for i in range(n - 2)
            if state[i] == state[i + 2] and state[i + 1] != basepoint
        ]
        if n <= max_len:  # n-1 edges now, +1 after an insert
            for i in range(n - 1):
                a, b = state[i], state[i + 1]
                head, tail = state[: i + 1], state[i + 1 :]
                for y in apexes[(a, b) if a < b else (b, a)]:
                    out.append(((TRI, i, y), head + (y,) + tail))
        if rng is not None:
            rng.shuffle(out)
        return out

    def dfs(state, norm, remaining, visited):
        if state == target:
            return []
        # t inserts and d deletes take the len(state)-1 edges to 0, so
        # len(state)-1 + t == 2d; with t >= norm = |c|_1, t + d is at least
        # norm + ceil((len(state)-1 + norm) / 2)
        if norm + (len(state) + norm) // 2 > remaining or visited.get(state, -1) >= remaining:
            return None
        visited[state] = remaining
        for move, nxt in successors(state):
            if filling is None or move[0] == BACK:
                found = dfs(nxt, norm, remaining - 1, visited)
            else:
                # a - y - b replaces a - b, so c gains the oriented triangle
                # (a, y, b): +1 when it is an even permutation of the sorted one
                _, i, y = move
                a, b = state[i], state[i + 1]
                t = simplex((a, b, y))
                old = filling[t]
                filling[t] = new = old + (1 if ((a < y) == (y < b)) == (a < b) else -1)
                found = dfs(nxt, norm - abs(old) + abs(new), remaining - 1, visited)
                filling[t] = old
            if found is not None:
                return [move] + found
        return None

    for limit in range(b0, budget + 1):
        found = dfs(start, norm, limit, {})
        if found is not None:
            moves = tuple(Move(*m) for m in found)
            if not seed:
                K.contractions[key] = moves
            return MoveLog(loop, moves)
    raise BudgetExhausted(budget)


# ---------------------------------------------------------------------------
# Disc collapse calculus


class DegenerateDisc(Record):
    """A contractible complex together with the boundary walk of the disc
    it degenerated from.  The walk's basepoint is the collapse target."""

    __slots__ = ("complex", "boundary")

    def __init__(self, complex, boundary):
        self._set("complex", complex)
        self._set("boundary", boundary)  # an EdgePath

    @property
    def basepoint(self):
        return self.boundary.start


class DiscCollapse(Record):
    __slots__ = ("initial", "boundary_log")

    def __init__(self, initial, boundary_log):
        self._set("initial", initial)  # a DegenerateDisc
        self._set("boundary_log", boundary_log)


def random_nondegenerate_disc(n, seed):
    """A random triangulated n-gon (no interior vertices) with its boundary
    loop; deterministic per seed."""
    if not 3 <= n <= MAX_DISC_BOUNDARY:
        raise BadSize(n, 3, MAX_DISC_BOUNDARY)
    rng = random.Random(seed)
    names = [f"d{i:02d}" for i in range(n)]
    edges = {simplex((names[i], names[(i + 1) % n])) for i in range(n)}
    triangles = set()

    def split(lo, hi):
        # triangulate the polygon span names[lo..hi] against base edge (lo, hi)
        if hi - lo < 2:
            return
        k = rng.randint(lo + 1, hi - 1)
        triangles.add(simplex((names[lo], names[k], names[hi])))
        edges.add(simplex((names[lo], names[k])))
        edges.add(simplex((names[k], names[hi])))
        split(lo, k)
        split(k, hi)

    split(0, n - 1)
    K = SimplicialComplex(frozenset(names), frozenset(edges), frozenset(triangles))
    boundary = EdgePath(tuple(names) + (names[0],))
    return DegenerateDisc(K, boundary)


def collapse_disc(disc):
    """Collapse a degenerate disc to its basepoint.

    Repeatedly performs two-dimensional collapses (push a boundary edge
    across its unique triangle, deleting both) until no triangles remain,
    then one-dimensional collapses (retract a spur, deleting its edge and
    freed vertex).  Each collapse is made at the first walk position that
    admits one.  Returns the certificate: the disc and the boundary
    MoveLog these collapses trace, which `verify_collapse` replays.

    An edge -> remaining-triangles index and per-edge walk counts, kept
    up to date by each move, make every test at a position constant
    time.  No position before the last move can become free (see the
    comments), so each scan resumes there and the whole collapse takes
    time linear in the longest walk plus the number of moves.
    """
    walk = list(disc.boundary.vertices)
    base = disc.basepoint
    moves = []
    triangles_at = {}
    for t in disc.complex.triangles:
        for e in combinations(t, 2):
            triangles_at.setdefault(e, set()).add(t)
    walked = Counter(simplex(e) for e in zip(walk, walk[1:]))
    left = len(disc.complex.triangles)

    i = 0
    while left:
        while i < len(walk) - 1:
            e = simplex((walk[i], walk[i + 1]))
            if len(triangles_at.get(e, ())) == 1 and walked[e] == 1:
                break
            i += 1
        else:
            raise NotCollapsible(f"{left} triangles left, no boundary edge free")
        (t,) = triangles_at[e]
        apex = next(v for v in t if v not in e)
        walk[i + 1 : i + 1] = [apex]
        for f in combinations(t, 2):
            triangles_at[f].remove(t)
        walked[e] -= 1
        walked[simplex((walk[i], apex))] += 1
        walked[simplex((apex, walk[i + 2]))] += 1
        moves.append(Move(TRI, i, apex))
        left -= 1
        # an edge before i that the move touched is one of t's two new
        # edges, now walked twice, so the scan resumes at i

    i = 0
    while len(walk) > 1:
        while i < len(walk) - 2:
            e = simplex((walk[i], walk[i + 1]))
            # an edge still walked elsewhere is not yet free
            if walk[i] == walk[i + 2] and walk[i + 1] != base and walked[e] == 2:
                break
            i += 1
        else:
            raise NotCollapsible(f"walk {walk} admits no spur retraction")
        del walk[i + 1 : i + 3]
        walked[e] -= 2
        moves.append(Move(BACK, i))
        # the spur's edge is gone from the walk, and the triple at i - 1 is
        # the only one before i that changed
        i = max(i - 1, 0)

    return DiscCollapse(disc, MoveLog(disc.boundary, tuple(moves)))


def verify_collapse(cert):
    """Replay a DiscCollapse's boundary log once, reading each move as the
    collapse it traces; raises NotCollapsible (IllegalMove for an illegal
    move) on any violation.

    A `tri` at i removes the edge walk[i]-walk[i+1] and its triangle with
    the apex; a `back` at i removes that edge, plus the middle vertex
    once no remaining edge meets it.  Each removed simplex must still be
    present.  The log must start at the disc's boundary and end at the
    constant loop, with the complex collapsed to the basepoint.  That
    implies 2*back - tri = len(initial): `apply_move` keeps the first
    vertex and changes the length by +1 per tri and -2 per back.
    """
    disc = cert.initial
    K = disc.complex
    log = cert.boundary_log
    if log.initial != disc.boundary:
        raise NotCollapsible("boundary log does not start at the disc's boundary")
    vertices = set(K.vertices)
    edges = set(K.edges)
    triangles = set(K.triangles)
    loop = log.initial
    for m in log.moves:
        vs = loop.vertices
        loop = apply_move(K, loop, m)
        e = simplex((vs[m.pos], vs[m.pos + 1]))
        if e not in edges:
            raise NotCollapsible(f"{m} removes the absent edge {e}")
        edges.remove(e)
        if m.kind == TRI:
            t = simplex(e + (m.apex,))
            if t not in triangles:
                raise NotCollapsible(f"{m} removes the absent triangle {t}")
            triangles.remove(t)
        elif not any(vs[m.pos + 1] in e2 for e2 in edges):
            vertices.remove(vs[m.pos + 1])
    if (vertices, edges, triangles) != ({disc.basepoint}, set(), set()):
        raise NotCollapsible("final complex is not the basepoint")
    if loop.vertices != (disc.basepoint,):
        raise NotCollapsible("boundary log does not end at the constant loop")
    return True
