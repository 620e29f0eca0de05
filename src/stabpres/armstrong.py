"""Expressing a group element as a product of vertex-stabilizer elements.

Given a validated action with quotient data, an element g, and a
basepoint v:

  1. take any edge path in the complex from v to g(v);
  2. project it to a loop in the quotient and contract that loop by
     elementary moves (`homotopy.search_contraction`);
  3. replay the log once and lift each move back upstairs, checking that
     each lifted path projects onto the replayed loop.  A triangle
     insert lifts to a choice of apex over the inserted vertex
     (contributing nothing).  A backtrack delete has a lifted window
     x1 - p - x1' with both edges in one orbit; swinging around the
     pivot p by the stabilizer element h with h(x1') = x1 replaces the
     tail of the lifted path by its h-image and deletes the window.

The lifted path shrinks with the loop and ends back at the basepoint,
so the recorded swing elements compose against g to a final basepoint
stabilizer; the inverses of all recorded elements, tagged with their
pivot vertices, form a word whose evaluation is exactly g.  The word is
not evaluated here: its consumer (`verify_theorem`'s psi_surjective
check, the CLI's express report) evaluates it once.

Lifting runs on the group's element numbers (`PermGroup.transporters`,
`product` and `inverse_of`), so no `Permutation` is composed or inverted
here.  Its checks raise `LiftFailed`, which survives `python -O`.
"""

from __future__ import annotations

import random

from .actions import Permutation
from .complexes import EdgePath, _discoveries, simplex
from .errors import (
    Disconnected,
    LetterInvariantViolated,
    LiftFailed,
    MalformedInput,
    PreconditionUnvalidated,
    UnknownVertex,
)
from .homotopy import TRI, search_contraction
from .record import Record


class StabilizerLetter(Record):
    """A group element tagged with a vertex it fixes: a word letter, and a
    generator `g@v` of the stabilizer presentation."""

    __slots__ = ("element", "vertex", "_hash")

    def __init__(self, element, vertex):
        if element(vertex) != vertex:
            raise LetterInvariantViolated(element.cycle_string(), vertex)
        self._set("element", element)
        self._set("vertex", vertex)
        # the record hash, computed once
        self._set("_hash", hash((element, vertex)))

    def __hash__(self):
        return self._hash

    @property
    def name(self):
        return f"{self.element.cycle_string()}@{self.vertex}"

    def to_json_obj(self):
        return {
            "element": [[str(v) for v in c] for c in self.element.cycles()],
            "vertex": str(self.vertex),
        }


class StabilizerWord(Record):
    __slots__ = ("letters",)

    def __init__(self, letters):
        self._set("letters", letters)

    def normalize(self):
        return StabilizerWord(tuple(l for l in self.letters if not l.element.is_identity()))

    def __mul__(self, other):
        return StabilizerWord(self.letters + other.letters)

    def to_json_obj(self):
        return [l.to_json_obj() for l in self.letters]

    def __str__(self):
        return " . ".join(l.name for l in self.letters) or "1"


def word_from_json_obj(obj, A):
    domain = A.complex.sorted_vertices
    if not isinstance(obj, list):
        raise MalformedInput("stabilizer word must be a list")
    letters = []
    for entry in obj:
        try:
            cycles = [[str(v) for v in c] for c in entry["element"]]
            vertex = entry["vertex"]
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad word letter: {exc}") from exc
        letters.append(StabilizerLetter(Permutation.from_cycles(domain, cycles), vertex))
    return StabilizerWord(tuple(letters))


def psi_evaluate(word, identity=None):
    """Ordered product of the letters' elements ((a*b)(x) = a(b(x))).

    The empty word needs an explicit identity to fix the domain.
    """
    result = identity
    for letter in word.letters:
        result = letter.element if result is None else result * letter.element
    if result is None:
        raise MalformedInput("empty word needs an identity permutation for its domain")
    return result


def find_path(K, u, w, seed=0):
    """Breadth-first shortest path (`complexes._discoveries`); canonical
    tie-break, or a seeded shuffle of each vertex's neighbours as the
    search expands it.

    It returns at w's first discovered neighbour.  A search run until w is
    popped makes the same draws up to there, gives w that parent and never
    resets one; its rng is private, so its later draws cannot change the path."""
    for v in (u, w):
        if v not in K.vertices:
            raise UnknownVertex(v)
    if u == w:
        return EdgePath((u,))
    beside_w = set(K.adjacency[w])
    parent = {}
    rng = random.Random(seed) if seed else None
    for v in _discoveries(K.adjacency, u, parent, rng):
        if v in beside_w:
            path = [w]
            while v is not None:
                path.append(v)
                v = parent[v]
            return EdgePath(tuple(reversed(path)))
    raise Disconnected(u, w)


def _lift_move(A, Q, lifted, move, rng):
    """Lift one base move onto the lifted path; canonical choices unless rng.

    Returns the new lifted path and, for a backtrack delete, the pivot and
    the swing's element number; a triangle insert swings nothing.
    """
    i = move.pos
    if move.kind == TRI:
        x1, x2 = lifted[i], lifted[i + 1]
        candidates = [
            y[0]
            for y in Q.lifts((move.apex,))
            if simplex((x1, x2, y[0])) in A.complex.triangles
        ]
        if not candidates:
            raise LiftFailed(f"no apex over {move.apex!r} joins {x1!r}-{x2!r}")
        # Q.lifts lists each orbit sorted, so the candidates are sorted too
        apex = rng.choice(candidates) if rng else candidates[0]
        return lifted[: i + 1] + (apex,) + lifted[i + 1 :], None
    x1, pivot, x1p = lifted[i], lifted[i + 1], lifted[i + 2]
    # the stabilizer lists the identity (number 0) first, so x1 == x1p swings by it
    options = A.group.transporters(pivot, x1p, x1)
    if not options:
        raise LiftFailed(f"no pivot stabilizer sends {x1p!r} to {x1!r}")
    h = rng.choice(options) if rng else options[0]
    element = A.group.elements[h]
    return lifted[: i + 1] + tuple(element(v) for v in lifted[i + 3 :]), (pivot, h)


def armstrong_express(A, Q, basepoint, g, seed=0, budget=None):
    """Express g as a stabilizer word based at the given vertex.

    seed 0 makes every choice canonical; a nonzero seed randomizes the
    path, the contraction move order, and every lift choice (the result
    is still a valid expression of g).
    """
    if not A.validated_without_rotations:
        raise PreconditionUnvalidated("action must be validated without rotations")
    if basepoint not in A.complex.vertices:
        raise UnknownVertex(basepoint)
    if g not in A.group:
        raise PreconditionUnvalidated(f"{g.cycle_string()} is not a group element")
    rng = random.Random(seed) if seed else None
    path_seed = rng.randrange(1, 2**31) if rng else 0
    contraction_seed = rng.randrange(1, 2**31) if rng else 0

    path = find_path(A.complex, basepoint, g(basepoint), seed=path_seed)
    base_loop = EdgePath(Q.project_path(path.vertices))
    log = search_contraction(
        Q.quotient, base_loop, Q.projection[basepoint], budget=budget, seed=contraction_seed
    )
    G = A.group
    letters = []
    composite = G.number[g]  # element numbers throughout; the identity is 0
    lifted = path.vertices
    for move, after in zip(log.moves, log.replay(Q.quotient)[1:]):
        lifted, swing = _lift_move(A, Q, lifted, move, rng)
        if Q.project_path(lifted) != after.vertices:
            raise LiftFailed("projected lift disagrees with base loop after move")
        if swing is not None:
            pivot, h = swing
            if h:
                letters.append(StabilizerLetter(G.elements[G.inverse_of[h]], pivot))
            composite = G.product(h, composite)
    if lifted != (basepoint,):
        raise LiftFailed(f"lifted contraction ended at {lifted}")
    # closing letter: composite is h_{n-1}...h_1*g, the inverse of the final
    # swing; its own inverse is the final h, so the letter element is composite.
    # StabilizerLetter raises LetterInvariantViolated unless it fixes the
    # basepoint, and the word's letters then multiply to g term by term
    if composite:
        letters.append(StabilizerLetter(G.elements[composite], basepoint))
    return StabilizerWord(tuple(letters))
