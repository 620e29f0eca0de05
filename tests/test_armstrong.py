"""Expressing group elements as stabilizer words."""

import hashlib
import random

import pytest

from stabpres import armstrong, homotopy
from stabpres.actions import (
    Permutation,
    all_transporters,
    build_quotient,
    refine_action,
    stabilizer,
    subdivide_action,
)
from stabpres.armstrong import (
    StabilizerLetter,
    StabilizerWord,
    armstrong_express,
    find_path,
    psi_evaluate,
    word_from_json_obj,
)
from stabpres.complexes import EdgePath, SimplicialComplex, barycentric_subdivision
from stabpres.errors import (
    Disconnected,
    LetterInvariantViolated,
    LiftFailed,
    MalformedInput,
    PreconditionUnvalidated,
    UnknownVertex,
)
from stabpres.fixtures import f1_flip, interval_complex
from stabpres.presentation import word_to_coset


# -- letters and words --------------------------------------------------


def test_letter_invariant():
    dom = ("a", "b", "m")
    flip = Permutation.from_cycles(dom, [["a", "b"]])
    letter = StabilizerLetter(flip, "m")
    assert letter.vertex == "m"
    with pytest.raises(LetterInvariantViolated):
        StabilizerLetter(flip, "a")  # flip moves a


def test_psi_composes_left_to_right():
    dom = ("1", "2", "3")
    a = Permutation.from_cycles(dom, [["1", "2"]])
    b = Permutation.from_cycles(dom, [["1", "3"]])
    word = StabilizerWord(
        (StabilizerLetter(a, "3"), StabilizerLetter(b, "2"))
    )
    # psi(word) = a * b, i.e. b acts first: 3 -> 1 -> 2
    assert psi_evaluate(word) == a * b
    assert psi_evaluate(word)("3") == "2"
    assert str(word) == "(1 2)@3 . (1 3)@2"


def test_empty_word_needs_identity():
    dom = ("a", "b")
    empty = StabilizerWord(())
    assert str(empty) == "1"
    assert psi_evaluate(empty, Permutation.identity(dom)).is_identity()
    with pytest.raises(MalformedInput):
        psi_evaluate(empty)


def test_word_normalize_drops_identity_letters():
    dom = ("a", "b", "m")
    flip = Permutation.from_cycles(dom, [["a", "b"]])
    word = StabilizerWord(
        (
            StabilizerLetter(Permutation.identity(dom), "a"),
            StabilizerLetter(flip, "m"),
        )
    )
    assert [l.element for l in word.normalize().letters] == [flip]


def test_word_json_round_trip():
    A = refine_action(f1_flip())
    flip = next(g for g in A.group.elements if not g.is_identity())
    word = StabilizerWord((StabilizerLetter(flip, "m"),))
    assert word_from_json_obj(word.to_json_obj(), A) == word
    with pytest.raises(MalformedInput):
        word_from_json_obj({"not": "a list"}, A)
    with pytest.raises(MalformedInput):
        word_from_json_obj([{"element": [["a", "b"]]}], A)  # missing vertex
    for vertex in ("zz", 7):
        with pytest.raises(UnknownVertex):
            word_from_json_obj([{"element": [["a", "b"]], "vertex": vertex}], A)


# -- paths --------------------------------------------------------------


def test_find_path_basics():
    K = interval_complex()
    assert find_path(K, "a", "b").vertices == ("a", "m", "b")
    assert find_path(K, "a", "a").vertices == ("a",)
    assert find_path(K, "a", "a", seed=7).vertices == ("a",)
    assert find_path(K, "a", "b", seed=0) == find_path(K, "a", "b", seed=0)
    with pytest.raises(UnknownVertex):
        find_path(K, "a", "zz")
    # the unknown vertex is reported before the path of length 0
    with pytest.raises(UnknownVertex):
        find_path(K, "zz", "zz")


def test_find_path_disconnected():
    K = SimplicialComplex(frozenset({"a", "b"}), frozenset(), frozenset())
    for seed in (0, 5):
        with pytest.raises(Disconnected):
            find_path(K, "a", "b", seed=seed)


def _full_expansion_path(K, u, w, seed=0):
    """The breadth-first search that returns only when w is popped, drawing
    a shuffle for every vertex expanded before it."""
    adjacency = K.adjacency
    rng = random.Random(seed) if seed else None
    parent = {u: None}
    frontier = [u]
    while frontier:
        nxt = []
        for v in frontier:
            if v == w:
                path = []
                while v is not None:
                    path.append(v)
                    v = parent[v]
                return EdgePath(tuple(reversed(path)))
            neighbours = adjacency[v]
            if rng is not None:
                neighbours = list(neighbours)
                rng.shuffle(neighbours)
            for nb in neighbours:
                if nb not in parent:
                    parent[nb] = v
                    nxt.append(nb)
        frontier = nxt
    raise Disconnected(u, w)


def test_find_path_equals_the_full_expansion_search(f3, dihedral_cone):
    """Stopping early skips only draws that cannot reach the path:
    the seeded and canonical paths equal those of the search that expands
    every vertex before w, for equal, adjacent and random pairs."""
    complexes = (
        f3.action.complex,
        dihedral_cone(16, 1).complex,
        barycentric_subdivision(f3.action.complex)[0],
    )
    draw = random.Random(0)
    for K in complexes:
        vertices = K.sorted_vertices
        pairs = [(v, v) for v in vertices[:5]]
        pairs += [(v, nb) for v in vertices[:10] for nb in K.adjacency[v]]
        pairs += [(draw.choice(vertices), draw.choice(vertices)) for _ in range(2000)]
        for u, w in pairs:
            for seed in (0, draw.randrange(1, 2**31)):
                expected = _full_expansion_path(K, u, w, seed)
                assert find_path(K, u, w, seed) == expected, (u, w, seed)


def test_find_path_shuffle_count(f3, dihedral_cone, monkeypatch):
    """On the searches the express workload makes (every element of f3 and
    of the D16 cone, from the least vertex), under path seeds 1-25,
    find_path shuffles only the lists expanded before it discovers a
    neighbour of the target.  Expanding every vertex until
    the target is popped shuffled 16,236 lists on f3 and 15,720 on the D16
    cone; stopping when the target itself is discovered, 6,468 and 1,716."""
    shuffle = random.Random.shuffle
    calls = []

    def counting_shuffle(self, x):
        calls.append(x)
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
    counts = []
    for A in (f3.action, dihedral_cone(16, 1)):
        calls.clear()
        base = min(A.complex.vertices)
        for g in A.group.elements:
            for seed in range(1, 26):
                find_path(A.complex, base, g(base), seed=seed)
        counts.append(len(calls))
    assert counts == [2316, 750]


# -- the expression algorithm -------------------------------------------


def test_express_flip_exactly():
    A = refine_action(f1_flip())
    Q = build_quotient(A)
    flip = next(g for g in A.group.elements if not g.is_identity())
    word = armstrong_express(A, Q, "a", flip)
    assert str(word) == "(a b)@m"
    assert len(word.letters) == 1 and word.letters[0].vertex == "m"


def test_express_identity_is_empty():
    A = refine_action(f1_flip())
    Q = build_quotient(A)
    word = armstrong_express(A, Q, "a", A.group.identity)
    assert word.letters == ()


def test_express_validates_inputs():
    A = refine_action(f1_flip())
    Q = build_quotient(A)
    with pytest.raises(UnknownVertex):
        armstrong_express(A, Q, "zz", A.group.identity)
    outsider = Permutation.from_cycles(A.complex.sorted_vertices, [["a", "m"]])
    with pytest.raises(PreconditionUnvalidated):
        armstrong_express(A, Q, "a", outsider)
    with pytest.raises(PreconditionUnvalidated, match="without rotations"):
        armstrong_express(f1_flip(), Q, "a", A.group.identity)


def test_express_every_element(f1, f2):
    for pipe in (f1, f2):
        A, Q = pipe.action, pipe.quotient
        basepoint = min(A.complex.vertices)
        for g in A.group.elements:
            word = armstrong_express(A, Q, basepoint, g)
            psi = psi_evaluate(word, A.group.identity)
            assert psi == g
            for letter in word.letters:
                assert not letter.element.is_identity()
                assert letter.vertex in A.complex.vertices


def test_express_randomized_seeds_still_express(f2):
    A, Q = f2.action, f2.quotient
    basepoint = min(A.complex.vertices)
    g = A.group.generators[0]
    for seed in range(6):
        word = armstrong_express(A, Q, basepoint, g, seed=seed)
        assert psi_evaluate(word, A.group.identity) == g


def test_express_is_homomorphic_on_cosets(f2):
    """Tracing words through the coset table respects multiplication."""
    A, Q, T = f2.action, f2.quotient, f2.table
    basepoint = min(A.complex.vertices)
    elems = A.group.elements

    def coset(word):
        return word_to_coset(T, word)

    words = {g: armstrong_express(A, Q, basepoint, g) for g in elems}
    for g in elems:
        for h in elems:
            combined = words[g] * words[h]
            assert coset(combined) == coset(words[g * h])


def test_express_replays_the_contraction_log_once(f3, monkeypatch):
    """The lift replays the searched log once: one apply_move call per move,
    whatever the log length."""
    calls = []
    logs = []
    apply_move, search_contraction = homotopy.apply_move, armstrong.search_contraction

    def counting_apply_move(*args):
        calls.append(args)
        return apply_move(*args)

    def recording_search_contraction(*args, **kwargs):
        logs.append(search_contraction(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(homotopy, "apply_move", counting_apply_move)
    monkeypatch.setattr(armstrong, "search_contraction", recording_search_contraction)
    A, Q = f3.action, f3.quotient
    basepoint = min(A.complex.vertices)
    for g in A.group.elements:
        calls.clear()
        word = armstrong_express(A, Q, basepoint, g)
        assert psi_evaluate(word, A.group.identity) == g
        assert len(calls) == len(logs[-1].moves)
    assert max(len(log.moves) for log in logs) >= 3


def test_canonical_words_are_the_same_from_a_cold_or_warm_memo(f3, dihedral_cone):
    # the seed-0 contraction of each base loop is searched once per quotient
    # and then read from the memo; the words are the same either way, and
    # the memo holds one entry per distinct base loop (f3: 5 for 48 elements)
    actions = [f3.action, refine_action(subdivide_action(f3.action))]
    actions += [dihedral_cone(n, 1) for n in range(3, 25)]
    entries = []
    for A in actions:
        Q = build_quotient(A)  # a new quotient complex, so its memo starts empty
        K, base = Q.quotient, min(A.complex.vertices)
        cold = []
        for g in A.group.elements:
            K.contractions.clear()
            cold.append(armstrong_express(A, Q, base, g))
        K.contractions.clear()
        for _ in range(2):  # filled as it goes, then warm throughout
            assert [armstrong_express(A, Q, base, g) for g in A.group.elements] == cold
        loops = {
            Q.project_path(find_path(A.complex, base, g(base)).vertices) for g in A.group.elements
        }
        assert set(K.contractions) == {(loop, None) for loop in loops}
        entries.append(len(K.contractions))
    assert entries[0] == 5


def _express_digest(f3, A16, seeds):
    digest = hashlib.sha256()
    for A, Q in ((f3.action, f3.quotient), (A16, build_quotient(A16))):
        basepoint = min(A.complex.vertices)
        for g in A.group.elements:
            for seed in seeds:
                word = armstrong_express(A, Q, basepoint, g, seed=seed)
                digest.update(f"{word}\n".encode())
    return digest.hexdigest()


def test_express_word_digest(f3, dihedral_cone):
    # one sha256 over the canonical (seed 0) words for every element of f3
    # and of the D16 cone
    digest = _express_digest(f3, dihedral_cone(16, 1), (0,))
    assert digest == "70044bab2beb95813b05f3891162f62e9e519e2619d5bedaa12b690d765f59b1"


def test_seeded_express_word_digest(f3, dihedral_cone):
    # the same words under seeds 1, 2, 3 and 99; the seeded lift choices
    # depend on the canonical order of each stabilizer, so this pins that
    # order too, and the seeded path and move orders follow the vertices
    # and loops each search expands
    digest = _express_digest(f3, dihedral_cone(16, 1), (1, 2, 3, 99))
    assert digest == "b56d69b2f371b12a07c597cdb6240296a0f6dbdb0b4420fc55696d371ce4f263"


def test_express_word_digest_from_other_basepoints(f1, f2, dihedral_cone):
    # seeds 0-3 from each of the first three vertices of f1, f2 and the D8
    # cone: a swing at a pivot that is not the basepoint pins the order in
    # which the swings compose
    digest = hashlib.sha256()
    for A in (f1.action, f2.action, dihedral_cone(8, 1)):
        Q = build_quotient(A)
        for basepoint in A.complex.sorted_vertices[:3]:
            for g in A.group.elements:
                for seed in range(4):
                    word = armstrong_express(A, Q, basepoint, g, seed=seed)
                    digest.update(f"{word}\n".encode())
    assert digest.hexdigest() == "752e494bfb645be627b66c0ba6aa41b93216ad126aab8bab369075a28cfd5b6f"


def test_express_lifts_in_element_numbers(f3, dihedral_cone, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Permutation was composed or inverted")

    expressed = []
    for A in (f3.action, dihedral_cone(16, 1)):
        Q = build_quotient(A)
        A.group.inverse_of  # the group's one table of inverses
        basepoint = min(A.complex.vertices)
        with monkeypatch.context() as m:
            m.setattr(Permutation, "__mul__", refuse)
            m.setattr(Permutation, "inverse", refuse)
            for g in A.group.elements:
                for seed in range(4):
                    expressed.append((A, g, armstrong_express(A, Q, basepoint, g, seed=seed)))
    for A, g, word in expressed:
        assert psi_evaluate(word, A.group.identity) == g


def test_transporter_memo_matches_all_transporters(f1, f2, f3, dihedral_cone):
    for A in [f1.action, f2.action, f3.action] + [dihedral_cone(n, 1) for n in range(3, 9)]:
        G = A.group
        for v, neighbours in A.complex.adjacency.items():
            for x in neighbours:
                for y in neighbours:
                    expected = tuple(G.number[h] for h in all_transporters(stabilizer(A, v), x, y))
                    assert G.transporters(v, x, y) == expected


def _lifting_to_a_moving_element(f3):
    """(A, Q, basepoint, g) with g moving the basepoint, so its loop moves."""
    A, Q = f3.action, f3.quotient
    basepoint = min(A.complex.vertices)
    g = next(h for h in A.group.elements if h(basepoint) != basepoint)
    return A, Q, basepoint, g


def test_express_refuses_a_lift_off_the_base_loop(f3, monkeypatch):
    # LiftFailed, not an assert, so the check survives python -O
    A, Q, basepoint, g = _lifting_to_a_moving_element(f3)
    monkeypatch.setattr(armstrong, "_lift_move", lambda A, Q, lifted, move, rng: (lifted, None))
    with pytest.raises(LiftFailed, match="projected lift disagrees"):
        armstrong_express(A, Q, basepoint, g)


def test_express_refuses_a_lift_that_leaves_the_basepoint(f3, monkeypatch):
    # moving the first lifted path by g keeps every projection, and no later
    # move changes the first vertex, so only the final check can catch it
    A, Q, basepoint, g = _lifting_to_a_moving_element(f3)
    lift_move, moved = armstrong._lift_move, []

    def moving_lift(*args):
        lifted, swing = lift_move(*args)
        if not moved:
            moved.append(True)
            lifted = tuple(map(g, lifted))
        return lifted, swing

    monkeypatch.setattr(armstrong, "_lift_move", moving_lift)
    with pytest.raises(LiftFailed, match="lifted contraction ended at"):
        armstrong_express(A, Q, basepoint, g)
