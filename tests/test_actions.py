"""Group actions on complexes: validation, orbits, refinement, quotients."""

import itertools
import random

import pytest

from stabpres import actions
from stabpres.actions import (
    GroupAction,
    PermGroup,
    Permutation,
    QuotientData,
    action_from_json_obj,
    action_to_json_obj,
    all_transporters,
    build_quotient,
    check_without_rotations,
    close_under_product,
    edge_stabilizer,
    mark_without_rotations,
    orbit_of_simplex,
    orbit_of_vertex,
    parse_cycles,
    refine_action,
    refine_action_tracked,
    stabilizer,
    subdivide_action,
    validate_simplicial_action,
)
from stabpres.complexes import SimplicialComplex, validate_complex
from stabpres.errors import (
    GroupTooLarge,
    MalformedInput,
    NotABijection,
    NotSimplicial,
    OrbitCollision,
    PreconditionUnvalidated,
    RefinementFailed,
    UnknownVertex,
)
from stabpres.fixtures import (
    c6_rotation,
    f1_flip,
    f2_s3,
    f3_octahedral,
    f4_rotation,
    f5_antipodal,
    interval_complex,
)


# -- permutations -------------------------------------------------------


def test_permutation_composition_convention():
    dom = ("1", "2", "3")
    a = Permutation.from_cycles(dom, [["1", "2"]])
    b = Permutation.from_cycles(dom, [["2", "3"]])
    # (a * b)(x) = a(b(x)): apply b first
    assert (a * b)("3") == a("2") == "1"
    assert (a * b).cycle_string() == "(1 2 3)"
    assert (b * a).cycle_string() == "(1 3 2)"


def test_permutation_basics():
    dom = ("a", "b", "m")
    e = Permutation.identity(dom)
    g = Permutation.from_cycles(dom, [["a", "b"]])
    assert e.is_identity() and not g.is_identity()
    assert g * g == e
    assert g.inverse() == g
    assert g.apply(("a", "m")) == ("b", "m")
    assert g.cycle_string() == "(a b)"
    assert e.cycle_string() == "()"
    assert Permutation.from_mapping(dom, {"a": "b", "b": "a", "m": "m"}) == g


@pytest.mark.parametrize("seed", range(8))
def test_permutation_matches_name_dict_reference(seed):
    # names built in numeric order sort as v1, v10, v11, v12, v2, ...
    names = [f"v{i}" for i in range(1, 13)]
    dom = tuple(sorted(names))
    assert list(dom) != names
    rng = random.Random(seed)
    support = rng.sample(names, 6)  # keeps the closure at most 6! = 720
    maps = []
    for _ in range(3):
        images = support[:]
        rng.shuffle(images)
        maps.append(dict(zip(support, images)))
    perms = [Permutation.from_mapping(dom, m) for m in maps]

    def as_dict(p):
        return {v: p(v) for v in names}

    refs = [{v: m.get(v, v) for v in names} for m in maps]
    for f, p in zip(refs, perms):
        assert as_dict(p) == f
        assert as_dict(p.inverse()) == {w: v for v, w in f.items()}
        assert Permutation.from_cycles(dom, p.cycles()) == p
        for g, q in zip(refs, perms):
            assert as_dict(p * q) == {v: f[g[v]] for v in names}
    elements = close_under_product(dom, perms[:2])
    assert elements[0].is_identity()
    assert len(set(elements)) == len(elements) <= 720
    assert list(elements) == sorted(elements, key=lambda p: tuple(p(v) for v in dom))


def test_permutation_rejects_nonbijection():
    with pytest.raises(NotABijection):
        Permutation.from_mapping(("a", "b"), {"a": "a", "b": "a"})
    with pytest.raises(UnknownVertex):
        Permutation.from_cycles(("a", "b"), [["a", "zz"]])
    with pytest.raises(MalformedInput, match="too short"):
        Permutation.from_cycles(("a", "b"), [["a"]])
    with pytest.raises(MalformedInput, match="appears in two cycles"):
        Permutation.from_cycles(("a", "b", "c"), [["a", "b"], ["b", "c"]])
    # a repeat inside one cycle would load (a a) as the identity and fail
    # (a b a) later as a non-bijection that names no vertex
    for cycle in (["a", "a"], ["a", "b", "a"]):
        with pytest.raises(MalformedInput, match="vertex 'a' appears twice in one cycle"):
            Permutation.from_cycles(("a", "b", "c"), [cycle])


def test_parse_cycles():
    assert parse_cycles("(a b)(c d e)") == [["a", "b"], ["c", "d", "e"]]
    assert parse_cycles("()") == []
    assert parse_cycles("") == []
    with pytest.raises(MalformedInput):
        parse_cycles("(a b")
    with pytest.raises(MalformedInput):
        parse_cycles("(a)")
    with pytest.raises(MalformedInput):
        parse_cycles("a b")


def test_close_under_product_s3(monkeypatch):
    dom = ("1", "2", "3")
    gens = [
        Permutation.from_cycles(dom, [["1", "2"]]),
        Permutation.from_cycles(dom, [["1", "2", "3"]]),
    ]
    elems = close_under_product(dom, gens)
    assert len(elems) == 6
    assert Permutation.identity(dom) in elems
    # closure caps out rather than looping
    monkeypatch.setattr("stabpres.actions.GROUP_CAP", 4)
    with pytest.raises(GroupTooLarge):
        close_under_product(dom, gens)


# -- action validation --------------------------------------------------


def test_validate_action_rejects_nonsimplicial():
    K = interval_complex()
    # swapping an endpoint with the middle tears the other edge
    with pytest.raises(NotSimplicial):
        validate_simplicial_action(K, [Permutation.from_cycles(K.sorted_vertices, [["a", "m"]])])
    # every edge of the complete graph on 1..4 survives (3 4), but the one
    # triangle 123 goes to 124, which is not there
    pairs = [list(e) for e in itertools.combinations("1234", 2)]
    K4 = validate_complex(list("1234"), pairs, [["1", "2", "3"]])
    with pytest.raises(NotSimplicial):
        validate_simplicial_action(K4, [Permutation.from_cycles(K4.sorted_vertices, [["3", "4"]])])


def test_validate_action_rejects_wrong_domain():
    K = interval_complex()
    g = Permutation.from_cycles(("a", "b"), [["a", "b"]])
    with pytest.raises(NotABijection):
        validate_simplicial_action(K, [g])


def test_validate_action_group_cap(monkeypatch):
    A = f3_octahedral()
    assert A.group.order() == 48
    monkeypatch.setattr("stabpres.actions.GROUP_CAP", 10)
    with pytest.raises(GroupTooLarge):
        validate_simplicial_action(A.complex, A.group.generators)


def test_without_rotations_witness():
    A = f4_rotation()
    ok, witness = check_without_rotations(A)
    assert not ok
    g, s = witness
    assert g.cycle_string() == "(1 2 3)" and s == ("1", "2", "3")
    with pytest.raises(PreconditionUnvalidated) as exc:
        mark_without_rotations(A)
    assert str(exc.value).endswith("(1 2 3) rotates simplex {1,2,3}")


def test_without_rotations_clean_cases():
    for build in (f1_flip, f5_antipodal, c6_rotation):
        ok, witness = check_without_rotations(build())
        assert ok and witness is None


def _rotation_witness_reference(A):
    """Every nonidentity element against every edge, then every triangle."""
    simps = list(A.complex.sorted_edges) + list(A.complex.sorted_triangles)
    for g in A.group.elements:
        if g.is_identity():
            continue
        for s in simps:
            if g.apply(s) == s and any(g(v) != v for v in s):
                return False, (g, s)
    return True, None


def _a4_tetrahedron():
    """A4 on the boundary of a tetrahedron: its first element, (2 3 4),
    3-cycles a face and fixes a vertex; (1 2)(3 4) swaps two edges."""
    tetra = ("1", "2", "3", "4")
    return action_from_json_obj(
        {
            "complex": {
                "vertices": list(tetra),
                "edges": [list(e) for e in itertools.combinations(tetra, 2)],
                "triangles": [list(t) for t in itertools.combinations(tetra, 3)],
            },
            "generators": [[["1", "2", "3"]], [["1", "2"], ["3", "4"]]],
        }
    )


def test_without_rotations_matches_reference(raw_dihedral_cone):
    # f1-f5 and the unrefined cones D3-D16 at seeds 0-2, each as given and
    # subdivided once: 94 actions, 45 with rotations, all but f4's found
    # on an edge; then a face witness with edges present
    actions = [build() for build in (f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal)]
    actions += [raw_dihedral_cone(n, seed) for n in range(3, 17) for seed in range(3)]
    actions += [subdivide_action(A) for A in actions]
    results = [check_without_rotations(A) for A in actions]
    assert results == [_rotation_witness_reference(A) for A in actions]
    assert (len(results), sum(not ok for ok, _ in results)) == (94, 45)
    A4 = _a4_tetrahedron()
    ok, (g, s) = check_without_rotations(A4)
    assert (ok, g.cycle_string(), s) == (False, "(2 3 4)", ("2", "3", "4"))
    assert (ok, (g, s)) == _rotation_witness_reference(A4)


# -- orbits, stabilizers, transporters ----------------------------------


def test_orbits_and_stabilizers_flip():
    A = mark_without_rotations(f1_flip())
    assert orbit_of_vertex(A, "a") == ("a", "b")
    assert orbit_of_vertex(A, "m") == ("m",)
    assert orbit_of_simplex(A, ("a", "m")) == (("a", "m"), ("b", "m"))
    stab = stabilizer(A, "m")
    assert [g.cycle_string() for g in stab] == ["()", "(a b)"]
    assert stab[0].is_identity()  # identity first, canonical order
    assert [g.cycle_string() for g in stabilizer(A, "a")] == ["()"]
    with pytest.raises(UnknownVertex):
        stabilizer(A, "zz")
    with pytest.raises(UnknownVertex):
        orbit_of_vertex(A, "zz")


def test_transporter_flip():
    A = f1_flip()
    elems = A.group.elements
    (t,) = all_transporters(elems, "a", "b")
    assert t("a") == "b"
    assert all_transporters(elems, "a", "m") == ()
    assert all_transporters(elems, "m", "m") == elems


def test_edge_stabilizer_is_intersection():
    for build in (f2_s3, f3_octahedral):
        A = refine_action(build())
        for e in A.complex.sorted_edges:
            u, w = e
            expect = [g for g in A.group.elements if g(u) == u and g(w) == w]
            assert list(edge_stabilizer(A, e)) == expect


_ORACLE_ACTIONS = [
    *((build.__name__, build) for build in (f1_flip, f2_s3, f3_octahedral, f5_antipodal)),
    *((f"D{n}-cone-seed{seed}", (n, seed)) for n in (4, 6, 16) for seed in (1, 2)),
]


@pytest.mark.parametrize("build", [b for _, b in _ORACLE_ACTIONS], ids=[i for i, _ in _ORACLE_ACTIONS])
def test_stabilizers_match_scan_of_group(build, dihedral_cone):
    # brute-force oracle: filter all of G, which is in canonical order
    A = dihedral_cone(*build) if isinstance(build, tuple) else refine_action(build())
    elems = A.group.elements
    for v in A.complex.sorted_vertices:
        assert stabilizer(A, v) == tuple(g for g in elems if g(v) == v)
    for u, w in A.complex.sorted_edges:
        expect = tuple(g for g in elems if g(u) == u and g(w) == w)
        assert edge_stabilizer(A, (u, w)) == expect
        assert edge_stabilizer(A, (w, u)) == expect


@pytest.mark.parametrize("build", [f3_octahedral, (8, 1)], ids=["f3_octahedral", "D8-cone-seed1"])
def test_product_memo_matches_permutation_products(build, dihedral_cone):
    A = dihedral_cone(*build) if isinstance(build, tuple) else refine_action(build())
    G = A.group
    elems, number = G.elements, G.number
    assert number[G.identity] == 0
    assert [number[g] for g in elems] == list(range(len(elems)))
    for i, g in enumerate(elems):
        assert G.inverse_of[G.inverse_of[i]] == i
        assert elems[G.inverse_of[i]] == g.inverse()
        assert G.product(i, G.inverse_of[i]) == 0
    i, j = next(
        (i, j)
        for i, g in enumerate(elems)
        for j, h in enumerate(elems)
        if g * h != h * g
    )
    assert G.product(i, j) != G.product(j, i)
    assert elems[G.product(i, j)] == elems[i] * elems[j]
    assert elems[G.product(j, i)] == elems[j] * elems[i]
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            # asked twice: once to fill the memo, once to read it
            assert G.product(i, j) == G.product(i, j) == number[g * h]


def _assert_products_compose(G):
    """On a fresh copy of G (an empty product memo), the product of every
    pair of elements is the composed one."""
    G = PermGroup(G.domain, G.generators)
    elems, number = G.elements, G.number
    pairs = list(itertools.product(range(len(elems)), repeat=2))
    assert [G.product(i, j) for i, j in pairs] == [number[elems[i] * elems[j]] for i, j in pairs]


def _apex_first_cone(cone):
    # D7's cone at seed 1 names its apex x000, the least vertex, and every
    # element fixes the apex, so the base walk skips the first sorted point
    G = cone(7, 1).group
    assert G.domain[0] == "x000" and all(g.perm[0] == 0 for g in G.elements)
    return [G]


_PRODUCT_GROUPS = {  # name -> (raw cone builder -> groups)
    **{
        b.__name__: lambda cone, b=b: [b().group]
        for b in (f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal)
    },
    # each cone at seeds 0-2, raw and refined
    **{
        f"D{n}-cone": lambda cone, n=n: [
            A.group for s in range(3) for A in (cone(n, s), refine_action(cone(n, s)))
        ]
        for n in range(3, 25)
    },
    "Sd2-f3": lambda cone: [subdivide_action(subdivide_action(f3_octahedral())).group],
    "trivial": lambda cone: [PermGroup(("a", "b"), [])],
    "apex-first": _apex_first_cone,
}


@pytest.mark.parametrize("name", list(_PRODUCT_GROUPS))
def test_products_from_base_images_match_composed_permutations(name, raw_dihedral_cone):
    for G in _PRODUCT_GROUPS[name](raw_dihedral_cone):
        _assert_products_compose(G)


# -- refinement ---------------------------------------------------------


def test_refinement_round_counts():
    for build, rounds in [
        (f1_flip, 0),
        (f2_s3, 1),
        (f3_octahedral, 1),
        (f4_rotation, 2),
        (f5_antipodal, 1),
        (c6_rotation, 2),
    ]:
        R = refine_action(build())
        assert R.subdivisions == rounds
        assert R.validated_without_rotations


def test_refinement_preserves_group():
    A = f2_s3()
    R = refine_action(A)
    assert R.group.order() == A.group.order() == 6
    assert R.complex.counts() == (7, 12, 6)


def test_refinement_tracks_element_lift():
    A = f2_s3()
    R, lift, Q = refine_action_tracked(A)
    assert Q == build_quotient(R)
    for g in A.group.elements:
        lg = lift(g)
        assert lg in R.group
        # lifted element restricts to the original on original vertices
        for v in A.complex.sorted_vertices:
            assert lg(v) == g(v)
    a, b = A.group.generators
    assert lift(a * b) == lift(a) * lift(b)


@pytest.mark.parametrize(
    "build, rounds, witness",
    [
        (f4_rotation, 0, "(1 2 3) rotates simplex {1,2,3}"),
        (
            f4_rotation,
            1,
            "distinct orbits of ('1', 'b(1,2)') and ('1', 'b(1,3)') "
            "share vertex set ('1', 'b(1,2)')",
        ),
        (
            f5_antipodal,
            0,
            "distinct orbits of ('m1', 'm2') and ('m1', 'p2') share vertex set ('m1', 'm2')",
        ),
    ],
)
def test_refinement_failure_reports_rounds_and_witness(monkeypatch, build, rounds, witness):
    monkeypatch.setattr("stabpres.actions.MAX_SUBDIVISIONS", rounds)
    with pytest.raises(RefinementFailed) as exc:
        refine_action(build())
    head, _, detail = str(exc.value).partition(": ")
    assert head.endswith(f"after {rounds} subdivision{'' if rounds == 1 else 's'}")
    assert detail == witness


def test_subdivide_action_once():
    A = f2_s3()
    S = subdivide_action(A)
    assert S.subdivisions == 1
    assert S.complex.counts() == (7, 12, 6)
    ok, _ = check_without_rotations(S)
    assert ok


# -- quotients ----------------------------------------------------------


def test_quotient_flip():
    Q = build_quotient(refine_action(f1_flip()))
    assert Q.quotient.counts() == (2, 1, 0)
    assert Q.projection == {"a": "a", "b": "a", "m": "m"}
    assert Q.lifts(("a",)) == (("a",), ("b",))
    assert Q.lifts(("a", "m")) == (("a", "m"), ("b", "m"))
    assert Q.project_path(("a", "m", "b")) == ("a", "m", "a")


def test_quotient_shapes():
    for build, counts in [
        (f2_s3, (3, 3, 1)),
        (f3_octahedral, (3, 3, 1)),
        (f4_rotation, (9, 20, 12)),
        (f5_antipodal, (13, 36, 24)),
        (c6_rotation, (4, 4, 0)),
    ]:
        Q = build_quotient(refine_action(build()))
        assert Q.quotient.counts() == counts


def test_projection_commutes_with_action():
    for build in (f1_flip, f2_s3, f3_octahedral):
        A = refine_action(build())
        Q = build_quotient(A)
        for g in A.group.elements:
            for v in A.complex.sorted_vertices:
                assert Q.projection[g(v)] == Q.projection[v]


def test_quotient_requires_validation():
    with pytest.raises(PreconditionUnvalidated):
        build_quotient(f1_flip())  # not marked without rotations


def test_orbit_collision_shared_vertex_set():
    A = mark_without_rotations(f5_antipodal())
    with pytest.raises(OrbitCollision) as exc:
        build_quotient(A)
    assert str(exc.value) == (
        "orbit collision: distinct orbits of ('m1', 'm2') and ('m1', 'p2') "
        "share vertex set ('m1', 'm2')"
    )


def test_orbit_collision_degenerate():
    A = mark_without_rotations(c6_rotation())
    with pytest.raises(OrbitCollision) as exc:
        build_quotient(A)
    assert str(exc.value) == (
        "orbit collision: orbit of ('v0', 'v1') maps to degenerate vertex set ('v0',)"
    )


def _per_vertex_quotient(A):
    """`build_quotient`'s data of a collision-free action, with one orbit
    scan for every vertex: the reference for its scan per vertex orbit."""
    K = A.complex
    proj = {v: orbit_of_vertex(A, v)[0] for v in K.sorted_vertices}
    lift = {}
    for v in K.sorted_vertices:
        lift.setdefault((proj[v],), tuple((u,) for u in orbit_of_vertex(A, v)))
    for s in K.sorted_edges + K.sorted_triangles:
        lift.setdefault(tuple(sorted({proj[v] for v in s})), orbit_of_simplex(A, s))
    quotient = SimplicialComplex(
        frozenset(proj.values()),
        frozenset(s for s in lift if len(s) == 2),
        frozenset(s for s in lift if len(s) == 3),
    )
    return QuotientData(quotient, proj, lift)


def test_quotient_scans_each_vertex_orbit_once(dihedral_cone, monkeypatch):
    # each orbit is scanned from its least vertex, the quotient vertex,
    # and its other vertices are skipped
    builders = (f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal, c6_rotation)
    refined = [refine_action(build()) for build in builders]
    refined += [dihedral_cone(n, seed) for n in range(3, 13) for seed in (0, 1)]
    refined.append(refine_action(subdivide_action(subdivide_action(f3_octahedral()))))
    for A in refined:
        expected = _per_vertex_quotient(A)
        scanned = []

        def counting(A, v):
            scanned.append(v)
            return orbit_of_vertex(A, v)

        with monkeypatch.context() as m:
            m.setattr(actions, "orbit_of_vertex", counting)
            Q = build_quotient(A)
        assert Q == expected
        assert scanned == sorted(Q.quotient.vertices)


def test_refined_quotient_never_collides():
    for build in (f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal, c6_rotation):
        Q = build_quotient(refine_action(build()))
        # lift index covers every quotient simplex
        for s in Q.quotient.simplices():
            assert len(Q.lifts(s)) >= 1


# -- serialization ------------------------------------------------------


def test_action_json_round_trip():
    for build in (f1_flip, f2_s3, f3_octahedral):
        A = build()
        B = action_from_json_obj(action_to_json_obj(A))
        assert B.complex == A.complex
        assert B.group.elements == A.group.elements


def test_action_from_json_rejects_malformed():
    with pytest.raises(MalformedInput):
        action_from_json_obj([])
    with pytest.raises(MalformedInput):
        action_from_json_obj({"complex": {"vertices": ["a"], "edges": [], "triangles": []}})
    with pytest.raises(MalformedInput):
        action_from_json_obj(
            {
                "complex": {"vertices": ["a"], "edges": [], "triangles": []},
                "generators": ["(a b)"],
            }
        )
    with pytest.raises(MalformedInput, match="generators must be a list"):
        action_from_json_obj(
            {
                "complex": {"vertices": ["a"], "edges": [], "triangles": []},
                "generators": "(a b)",
            }
        )
