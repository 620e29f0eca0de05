"""Complex construction, validation, subdivision, and paths."""

import json
from itertools import combinations

import pytest

from stabpres import (
    EmptyPath,
    InvalidComplex,
    MalformedInput,
    NotAnEdge,
    barycentric_subdivision,
    complex_from_json_obj,
    simplex,
    validate_complex,
    validate_path,
)
from stabpres.complexes import EdgePath, barycenter_name
from stabpres.fixtures import interval_complex, octahedron_boundary, solid_triangle


def test_simplex_canonicalizes():
    assert simplex(("c", "a", "b")) == ("a", "b", "c")
    assert simplex(["b", "a"]) == ("a", "b")


def test_single_point_complex():
    K = validate_complex(["a"])
    assert K.counts() == (1, 0, 0)
    assert K.components() == 1


def test_standard_simplex_valid():
    K = solid_triangle()
    assert K.counts() == (3, 3, 1)
    assert K.triangles == {("1", "2", "3")}


def test_missing_faces_all_reported():
    with pytest.raises(InvalidComplex) as exc:
        validate_complex(["a", "b", "c"], [["a", "b"]], [["a", "b", "c"]])
    kinds = [kind for kind, _ in exc.value.violations]
    assert kinds.count("MissingFace") == 2  # bc and ca (ac) both absent
    with pytest.raises(InvalidComplex) as exc:
        validate_complex(["a"], [["a", "b"]])
    assert exc.value.violations == (("MissingFace", "vertex 'b' of edge ('a', 'b')"),)


def test_duplicate_and_degenerate_reported():
    with pytest.raises(InvalidComplex) as exc:
        validate_complex(["a", "a", "b"], [["a", "b"], ["b", "a"], ["a", "a"]])
    kinds = sorted(kind for kind, _ in exc.value.violations)
    assert kinds == ["DegenerateSimplex", "DuplicateSimplex", "DuplicateSimplex"]
    edges = [["a", "b"], ["a", "c"], ["b", "c"]]
    triangles = [["a", "b", "c"], ["c", "b", "a"], ["a", "b", "a"]]
    with pytest.raises(InvalidComplex) as exc:
        validate_complex(["a", "b", "c"], edges, triangles)
    assert exc.value.violations == (
        ("DuplicateSimplex", "triangle ('a', 'b', 'c')"),
        ("DegenerateSimplex", "triangle ('a', 'b', 'a')"),
    )


def test_complex_json_round_trip():
    K = octahedron_boundary()
    K2 = complex_from_json_obj(json.loads(json.dumps(K.to_json_obj())))
    assert K2 == K


def test_complex_json_malformed():
    with pytest.raises(MalformedInput):
        complex_from_json_obj([])
    with pytest.raises(MalformedInput):
        complex_from_json_obj({"vertices": [1, 2]})
    with pytest.raises(MalformedInput):
        complex_from_json_obj({"vertices": ["a"], "edges": "nope"})
    with pytest.raises(MalformedInput, match="missing key: 'vertices'"):
        complex_from_json_obj({"edges": []})


def test_subdivision_point_and_edge():
    P, names = barycentric_subdivision(validate_complex(["a"]))
    assert P.counts() == (1, 0, 0) and names[("a",)] == "a"
    E, names = barycentric_subdivision(validate_complex(["a", "b"], [["a", "b"]]))
    assert E.counts() == (3, 2, 0)
    assert names[("a", "b")] == barycenter_name(("a", "b"))


def test_subdivision_counts_are_chain_counts():
    # vertices of Sd = simplices of K; edges = strict 2-chains in the face
    # poset (2 per edge, 3 + 3 per triangle); triangles = 3-chains (6 per)
    for K in (solid_triangle(), octahedron_boundary()):
        v, e, t = K.counts()
        sd, names = barycentric_subdivision(K)
        assert len(sd.vertices) == v + e + t
        assert len(sd.edges) == 2 * e + 6 * t
        assert len(sd.triangles) == 6 * t
        assert set(names) == set(K.simplices())


def test_subdivision_triangle_counts():
    sd, _ = barycentric_subdivision(solid_triangle())
    assert sd.counts() == (7, 12, 6)


def test_subdivision_face_closed():
    sd, _ = barycentric_subdivision(octahedron_boundary())
    for t in sd.triangles:
        assert set(combinations(t, 2)) <= sd.edges
    for e in sd.edges:
        assert set(e) <= sd.vertices


def test_validate_path_basics():
    K = interval_complex()
    p = validate_path(K, ["a", "m", "b"])
    assert isinstance(p, EdgePath)
    assert len(p) == 2 and p.start == "a" and p.vertices[-1] == "b"
    assert not p.is_loop()
    # constant path
    c = validate_path(K, ["a"])
    assert len(c) == 0 and c.is_loop()


def test_validate_path_errors():
    K = interval_complex()
    with pytest.raises(EmptyPath):
        validate_path(K, [])
    with pytest.raises(NotAnEdge) as exc:
        validate_path(K, ["a", "b"])
    assert exc.value.index == 0
    with pytest.raises(NotAnEdge) as exc:
        validate_path(K, ["a", "m", "zz"])
    assert exc.value.index == 2  # unknown vertex reported at its own position
