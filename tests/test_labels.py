"""The presentation makes no choices: relabelling the raw vertices of an
action relabels its presentation, enumeration, certificate and colimit,
and changes nothing else (Putman's presentation is canonical)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabpres.abelian import colimit_H1, group_abelianization  # noqa: E402
from stabpres.actions import (  # noqa: E402
    action_from_json_obj,
    action_to_json_obj,
    build_quotient,
    refine_action,
)
from stabpres.complexes import barycenter_name, barycentric_subdivision, simplex  # noqa: E402
from stabpres.fixtures import f2_s3, f3_octahedral  # noqa: E402
from stabpres.presentation import build_presentation, todd_coxeter, verify_theorem  # noqa: E402
from test_presentation import _all_rotations_key  # noqa: E402


def _relabelled(obj, sigma):
    """An action's JSON object with every raw vertex v renamed sigma[v]."""
    name = sigma.__getitem__
    K = obj["complex"]
    relabelled = {key: [list(map(name, s)) for s in K[key]] for key in ("edges", "triangles")}
    relabelled["vertices"] = list(map(name, K["vertices"]))
    generators = [[list(map(name, c)) for c in g] for g in obj["generators"]]
    return {"complex": relabelled, "generators": generators}


def _extended(K, sigma, subdivisions):
    """sigma, a relabelling of K's vertices, extended to the vertices of K
    subdivided that many times: the barycenter of s goes to the
    barycenter of sigma(s)."""
    for _ in range(subdivisions):
        sigma = {
            barycenter_name(s): barycenter_name(simplex(map(sigma.__getitem__, s)))
            for s in K.simplices()
        }
        K, _ = barycentric_subdivision(K)
    return sigma


def _certified(A):
    """The quotient, presentation, table and verify check list of A."""
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    T = todd_coxeter(P)
    return Q, P, T, verify_theorem(A, Q, P, T).checks


def _letter_key(letter, sigma):
    """A letter g@v as (sigma g sigma^-1 as sorted (point, image) pairs, sigma(v))."""
    g = letter.element
    moved = sorted((sigma[v], sigma[g(v)]) for v in g.domain if g(v) != v)
    return tuple(moved), sigma[letter.vertex]


def _relators_by_tag(P, code):
    """Each tag's set of relators, each letter code x read as code[x],
    up to rotation and inversion."""
    by_tag = {}
    for r in P.relators:
        by_tag.setdefault(r.tag, set()).add(_all_rotations_key(tuple(map(code.__getitem__, r.word))))
    return by_tag


@pytest.mark.parametrize("case", ["f2", "f3", "D6"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_the_presentation_makes_no_choices(case, data, raw_dihedral_cone):
    raw = {"f2": f2_s3, "f3": f3_octahedral, "D6": lambda: raw_dihedral_cone(6, 1)}[case]()
    labels = sorted(raw.complex.vertices)
    sigma = dict(zip(labels, data.draw(st.permutations(labels))))
    A = refine_action(raw)
    B = refine_action(action_from_json_obj(_relabelled(action_to_json_obj(raw), sigma)))
    assert B.subdivisions == A.subdivisions
    sigma = _extended(raw.complex, sigma, A.subdivisions)
    assert B.complex.vertices == set(sigma.values())

    Q, P, T, checks = _certified(A)
    QB, PB, TB, checks_B = _certified(B)
    identity = {v: v for v in B.complex.vertices}
    index = {_letter_key(s, identity): i for i, s in enumerate(PB.generators)}
    image = [index[_letter_key(s, sigma)] for s in P.generators]
    assert sorted(image) == list(range(len(PB.generators)))
    code = [2 * i + e for i in image for e in (0, 1)]
    # the raw words differ: g@v . g^-1@v is emitted once, in element-number
    # order, and the conj skips follow generator order; so each tag's
    # relators are compared up to rotation and inversion
    assert _relators_by_tag(P, code) == _relators_by_tag(PB, range(len(code)))
    assert (len(P), P.counts_by_tag()) == (len(PB), PB.counts_by_tag())
    assert (T.order, len(T.table), checks) == (TB.order, len(TB.table), checks_B)
    assert colimit_H1(A, Q) == colimit_H1(B, QB)
    assert group_abelianization(A.group) == group_abelianization(B.group)
