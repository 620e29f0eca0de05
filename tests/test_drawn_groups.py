"""Hypothesis-drawn permutation groups: each product read from base
images is the product of the composed permutations, and on the 2-skeleton
of the simplex the drawn group permutes, the generator-row paths agree
with the full tables."""

from itertools import combinations
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabpres.abelian import (  # noqa: E402
    AbelianInvariants,
    _contracted_relations,
    colimit_H1,
)
from stabpres.actions import (  # noqa: E402
    PermGroup,
    Permutation,
    build_quotient,
    refine_action,
    validate_simplicial_action,
)
from stabpres.complexes import validate_complex  # noqa: E402
from stabpres.errors import GroupTooLarge  # noqa: E402
from stabpres.presentation import _local_words, build_presentation  # noqa: E402

def _drawn_generators(low, high):
    return st.integers(low, high).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    )


_DRAWN_GENERATORS = _drawn_generators(4, 8)


@settings(max_examples=40, deadline=None)
@given(_DRAWN_GENERATORS, st.data())
def test_products_on_drawn_groups_match_composed_permutations(images, data):
    domain = tuple(range(len(images[0])))
    G = PermGroup(domain, [Permutation.from_mapping(domain, dict(enumerate(p))) for p in images])
    # A_8 and S_8 are left out, as they would take most of the run time
    with patch("stabpres.actions.GROUP_CAP", 5040):
        try:
            elems, number = G.elements, G.number
        except GroupTooLarge:
            reject()
    # the identity and one drawn element against every element, both sides
    i = data.draw(st.integers(0, len(elems) - 1))
    for j, h in enumerate(elems):
        for a, b in ((0, j), (j, 0), (i, j), (j, i)):
            assert G.product(a, b) == number[elems[a] * elems[b]]


@settings(max_examples=20, deadline=None)
@given(images=_drawn_generators(4, 5))
def test_generator_rows_on_drawn_groups(product_built_rows, full_table_colimit, images):
    # every permutation of the n corners is simplicial on the 2-skeleton of
    # the (n-1)-simplex; a vertex stabilizer is then any point stabilizer of
    # the drawn group (up to S_4), and refinement adds those of its edges
    # and triangles
    names = [str(i) for i in range(len(images[0]))]
    K = validate_complex(names, combinations(names, 2), combinations(names, 3))
    domain = K.sorted_vertices
    perms = [Permutation.from_mapping(domain, {names[i]: names[j] for i, j in enumerate(p)}) for p in images]
    A = refine_action(validate_simplicial_action(K, perms))
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    assert P.conj.conjugate == product_built_rows(A, P)
    assert colimit_H1(A, Q) == full_table_colimit(A, P)
    letters, _, words = _local_words(A, spanning=True)
    rows, _, width = _contracted_relations([w for w, _ in words], len(letters))
    assert AbelianInvariants.from_relation_matrix(rows, width) == full_table_colimit(A, P, False)
