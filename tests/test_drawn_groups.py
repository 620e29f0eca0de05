"""Group products on hypothesis-drawn permutation groups: each product
read from base images is the product of the composed permutations."""

from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabpres.actions import PermGroup, Permutation  # noqa: E402
from stabpres.errors import GroupTooLarge  # noqa: E402

_DRAWN_GENERATORS = st.integers(4, 8).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
)


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
