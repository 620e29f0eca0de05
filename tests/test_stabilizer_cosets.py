"""Coset enumeration over the largest vertex stabilizer, on drawn inputs:
seeded dihedral cones D3-D24, f2, f3 and Sd(f3)."""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stabpres.actions import build_quotient, refine_action, subdivide_action  # noqa: E402
from stabpres.fixtures import f2_s3, f3_octahedral  # noqa: E402
from stabpres.presentation import build_presentation, todd_coxeter, verify_theorem  # noqa: E402

_FIXTURES = {
    "f2": lambda: refine_action(f2_s3()),
    "f3": lambda: refine_action(f3_octahedral()),
    "Sd(f3)": lambda: refine_action(subdivide_action(refine_action(f3_octahedral()))),
}

_CASES = st.one_of(
    st.sampled_from(sorted(_FIXTURES)),
    st.tuples(st.integers(3, 24), st.integers(0, 999)),
)


@functools.cache
def _certified(case, dihedral_cone):
    A = _FIXTURES[case]() if isinstance(case, str) else dihedral_cone(*case)
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    return A, Q, P, todd_coxeter(P)


@settings(max_examples=30, deadline=None)
@given(_CASES)
def test_enumeration_over_the_largest_stabilizer(dihedral_cone, case):
    A, Q, P, T = _certified(case, dihedral_cone)
    G = A.group
    order = G.order()
    most = max(map(len, G.stabilizers.values()))
    star = min(v for v, s in G.stabilizers.items() if len(s) == most)
    # H is generated by the letters at v*, and bounded by them and 1
    assert [P.generators[i] for i in T.subgroup] == [s for s in P.generators if s.vertex == star]
    n, h = len(T.table), len(T.subgroup) + 1
    assert T.status == "complete" and n * h == T.order == order
    assert n == order // most
    # a permutation action on the cosets of H, on which every relator of
    # R, and so every word of R' in it, closes
    for column in zip(*T.table):
        assert sorted(column) == list(range(n))
    for r in P.relators:
        for coset in range(n):
            assert T.trace(coset, r.word) == coset
    assert verify_theorem(A, Q, P, T).group_order == order
