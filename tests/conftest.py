"""Shared pipelines: each fixture action is refined, quotiented, presented,
and enumerated once per session."""

import functools
import importlib.util
from collections import namedtuple
from pathlib import Path

import pytest

import stabpres as sp
from stabpres.abelian import _contracted_relations
from stabpres.fixtures import f1_flip, f2_s3, f3_octahedral

Pipeline = namedtuple("Pipeline", "action quotient presentation table")

# the dihedral cones come from the benchmark's own generator, so the tests
# and the bench label their vertices the same way for the same seed
_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
)
_bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_inputs)


def _raw_dihedral_cone(n, seed):
    return sp.action_from_json_obj(_bench_inputs.dihedral_cone_obj(n, seed))


@functools.cache
def _dihedral_cone(n, seed):
    return sp.refine_action(_raw_dihedral_cone(n, seed))


@pytest.fixture(scope="session")
def dihedral_cone():
    """(n, seed) -> the refined action of D_n on the cone over an n-gon,
    its vertex labels shuffled by the seed."""
    return _dihedral_cone


@pytest.fixture(scope="session")
def raw_dihedral_cone():
    """(n, seed) -> the same action before refinement."""
    return _raw_dihedral_cone


def _pipeline(builder, max_cosets=10**5):
    A = sp.refine_action(builder())
    Q = sp.build_quotient(A)
    P = sp.build_presentation(A, Q)
    T = sp.todd_coxeter(P, max_cosets=max_cosets)
    return Pipeline(A, Q, P, T)


@pytest.fixture(scope="session")
def f1():
    return _pipeline(f1_flip)


@pytest.fixture(scope="session")
def f2():
    return _pipeline(f2_s3)


@pytest.fixture(scope="session")
def f3():
    return _pipeline(f3_octahedral)


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    from stabpres.fixtures import write_fixtures

    directory = tmp_path_factory.mktemp("fixtures")
    write_fixtures(directory)
    return directory


# -- references for the generator-row code paths ---------------------------
# The builder composes the conj rule's rows along G's generators, and the
# colimit reads only the S_v . G_v mult words; these are the full tables
# they must agree with.


def _letter_codes(A, P):
    """(v, number of g) -> the code of the letter g@v of P."""
    G = A.group
    return {(s.vertex, G.number[s.element]): 2 * i for i, s in enumerate(P.generators)}


def _product_built_rows(A, P):
    """The conj rule's rows conjugated out pair by pair with `G.product`:
    for each letter element g, the code of ((ghg^-1)@g(w))^-1 for each
    letter h@w, and None for every other element number."""
    G = A.group
    code = _letter_codes(A, P)
    rows = [None] * G.order()
    for g in dict.fromkeys(P.conj.element):
        x, ginv = G.elements[g], G.inverse_of[g]
        rows[g] = tuple(code[x(w), G.product(G.product(g, h), ginv)] + 1 for w, h in code)
    return tuple(rows)


def _full_table_colimit(A, P, orbit=True):
    """The invariants of P's mult words, each G_v's full multiplication
    table, and its edge words, with (`orbit`) one orbit word per letter
    and generator of G, composed from permutations: the colimit H1."""
    G = A.group
    code = _letter_codes(A, P)
    words = [r.word for r in P.explicit if r.tag in ("mult", "edge")]
    if orbit:
        words += [
            (a, code[t(v), G.number[t * G.elements[g] * t.inverse()]] + 1)
            for (v, g), a in code.items()
            for t in G.generators
        ]
    rows, _, width = _contracted_relations(words, len(P.generators))
    return sp.AbelianInvariants.from_relation_matrix(rows, width)


@pytest.fixture(scope="session")
def product_built_rows():
    return _product_built_rows


@pytest.fixture(scope="session")
def full_table_colimit():
    return _full_table_colimit
