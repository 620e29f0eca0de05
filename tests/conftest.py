"""Shared pipelines: each fixture action is refined, quotiented, presented,
and enumerated once per session."""

import functools
import importlib.util
from collections import namedtuple
from pathlib import Path

import pytest

import stabpres as sp
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
