"""Every result type is an immutable record: equal and hashed by its
fields, unequal to any other type, and never assigned to.  Importing the
CLI loads no dataclass machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabpres.abelian import AbelianInvariants, TwoConnectedResult, colimit_H1, is_two_connected
from stabpres.actions import GroupAction, QuotientData
from stabpres.armstrong import StabilizerLetter, StabilizerWord, armstrong_express
from stabpres.complexes import EdgePath, SimplicialComplex, validate_path
from stabpres.fixtures import octahedron_boundary
from stabpres.homotopy import (
    DegenerateDisc,
    DiscCollapse,
    Move,
    MoveLog,
    collapse_disc,
    contract_loop,
    random_nondegenerate_disc,
)
from stabpres.presentation import (
    ConjRule,
    CosetTable,
    EdgeSymbol,
    Presentation,
    Relator,
    TheoremCertificate,
    pi1_presentation,
    verify_theorem,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# each record type with its fields in constructor order
FIELDS = {
    AbelianInvariants: ("rank", "torsion"),
    TwoConnectedResult: ("verdict", "witness"),
    GroupAction: ("complex", "group", "validated_without_rotations", "subdivisions"),
    QuotientData: ("quotient", "projection", "lift_index"),
    StabilizerLetter: ("element", "vertex"),
    StabilizerWord: ("letters",),
    SimplicialComplex: ("vertices", "edges", "triangles"),
    EdgePath: ("vertices",),
    Move: ("kind", "pos", "apex"),
    MoveLog: ("initial", "moves"),
    DegenerateDisc: ("complex", "boundary"),
    DiscCollapse: ("initial", "boundary_log"),
    EdgeSymbol: ("edge",),
    Relator: ("word", "tag"),
    ConjRule: ("element", "conjugate", "skip"),
    Presentation: ("generators", "explicit", "conj"),
    CosetTable: ("presentation", "table", "status", "order", "bound", "subgroup"),
    TheoremCertificate: ("checks", "group_order", "enumerated_order"),
}
CACHING = (SimplicialComplex, Presentation)  # their cached_property values need a __dict__


@pytest.fixture(scope="session")
def records(f2, f3):
    """One record of each type, from the f2 and f3 pipelines and the fixtures."""
    A, Q, P, T = f3
    K = octahedron_boundary()
    log = contract_loop(K, validate_path(K, ["p1", "p2", "p3", "p1"]), "p1")
    cert = collapse_disc(random_nondegenerate_disc(5, 1))
    pi1 = pi1_presentation(K, "p1")
    made = [
        colimit_H1(A, Q),
        is_two_connected(Q.quotient),
        A,
        Q,
        P.generators[0],
        armstrong_express(A, Q, min(A.complex.vertices), A.group.elements[7]),
        K,
        log.initial,
        log.moves[0],
        log,
        cert.initial,
        cert,
        pi1.generators[0],
        P.explicit[0],
        P.conj,
        f2.presentation,
        f2.table,
        verify_theorem(*f2),
    ]
    return {type(r): r for r in made}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_semantics(records, cls):
    r = records[cls]
    assert type(r) is cls
    values = tuple(getattr(r, name) for name in FIELDS[cls])
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = None
    assert tuple(getattr(r, name) for name in FIELDS[cls]) == values

    # a copy from the same fields, positional or by keyword, is equal
    for copy in (cls(*values), cls(**dict(zip(FIELDS[cls], values)))):
        assert copy is not r and copy == r and not copy != r
        if cls is QuotientData:  # its projection and lift index are dicts
            with pytest.raises(TypeError):
                hash(copy)
        else:
            assert hash(copy) == hash(r) == hash(values)
    assert r != values

    shown = repr(r)
    assert shown.startswith(f"{cls.__name__}({FIELDS[cls][0]}=") and shown.endswith(")")
    assert hasattr(r, "__dict__") is (cls in CACHING)


def test_equal_fields_of_different_types_stay_unequal():
    assert EdgePath(("a", "b")) != EdgeSymbol(("a", "b"))
    assert EdgeSymbol(("a", "b")) != EdgePath(("a", "b"))
    assert StabilizerWord(()) != EdgePath(())
    assert len({EdgePath(("a", "b")), EdgeSymbol(("a", "b")), ("a", "b")}) == 3
    assert Relator((0, 1), "mult") != Relator((0, 1), "edge")


def test_repr_has_the_field_form():
    assert repr(Move("tri", 2, "x")) == "Move(kind='tri', pos=2, apex='x')"
    assert repr(Move("back", 0)) == "Move(kind='back', pos=0, apex=None)"
    assert repr(AbelianInvariants(1, (2,))) == "AbelianInvariants(rank=1, torsion=(2,))"
    assert str(AbelianInvariants(1, (2,))) != repr(AbelianInvariants(1, (2,)))
    assert repr(QuotientData("Q", {}, {"x": 1})) == "QuotientData(quotient='Q', projection={})"


def test_defaults_and_keywords_are_kept():
    assert TwoConnectedResult("yes") == TwoConnectedResult(verdict="yes", witness="")
    assert ConjRule() == ConjRule((), (), ())
    P = Presentation(("x",), (Relator((0, 0), "mult"),))
    assert P.conj == ConjRule() and P == Presentation(("x",), P.explicit, conj=ConjRule())
    T = CosetTable(P, (), "exhausted", bound=5)
    assert (T.order, T.bound, T.subgroup) == (None, 5, ())


def test_cached_properties_are_computed_once(f2):
    K = octahedron_boundary()
    for name in ("sorted_vertices", "adjacency", "edge_index", "fillings"):
        first = getattr(K, name)
        assert getattr(K, name) is first and vars(K)[name] is first
    P = Presentation(f2.presentation.generators, f2.presentation.explicit, f2.presentation.conj)
    assert "relators" not in vars(P)
    for name in ("relators", "gen_index"):
        first = getattr(P, name)
        assert getattr(P, name) is first and vars(P)[name] is first
    assert P == f2.presentation


def test_importing_the_cli_loads_no_dataclass_machinery():
    # `dataclasses` imports inspect, ast, dis and tokenize, none of which the
    # CLI needs; each costs start-up time on every run
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import stabpres.cli, sys; print(*(m for m in {heavy!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
