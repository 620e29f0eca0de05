"""Stabilizer presentations, coset enumeration, and the certificate."""

import hashlib
import random
from dataclasses import replace

import pytest

from stabpres.actions import (
    Permutation,
    build_quotient,
    close_under_product,
    refine_action,
)
from stabpres.armstrong import StabilizerLetter, StabilizerWord
from stabpres.errors import CertificateFailed, Disconnected, UnknownSymbol
from stabpres.fixtures import cycle_complex, f3_octahedral, f5_antipodal, solid_triangle
from stabpres.presentation import (
    Presentation,
    Relator,
    build_presentation,
    cyclic_reduce,
    free_reduce,
    pi1_presentation,
    todd_coxeter,
    verify_theorem,
    word_to_coset,
)


def _pres(generators, *relator_words):
    """Synthetic presentation over plain string symbols."""
    return Presentation(
        tuple(generators),
        tuple(Relator(tuple(w), "mult") for w in relator_words),
    )


# -- word reduction -----------------------------------------------------


def test_free_reduce():
    w = (("a", 1), ("b", 1), ("b", -1), ("a", 1))
    assert free_reduce(w) == (("a", 1), ("a", 1))
    assert free_reduce((("a", 1), ("a", -1))) == ()
    assert free_reduce(()) == ()


def test_cyclic_reduce():
    w = (("a", -1), ("b", 1), ("a", 1))
    assert cyclic_reduce(w) == (("b", 1),)
    assert cyclic_reduce((("a", 1), ("a", -1))) == ()


# -- presentation contents ----------------------------------------------


def test_flip_presentation(f1):
    P = f1.presentation
    assert [s.name for s in P.generators] == ["(a b)@m"]
    assert P.counts_by_tag() == {"mult": 1}
    assert P.to_text() == "< (a b)@m | (a b)@m (a b)@m >"


def test_s3_presentation_counts(f2):
    P = f2.presentation
    assert len(P.generators) == 11
    assert P.counts_by_tag() == {"mult": 30, "edge": 6, "conj": 100}
    # generator symbols pair a nonidentity element with a vertex it fixes
    for s in P.generators:
        assert s.element(s.vertex) == s.vertex
        assert not s.element.is_identity()


def test_octahedral_presentation_counts(f3):
    P = f3.presentation
    assert len(P.generators) == 118
    assert P.counts_by_tag() == {"mult": 588, "edge": 72, "conj": 13335}


def test_relators_evaluate_to_identity(f2):
    identity = f2.action.group.identity
    for r in f2.presentation.relators:
        acc = identity
        for s, e in r.word:
            acc = acc * (s.element if e > 0 else s.element.inverse())
        assert acc == identity


def test_edge_relators_cover_edge_stabilizers(f2):
    edge_rels = [r for r in f2.presentation.relators if r.tag == "edge"]
    for r in edge_rels:
        (s1, e1), (s2, e2) = r.word
        assert (e1, e2) == (1, -1)
        assert s1.element == s2.element
        assert s1.vertex != s2.vertex


def test_presentation_json(f1):
    obj = f1.presentation.to_json_obj()
    assert obj["generators"] == ["(a b)@m"]
    assert obj["relators"] == [
        {"tag": "mult", "word": [["(a b)@m", 1], ["(a b)@m", 1]]}
    ]


# -- Todd-Coxeter oracles -----------------------------------------------


def test_tc_trivial_group():
    T = todd_coxeter(_pres([]))
    assert T.status == "complete" and T.order == 1
    T = todd_coxeter(_pres(["a"], [("a", 1)]))
    assert T.status == "complete" and T.order == 1


def test_tc_cyclic_two():
    T = todd_coxeter(_pres(["a"], [("a", 1), ("a", 1)]))
    assert T.status == "complete" and T.order == 2


def test_tc_alternating_four():
    # <a, b | a^2, b^3, (ab)^3> presents a group of order 12; cross-check
    # against the permutation group generated by (1 2)(3 4) and (1 2 3)
    P = _pres(
        ["a", "b"],
        [("a", 1)] * 2,
        [("b", 1)] * 3,
        [("a", 1), ("b", 1)] * 3,
    )
    T = todd_coxeter(P)
    assert T.status == "complete"
    dom = ("1", "2", "3", "4")
    a = Permutation.from_cycles(dom, [["1", "2"], ["3", "4"]])
    b = Permutation.from_cycles(dom, [["1", "2", "3"]])
    assert a * a == Permutation.identity(dom)
    assert b * b * b == Permutation.identity(dom)
    ab = a * b
    assert ab * ab * ab == Permutation.identity(dom)
    assert T.order == len(close_under_product(dom, [a, b])) == 12


def test_tc_exhausts_on_infinite_group():
    # one generator, no relators: the infinite cyclic group
    T = todd_coxeter(_pres(["a"]), max_cosets=50)
    assert T.status == "exhausted" and T.bound == 50 and T.order is None


def test_tc_table_is_complete_and_closed(f2):
    T = f2.table
    assert T.status == "complete" and T.order == 6
    n = T.order
    for i in range(len(T.generators)):
        col = [T.table[c][2 * i] for c in range(n)]
        inv = [T.table[c][2 * i + 1] for c in range(n)]
        assert sorted(col) == list(range(n))
        for c in range(n):
            assert inv[col[c]] == c
    for r in f2.presentation.relators:
        for c in range(n):
            assert T.trace(c, r.word) == c


def test_tc_closure_sweep_processes_a_coincidence():
    # the table is full after coset 0; the closure sweep then finds that
    # ab^-1a fails to close and merges the cosets it separates (the table
    # is the one a full HLT scan of every coset returns)
    a, B = ("a", 1), ("b", -1)
    T = todd_coxeter(_pres(["a", "b"], [B, a, a, B], [a, a], [a, B, a]))
    assert (T.status, T.order) == ("complete", 2)
    assert T.table == ((1, 1, 0, 0), (0, 0, 1, 1))


def _sweep_cases(sources):
    """(presentation, max_cosets) pairs of the enumeration sweep."""
    presentations = []
    for P, X, XG in sources:
        if P is not None:
            presentations.append(P)
        presentations += [pi1_presentation(K, min(K.vertices)) for K in (X, XG)]
    for P in presentations:
        for bound in (*range(1, 60), 10**6):
            yield P, bound
    rng = random.Random(1)
    for _ in range(2000):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]
        words = [
            free_reduce([(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 8))])
            for _ in range(rng.randint(0, 4))
        ]
        yield _pres(gens, *words), rng.choice((5, 50, 2000))


def test_tc_enumeration_sweep_digest(f1, f2, f3):
    # 2,660 enumerations, pinned by one sha256 of (status, order, bound,
    # table): the f1-f3 presentations and pi1 of X and X/G for f1, f2, f3
    # and f5, each at max_cosets 1..59 and 10^6, then 2,000 seeded random
    # presentations
    A = refine_action(f5_antipodal())
    sources = [(p.presentation, p.action.complex, p.quotient.quotient) for p in (f1, f2, f3)]
    sources.append((None, A.complex, build_quotient(A).quotient))
    digest = hashlib.sha256()
    for P, bound in _sweep_cases(sources):
        T = todd_coxeter(P, max_cosets=bound)
        digest.update(repr((T.status, T.order, T.bound, T.table)).encode())
    assert digest.hexdigest() == "710d5207ed8ca7d412511e99d2e2341387b5289ef08840a93da8072888804628"


def test_tc_fixture_orders(f1, f3):
    assert (f1.table.status, f1.table.order) == ("complete", 2)
    assert (f3.table.status, f3.table.order) == ("complete", 48)


def test_trace_rejects_unknown_symbol(f1):
    with pytest.raises(UnknownSymbol):
        f1.table.trace(0, (("nonsense", 1),))


# -- tracing stabilizer words -------------------------------------------


def test_word_to_coset(f1):
    A, T = f1.action, f1.table
    flip = next(g for g in A.group.elements if not g.is_identity())
    word = StabilizerWord((StabilizerLetter(flip, "m"),))
    empty = StabilizerWord(())
    assert word_to_coset(T, empty) == 0
    assert word_to_coset(T, word) != 0
    assert word_to_coset(T, word * word) == 0
    # identity letters contribute nothing
    padded = StabilizerWord((StabilizerLetter(A.group.identity, "a"),)) * word
    assert word_to_coset(T, padded) == word_to_coset(T, word)


def test_word_to_coset_requires_complete(f1):
    word = StabilizerWord(())
    exhausted = replace(f1.table, status="exhausted")
    from stabpres.errors import PreconditionUnvalidated

    with pytest.raises(PreconditionUnvalidated):
        word_to_coset(exhausted, word)


# -- the certificate ----------------------------------------------------


def test_verify_theorem_passes(f1, f2):
    for pipe in (f1, f2):
        cert = verify_theorem(pipe.action, pipe.quotient, pipe.presentation, pipe.table)
        assert [name for name, _ in cert.checks] == [
            "relators_psi_identity",
            "enumeration_complete",
            "order_matches",
            "psi_surjective",
        ]
        assert cert.group_order == cert.enumerated_order == pipe.action.group.order()


def test_verify_theorem_rejects_bad_relator(f1):
    P = f1.presentation
    bad = Presentation(P.generators, P.relators + (Relator(((P.generators[0], 1),), "mult"),))
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f1.action, f1.quotient, bad, f1.table)
    assert exc.value.check == "relators_psi_identity"


def test_verify_theorem_rejects_wrong_order(f1, f2):
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f2.action, f2.quotient, f2.presentation, f1.table)
    assert exc.value.check == "order_matches"


def test_verify_theorem_rejects_exhausted(f1):
    exhausted = replace(f1.table, status="exhausted", order=None)
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f1.action, f1.quotient, f1.presentation, exhausted)
    assert exc.value.check == "enumeration_complete"


def test_verify_theorem_rejects_failed_expression(f1, monkeypatch):
    # an expression procedure that returns the empty word misses every
    # nonidentity element, so psi is not shown to be onto
    monkeypatch.setattr(
        "stabpres.presentation.armstrong_express", lambda *args, **kw: StabilizerWord(())
    )
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f1.action, f1.quotient, f1.presentation, f1.table)
    assert exc.value.check == "psi_surjective"


def test_verify_theorem_rejects_table_of_another_presentation(f3):
    # the mult relators alone do not present G (their enumeration
    # exhausts), but the full presentation's table has the right order
    A, Q, P, T = f3
    P_mult = Presentation(P.generators, tuple(r for r in P.relators if r.tag == "mult"))
    assert len(P_mult.relators) == 588
    assert todd_coxeter(P_mult, max_cosets=5000).status == "exhausted"
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, P_mult, T)
    assert exc.value.check == "order_matches"
    assert "another presentation" in str(exc.value)


def test_verify_theorem_rejects_letters_of_another_action(f1, f2):
    # f1's letters permute another vertex set, so none is an element of f2's G
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f2.action, f2.quotient, f1.presentation, f1.table)
    assert exc.value.check == "relators_psi_identity"
    assert "is not an element of the acting group" in str(exc.value)


def test_verify_theorem_rejects_letter_outside_group(f2):
    A, Q, P, T = f2
    dom = A.complex.sorted_vertices
    v = dom[2]
    swap = Permutation.from_cycles(dom, [[dom[0], dom[1]]])
    assert swap not in A.group
    extra = StabilizerLetter(swap, v)
    # swap squares to the identity, so only the membership test catches it
    P_extra = Presentation(
        P.generators + (extra,), P.relators + (Relator(((extra, 1), (extra, 1)), "mult"),)
    )
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, P_extra, T)
    assert exc.value.check == "relators_psi_identity"
    assert f"letter {extra.name} is not an element of the acting group" in str(exc.value)


def _counting_products(monkeypatch):
    """Count every Permutation product from now on."""
    calls = [0]
    mul = Permutation.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    return calls


def test_product_memo_bounds_permutation_products(monkeypatch):
    # a fresh f3 group, so no other test has filled its product memo;
    # without the memo these were 28,450 and 55,400 products
    A = refine_action(f3_octahedral())
    Q = build_quotient(A)
    calls = _counting_products(monkeypatch)
    P = build_presentation(A, Q)
    assert calls[0] <= 1326
    T = todd_coxeter(P)
    calls[0] = 0
    verify_theorem(A, Q, P, T)
    assert calls[0] <= 256


# -- fundamental group presentations ------------------------------------


def test_pi1_filled_triangle_trivial():
    P = pi1_presentation(solid_triangle(), "1")
    T = todd_coxeter(P)
    assert T.status == "complete" and T.order == 1


def test_pi1_hollow_triangle_infinite():
    P = pi1_presentation(cycle_complex(3), "v0")
    assert len(P.generators) == 1 and P.relators == ()
    T = todd_coxeter(P, max_cosets=50)
    assert T.status == "exhausted"


def test_pi1_projective_plane():
    from stabpres.actions import build_quotient, refine_action

    Q = build_quotient(refine_action(f5_antipodal()))
    K = Q.quotient
    P = pi1_presentation(K, min(K.vertices))
    T = todd_coxeter(P)
    assert T.status == "complete" and T.order == 2


def test_pi1_requires_connected():
    from stabpres.complexes import SimplicialComplex

    K = SimplicialComplex(frozenset({"a", "b"}), frozenset(), frozenset())
    with pytest.raises(Disconnected):
        pi1_presentation(K, "a")


def test_tc_accepts_repeated_and_empty_relators(f1):
    # the builders never emit either; the enumerator scans relators as given
    P = f1.presentation
    padded = Presentation(P.generators, P.relators + (P.relators[0], Relator((), "mult")))
    T = todd_coxeter(padded)
    assert (T.status, T.order) == ("complete", 2)
