"""Acceptance gate: the nine headline criteria.

Each test prints exactly one line, "criterion N: PASS ..." or
"criterion N: FAIL ...", with the wall-clock bounds stated in the
criterion asserted inside the test.  Run with -s (or read captured
output) for the lines.
"""

import random
import time

from stabpres.abelian import (
    AbelianInvariants,
    AbelianizedWords,
    colimit_H1,
    group_abelianization,
    is_two_connected,
)
from stabpres.actions import (
    build_quotient,
    check_without_rotations,
    mark_without_rotations,
    refine_action,
)
from stabpres.armstrong import armstrong_express, psi_evaluate
from stabpres.errors import OrbitCollision
from stabpres.fixtures import f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal
from stabpres.homotopy import collapse_disc, random_nondegenerate_disc, verify_collapse
from stabpres.linalg import det_bareiss, invariant_factors, matmul, smith_normal_form
from stabpres.presentation import (
    build_presentation,
    todd_coxeter,
    verify_theorem,
    word_to_coset,
)

# the certificate's checks, in pass order
CHECKS = ["relators_psi_identity", "enumeration_complete", "order_matches", "psi_surjective"]


def _run(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"
        )
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def _pipeline(builder, max_cosets):
    A = refine_action(builder())
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    T = todd_coxeter(P, max_cosets=max_cosets)
    return A, Q, P, T


def test_criterion_1_flip_end_to_end():
    def body():
        A, Q, P, T = _pipeline(f1_flip, 10**4)
        assert T.status == "complete" and T.order == 2 == A.group.order()
        assert [name for name, _ in verify_theorem(A, Q, P, T).checks] == CHECKS

    _run(1, "flip action: Complete(2) = |G|, certificate passes", 1.0, body)


def test_criterion_2_s3_end_to_end():
    def body():
        A, Q, P, T = _pipeline(f2_s3, 10**4)
        assert len(P.generators) == 11
        assert T.status == "complete" and T.order == 6 == A.group.order()
        assert [name for name, _ in verify_theorem(A, Q, P, T).checks] == CHECKS

    _run(2, "S3 on the subdivided triangle: 11 generators, Complete(6)", 5.0, body)


def test_criterion_3_octahedral_end_to_end():
    def body():
        A, Q, P, T = _pipeline(f3_octahedral, 10**5)
        assert T.status == "complete" and T.order == 48 == A.group.order()
        assert [name for name, _ in verify_theorem(A, Q, P, T).checks] == CHECKS

    _run(3, "octahedral symmetry: Complete(48) within 1e5 cosets", 60.0, body)


def test_criterion_4_psi_inverts_expression(f1, f2, f3):
    def body():
        for pipe in (f1, f2, f3):
            A, Q = pipe.action, pipe.quotient
            basepoint = min(A.complex.vertices)
            for g in A.group.elements:
                word = armstrong_express(A, Q, basepoint, g)
                assert psi_evaluate(word, A.group.identity) == g

    _run(4, "psi(express(g)) = g exhaustively on all three fixtures", 60.0, body)


def test_criterion_5_choice_independence(f2):
    def body():
        A, Q, P, T = f2.action, f2.quotient, f2.presentation, f2.table
        words_mod = AbelianizedWords(P)
        basepoint = min(A.complex.vertices)
        for g in A.group.elements:
            cosets = set()
            images = set()
            for seed in range(25):
                word = armstrong_express(A, Q, basepoint, g, seed=seed)
                assert psi_evaluate(word, A.group.identity) == g
                cosets.add(word_to_coset(T, word))
                images.add(words_mod.image(word))
            assert len(cosets) == 1, f"{g.cycle_string()}: cosets {cosets}"
            assert len(images) == 1, f"{g.cycle_string()}: abelianized images differ"

    _run(5, "25 seeds per element agree in coset and abelianization", 60.0, body)


def test_criterion_6_colimit_identity(f1, f2, f3):
    def body():
        expected = {
            id(f1): AbelianInvariants(0, (2,)),
            id(f2): AbelianInvariants(0, (2,)),
            id(f3): AbelianInvariants(0, (2, 2)),
        }
        for pipe in (f1, f2, f3):
            col = colimit_H1(pipe.action, pipe.quotient)
            gab = group_abelianization(pipe.action.group)
            assert col == gab == expected[id(pipe)]

    _run(6, "colimit H1 = G^ab on all three fixtures (Z/2, Z/2, Z/2+Z/2)", 60.0, body)


def test_criterion_7_negative_controls():
    def body():
        ok, witness = check_without_rotations(f4_rotation())
        assert not ok
        g, s = witness
        assert g.cycle_string() == "(1 2 3)" and s == ("1", "2", "3")

        marked = mark_without_rotations(f5_antipodal())
        try:
            build_quotient(marked)
        except OrbitCollision:
            pass
        else:
            raise AssertionError("unsubdivided antipodal quotient must collide")

        Q = build_quotient(refine_action(f5_antipodal()))
        verdict = is_two_connected(Q.quotient)
        assert verdict.verdict == "no" and "pi1 has order 2" in verdict.witness

    _run(7, "rotation and antipodal controls rejected with witnesses", 10.0, body)


def test_criterion_8_collapse_calculus():
    def body():
        for seed in range(200):
            n = 3 + (seed % 10)  # boundary lengths 3..12
            disc = random_nondegenerate_disc(n, seed)
            cert = collapse_disc(disc)
            assert verify_collapse(cert)
            tri, back = cert.boundary_log.move_counts()
            assert 2 * back - tri == n

    _run(8, "200 random discs collapse with verified certificates", 30.0, body)


def test_criterion_9_snf_property_suite():
    def body():
        rng = random.Random(2026)
        for _ in range(500):
            M = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
            S, U, V = smith_normal_form(M)
            assert matmul(matmul(U, M), V) == S
            assert abs(det_bareiss(U)) == 1 and abs(det_bareiss(V)) == 1
            diag = [S[i][i] for i in range(6)]
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            prod = 1
            for d in diag:
                prod *= d
            assert abs(prod) == abs(det_bareiss(M))
            assert invariant_factors(M) == [abs(d) for d in diag if d != 0]

    _run(9, "500 random 6x6 Smith forms satisfy all postconditions", 60.0, body)
