"""Stabilizer presentations, coset enumeration, and the certificate."""

import functools
import hashlib
import json
import random
from collections import Counter

import pytest

from stabpres.abelian import (
    AbelianInvariants,
    _contracted_relations,
    colimit_H1,
    is_simply_connected,
    is_two_connected,
)
from stabpres.actions import (
    PermGroup,
    Permutation,
    action_from_json_obj,
    action_to_json_obj,
    build_quotient,
    close_under_product,
    refine_action,
    subdivide_action,
)
from stabpres.armstrong import StabilizerLetter, StabilizerWord, armstrong_express
from stabpres.errors import (
    CertificateFailed,
    Disconnected,
    PreconditionUnvalidated,
    UnknownSymbol,
    UnknownVertex,
)
from stabpres.fixtures import (
    ALL,
    cycle_complex,
    f2_s3,
    f3_octahedral,
    f5_antipodal,
    solid_triangle,
)
from stabpres.presentation import (
    ConjRule,
    CosetTable,
    Presentation,
    Relator,
    _local_words,
    build_presentation,
    pi1_presentation,
    todd_coxeter,
    verify_theorem,
    word_to_coset,
)


def _code_pres(generators, *code_words):
    """Synthetic presentation over plain string symbols, its relator words
    given as letter codes."""
    return Presentation(tuple(generators), tuple(Relator(tuple(w), "mult") for w in code_words))


def _pres(generators, *relator_words):
    """Synthetic presentation over plain string symbols, its relator words
    spelled in those symbols as (symbol, +1|-1) letters."""
    index = {s: i for i, s in enumerate(generators)}
    return _code_pres(
        generators, *(tuple(2 * index[s] + (e < 0) for s, e in w) for w in relator_words)
    )


# -- the reference normaliser -------------------------------------------
# The package builds its relators distinct by construction; these are the
# reference that the builders' output is checked against.


def free_reduce(word):
    """Cancel each adjacent pair of a letter code x and its inverse x ^ 1."""
    out = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word):
    """The free reduction, less each pair of ends that cancel cyclically."""
    word = free_reduce(word)
    lo, hi = 0, len(word) - 1
    while lo < hi and word[lo] == word[hi] ^ 1:
        lo += 1
        hi -= 1
    return word[lo : hi + 1]


def _all_rotations_key(word):
    """The canonical cyclic key: every rotation of the word and of its
    inverse, built and compared."""
    w = list(word)
    wi = [x ^ 1 for x in reversed(w)]
    best = None
    for seq in (w, wi):
        n = len(seq)
        for r in range(n):
            cand = tuple(seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return best if best is not None else ()


def _distinct_relators(tagged_words):
    """Freely reduce each (word, tag), whose word is of letter codes, and
    keep it unless it cyclically reduces to the empty word or repeats a
    kept relator up to rotation and inversion."""
    relators = []
    seen = set()
    for word, tag in tagged_words:
        word = free_reduce(word)
        key = _all_rotations_key(cyclic_reduce(word))
        if key and key not in seen:
            seen.add(key)
            relators.append(Relator(word, tag))
    return tuple(relators)


def test_free_reduce():
    a, A, b, B = 0, 1, 2, 3  # the codes of a, a^-1, b and b^-1
    assert free_reduce((a, b, B, a)) == (a, a)
    assert free_reduce((a, A)) == ()
    assert free_reduce((B, a, A, b, a)) == (a,)
    assert free_reduce((a, B)) == (a, B)  # codes 0 and 3 are not inverse
    assert free_reduce(()) == ()


def test_cyclic_reduce():
    a, A, b, B = 0, 1, 2, 3  # the codes of a, a^-1, b and b^-1
    assert cyclic_reduce((A, b, a)) == (b,)
    assert cyclic_reduce((a, A)) == ()
    assert cyclic_reduce((B, a, a, b)) == (a, a)
    assert cyclic_reduce((a, b, B, A, b)) == (b,)


def _reference_words(A):
    """The raw `mult`, `edge` and `conj` words of the stabilizer
    presentation, every ordered pair of letters included, as the builder
    emitted them before it skipped rotations, inverses and empty words."""
    G = A.group
    code_of = {}
    for v in A.complex.sorted_vertices:
        for g in G.stabilizers[v][1:]:
            code_of[v, G.number[g]] = 2 * len(code_of)
    for v in A.complex.sorted_vertices:
        stab = [G.number[g] for g in G.stabilizers[v][1:]]
        for g in stab:
            for h in stab:
                k = G.product(g, h)
                word = [code_of[v, g], code_of[v, h]]
                if k:
                    word.append(code_of[v, k] ^ 1)
                yield word, "mult"
    for u, w in A.complex.sorted_edges:
        for g in G.stabilizers[u][1:]:
            if g(w) == w:
                yield [code_of[u, G.number[g]], code_of[w, G.number[g]] ^ 1], "edge"
    for (v, g), a in code_of.items():
        for (w, h), b in code_of.items():
            k = G.product(G.product(g, h), G.inverse_of[g])
            c = code_of[G.elements[g](w), k]
            yield [a, b, a ^ 1, c ^ 1], "conj"


# -- distinct by construction -------------------------------------------


@pytest.mark.parametrize(
    "case",
    ["f1", "f2", "f3", "Sd(f3)", *(f"D{n}/{s}" for n in range(3, 17) for s in (0, 1, 7, 99))],
)
def test_build_presentation_matches_normaliser(case, request, dihedral_cone):
    # the builder skips exactly the words the normaliser would drop, in order
    if case == "Sd(f3)":
        A = refine_action(subdivide_action(refine_action(f3_octahedral())))
    elif case.startswith("D"):
        n, seed = map(int, case[1:].split("/"))
        A = dihedral_cone(n, seed)
    else:
        A = request.getfixturevalue(case).action
    P = build_presentation(A, build_quotient(A))
    assert P.relators == _distinct_relators(_reference_words(A))


def test_builder_skip_counts_on_f3(f3):
    words = list(_reference_words(f3.action))
    assert Counter(tag for _, tag in words) == {"mult": 602, "edge": 72, "conj": 13924}
    # (g, g^-1) rotations: a two-letter mult word whose first letter is the later one
    rotations = sum(1 for w, tag in words if tag == "mult" and len(w) == 2 and w[0] > w[1])
    conj = {(w[0], w[1]): w[3] ^ 1 for w, tag in words if tag == "conj"}
    self_pairs = sum(1 for a, b in conj if a == b)
    # a b a^-1 b^-1 whose inverse is the earlier word of (b, a)
    mutual = sum(1 for (a, b), c in conj.items() if c == b and b < a and conj[b, a] == a)
    assert (rotations, self_pairs, mutual) == (14, 118, 471)
    assert f3.presentation.counts_by_tag() == {
        "mult": 602 - rotations,
        "edge": 72,
        "conj": 13924 - self_pairs - mutual,
    }


def test_build_presentation_needs_no_cyclic_key(f3):
    import stabpres.presentation as presentation

    # the builder keeps its relators distinct by construction: no cyclic
    # key or normaliser is left in the package, and its output is already
    # what the reference normaliser would keep
    for name in ("_canonical_cyclic_key", "_distinct_relators", "free_reduce", "cyclic_reduce"):
        assert not hasattr(presentation, name)
    P = build_presentation(f3.action, f3.quotient)
    assert P == f3.presentation
    assert _distinct_relators((r.word, r.tag) for r in P.relators) == P.relators


def test_local_words_need_an_action_without_rotations(f2):
    A = f2_s3()  # validated, not yet marked without rotations
    for build in (build_presentation, colimit_H1):
        with pytest.raises(PreconditionUnvalidated, match="without rotations"):
            build(A, f2.quotient)


# -- the conj rule --------------------------------------------------------


def _no_conj_relator(monkeypatch):
    """Let `stabpres.presentation` form its local `Relator`s but no conj
    one; the returned function makes it refuse every `Relator`."""
    import stabpres.presentation as presentation

    def local_only(word, tag):
        if tag == "conj":
            raise AssertionError("a conj Relator was formed")
        return Relator(word, tag)

    def refuse(word, tag):
        raise AssertionError(f"a {tag} Relator was formed")

    monkeypatch.setattr(presentation, "Relator", local_only)
    return lambda: monkeypatch.setattr(presentation, "Relator", refuse)


def test_certify_forms_no_relator_past_the_local_words(monkeypatch, dihedral_cone):
    cases = [(refine_action(f3_octahedral()), 13_995), (dihedral_cone(16, 1), 9_723)]
    for A, relators in cases:
        refuse = _no_conj_relator(monkeypatch)
        Q = build_quotient(A)
        P = build_presentation(A, Q)
        refuse()
        assert len(P) == relators
        T = todd_coxeter(P)
        cert = verify_theorem(A, Q, P, T)
        assert T.order == cert.group_order == A.group.order()
        assert cert.checks[0] == ("relators_psi_identity", f"{relators} relators")


@pytest.mark.parametrize(
    "case", ["f2", "f3", *(f"D{n}/{s}" for n in range(3, 17) for s in range(3))]
)
def test_explicit_copy_of_the_rule_enumerates_alike(case, request, dihedral_cone):
    if case.startswith("D"):
        n, seed = map(int, case[1:].split("/"))
        A = dihedral_cone(n, seed)
        P = build_presentation(A, build_quotient(A))
    else:
        A, _, P, _ = request.getfixturevalue(case)
    E = Presentation(P.generators, P.relators)
    assert E.conj == ConjRule() and len(E.explicit) == len(E) == len(P)
    assert E.counts_by_tag() == P.counts_by_tag()
    # E has no rule, so HLT scans every coset of its table; P's stops at
    # |G| / |G_v*| labels.  Both enumerate the cosets of the same H
    assert todd_coxeter(E).table == todd_coxeter(P).table
    # the same distinct words, in the same order, under images that merge
    # letters (by element number, and at random) and the identity, with
    # every letter code a root or a random half of them
    G = A.group
    numbers = [G.number[s.element] for s in P.generators for _ in (0, 1)]
    numbers[1::2] = map(G.inverse_of.__getitem__, numbers[1::2])
    rng = random.Random(case)
    images = [numbers, [rng.randrange(3) for _ in numbers], list(range(len(numbers)))]
    every = set(range(len(numbers)))
    half = {x for x in every if rng.random() < 0.5}
    for image in images:
        for roots in (every, half):
            assert list(P.relator_words(image, roots)) == list(E.relator_words(image, roots))


@pytest.mark.parametrize(
    "conjugate, skip",
    [
        ((1, 4), ((0,), (2,))),
        ((1, -1), ((0,), (2,))),
        ((1, 3.0), ((0,), (2,))),
        ((1, True), ((0,), (2,))),
        ((1, 3), ((0,), (4,))),
        ((1, 3), ((0,), ("2",))),
    ],
    ids=["past-generators", "negative", "float", "bool", "skip-past", "skip-str"],
)
def test_rule_rejects_codes_outside_the_letters(conjugate, skip):
    # two letters a and b of element 1, as in the test below; True equals
    # the code 1 but is no int code
    bad = next(x for x in (*conjugate, *skip[1]) if type(x) is not int or x not in range(4))
    with pytest.raises(UnknownSymbol) as exc:
        Presentation(("a", "b"), (), ConjRule((1, 1), (None, conjugate), skip))
    assert (type(exc.value.symbol), exc.value.symbol) == (type(bad), bad)


@pytest.mark.parametrize(
    "rule",
    [
        ConjRule((1,), (None, None), ((),)),
        ConjRule((5,), (None, (1,)), ((),)),
        ConjRule((-1,), (None, (1,)), ((),)),
    ],
    ids=["row-none", "element-past-rows", "element-negative"],
)
def test_rule_refuses_an_element_without_a_row(rule):
    # element -1 would read the last row by wraparound
    with pytest.raises(ValueError, match="one entry per generator"):
        Presentation(("a",), (), rule)


def test_rule_words_and_shape():
    rule = ConjRule((1, 1), (None, (1, 3)), ((0,), (2,)))
    P = Presentation(("a", "b"), (), rule)
    assert [r.word for r in P.relators] == [(0, 2, 1, 3), (2, 0, 3, 1)]
    assert (len(P), P.counts_by_tag()) == (2, {"conj": 2})
    with pytest.raises(ValueError, match="one entry per generator"):
        Presentation(("a",), (), rule)


def _no_permutation_product(monkeypatch):
    """Make every `Permutation` product fail; the returned function
    allows them again."""
    mul = Permutation.__mul__

    def refuse(a, b):
        raise AssertionError("a Permutation product was composed")

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    return lambda: monkeypatch.setattr(Permutation, "__mul__", mul)


@pytest.fixture
def traces(monkeypatch):
    """Per `relator_words` call, [r, t]: r the returned words not of the
    form c c^-1, and t the times the returned words were iterated since.
    `todd_coxeter` iterates a word only to trace it forward (`scan_and_fill`
    indexes), so t counts its fast traces.  A scan of every word at each
    of n live cosets makes t >= n . r, so t < n . r shows HLT stopped
    early."""
    calls, relator_words = [], Presentation.relator_words

    def counted(self, image, roots):
        tally = [0, 0]
        calls.append(tally)

        class Word(tuple):
            def __iter__(self):
                tally[1] += 1
                return super().__iter__()

        words = relator_words(self, image, roots)
        tally[0] = sum(len(w) != 2 or w[0] != w[1] ^ 1 for w in words)
        return dict.fromkeys(map(Word, words))

    monkeypatch.setattr(Presentation, "relator_words", counted)
    return calls


def _scanned_every_coset(calls, *orders):
    """Per counted enumeration, of label counts `orders`, whether it traced
    at least as many words as a scan of every word at every live coset."""
    assert len(calls) == len(orders)
    return [t >= n * r for (r, t), n in zip(calls, orders)]


def test_d48_cone_certifies_at_scale(monkeypatch, raw_dihedral_cone):
    # |G| = 96: 89,835 relators, of which no conj one is ever formed, and
    # the build reads every group product from base images
    A = refine_action(raw_dihedral_cone(48, 1))
    Q = build_quotient(A)
    assert is_simply_connected(A.complex) and is_two_connected(Q.quotient)
    refuse = _no_conj_relator(monkeypatch)
    allow = _no_permutation_product(monkeypatch)
    P = build_presentation(A, Q)
    refuse()
    allow()
    assert (len(P.generators), len(P)) == (287, 89_835)
    T = todd_coxeter(P)
    cert = verify_theorem(A, Q, P, T)
    assert (T.status, T.order, cert.group_order) == ("complete", 96, 96)
    assert [name for name, _ in cert.checks] == [
        "relators_psi_identity",
        "enumeration_complete",
        "order_matches",
        "psi_surjective",
    ]


def test_d96_cone_builds_without_permutation_products(monkeypatch, raw_dihedral_cone, traces):
    # |G| = 192, and every element fixes the apex, so its mult table alone
    # multiplies every pair of nonidentity elements; the apex letters
    # generate G, so the seeded coset 0 is a full row at 1 . 192 = |G| and
    # HLT returns it without forming a word of R'
    A = refine_action(raw_dihedral_cone(96, 1))
    Q = build_quotient(A)
    allow = _no_permutation_product(monkeypatch)
    P = build_presentation(A, Q)
    allow()
    assert (len(P.generators), len(P)) == (575, 361_683)
    # R' of those, the rule read at Tietze roots only, presents G
    T = todd_coxeter(P)
    assert (T.status, T.order, len(T.table)) == ("complete", 192, 1)
    assert traces == []
    assert verify_theorem(A, Q, P, T).group_order == 192


@functools.cache
def _subdivided_f3(times):
    A = refine_action(f3_octahedral())
    for _ in range(times):
        A = refine_action(subdivide_action(A))
    return A


@pytest.mark.parametrize(
    "case",
    ["f1", "f2", "f3", "Sd(f3)", "Sd2(f3)", *(f"D{n}/{s}" for n in range(3, 25) for s in range(3))],
)
def test_r_prime_certifies(case, request, dihedral_cone, traces):
    # Complete(|G|) on R' over the cosets of the largest vertex stabilizer
    # G_v*, at |G| / |G_v*| labels: HLT traces each word once, at coset 0,
    # after which the table is complete and the lemma returns it; when G_v*
    # is G the seeded coset 0 is already full and no word is formed.  The
    # certificate holds
    if case.startswith("Sd"):
        A = _subdivided_f3(2 if case == "Sd2(f3)" else 1)
    elif case.startswith("D"):
        n, seed = map(int, case[1:].split("/"))
        A = dihedral_cone(n, seed)
    else:
        A = request.getfixturevalue(case).action
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    order = A.group.order()
    traces.clear()  # a session fixture built in this test enumerated too
    T = todd_coxeter(P, max_cosets=20 * order)
    stab = max(map(len, A.group.stabilizers.values()))
    assert (T.status, T.order, len(T.table)) == ("complete", order, order // stab)
    if stab == order:
        assert traces == []
    else:
        [(r, t)] = traces
        assert t == r
    assert verify_theorem(A, Q, P, T).group_order == order


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
    P = f2.presentation
    for r in P.relators:
        acc = identity
        for x in r.word:
            s = P.generators[x >> 1]
            acc = acc * (s.element.inverse() if x & 1 else s.element)
        assert acc == identity


def test_edge_relators_cover_edge_stabilizers(f2):
    P = f2.presentation
    edge_rels = [r for r in P.relators if r.tag == "edge"]
    for r in edge_rels:
        x1, x2 = r.word
        s1, s2 = P.generators[x1 >> 1], P.generators[x2 >> 1]
        assert (x1 & 1, x2 & 1) == (0, 1)
        assert s1.element == s2.element
        assert s1.vertex != s2.vertex


@pytest.mark.parametrize(
    "word",
    [(-1,), (2, 0), ((0, 2),), ((0, 1),), (0.0,), (True, 0)],
    ids=[
        "negative-index",
        "index-past-generators",
        "exponent-2",
        "index-sign-pair",
        "float",
        "bool",
    ],
)
def test_presentation_rejects_letters_outside_generators(word):
    # letter codes index tables and lists, where -1 would wrap around
    # silently; one generator has the codes 0 and 1 only, and an
    # (index, exponent) pair, the old letter spelling, is no code; True
    # equals and hashes like the code 1 held by the relator before it, so
    # a check over the set of letters would let it through
    with pytest.raises(UnknownSymbol) as exc:
        Presentation(("a",), (Relator((0, 1), "mult"), Relator(word, "mult")))
    assert (type(exc.value.symbol), exc.value.symbol) == (type(word[0]), word[0])


def test_presentation_to_json_digests(f3, dihedral_cone):
    A = dihedral_cone(8, 1)
    cone = build_presentation(A, build_quotient(A))
    for P, digest in (
        (f3.presentation, "28fa399070ff0ce02aa65688bb5bb703d95f9de8dd7ee0c90a651a308a9bdea6"),
        (cone, "32d98162f118c7d8145b3cde24b89be24d8516dcb6c667edc3bc4bb868f3103f"),
    ):
        assert hashlib.sha256(P.to_json().encode()).hexdigest() == digest


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


def test_tc_table_is_complete_and_closed(f2, f3, dihedral_cone):
    # every relator traced letter by letter at every coset of H, apart from
    # `todd_coxeter`'s scans, and H's letters fixing coset 0; the order is
    # the rows times the bound on |H|, its letters and 1
    D16 = dihedral_cone(16, 1)
    cases = [(f2.table, 6, 1), (f3.table, 48, 6)]
    cases.append((todd_coxeter(build_presentation(D16, build_quotient(D16))), 32, 1))
    for T, order, n in cases:
        assert T.status == "complete" and T.order == order
        assert len(T.table) == n and n * (len(T.subgroup) + 1) == order
        assert all(T.trace(0, (2 * i,)) == 0 for i in T.subgroup)
        for i in range(len(T.presentation.generators)):
            col = [T.table[c][2 * i] for c in range(n)]
            inv = [T.table[c][2 * i + 1] for c in range(n)]
            assert sorted(col) == list(range(n))
            for c in range(n):
                assert inv[col[c]] == c
        for r in T.presentation.relators:
            for c in range(n):
                assert T.trace(c, r.word) == c


def test_tc_closure_sweep_processes_a_coincidence(traces):
    # the table is full after coset 0; scanning on, HLT finds that ab^-1a
    # fails to close and merges the cosets it separates
    a, B = ("a", 1), ("b", -1)
    T = todd_coxeter(_pres(["a", "b"], [B, a, a, B], [a, a], [a, B, a]))
    assert (T.status, T.order) == ("complete", 2)
    assert T.table == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert _scanned_every_coset(traces, 2) == [True]


def test_tc_rule_presentation_sweeps_when_the_count_is_not_the_order(traces):
    # the relators above, with a rule of two letters of element 1 that
    # skips every pair: the rule adds no relator but says |G| = 2, and HLT
    # completes at 4 labels, an upper bound that is not |G|, so it scans
    # on and returns the same table
    a, B = 0, 3
    rule = ConjRule(element=(1, 1), conjugate=(None, (1, 3)), skip=((0, 2), (0, 2)))
    words = [(B, a, a, B), (a, a), (a, B, a)]
    P = Presentation(("a", "b"), tuple(Relator(w, "mult") for w in words), rule)
    assert len(P.conj) == 0 and len(P.conj.conjugate) == 2
    T = todd_coxeter(P)
    assert (T.status, T.order) == ("complete", 2)
    assert T.table == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert _scanned_every_coset(traces, 2) == [True]


def test_tc_closure_sweep_fails_after_a_memoised_prefix(traces):
    # a^-1 b^-1 a b^-1 closes on the full table; a^-1 b^-1 b^-1, the first
    # relator that fails, shares the prefix a^-1 b^-1 with it
    A, a, B = ("a", -1), ("a", 1), ("b", -1)
    T = todd_coxeter(_pres(["a", "b"], [A, B, a, B], [A, B, B], [B, B, a]))
    assert (T.status, T.order) == ("complete", 2)
    assert T.table == ((0, 0, 1, 1), (1, 1, 0, 0))
    # here the first relator, b, fails at the first coset scanned on
    b = ("b", 1)
    T = todd_coxeter(_pres(["a", "b"], [b], [a, B, A, A], [a, b, a], [A, A, A, B]))
    assert (T.status, T.order, T.table) == ("complete", 1, ((0, 0, 0, 0),))
    assert _scanned_every_coset(traces, 2, 1) == [True, True]


def test_tc_closure_sweep_fails_on_a_table_with_equal_columns(traces):
    # no relator x y names two generators, so no letter is eliminated; HLT
    # completes with four full rows, on which a c b a^-1, b a^-1 b^-1 and
    # a^-1 b^-1 b^-1 fail to close at cosets 2 and 3; scanning on merges
    # them, and the a and a^-1 columns (and c and c^-1) are equal
    a, A, b, B, c, C = ("a", 1), ("a", -1), ("b", 1), ("b", -1), ("c", 1), ("c", -1)
    P = _pres(["a", "b", "c"], [a, c, b, A], [b, A, B], [A, A], [A, B, B], [A, A, C, C])
    T = todd_coxeter(P)
    assert (T.status, T.order) == ("complete", 2)
    assert T.table == ((0, 0, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0))
    assert _scanned_every_coset(traces, 2) == [True]
    # a reference check, apart from `todd_coxeter`'s scans: every
    # relator, in order, traced letter by letter at every coset
    for r in P.relators:
        for coset in range(T.order):
            assert T.trace(coset, r.word) == coset


def _sweep_cases(presentations, complexes):
    """(presentation, max_cosets) pairs of the enumeration sweep: each
    presentation, then pi1 of each complex, at max_cosets 1..59 and 10^6,
    then 2,000 seeded random presentations."""
    presentations = [*presentations, *(pi1_presentation(K, min(K.vertices)) for K in complexes)]
    for P in presentations:
        for bound in (*range(1, 60), 10**6):
            yield P, bound
    rng = random.Random(1)
    for _ in range(2000):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]
        # a generator, then a sign, per letter: the draws of the words as
        # first spelled, in (symbol, +1|-1) letters
        words = [
            free_reduce(
                [
                    2 * gens.index(rng.choice(gens)) + (rng.choice((1, -1)) < 0)
                    for _ in range(rng.randint(1, 8))
                ]
            )
            for _ in range(rng.randint(0, 4))
        ]
        yield _code_pres(gens, *words), rng.choice((5, 50, 2000))


def test_tc_enumeration_sweep_digest(f1, f2, f3):
    # 2,660 enumerations, pinned by two sha256s of (status, order, bound,
    # table): the rule rows, f1's, f2's and f3's presentations at
    # max_cosets 1..59 and 10^6, and the other rows, pi1 of X and X/G for
    # f1, f2, f3 and f5 at the same bounds and 2,000 seeded random
    # presentations.  The rule rows are HLT's tables over the cosets of
    # the largest vertex stabilizer, at |G| / |G_v*| labels; enumerating
    # over them moved only those rows.  On the other rows H is trivial and
    # HLT scans every live coset.  Every distinct complete table is
    # checked to close: every relator at every row
    A = refine_action(f5_antipodal())
    rule = [p.presentation for p in (f1, f2, f3)]
    complexes = [K for p in (f1, f2, f3) for K in (p.action.complex, p.quotient.quotient)]
    complexes += [A.complex, build_quotient(A).quotient]
    rule_rows, other_rows = hashlib.sha256(), hashlib.sha256()
    closed = set()
    for P, bound in _sweep_cases(rule, complexes):
        T = todd_coxeter(P, max_cosets=bound)
        digest = rule_rows if any(P is R for R in rule) else other_rows
        digest.update(repr((T.status, T.order, T.bound, T.table)).encode())
        if T.status == "complete" and (id(P), T.table) not in closed:
            closed.add((id(P), T.table))
            for r in P.relators:
                for coset in range(len(T.table)):
                    assert T.trace(coset, r.word) == coset
    assert rule_rows.hexdigest() == "10760ba50d8d53a3ab06d1105770224e9077a01bcf4ea982556bc3598bef3d5d"
    assert other_rows.hexdigest() == "9a960b266f1e3ae5227b9c1234bc365607759ea42b0832c523d499e7a0c0ae3f"


def test_tc_coset_need(f1, f2, f3, dihedral_cone):
    # the least max_cosets that completes, pinned; eliminating the letters
    # that edge and mult relators x y make equal leaves f3's 118 generators
    # 41 to enumerate over, and R' of those needs 11 cosets of the largest
    # vertex stabilizer (order 8, index 6), where the trivial subgroup
    # needed 286, all of R 389 and all 118 generators 578
    T = todd_coxeter(f3.presentation, max_cosets=11)
    assert (T.order, len(T.table), len(T.subgroup)) == (48, 6, 7)
    assert todd_coxeter(f3.presentation, max_cosets=10).status == "exhausted"
    # f1's and f2's largest stabilizers, and each cone's apex stabilizer,
    # are all of G: one coset
    cases = [(f1.presentation, 2), (f2.presentation, 6)]
    for n in (8, 12, 16):
        for seed in (0, 1):
            A = dihedral_cone(n, seed)
            cases.append((build_presentation(A, build_quotient(A)), 2 * n))
    for P, order in cases:
        T = todd_coxeter(P, max_cosets=1)
        assert (T.status, T.order, len(T.table)) == ("complete", order, 1)


@pytest.mark.parametrize("length", [3, 2])
@pytest.mark.parametrize("retag", [False, True], ids=["dropped", "tagged-conj"])
def test_subgroup_needs_the_closure(f3, length, retag):
    # without one mult word of v*'s letters, a b c^-1 or a b, the letters
    # at v* are not seen to be closed under products, and the enumeration
    # falls back to the trivial subgroup: |G| rows, the same order.  An
    # explicit word tagged conj does not count, as R' may leave it out
    P, at = f3.presentation, {2 * i for i in f3.table.subgroup}
    drop = next(r for r in P.explicit if r.tag == "mult" and len(r.word) == length and r.word[0] in at)
    keep = [Relator(r.word, "conj") if r is drop else r for r in P.explicit if r is not drop or retag]
    T = todd_coxeter(Presentation(P.generators, tuple(keep), P.conj))
    assert (T.status, T.subgroup, T.order, len(T.table)) == ("complete", (), 48, 48)


def test_subgroup_is_at_the_least_largest_stabilizer():
    # refined f3's least vertex is a barycentre with a stabilizer of order
    # 4; the six octahedron vertices tie at order 8, and H is generated by
    # the letters at the least of them, which a relabelling moves
    for name, star in (("p3", "m1"), ("l3", "l3")):
        obj = json.loads(json.dumps(action_to_json_obj(f3_octahedral())).replace('"p3"', f'"{name}"'))
        A = refine_action(action_from_json_obj(obj))
        stabilizers = A.group.stabilizers
        assert len(stabilizers[min(A.complex.vertices)]) == 4
        assert sorted(v for v, s in stabilizers.items() if len(s) == 8)[0] == star
        Q = build_quotient(A)
        P = build_presentation(A, Q)
        T = todd_coxeter(P)
        assert {P.generators[i].vertex for i in T.subgroup} == {star}
        assert (T.order, len(T.table), len(T.subgroup)) == (48, 6, 7)
        assert verify_theorem(A, Q, P, T).group_order == 48


def test_tc_fixture_orders(f1, f3):
    assert (f1.table.status, f1.table.order) == ("complete", 2)
    assert (f3.table.status, f3.table.order) == ("complete", 48)


def test_trace_rejects_unknown_symbol(f2, f3):
    # f2's letters are not generators of f3's presentation
    with pytest.raises(UnknownSymbol):
        word_to_coset(f3.table, StabilizerWord(f2.presentation.generators[:1]))


# -- tracing stabilizer words -------------------------------------------


def test_word_to_coset(f1, f3):
    # a word lands in its coset of H, the subgroup the letters at the
    # largest stabilizer's vertex v* generate: on f1, H is all of G
    A, T = f1.action, f1.table
    flip = next(g for g in A.group.elements if not g.is_identity())
    word = StabilizerWord((StabilizerLetter(flip, "m"),))
    empty = StabilizerWord(())
    assert word_to_coset(T, empty) == 0
    assert word_to_coset(T, word) == 0
    assert word_to_coset(T, word * word) == 0
    # identity letters contribute nothing
    padded = StabilizerWord((StabilizerLetter(A.group.identity, "a"),)) * word
    assert word_to_coset(T, padded) == word_to_coset(T, word)
    # on f3, a letter goes to coset 0 exactly when its element fixes v*
    A, T = f3.action, f3.table
    star = T.presentation.generators[T.subgroup[0]].vertex
    assert A.group.stabilizers[star][1:] == tuple(
        T.presentation.generators[i].element for i in T.subgroup
    )
    landed = Counter()
    for s in T.presentation.generators:
        coset = word_to_coset(T, StabilizerWord((s,)))
        assert (coset == 0) == (s.element(star) == star)
        landed[coset == 0] += 1
    assert landed == {True: 38, False: 80}
    # expressions of g and g' land on one row exactly when g^-1(v*) =
    # g'^-1(v*): one row per point of v*'s orbit
    cosets = {}
    for g in A.group.elements:
        coset = word_to_coset(T, armstrong_express(A, f3.quotient, min(A.complex.vertices), g))
        cosets.setdefault(coset, set()).add(g.inverse()(star))
    assert sorted(cosets) == list(range(len(T.table))) and all(len(v) == 1 for v in cosets.values())


def test_word_to_coset_requires_complete(f1):
    word = StabilizerWord(())
    T = f1.table
    exhausted = CosetTable(T.presentation, T.table, "exhausted", T.order, T.bound, T.subgroup)
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
    bad = Presentation(P.generators, P.relators + (Relator((0,), "mult"),))
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f1.action, f1.quotient, bad, f1.table)
    assert exc.value.check == "relators_psi_identity"


def test_verify_theorem_accepts_a_rebuilt_presentation(f2):
    # an equal presentation built again, not the table's own object
    A, Q, P, T = f2
    rebuilt = build_presentation(A, Q)
    assert rebuilt is not P and rebuilt == P
    assert verify_theorem(A, Q, rebuilt, T).enumerated_order == 6


def test_verify_theorem_rejects_wrong_order(f1, f2):
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(f2.action, f2.quotient, f2.presentation, f1.table)
    assert exc.value.check == "order_matches"


def test_verify_theorem_rejects_exhausted(f1):
    T = f1.table
    exhausted = CosetTable(T.presentation, T.table, "exhausted", None, T.bound, T.subgroup)
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
    x = 2 * len(P.generators)  # the letter code of extra
    P_extra = Presentation(P.generators + (extra,), P.relators + (Relator((x, x), "mult"),))
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, P_extra, T)
    assert exc.value.check == "relators_psi_identity"
    assert f"letter {extra.name} is not an element of the acting group" in str(exc.value)


def test_verify_theorem_names_the_first_failing_relator(f2):
    # two relators with distinct nonidentity values: the message names the
    # tag and value of the one first in relator order, either way round
    A, Q, P, T = f2
    i = next(i for i, s in enumerate(P.generators) if s.element != P.generators[0].element)
    first, second = Relator((0,), "edge"), Relator((2 * i,), "conj")
    for r, other in ((first, second), (second, first)):
        bad = Presentation(P.generators, P.relators + (r, other))
        with pytest.raises(CertificateFailed) as exc:
            verify_theorem(A, Q, bad, T)
        assert exc.value.check == "relators_psi_identity"
        value = P.generators[r.word[0] >> 1].element.cycle_string()
        assert f"{r.tag} relator evaluates to {value}" in str(exc.value)


def test_verify_theorem_checks_the_rule_row_by_row(f3):
    # one entry of one rule row, at a pair some letter keeps, swapped for
    # the inverse of a letter of another element: no explicit word moves,
    # so only the row check sees it, and the walk names the first relator
    # that fails, the pair's conj relator at the row's first letter
    A, Q, P, T = f3
    G, rule = A.group, P.conj
    letters = range(0, 2 * len(P.generators), 2)
    a, b = next((a, b) for a in letters for b in letters if b not in rule.skip[a >> 1])
    g = rule.element[a >> 1]
    old = rule.conjugate[g][b >> 1]
    new = next(c + 1 for c in letters if rule.element[c >> 1] != rule.element[old >> 1])
    row = list(rule.conjugate[g])
    row[b >> 1] = new
    conjugate = list(rule.conjugate)
    conjugate[g] = tuple(row)
    bad = Presentation(P.generators, P.explicit, ConjRule(rule.element, tuple(conjugate), rule.skip))
    numbers = [G.number[s.element] for s in P.generators for _ in (0, 1)]
    numbers[1::2] = map(G.inverse_of.__getitem__, numbers[1::2])

    def psi(word):
        acc = 0
        for x in word:
            acc = G.product(acc, numbers[x])
        return acc

    first = next(r for r in bad.relators if psi(r.word))
    assert first == Relator((a, b, a + 1, new), "conj")
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, bad, T)
    assert exc.value.check == "relators_psi_identity"
    value = G.elements[psi(first.word)].cycle_string()
    assert exc.value.witness == f"conj relator evaluates to {value}"


def _relator_walk_verdict(A, P):
    """The detail of the first relator of P, in relator order, whose
    letters multiply as permutations to anything but the identity; None
    when every relator holds.  Every letter must be an element of G."""
    for r in P.relators:
        value = A.group.identity
        for x in r.word:
            s = P.generators[x >> 1].element
            value = value * (s.inverse() if x & 1 else s)
        if not value.is_identity():
            return f"{r.tag} relator evaluates to {value.cycle_string()}"
    return None


def test_verify_theorem_checks_a_row_reached_only_by_composition(f3):
    # verify conjugates out only the rows of G's generators and composes
    # every other element's; one entry of the row of a letter element that
    # is no generator, so the identity's row and one step reach it only
    # through another element, names the relator a walk of every relator
    # in order names first
    A, Q, P, T = f3
    G, rule = A.group, P.conj
    generators = {G.number[s] for s in G.generators}
    letters = range(0, 2 * len(P.generators), 2)
    a, b = next(
        (a, b)
        for a in letters
        if rule.element[a >> 1] not in generators
        for b in letters
        if b not in rule.skip[a >> 1]
    )
    g = rule.element[a >> 1]
    old = rule.conjugate[g][b >> 1]
    new = next(c + 1 for c in letters if rule.element[c >> 1] != rule.element[old >> 1])
    row = list(rule.conjugate[g])
    row[b >> 1] = new
    conjugate = list(rule.conjugate)
    conjugate[g] = tuple(row)
    bad = Presentation(P.generators, P.explicit, ConjRule(rule.element, tuple(conjugate), rule.skip))
    detail = _relator_walk_verdict(A, bad)
    assert detail is not None and detail.startswith("conj relator")
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, bad, T)
    assert (exc.value.check, exc.value.witness) == ("relators_psi_identity", detail)


@pytest.mark.parametrize("case", ["f2", "f3"])
@pytest.mark.parametrize("word", [(), (0,), (0, 1), (0, 2), (2, 0, 1, 3)])
def test_verify_theorem_closes_short_explicit_words_as_the_walk_does(case, word, request):
    # a word is 1 exactly when its prefix folds to its last letter's
    # inverse; the empty word holds, a one-letter word holds only for the
    # identity, and each verdict is the walk's.  The first two letters of
    # f2 and f3 have distinct elements, so 0 2 is wrong
    A, Q, P, _ = request.getfixturevalue(case)
    extended = Presentation(P.generators, P.explicit + (Relator(word, "mult"),), P.conj)
    detail = _relator_walk_verdict(A, extended)
    T = todd_coxeter(extended)
    if detail is None:
        assert verify_theorem(A, Q, extended, T).group_order == A.group.order()
    else:
        with pytest.raises(CertificateFailed) as exc:
            verify_theorem(A, Q, extended, T)
        assert (exc.value.check, exc.value.witness) == ("relators_psi_identity", detail)
    assert (detail is None) == (word in ((), (0, 1), (2, 0, 1, 3)))


def test_verify_theorem_refuses_a_generator_that_is_not_a_letter(f2):
    # an edge-path presentation's generators are edges, not elements of G
    A, Q, _, _ = f2
    P = pi1_presentation(A.complex, min(A.complex.vertices))
    x = P.relators[0].word[0]
    with pytest.raises(CertificateFailed) as exc:
        verify_theorem(A, Q, P, todd_coxeter(P))
    assert exc.value.check == "relators_psi_identity"
    name = P.generators[x >> 1].name
    assert exc.value.witness == f"letter {name} is not an element of the acting group"


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
    # without the memo these were 28,450 and 55,400 products, and the
    # build composed 1,326 before products were read from base images.
    # verify evaluates psi_surjective's words on element numbers too; it
    # made 96, one per letter of the 48 canonical words, while it composed
    # them as permutations, and 160 while express composed its swings
    A = refine_action(f3_octahedral())
    Q = build_quotient(A)
    calls = _counting_products(monkeypatch)
    P = build_presentation(A, Q)
    assert calls[0] == 0
    T = todd_coxeter(P)
    calls[0] = 0
    verify_theorem(A, Q, P, T)
    assert calls[0] == 0


def test_group_products_fold_each_distinct_word_once(monkeypatch):
    # a fresh f3 group; the builder multiplies within each vertex
    # stabilizer for the mult words (602), conjugates once per generator
    # and letter element (3 . 32 . 2) and steps once per generator and
    # element (3 . 48); the psi-check does the same for the rule's rows
    # and closes each distinct explicit word of element numbers at its
    # last letter.  A fold per relator made 28,214 and 55,144 calls, a
    # fold per distinct word of the rule too 2,650 and 4,872, a build
    # that conjugated once per element pair 2,650, and a psi-check that
    # conjugated once per element pair and folded each word from the
    # identity 2,824
    A = refine_action(f3_octahedral())
    Q = build_quotient(A)
    calls = [0]
    product = PermGroup.product

    def counted(G, i, j):
        calls[0] += 1
        return product(G, i, j)

    monkeypatch.setattr(PermGroup, "product", counted)
    P = build_presentation(A, Q)
    assert calls[0] == 602 + 3 * 32 * 2 + 3 * 48
    T = todd_coxeter(P)
    calls[0] = 0
    verify_theorem(A, Q, P, T)
    # the rule's rows (3 . 32 . 2 + 3 . 48), one product per distinct mult
    # word (242; the 25 distinct edge words need none), 64 swings that the
    # 48 canonical expressions fold into their composites, and 49 to
    # evaluate those words, 96 letters of 47 nonempty words
    assert calls[0] == 3 * 32 * 2 + 3 * 48 + 242 + 64 + 49


def test_colimit_products(monkeypatch):
    # a fresh f3 group: 192 for the orbit words, read off the build's
    # generator rows (3 generators, 32 distinct letter elements, two
    # products each), where conjugating each of the 118 letters apart took
    # 708; 236 for the mult words of S_v . G_v, where the full tables took
    # 602; and 164 to close each S_v's span coset by coset (Dimino), where
    # multiplying the whole span by every chosen element took 340
    A = refine_action(f3_octahedral())
    Q = build_quotient(A)
    calls = [0]
    product = PermGroup.product

    def counted(G, i, j):
        calls[0] += 1
        return product(G, i, j)

    monkeypatch.setattr(PermGroup, "product", counted)
    colimit_H1(A, Q)
    assert calls[0] == 3 * 32 * 2 + 236 + 164


# -- the generator-row paths against the full tables ---------------------


@pytest.mark.parametrize(
    "case", ["f1", "f2", "f3", "Sd(f3)", *(f"D{n}/{s}" for n in range(3, 25) for s in range(3))]
)
def test_generator_rows_agree_with_the_full_tables(
    case, request, dihedral_cone, product_built_rows, full_table_colimit
):
    # the rule rows composed along G's generators are the rows conjugated
    # out pair by pair, and the colimit from S_v . G_v mult words is the
    # one from every G_v's full table, with and without the orbit words
    if case.startswith("D"):
        n, seed = map(int, case[1:].split("/"))
        A = dihedral_cone(n, seed)
    elif case == "Sd(f3)":
        A = _subdivided_f3(1)
    else:
        A = request.getfixturevalue(case).action
    Q = build_quotient(A)
    P = build_presentation(A, Q)
    assert P.conj.conjugate == product_built_rows(A, P)
    assert colimit_H1(A, Q) == full_table_colimit(A, P)
    letters, _, words = _local_words(A, spanning=True)
    rows, _, width = _contracted_relations([w for w, _ in words], len(letters))
    assert AbelianInvariants.from_relation_matrix(rows, width) == full_table_colimit(A, P, False)


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


def test_pi1_projective_plane(traces):
    from stabpres.actions import build_quotient, refine_action

    Q = build_quotient(refine_action(f5_antipodal()))
    K = Q.quotient
    P = pi1_presentation(K, min(K.vertices))
    T = todd_coxeter(P)
    assert T.status == "complete" and T.order == 2
    # a "no" verdict needs the exact order, which only a scan of every
    # live coset proves
    verdict = is_two_connected(K)
    assert (verdict.verdict, verdict.witness) == ("no", "pi1 has order 2")
    assert _scanned_every_coset(traces, 2, 2) == [True, True]


def test_pi1_yes_verdicts_skip_the_sweep(f1, f2, f3):
    # Complete(1) proves pi1 trivial: its one live coset, 0, is scanned first
    for p in (f1, f2, f3):
        assert is_simply_connected(p.action.complex).verdict == "yes"


def _pi1_corpus(raw_dihedral_cone):
    """X, refined X and X/G of f1-f5, of the D3-D24 cones under seeds 0, 1
    and 7, and of Sd^2(f3)."""
    actions = [build() for build in ALL.values()]
    actions += [raw_dihedral_cone(n, seed) for n in range(3, 25) for seed in (0, 1, 7)]
    actions.append(subdivide_action(subdivide_action(f3_octahedral())))
    for A in actions:
        R = refine_action(A)
        yield from (A.complex, R.complex, build_quotient(R).quotient)


def test_pi1_relators_are_distinct_by_construction(raw_dihedral_cone):
    # pi1_presentation keeps every triangle's off-tree word as it is: the
    # reference normaliser finds nothing to reduce or drop, at five basepoints
    count = 0
    for K in _pi1_corpus(raw_dihedral_cone):
        vertices = K.sorted_vertices
        for b in dict.fromkeys(vertices[k * len(vertices) // 5] for k in range(5)):
            P = pi1_presentation(K, b)
            assert P.relators == _distinct_relators((r.word, r.tag) for r in P.relators)
            # the generators are K's edges off a spanning tree, in order
            edges = [s.edge for s in P.generators]
            off_tree = set(edges)
            assert edges == [e for e in K.sorted_edges if e in off_tree]
            assert len(K.sorted_edges) - len(edges) == len(vertices) - 1
            # each spelled u-w, crossed low to high
            names = [f"{u}-{w}" for u, w in edges]
            rels = (" ".join(names[x >> 1] + "^-1" * (x & 1) for x in r.word) for r in P.relators)
            assert P.to_text() == f"< {', '.join(names)} | {', '.join(rels)} >"
            count += 1
    assert count == 1062


def test_pi1_requires_connected():
    from stabpres.complexes import SimplicialComplex

    K = SimplicialComplex(frozenset({"a", "b"}), frozenset(), frozenset())
    with pytest.raises(Disconnected):
        pi1_presentation(K, "a")


def test_pi1_rejects_unknown_basepoint():
    with pytest.raises(UnknownVertex, match="'x'"):
        pi1_presentation(solid_triangle(), "x")


def test_tc_accepts_repeated_and_empty_relators(f1):
    # the builders never emit either; the enumerator scans relators as given
    P = f1.presentation
    padded = Presentation(P.generators, P.relators + (P.relators[0], Relator((), "mult")))
    T = todd_coxeter(padded)
    assert (T.status, T.order) == ("complete", 2)
