"""Loop contraction moves and the disc collapse calculus."""

import hashlib
import json
import sys
import time

import pytest

from stabpres import homotopy, linalg
from stabpres.actions import build_quotient, refine_action
from stabpres.armstrong import find_path
from stabpres.complexes import EdgePath, barycentric_subdivision, validate_complex, validate_path
from stabpres.errors import (
    BadSize,
    BudgetExhausted,
    IllegalMove,
    NotCollapsible,
)
from stabpres.fixtures import (
    cycle_complex,
    f3_octahedral,
    f5_antipodal,
    interval_complex,
    octahedron_boundary,
    solid_triangle,
)
from stabpres.homotopy import (
    BACK,
    TRI,
    DegenerateDisc,
    DiscCollapse,
    Move,
    MoveLog,
    apply_move,
    collapse_disc,
    contract_loop,
    default_budget,
    random_nondegenerate_disc,
    search_contraction,
    verify_collapse,
)


# -- elementary moves ---------------------------------------------------


def test_back_move_deletes_backtrack():
    K = interval_complex()
    loop = validate_path(K, ["a", "m", "a"])
    out = apply_move(K, loop, Move(BACK, 0))
    assert out.vertices == ("a",)


def test_tri_move_inserts_apex():
    K = solid_triangle()
    loop = validate_path(K, ["1", "2", "3", "1"])
    out = apply_move(K, loop, Move(TRI, 1, "1"))
    assert out.vertices == ("1", "2", "1", "3", "1")


def test_illegal_moves_rejected():
    K = interval_complex()
    loop = validate_path(K, ["a", "m", "a"])
    with pytest.raises(IllegalMove):
        apply_move(K, loop, Move(TRI, 0, "b"))  # no triangles here
    with pytest.raises(IllegalMove):
        apply_move(K, loop, Move(BACK, 5))  # out of range
    with pytest.raises(IllegalMove):
        apply_move(K, validate_path(K, ["a"]), Move(BACK, 0))  # constant loop
    # deleting a backtrack whose middle is the basepoint is not allowed
    loop2 = validate_path(K, ["m", "a", "m", "a", "m"])
    with pytest.raises(IllegalMove):
        apply_move(K, loop2, Move(BACK, 1))
    # the same deletion away from the basepoint is fine
    assert apply_move(K, loop2, Move(BACK, 0)).vertices == ("m", "a", "m")
    with pytest.raises(IllegalMove, match="tri position 2 out of range"):
        apply_move(K, loop, Move(TRI, 2, "b"))
    with pytest.raises(IllegalMove, match="no backtrack at 0"):
        apply_move(K, validate_path(K, ["a", "m", "b", "m", "a"]), Move(BACK, 0))
    with pytest.raises(IllegalMove, match="unknown move kind 'flip'"):
        apply_move(K, loop, Move("flip", 0))


def test_move_log_replay():
    K = solid_triangle()
    log = MoveLog(
        validate_path(K, ["1", "2", "3", "1"]),
        (Move(TRI, 1, "1"), Move(BACK, 0), Move(BACK, 0)),
    )
    assert [s.vertices for s in log.replay(K)] == [
        ("1", "2", "3", "1"),
        ("1", "2", "1", "3", "1"),
        ("1", "3", "1"),
        ("1",),
    ]
    assert log.final_loop(K).vertices == ("1",)
    assert log.move_counts() == (1, 2)


# -- loop contraction ---------------------------------------------------


def test_contract_constant_loop():
    K = interval_complex()
    log = contract_loop(K, validate_path(K, ["a"]), "a")
    assert log.moves == ()


def test_contract_backtrack():
    K = interval_complex()
    log = contract_loop(K, validate_path(K, ["a", "m", "a"]), "a")
    assert log.moves == (Move(BACK, 0),)
    assert log.final_loop(K).vertices == ("a",)


def test_contract_triangle_boundary():
    K = solid_triangle()
    log = contract_loop(K, validate_path(K, ["1", "2", "3", "1"]), "1")
    assert len(log.moves) <= 3
    assert log.final_loop(K).vertices == ("1",)
    tri, back = log.move_counts()
    assert 2 * back - tri == 3  # accounting identity for a length-3 loop


def test_contract_refuses_a_loop_not_based_at_the_basepoint():
    K = interval_complex()
    with pytest.raises(IllegalMove, match="not a loop based at 'm'"):
        contract_loop(K, validate_path(K, ["a", "m", "a"]), "m")
    with pytest.raises(IllegalMove, match="not a loop based at 'a'"):
        contract_loop(K, validate_path(K, ["a", "m"]), "a")


def test_contract_respects_budget():
    K = solid_triangle()
    loop = validate_path(K, ["1", "2", "3", "1"])
    with pytest.raises(BudgetExhausted):
        contract_loop(K, loop, "1", budget=0)
    assert default_budget(3) == 34


def test_search_exhausts_the_budget():
    # the octahedron's equator bounds, but H2 != 0, so the bound uses
    # |c|_1 = 0 (b0 = 2) and every depth limit up to the budget is searched
    K = octahedron_boundary()
    loop = validate_path(K, ["p1", "p2", "m1", "m2", "p1"])
    with pytest.raises(BudgetExhausted, match="^no contraction found within budget 6$") as exc:
        search_contraction(K, loop, "p1", budget=6)
    assert exc.value.budget == 6


def test_contract_budget_below_the_filling_bound_is_refused():
    # the triangle's filling has |c|_1 = 1, so b0 = 1 + (4 + 1) // 2 = 3
    K = solid_triangle()
    loop = validate_path(K, ["1", "2", "3", "1"])
    with pytest.raises(BudgetExhausted, match="below the filling bound b0 = 3"):
        contract_loop(K, loop, "1", budget=2)
    assert len(contract_loop(K, loop, "1", budget=3).moves) == 3


def _stacked_triangle(k):
    """solid_triangle() after k stellar subdivisions, each of the newest
    triangle: a disc of 2k + 1 triangles bounded by 1-2-3."""
    triangles = [("1", "2", "3")]
    for i in range(k):
        a, b, c = triangles.pop()
        x = f"s{i:02d}"
        triangles += [(a, b, x), (a, c, x), (b, c, x)]
    edges = {tuple(sorted(p)) for a, b, c in triangles for p in ((a, b), (a, c), (b, c))}
    vertices = {v for t in triangles for v in t}
    return validate_complex(sorted(vertices), sorted(edges), triangles)


def _boundary_loop(K, base):
    """The boundary circle of a triangulated disc, walked from base."""
    nbrs = {}
    for (a, b), apexes in K.edge_apexes.items():
        if len(apexes) == 1:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
    walk = [base, min(nbrs[base])]
    while walk[-1] != base:
        walk.append(next(v for v in nbrs[walk[-1]] if v != walk[-2]))
    return validate_path(K, walk)


def test_default_budget_covers_the_filling_bound():
    # a 3-edge loop around 23 triangles needs b0 = 23 + (4 + 23) // 2 = 36
    # moves, more than default_budget(3) = 34
    K = _stacked_triangle(11)
    loop = validate_path(K, ["1", "2", "3", "1"])
    assert len(K.triangles) == 23
    assert len(contract_loop(K, loop, "1").moves) == 36


def test_default_budget_covers_a_thrice_subdivided_triangle():
    # 24 boundary edges around 216 triangles: b0 = 216 + (25 + 216) // 2 = 336,
    # against default_budget(24) = 160
    K = solid_triangle()
    for _ in range(3):
        K, _ = barycentric_subdivision(K)
    loop = _boundary_loop(K, "1")
    assert len(loop) == 24 and len(K.triangles) == 216
    log = contract_loop(K, loop, "1")
    assert len(log.moves) == 336


def _log_json_obj(log):
    """A move log as the JSON object the pinned digests hash."""
    moves = [
        {"kind": TRI, "pos": m.pos, "apex": str(m.apex)}
        if m.kind == TRI
        else {"kind": BACK, "pos": m.pos}
        for m in log.moves
    ]
    return {"initial": [str(v) for v in log.initial.vertices], "moves": moves}


def _log_digest(log):
    return hashlib.sha256(json.dumps(_log_json_obj(log), sort_keys=True).encode()).hexdigest()


SEEDED_LOG_DIGESTS = {
    1: "cfee1f6e7729a56be927ad97561dccb17b431ccef54d826b9b09b91b73defc6a",
    2: "cfee1f6e7729a56be927ad97561dccb17b431ccef54d826b9b09b91b73defc6a",
    3: "b13193588e3604cd42e0f67da14fd09304cbe40d5cc1f32e0b0ea549e8fe3263",
    4: "2af2235b8bd2a962557caca7faa746d29b95695807736d9e73b9ae0b96f19996",
}


def test_contract_is_deterministic_per_seed():
    K = solid_triangle()
    loop = validate_path(K, ["1", "2", "1", "3", "2", "3", "1"])
    a = contract_loop(K, loop, "1", seed=7)
    b = contract_loop(K, loop, "1", seed=7)
    assert a == b
    for seed in range(5):
        log = contract_loop(K, loop, "1", seed=seed)
        assert log.final_loop(K).vertices == ("1",)
        if seed in SEEDED_LOG_DIGESTS:
            assert _log_digest(log) == SEEDED_LOG_DIGESTS[seed]


# sha256 of each unseeded disc-boundary log, pinned so that changes to the
# search can be checked for unchanged logs mechanically
DISC_LOG_DIGESTS = {
    (4, 0): "17521905f5f9ab9a38c2f4fbbd4a0df363f8d17b6370273b4036f0f3e3f2a26a",
    (4, 1): "63a2ee2801dc5ed16c9d339570ae78481c76342c0de941c5e5ff04101011b3af",
    (4, 2): "63a2ee2801dc5ed16c9d339570ae78481c76342c0de941c5e5ff04101011b3af",
    (4, 3): "63a2ee2801dc5ed16c9d339570ae78481c76342c0de941c5e5ff04101011b3af",
    (5, 0): "c53e5b6ef54549937811fc84e76d48983e29c81f9ee309a6959cee9518bec57b",
    (5, 1): "665f63ab6969f1c4218786883f66a95c937b0c6c11c898ebad2b01df12bcaa33",
    (5, 2): "665f63ab6969f1c4218786883f66a95c937b0c6c11c898ebad2b01df12bcaa33",
    (5, 3): "665f63ab6969f1c4218786883f66a95c937b0c6c11c898ebad2b01df12bcaa33",
    (6, 0): "de5cf9de1095f310a06035b8e5e21241ae5c24c683c12c2cc3f6d9e3229c8feb",
    (6, 1): "247d73886aaa1c07a32c50d3cd1a384b37765d569d7cc88786411a1db9c04f38",
    (6, 2): "2fbe9896c09ab17f7c8753b09697f203db36df64eddf8103cdc2c180247b975b",
    (6, 3): "247d73886aaa1c07a32c50d3cd1a384b37765d569d7cc88786411a1db9c04f38",
    (7, 0): "3891ae4ecdc46e85085aa5c558ec3abb0f720069482ff4b852dd727566e74904",
    (7, 1): "3cef35ef4cd706445357a183abc3a0e55d2a3a017b2283d5f797a78b97a484f4",
    (7, 2): "ed1574ad444135485f0f3b45c5dd391be1ef2fbd07ed6e276a50e8ddd213f16a",
    (7, 3): "3cef35ef4cd706445357a183abc3a0e55d2a3a017b2283d5f797a78b97a484f4",
    (8, 0): "c510d4763b6c15fc8d373cb7f0288d0c10e8a93d82e556aa1fec4f240756893d",
    (8, 1): "81301cf39b953ad566824cfcae01d9fe168e898d2185c195aebc19c56a427587",
    (8, 2): "54cd50e9711dc31bc8b7fb0cb2f2b7df1ad3b427a32a943b79fba0bbcce42098",
    (8, 3): "dcd6d7fb4fe3f17e2c6bcaa6f1f9a0823311279dec01f6d5594d997922560837",
}


def _dfs_calls(run):
    """Run `run` and return, for every search node it visits, the loop, its
    filling norm, the depth left, the memo's entry for the loop, and
    whether the memo is empty (a new depth limit starts)."""
    calls = []

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "dfs":
            f = frame.f_locals
            visited = f["visited"]
            calls.append(
                (f["state"], f["norm"], f["remaining"], visited.get(f["state"], -1), not visited)
            )

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, calls


def _memo_cuts(calls):
    """The search nodes the filling bound let through but the memo cut."""
    return [
        state
        for state, norm, remaining, seen, _ in calls
        if len(state) > 1 and norm + (len(state) + norm) // 2 <= remaining <= seen
    ]


@pytest.mark.parametrize("n, seed", sorted(DISC_LOG_DIGESTS))
def test_contract_disc_boundary_is_shortest(n, seed):
    # the n-2 triangle boundaries form a basis of the disc's cycle space, so
    # a log needs at least n-2 inserts, and 2 * back - tri == n gives 2n-3;
    # the filling bound is exact here, so these searches never reach the
    # memo prune (the octahedron equator below does)
    disc = random_nondegenerate_disc(n, seed)
    log = contract_loop(disc.complex, disc.boundary, disc.basepoint)
    assert log.final_loop(disc.complex).vertices == (disc.basepoint,)
    assert len(log.moves) == 2 * n - 3
    assert len(collapse_disc(disc).boundary_log.moves) == 2 * n - 3
    assert _log_digest(log) == DISC_LOG_DIGESTS[(n, seed)]


@pytest.mark.parametrize("n, seed", sorted(DISC_LOG_DIGESTS))
def test_contract_disc_search_is_cut_at_the_start_loop(n, seed):
    # the filling bound is exact on a disc: the start loop's bound b0 is
    # 2n-3, the log's length, so deepening starts there, one depth limit
    # is searched, and no search reaches the memo prune
    disc = random_nondegenerate_disc(n, seed)
    _, calls = _dfs_calls(lambda: contract_loop(disc.complex, disc.boundary, disc.basepoint))
    assert [(i, call[2]) for i, call in enumerate(calls) if call[-1]] == [(0, 2 * n - 3)]
    assert not _memo_cuts(calls)


def test_contract_hexagon_loop_fails_fast():
    # a hexagon has no triangles, so a full loop around it cannot contract
    K = cycle_complex(6)
    loop = validate_path(K, ["v0", "v1", "v2", "v3", "v4", "v5", "v0"])
    with pytest.raises(BudgetExhausted):
        contract_loop(K, loop, "v0", budget=20)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_contract_long_disc_boundary(n):
    disc = random_nondegenerate_disc(n, 0)
    log = contract_loop(disc.complex, disc.boundary, disc.basepoint)
    assert len(log.moves) == 2 * n - 3
    assert log.final_loop(disc.complex).vertices == (disc.basepoint,)


def test_contract_octahedron_equator_keeps_the_edge_bound():
    # the octahedron boundary has H2 = Z, so d2 is not injective: fillings
    # differ by the fundamental class, the search bounds with |c|_1 = 0 and
    # finds the log it found before the filling bound, and a loop reached
    # twice is cut by the memo
    K = octahedron_boundary()
    loop = validate_path(K, ["p1", "p2", "m1", "m2", "p1"])
    log, calls = _dfs_calls(lambda: contract_loop(K, loop, "p1"))
    assert _log_digest(log) == "7838ad6d311598f5a73e06f3419cc043d283f781faabf860a723532ec51cf4a6"
    assert {call[1] for call in calls} == {0}
    assert _memo_cuts(calls)


def test_contract_essential_projective_plane_loop_fails_fast():
    # f5's quotient is RP^2 (H1 = Z/2): the loop under the antipodal map is
    # not an integral boundary, so no search runs even at the default budget
    A = refine_action(f5_antipodal())
    Q = build_quotient(A)
    g = next(h for h in A.group.elements if not h.is_identity())
    base = min(A.complex.vertices)
    loop = EdgePath(Q.project_path(find_path(A.complex, base, g(base)).vertices))
    assert loop.is_loop() and len(loop) > 0
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="not null-homologous"):
        contract_loop(Q.quotient, loop, Q.projection[base])
    assert time.perf_counter() - start < 1.0


def test_fillings_are_memoized_per_complex_and_copied_out():
    K = solid_triangle()  # a new complex, so its memo starts empty
    loop = validate_path(K, ["1", "2", "3", "1"])
    first = search_contraction(K, loop, "1")
    assert list(K.fillings) == [loop.vertices]
    assert search_contraction(K, loop, "1") == first
    # a caller editing the filling it was given leaves the memo as it was
    filling = homotopy._filling(K, loop.vertices, None)
    filling[("1", "2", "3")] = 7
    assert homotopy._filling(K, loop.vertices, None) == {("1", "2", "3"): 1}
    assert len(K.fillings) == 1


def _refuse_dense(monkeypatch):
    """Patch `linalg._smith` to refuse any matrix with a row or a column."""
    smith = linalg._smith

    def refuse(M, track):
        if M:
            raise AssertionError(f"_smith was handed a matrix of {len(M)} rows")
        return smith(M, track)

    monkeypatch.setattr(linalg, "_smith", refuse)


def test_filling_solver_builds_d2_from_its_sparse_rows(
    monkeypatch, boundary_matrices, integer_solver
):
    # the fillings come from `d2_rows` and the unit pivots alone, which
    # leave no dense rest on these complexes, and they equal the fillings
    # the dense reference solver reads off the whole of d2
    def corpus():
        discs = [random_nondegenerate_disc(n, seed) for n, seed in ((5, 0), (9, 3))]
        K = octahedron_boundary()  # H2 = Z, so d2 is not injective
        equator = validate_path(K, ["p1", "p2", "m1", "m2", "p1"])
        return [(d.complex, d.boundary) for d in discs] + [(K, equator)]

    reference = []
    for K, loop in corpus():
        chain = [0] * len(K.edges)
        for a, b in zip(loop.vertices, loop.vertices[1:]):
            chain[K.edge_index[min(a, b), max(a, b)]] += 1 if a < b else -1
        solver = integer_solver(boundary_matrices(K)[1])
        x = solver.solve(chain)
        reference.append(dict(zip(K.sorted_triangles, x)) if solver.injective else None)
    _refuse_dense(monkeypatch)
    fillings = [homotopy._filling(K, loop.vertices, None) for K, loop in corpus()]
    assert fillings == reference
    assert all(fillings[:2]) and fillings[2] is None


def test_contract_a_triangle_loop_on_sd3_without_a_dense_elimination(monkeypatch):
    # d2 of Sd^3(f3) is 2,592 x 1,728, and the unit pivots leave the
    # loop's solve no dense rest: no dense elimination of d2 runs
    K = f3_octahedral().complex
    for _ in range(3):
        K = barycentric_subdivision(K)[0]
    assert (len(K.edges), len(K.triangles)) == (2592, 1728)
    _refuse_dense(monkeypatch)
    a, b, c = K.sorted_triangles[0]
    log = contract_loop(K, validate_path(K, [a, b, c, a]), a)
    assert log.move_counts() == (1, 2)
    assert K.fillings == {(a, b, c, a): None}  # H2 = Z: no filling bounds the moves


def test_a_loop_with_no_filling_is_not_memoized():
    K = cycle_complex(3)
    loop = validate_path(K, ["v0", "v1", "v2", "v0"])
    for _ in range(2):
        with pytest.raises(BudgetExhausted, match="not null-homologous"):
            search_contraction(K, loop, "v0")
    assert K.fillings == {}


def test_canonical_moves_are_memoized_per_loop_and_budget():
    K = solid_triangle()  # a new complex, so its memo starts empty
    loop = validate_path(K, ["1", "2", "3", "1"])
    first = search_contraction(K, loop, "1")
    assert list(K.contractions) == [(loop.vertices, None)]
    # a repeat searches nothing, and returns the same log
    again, calls = _dfs_calls(lambda: search_contraction(K, loop, "1"))
    assert again == first and calls == []
    # another budget is another entry; a seeded search is neither read nor kept
    assert search_contraction(K, loop, "1", budget=10) == first
    assert search_contraction(K, loop, "1", seed=5).final_loop(K).vertices == ("1",)
    assert list(K.contractions) == [(loop.vertices, None), (loop.vertices, 10)]


def test_an_exhausted_budget_is_not_memoized():
    # the equator's bound b0 is 2: budget 1 fails before any search, and
    # budget 3 fails after searching every depth up to it
    K = octahedron_boundary()
    loop = validate_path(K, ["p1", "p2", "m1", "m2", "p1"])
    for budget in (1, 3, 3):
        with pytest.raises(BudgetExhausted):
            search_contraction(K, loop, "p1", budget=budget)
    assert K.contractions == {}


def test_contract_loop_refuses_a_log_that_does_not_replay(monkeypatch):
    # a real exception, not an assert, so the replay check survives python -O
    K = solid_triangle()
    loop = validate_path(K, ["1", "2", "3", "1"])
    monkeypatch.setattr(homotopy, "search_contraction", lambda K, loop, *args: MoveLog(loop, ()))
    with pytest.raises(AssertionError, match="contraction replay failed"):
        contract_loop(K, loop, "1")


# -- degenerate discs and collapse --------------------------------------


def test_random_disc_shape():
    d = random_nondegenerate_disc(6, seed=3)
    v, e, t = d.complex.counts()
    assert v == 6 and t == 4 and e == 9  # fan count for an n-gon: n-2 triangles
    assert d.boundary.is_loop() and len(d.boundary) == 6
    assert d.basepoint == "d00"
    with pytest.raises(BadSize):
        random_nondegenerate_disc(2, seed=0)
    with pytest.raises(BadSize):
        random_nondegenerate_disc(100, seed=0)


def test_random_disc_deterministic_and_varied():
    assert random_nondegenerate_disc(5, 9) == random_nondegenerate_disc(5, 9)
    diagonals = set()
    for seed in range(20):
        d = random_nondegenerate_disc(4, seed)
        inner = tuple(sorted(e for e in d.complex.edges if e not in {
            ("d00", "d01"), ("d01", "d02"), ("d02", "d03"), ("d00", "d03")
        }))
        diagonals.add(inner)
    assert diagonals == {(("d00", "d02"),), (("d01", "d03"),)}


def test_collapse_point():
    pt = DegenerateDisc(validate_complex(["p"]), EdgePath(("p",)))
    cert = collapse_disc(pt)
    assert cert.boundary_log.moves == ()
    assert verify_collapse(cert)


def test_collapse_single_triangle():
    cert = collapse_disc(random_nondegenerate_disc(3, 0))
    assert [m.kind for m in cert.boundary_log.moves] == [TRI, BACK, BACK]
    assert verify_collapse(cert)


def test_collapse_line_disc():
    K = validate_complex(["v1", "v2", "v3"], [["v1", "v2"], ["v2", "v3"]])
    disc = DegenerateDisc(K, EdgePath(("v1", "v2", "v3", "v2", "v1")))
    cert = collapse_disc(disc)
    # retract the spur v2-v3-v2 first, then v1-v2-v1
    assert cert.boundary_log.moves == (Move(BACK, 1), Move(BACK, 0))
    assert verify_collapse(cert)


def test_collapse_refuses_a_closed_surface_and_a_cycle():
    # the octahedron boundary has no boundary edge for the one-vertex walk
    # to push across; the 3-cycle walked once has no triangle to push and
    # no spur to retract
    sphere = DegenerateDisc(octahedron_boundary(), EdgePath(("p1",)))
    with pytest.raises(NotCollapsible, match="8 triangles left, no boundary edge free$"):
        collapse_disc(sphere)
    cycle = DegenerateDisc(cycle_complex(3), EdgePath(("v0", "v1", "v2", "v0")))
    with pytest.raises(NotCollapsible, match="admits no spur retraction"):
        collapse_disc(cycle)


def test_collapse_random_discs():
    for n in (4, 6, 9, 12):
        for seed in range(4):
            disc = random_nondegenerate_disc(n, seed)
            cert = collapse_disc(disc)
            assert verify_collapse(cert)
            tri, back = cert.boundary_log.move_counts()
            assert 2 * back - tri == n


def test_collapse_is_deterministic():
    a = collapse_disc(random_nondegenerate_disc(8, 5))
    b = collapse_disc(random_nondegenerate_disc(8, 5))
    assert a == b


# sha256 of the collapse logs of random_nondegenerate_disc(n, s) for
# n = 3..40 and s = 0..2, pinned so that changes to the collapse can be
# checked for unchanged logs mechanically
COLLAPSE_LOGS_DIGEST = "a57984ca38af0c0cf3810bfeb97ebb64832e85f709f0f344c9f438180dabbda1"


def test_collapse_logs_are_pinned():
    logs = [
        _log_json_obj(collapse_disc(random_nondegenerate_disc(n, s)).boundary_log)
        for n in range(3, 41)
        for s in range(3)
    ]
    digest = hashlib.sha256(json.dumps(logs, sort_keys=True).encode()).hexdigest()
    assert digest == COLLAPSE_LOGS_DIGEST


def test_verify_collapse_rejects_tampering():
    cert = collapse_disc(random_nondegenerate_disc(5, 1))
    # drop the final move: its edge and the loop's last spur are left
    bad_log = MoveLog(cert.boundary_log.initial, cert.boundary_log.moves[:-1])
    with pytest.raises(NotCollapsible, match="final complex is not the basepoint"):
        verify_collapse(DiscCollapse(cert.initial, bad_log))
    # a log of another disc's boundary certifies nothing about this one
    other = collapse_disc(random_nondegenerate_disc(6, 1)).boundary_log
    with pytest.raises(NotCollapsible, match="does not start at the disc's boundary"):
        verify_collapse(DiscCollapse(cert.initial, other))
    # one backtrack removes the one edge and its far end from the doubled
    # walk a-b-a-b-a, so the complex is collapsed, but the walk is a-b-a
    K = validate_complex(["a", "b"], [["a", "b"]])
    walk = validate_path(K, ["a", "b", "a", "b", "a"])
    cert = DiscCollapse(DegenerateDisc(K, walk), MoveLog(walk, (Move(BACK, 0),)))
    with pytest.raises(NotCollapsible, match="does not end at the constant loop"):
        verify_collapse(cert)


def test_verify_collapse_rejects_an_edge_removed_twice():
    # on a triangulated disc no log reaches this check: a log crosses an
    # edge at most twice, once per triangle or boundary side, and the move
    # that removes the edge uses up the rest.  A degenerate walk can cross
    # a - m four times; the first backtrack removes it with two crossings left
    K = interval_complex()
    walk = validate_path(K, ["a", "m", "a", "m", "a"])
    cert = DiscCollapse(DegenerateDisc(K, walk), MoveLog(walk, (Move(BACK, 0), Move(BACK, 0))))
    with pytest.raises(NotCollapsible, match="removes the absent edge \\('a', 'm'\\)"):
        verify_collapse(cert)


def test_verify_collapse_rejects_a_triangle_crossed_twice():
    # the moves are legal on the 3-gon, and the walk comes back to its
    # boundary, but the third crosses the triangle the first removed
    cert = collapse_disc(random_nondegenerate_disc(3, 0))
    detour = (Move(TRI, 0, "d02"), Move(BACK, 1), Move(TRI, 0, "d01"))
    log = MoveLog(cert.boundary_log.initial, detour + cert.boundary_log.moves)
    assert log.final_loop(cert.initial.complex).vertices == ("d00",)
    with pytest.raises(NotCollapsible, match="absent triangle"):
        verify_collapse(DiscCollapse(cert.initial, log))
