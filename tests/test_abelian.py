"""Integer linear algebra, homology, and abelianized comparisons."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from stabpres import abelian, linalg
from stabpres.abelian import (
    AbelianInvariants,
    AbelianizedWords,
    _derived_subgroup,
    colimit_H1,
    group_abelianization,
    homology_invariants,
    is_simply_connected,
    is_two_connected,
    presentation_abelianization,
)
from stabpres.actions import (
    Permutation,
    PermGroup,
    build_quotient,
    close_under_product,
    refine_action,
    subdivide_action,
    validate_simplicial_action,
)
from stabpres.armstrong import StabilizerLetter, StabilizerWord, armstrong_express
from stabpres.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    d2_rows,
    validate_complex,
)
from stabpres.errors import MalformedInput, UnknownSymbol
from stabpres.fixtures import (
    cycle_complex,
    f1_flip,
    f2_s3,
    f3_octahedral,
    f4_rotation,
    f5_antipodal,
    octahedron_boundary,
    solid_triangle,
)
from stabpres.homotopy import random_nondegenerate_disc
from stabpres.linalg import (
    det_bareiss,
    invariant_factors,
    matmul,
    smith_normal_form,
    sparse_invariant_factors,
)
from stabpres.presentation import Presentation, Relator, build_presentation, todd_coxeter


def _fraction_rank(M):
    """Row-reduction rank over Q, an independent oracle for integer rank."""
    rows = [[Fraction(x) for x in row] for row in M]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# -- Smith normal form --------------------------------------------------


def test_snf_zero_matrix():
    M = [[0, 0], [0, 0]]
    S, U, V = smith_normal_form(M)
    assert S == [[0, 0], [0, 0]]
    assert matmul(matmul(U, M), V) == S


def test_snf_diagonal_merge():
    S, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert [S[i][i] for i in range(2)] == [1, 6]
    assert matmul(matmul(U, [[2, 0], [0, 3]]), V) == S
    # no unit pivot: the whole matrix is the dense rest
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def test_unit_pivot_pass_matches_snf_on_sparse_matrices():
    # boundary-like columns with non-unit entries: the unit pass and a
    # torsion rest meet in one input
    rng = random.Random(14)
    for _ in range(200):
        m, n = rng.randint(1, 20), rng.randint(1, 20)
        M = [[0] * n for _ in range(m)]
        for j in range(n):
            for i in rng.sample(range(m), min(m, rng.randint(0, 3))):
                M[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
        S = smith_normal_form(M)[0]
        assert invariant_factors(M) == [S[i][i] for i in range(min(m, n)) if S[i][i]]
        # the pass is complete: no unit is left for the dense elimination
        rows = {i: {j: a for j, a in enumerate(r) if a} for i, r in enumerate(M) if any(r)}
        _, _, rest = linalg._unit_pivots(rows)
        assert not any(a in (1, -1) for r in rest for a in r)


def _wrong_transform(M, track, smith=linalg._smith):
    """The tracked `_smith` of M with V's first row shifted, a unimodular
    change that breaks U*M*V == S."""
    S, U, V = smith(M, track)
    V[0][1] += 1
    return S, U, V


def test_integer_solver_refuses_a_wrong_solution(monkeypatch):
    # a real exception, not an assert, so the check that memoized fillings
    # rest on survives python -O; 2I has no unit, so the dense rest is all
    # of it, and a wrong V there gives a wrong x
    rows = {0: {0: 2}, 1: {1: 2}}
    assert linalg.sparse_solve(rows, 2, {0: 2, 1: 4}) == ([1, 2], True)
    monkeypatch.setattr(linalg, "_smith", _wrong_transform)
    with pytest.raises(AssertionError, match="M x != b"):
        linalg.sparse_solve(rows, 2, {0: 2, 1: 4})


def _as_is(M, track):
    """M itself as S, with identity transforms."""
    return M, [[1, 0], [0, 1]], [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "M, smith, message",
    [
        ([[1, 0], [0, 1]], _wrong_transform, r"U\*M\*V != S"),
        ([[1, 1], [0, 1]], _as_is, "off-diagonal"),
        ([[2, 0], [0, 3]], _as_is, "chain broken"),
        ([[0]], lambda M, track: (M, [[2]], [[1]]), "U not unimodular"),
        ([[0]], lambda M, track: (M, [[1]], [[2]]), "V not unimodular"),
    ],
    ids=["product", "off-diagonal", "chain", "U-unimodular", "V-unimodular"],
)
def test_smith_normal_form_refuses_a_wrong_transform(monkeypatch, M, smith, message):
    # real exceptions, not asserts, so the checks on the V that
    # AbelianizedWords reads survive python -O; each patched _smith breaks
    # one postcondition and keeps the ones checked before it
    monkeypatch.setattr(linalg, "_smith", smith)
    with pytest.raises(AssertionError, match=message):
        linalg.smith_normal_form(M)


def test_snf_triangle_boundary(boundary_matrices):
    _, d2 = boundary_matrices(solid_triangle())
    assert d2 == [[1], [-1], [1]]
    assert invariant_factors(d2) == [1]


def test_snf_postconditions_random():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = _random_matrix(rng, m, n)
        S, U, V = smith_normal_form(M)
        assert matmul(matmul(U, M), V) == S
        diag = [S[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        assert invariant_factors(M) == [abs(d) for d in diag if d != 0]


def test_smith_transform_digest(integer_solver):
    # one sha256 over S, U and V of smith_normal_form, the untracked S and
    # the dense reference solver's solutions of a solvable and a random
    # right-hand side, on seeded matrices of every shape up to 9x9 (an
    # m x 0 matrix is m empty rows; 0 x n is []): the transforms
    # themselves, which AbelianizedWords reads through V and
    # `sparse_solve` through U and V of its dense rest, are pinned, not
    # only their postconditions
    rng = random.Random(31)
    values = (0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 9)
    digest = hashlib.sha256()
    for m in range(10):
        for n in range(10 if m else 1):
            for _ in range(4):
                scale = rng.choice((1, 1, 2, 3))
                M = [[scale * rng.choice(values) for _ in range(n)] for _ in range(m)]
                S, U, V = smith_normal_form(M)
                solver = integer_solver(M)
                x = [rng.randint(-3, 3) for _ in range(n)]
                b = [sum(a * c for a, c in zip(row, x)) for row in M]
                noise = [rng.randint(-5, 5) for _ in range(m)]
                record = (S, U, V, linalg._smith(M, False)[0], solver.solve(b), solver.solve(noise))
                digest.update(f"{record}\n".encode())
    assert digest.hexdigest() == "780acd6e07e936c9c9503634c8eed9c8ffbc67c87340af137e98d4f11f149937"


def test_snf_rank_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(30):
        M = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        snf_rank = len([d for d in invariant_factors(M) if d != 0])
        assert snf_rank == _fraction_rank(M)


def test_snf_preserves_determinant():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = _random_matrix(rng, n, n)
        facs = invariant_factors(M)
        det = det_bareiss(M)
        if len(facs) < n:
            assert det == 0
        else:
            assert prod(facs) == abs(det)


def test_det_bareiss_examples():
    assert det_bareiss([]) == 1
    assert det_bareiss([[0, 1], [0, 2]]) == 0  # no pivot in the first column
    assert det_bareiss([[2]]) == 2
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1


# -- invariants container -----------------------------------------------


def test_invariants_basics():
    assert str(AbelianInvariants(0, ())) == "0"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    finite = AbelianInvariants(0, (2, 2))
    assert finite.rank == 0 and prod(finite.torsion) == 4
    assert AbelianInvariants(1, ()).rank == 1
    assert AbelianInvariants(0, (2,)).to_json_obj() == {"rank": 0, "torsion": [2]}
    # a real exception, so the check holds under python -O too
    with pytest.raises(MalformedInput):
        AbelianInvariants(0, (3, 2))  # not a divisibility chain
    with pytest.raises(MalformedInput):
        AbelianInvariants(0, (1, 2))  # a factor of 1 is not torsion


def test_invariants_from_relation_matrix():
    # Z^2 / <(2, 0)> = Z + Z/2
    assert AbelianInvariants.from_relation_matrix([[2, 0]], 2) == AbelianInvariants(1, (2,))
    assert AbelianInvariants.from_relation_matrix([], 3) == AbelianInvariants(3, ())
    # Z^2 / <(1, 0), (0, 1)> = 0
    assert AbelianInvariants.from_relation_matrix([[1, 0], [0, 1]], 2) == AbelianInvariants(0, ())


# -- simplicial homology ------------------------------------------------


def test_homology_point_and_disc():
    pt = validate_complex(["p"])
    assert homology_invariants(pt, 1) == AbelianInvariants(0, ())
    assert homology_invariants(pt, 2) == AbelianInvariants(0, ())
    disc = solid_triangle()
    assert homology_invariants(disc, 1) == AbelianInvariants(0, ())
    assert homology_invariants(disc, 2) == AbelianInvariants(0, ())


def _simplex_skeleton(n):
    """The 2-skeleton of the (n-1)-simplex: every edge lies on n - 2
    triangles, so d2 has long rows."""
    vs = [f"v{i}" for i in range(n)]
    return SimplicialComplex(
        frozenset(vs),
        frozenset(combinations(vs, 2)),
        frozenset(combinations(vs, 3)),
    )


_SKELETA = {n: _simplex_skeleton(n) for n in range(6, 11)}


def test_homology_sphere():
    K = octahedron_boundary()
    assert homology_invariants(K, 1) == AbelianInvariants(0, ())
    assert homology_invariants(K, 2) == AbelianInvariants(1, ())
    # the 2-skeleton of the (n-1)-simplex is a wedge of C(n-1, 3) spheres
    for n, K in _SKELETA.items():
        assert homology_invariants(K, 1) == AbelianInvariants(0, ())
        assert homology_invariants(K, 2) == AbelianInvariants(comb(n - 1, 3), ())


def test_homology_circle():
    assert homology_invariants(cycle_complex(5), 1) == AbelianInvariants(1, ())
    assert homology_invariants(cycle_complex(5), 2) == AbelianInvariants(0, ())


def test_homology_projective_plane():
    Q = build_quotient(refine_action(f5_antipodal()))
    assert homology_invariants(Q.quotient, 1) == AbelianInvariants(0, (2,))
    assert homology_invariants(Q.quotient, 2) == AbelianInvariants(0, ())


def test_homology_subdivision_invariant():
    for K in (octahedron_boundary(), build_quotient(refine_action(f5_antipodal())).quotient):
        sd, _ = barycentric_subdivision(K)
        for k in (1, 2):
            assert homology_invariants(sd, k) == homology_invariants(K, k)


_EMPTY = SimplicialComplex(frozenset(), frozenset(), frozenset())
_CIRCLES = (cycle_complex(3, "a"), cycle_complex(4, "b"))
_TWO_CIRCLES = SimplicialComplex(
    _CIRCLES[0].vertices | _CIRCLES[1].vertices,
    _CIRCLES[0].edges | _CIRCLES[1].edges,
    frozenset(),
)


def _rank_corpus(dihedral_cone):
    """Complexes of every shape the rank identity must cover: the fixture
    actions, their subdivisions and quotients (f5's is RP^2), Sd^2(f3),
    dihedral cones, discs, 2-skeleta of simplices, the empty complex and
    a disconnected one."""
    corpus = []
    for builder in (f1_flip, f2_s3, f3_octahedral, f4_rotation, f5_antipodal):
        sd = barycentric_subdivision(builder().complex)[0]
        quotient = build_quotient(refine_action(builder())).quotient
        corpus += [builder().complex, sd, quotient]
        if builder is f3_octahedral:
            corpus.append(barycentric_subdivision(sd)[0])
    corpus += [dihedral_cone(n, 1).complex for n in (4, 6, 16)]
    corpus += [random_nondegenerate_disc(n, n).complex for n in range(3, 20)]
    return corpus + list(_SKELETA.values()) + [_EMPTY, _TWO_CIRCLES]


def test_d1_rank_is_vertices_minus_components(dihedral_cone, boundary_matrices):
    # homology_invariants takes rank d1 from the component count; the Smith
    # diagonal of d1 is the independent oracle
    for K in _rank_corpus(dihedral_cone):
        d1, _ = boundary_matrices(K)
        assert len(K.vertices) - K.components() == len(invariant_factors(d1))
    assert (_EMPTY.components(), _TWO_CIRCLES.components()) == (0, 2)
    assert homology_invariants(_EMPTY, 1) == AbelianInvariants(0, ())
    assert homology_invariants(_TWO_CIRCLES, 1) == AbelianInvariants(2, ())


def test_unit_pivot_pass_matches_dense_smith_on_rank_corpus(dihedral_cone, boundary_matrices):
    for K in _rank_corpus(dihedral_cone):
        for M in boundary_matrices(K):
            S = linalg._smith(M, track=False)[0]
            dense = [row[i] for i, row in enumerate(S) if i < len(row) and row[i]]
            assert invariant_factors(M) == dense


def _agrees_with_the_reference(rows, M, solver, rng):
    """`sparse_solve` against the dense reference solver on M, given also
    as sparse rows: for an image b = M c and for random noise, a solution
    exists in both or in neither, the injective flags match, and the
    solutions are equal when M is injective (else each solves M x = b)."""
    n = len(M[0]) if M else 0
    c = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
    for b in (
        [sum(a * x for a, x in zip(row, c)) for row in M],
        [rng.choice((0, 0, 0, 1, -1, 3)) for _ in M],
    ):
        x, injective = linalg.sparse_solve(rows, n, dict(enumerate(b)))
        reference = solver.solve(b)
        assert (x is None, injective) == (reference is None, solver.injective)
        if x is not None:
            assert [sum(a * v for a, v in zip(row, x)) for row in M] == b
            assert x == reference or not injective


def test_sparse_solve_matches_the_dense_reference_on_rank_corpus(
    dihedral_cone, boundary_matrices, integer_solver
):
    rng = random.Random(37)
    for K in _rank_corpus(dihedral_cone):
        d2 = boundary_matrices(K)[1]
        solver = integer_solver(d2)
        for _ in range(3):
            _agrees_with_the_reference(d2_rows(K), d2, solver, rng)


def test_sparse_solve_matches_the_dense_reference_on_sparse_matrices(integer_solver):
    # entries up to 3 in absolute value, so some rests are dense with
    # torsion, and more columns than rows in some draws, so some M are
    # not injective
    rng = random.Random(38)
    injective = set()
    for _ in range(300):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        M = [[0] * n for _ in range(m)]
        for j in range(n):
            for i in rng.sample(range(m), min(m, rng.randint(1, 3))):
                M[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
        rows = {i: {j: a for j, a in enumerate(r) if a} for i, r in enumerate(M) if any(r)}
        solver = integer_solver(M)
        _agrees_with_the_reference(rows, M, solver, rng)
        injective.add(solver.injective)
    assert injective == {True, False}


def _refuse(*args, **kwargs):
    raise AssertionError("called a path the code under test must not take")


def test_homology_builds_d2_as_sparse_rows(dihedral_cone, boundary_matrices, monkeypatch):
    # the reference is all dense: both boundary matrices, the Smith
    # diagonal of d2 and the rank of d1 from their dense entry point;
    # homology itself must not densify anything
    corpus = _rank_corpus(dihedral_cone)
    expected = []
    for K in corpus:
        d1, d2 = boundary_matrices(K)
        diag = invariant_factors(d2)
        assert sparse_invariant_factors(d2_rows(K)) == diag
        h1 = AbelianInvariants(
            len(K.edges) - len(invariant_factors(d1)) - len(diag), tuple(d for d in diag if d > 1)
        )
        expected.append((h1, AbelianInvariants(len(K.triangles) - len(diag), ())))
    monkeypatch.setattr(abelian, "invariant_factors", _refuse)
    monkeypatch.setattr(linalg, "invariant_factors", _refuse)
    assert [(homology_invariants(K, 1), homology_invariants(K, 2)) for K in corpus] == expected


def test_sd3_homology_leaves_no_dense_rest(monkeypatch):
    # the unit pivots eliminate d2 of Sd^2(f3) and Sd^3(f3) completely, so
    # the dense elimination, which took about a minute on Sd^3's d2, is
    # handed only empty matrices
    handed = []
    dense = linalg._smith

    def recorder(M, track):
        handed.append(M)
        return dense(M, track)

    monkeypatch.setattr(linalg, "_smith", recorder)
    A = subdivide_action(subdivide_action(f3_octahedral()))
    for K in (A.complex, subdivide_action(A).complex):
        assert homology_invariants(K, 1) == AbelianInvariants(0, ())
        assert homology_invariants(K, 2) == AbelianInvariants(1, ())
    assert handed == [[]] * 4


def test_homology_rejects_bad_degree():
    with pytest.raises(ValueError):
        homology_invariants(solid_triangle(), 0)


# -- group abelianization -----------------------------------------------


def _perm_group(domain, cycles_list):
    gens = [Permutation.from_cycles(domain, cycles) for cycles in cycles_list]
    return PermGroup(tuple(domain), gens)


def _cyclic_product(*lengths):
    """Z/n_1 x Z/n_2 x ..., one n_i-cycle on its own points for each factor."""
    points = iter(f"p{i:02d}" for i in range(sum(lengths)))
    cycles = [[[next(points) for _ in range(n)]] for n in lengths]
    return _perm_group(tuple(sorted(v for (cyc,) in cycles for v in cyc)), cycles)


def test_abelianization_known_groups():
    trivial = _perm_group(("1",), [])
    assert group_abelianization(trivial) == AbelianInvariants(0, ())

    s3 = _perm_group(("1", "2", "3"), [[["1", "2"]], [["1", "2", "3"]]])
    assert group_abelianization(s3) == AbelianInvariants(0, (2,))

    z6 = _perm_group(tuple("123456"), [[["1", "2", "3", "4", "5", "6"]]])
    assert group_abelianization(z6) == AbelianInvariants(0, (6,))

    d4 = _perm_group(("1", "2", "3", "4"), [[["1", "2", "3", "4"]], [["1", "3"]]])
    assert d4.order() == 8
    assert group_abelianization(d4) == AbelianInvariants(0, (2, 2))

    z2xz4 = _perm_group(
        ("1", "2", "3", "4", "5", "6"),
        [[["1", "2"]], [["3", "4", "5", "6"]]],
    )
    assert group_abelianization(z2xz4) == AbelianInvariants(0, (2, 4))

    # products of cyclic groups, one cycle each; Z/4 x Z/6 = Z/2 x Z/12
    # fails a split of the first element of order > 1 instead of one of
    # largest order
    for lengths, torsion in [
        ((2, 2, 4), (2, 2, 4)),
        ((4, 6), (2, 12)),
        ((3, 9), (3, 9)),
        ((8,), (8,)),
    ]:
        assert group_abelianization(_cyclic_product(*lengths)) == AbelianInvariants(0, torsion)

    s3xz4 = _perm_group(
        tuple("1234567"), [[["1", "2"]], [["1", "2", "3"]], [["4", "5", "6", "7"]]]
    )
    assert s3xz4.order() == 24
    assert group_abelianization(s3xz4) == AbelianInvariants(0, (2, 4))


def test_abelianization_octahedral_group(f3):
    assert group_abelianization(f3.action.group) == AbelianInvariants(0, (2, 2))


def test_abelianization_reads_no_product_memo_and_no_smith(f3, monkeypatch):
    # the oracle stays independent of the machinery the colimit side uses
    def refuse(*args, **kwargs):
        raise AssertionError("the G^ab oracle must not call this")

    monkeypatch.setattr(PermGroup, "product", refuse)
    monkeypatch.setattr(linalg, "_smith", refuse)
    assert group_abelianization(f3.action.group) == AbelianInvariants(0, (2, 2))
    assert group_abelianization(_cyclic_product(4, 6)) == AbelianInvariants(0, (2, 12))


def _all_pairs_derived_subgroup(G):
    """[G,G] closed from all |G|^2 commutators g h g^-1 h^-1."""
    commutators = {g * h * g.inverse() * h.inverse() for g in G.elements for h in G.elements}
    return set(close_under_product(G.domain, commutators))


def test_derived_subgroup_is_the_all_pairs_closure(f1, f2, f3, dihedral_cone):
    # the normal closure of the generator commutators is [G,G], and the
    # abelianization read from it is unchanged
    cases = [(f1.action.group, (2,)), (f2.action.group, (2,)), (f3.action.group, (2, 2))]
    cases += [(dihedral_cone(n, 0).group, (2,) if n % 2 else (2, 2)) for n in range(3, 17)]
    for G, torsion in cases:
        assert _derived_subgroup(G) == _all_pairs_derived_subgroup(G)
        assert group_abelianization(G) == AbelianInvariants(0, torsion)


# -- abelianization of presentations ------------------------------------


def _reference_contraction(words, n):
    """The contraction with every word's exponent vector summed first, the
    e_i - e_j rows unioned, then the rest mapped to columns: the reference
    for `abelian._contracted_relations`, which unions two-letter words
    directly."""
    raw = []
    for word in words:
        vec = {}
        for x in word:
            vec[x >> 1] = vec.get(x >> 1, 0) + (-1 if x & 1 else 1)
        raw.append({i: c for i, c in vec.items() if c})
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    rest = []
    for vec in raw:
        if sorted(vec.values()) == [-1, 1]:
            a, b = map(find, vec)
            parent[max(a, b)] = min(a, b)
        else:
            rest.append(vec)
    classes = sorted({find(i) for i in range(n)})
    column = [classes.index(find(i)) for i in range(n)]
    dedup = set()
    for vec in rest:
        row = [0] * len(classes)
        for i, c in vec.items():
            row[column[i]] += c
        if any(row):
            dedup.add(tuple(row))
    return [list(r) for r in sorted(dedup)], column, len(classes)


def _refuse_relators(self):
    raise AssertionError("the abelian side spelled out P.relators")


@pytest.mark.parametrize("name", ["f1", "f2", "f3"] + [f"D{n}" for n in range(3, 25)])
def test_abelian_side_reads_the_rule_not_the_relators(name, request, dihedral_cone, monkeypatch):
    # the reference reads every relator of P as an explicit word through
    # the exponent-vector path; the code under test reads P.explicit and
    # the rule, with P.relators refusing to be built
    if name.startswith("D"):
        A = dihedral_cone(int(name[1:]), 1)
        Q = build_quotient(A)
        P = build_presentation(A, Q)
    else:
        A, Q, P = request.getfixturevalue(name)[:3]
    E = Presentation(P.generators, P.relators)
    basepoint = min(A.complex.vertices)
    words = [
        armstrong_express(A, Q, basepoint, g, seed=seed)
        for g in A.group.elements
        for seed in (0, 11)
    ]
    with monkeypatch.context() as m:
        m.setattr(abelian, "_contracted_relations", _reference_contraction)
        expected = presentation_abelianization(E), colimit_H1(A, Q)
        reference = AbelianizedWords(E)
    monkeypatch.setattr(Presentation, "relators", property(_refuse_relators))
    assert (presentation_abelianization(P), colimit_H1(A, Q)) == expected
    assert presentation_abelianization(E) == expected[0]
    assert expected[0] == expected[1] == group_abelianization(A.group)
    got = AbelianizedWords(P)
    assert (got.column, got.diag, got.V) == (reference.column, reference.diag, reference.V)
    assert [got.image(w) for w in words] == [reference.image(w) for w in words]


def test_presentation_abelianization_matches_group(f1, f2, f3):
    for pipe in (f1, f2, f3):
        assert presentation_abelianization(pipe.presentation) == group_abelianization(
            pipe.action.group
        )


def _two_letter_presentation(*code_words):
    """<a, b | code_words>, a and b two stabilizer letters with the letter
    codes 0 (a), 1 (a^-1), 2 (b) and 3 (b^-1); returns P and the one-letter
    words a and b."""
    dom = ("1", "2", "3", "4")
    flip = Permutation.from_cycles(dom, [["1", "2"]])
    a, b = StabilizerLetter(flip, "3"), StabilizerLetter(flip, "4")
    P = Presentation((a, b), tuple(Relator(w, "mult") for w in code_words))
    return P, StabilizerWord((a,)), StabilizerWord((b,))


def test_letter_signs_abelianize_to_z2():
    # <a, b | a b^-1, a b> = Z/2: a = b and a^2 = 1; with the signs
    # dropped both relators would be a + b, leaving Z
    P, a, b = _two_letter_presentation((0, 3), (0, 2))
    assert presentation_abelianization(P) == AbelianInvariants(0, (2,))
    words = AbelianizedWords(P)
    one = words.image(StabilizerWord(()))
    assert words.image(a) == words.image(b) != one
    assert words.image(a * a) == words.image(a * b) == one


def test_letter_signs_abelianize_to_z_plus_z2():
    # <a, b | a^-1 b^-1 a b, a^2> = Z + Z/2: the commutator is the zero
    # row; with the signs dropped it would be 2a + 2b, leaving Z/2 + Z/2
    P, a, b = _two_letter_presentation((1, 3, 0, 2), (0, 0))
    assert presentation_abelianization(P) == AbelianInvariants(1, (2,))
    words = AbelianizedWords(P)
    one = words.image(StabilizerWord(()))
    assert words.image(a) != one and words.image(a * a) == one
    b_powers = {words.image(w) for w in (b, b * b, b * b * b, b * b * b * b)}
    assert len(b_powers | {one}) == 5  # b has infinite order
    assert words.image(a) not in b_powers


def test_abelianized_words_without_relation_rows():
    # <a, b | a b^-1> contracts to one column and no rows left: the image
    # is Z, read in the identity basis
    P, a, b = _two_letter_presentation((0, 3))
    assert presentation_abelianization(P) == AbelianInvariants(1, ())
    words = AbelianizedWords(P)
    assert words.image(a) == words.image(b) == (1,)
    # <a | >: a^k maps to (k,)
    words = AbelianizedWords(Presentation(P.generators[:1], ()))
    for k in range(4):
        assert words.image(StabilizerWord(P.generators[:1] * k)) == (k,)


def test_abelianized_word_images(f1):
    A, P = f1.action, f1.presentation
    words = AbelianizedWords(P)
    flip = next(g for g in A.group.elements if not g.is_identity())
    w = StabilizerWord((StabilizerLetter(flip, "m"),))
    empty = StabilizerWord(())
    assert words.image(empty) == (0,)
    assert words.image(w) != (0,)
    assert words.image(w * w) == (0,)


def test_abelianized_image_rejects_unknown_letter(f2, f3):
    # f2's letters are not generators of f3's presentation
    words = AbelianizedWords(f3.presentation)
    with pytest.raises(UnknownSymbol):
        words.image(StabilizerWord(f2.presentation.generators[:1]))


def test_abelianized_images_respect_multiplication(f2):
    A, Q, P = f2.action, f2.quotient, f2.presentation
    words = AbelianizedWords(P)
    basepoint = min(A.complex.vertices)
    expr = {g: armstrong_express(A, Q, basepoint, g) for g in A.group.elements}
    for g in A.group.elements:
        for h in A.group.elements:
            assert words.image(expr[g] * expr[h]) == words.image(expr[g * h])


def test_abelianized_words_octahedral(f3):
    A, Q, P = f3.action, f3.quotient, f3.presentation
    words = AbelianizedWords(P)
    basepoint = min(A.complex.vertices)
    expr = {g: armstrong_express(A, Q, basepoint, g) for g in A.group.elements}
    assert len(expr) == 48
    assert len({words.image(w) for w in expr.values()}) == 4  # Z/2 + Z/2
    rng = random.Random(7)
    elements = A.group.elements
    for _ in range(40):
        g, h = rng.choice(elements), rng.choice(elements)
        assert words.image(expr[g] * expr[h]) == words.image(expr[g * h])


# -- the colimit comparison ---------------------------------------------


def test_colimit_trivial_action():
    A = refine_action(validate_simplicial_action(solid_triangle(), []))
    Q = build_quotient(A)
    assert colimit_H1(A, Q) == AbelianInvariants(0, ())


def test_colimit_matches_group_abelianization(f1, f2, f3):
    for pipe in (f1, f2, f3):
        expected = group_abelianization(pipe.action.group)
        assert colimit_H1(pipe.action, pipe.quotient) == expected


def test_colimit_values_frozen(f1, f2, f3):
    assert colimit_H1(f1.action, f1.quotient) == AbelianInvariants(0, (2,))
    assert colimit_H1(f2.action, f2.quotient) == AbelianInvariants(0, (2,))
    assert colimit_H1(f3.action, f3.quotient) == AbelianInvariants(0, (2, 2))


def test_colimit_needs_the_orbit_words():
    # the Klein four-group {1, r, s, rs}: r is the half-turn about p3-m3, s
    # the antipodal map; r fixes only the two poles and no edge, so without
    # identifying each stabilizer's H1 with its translates the sum is (Z/2)^3
    K = octahedron_boundary()
    r = Permutation.from_cycles(K.sorted_vertices, [["p1", "m1"], ["p2", "m2"]])
    s = Permutation.from_cycles(K.sorted_vertices, [["p1", "m1"], ["p2", "m2"], ["p3", "m3"]])
    A = refine_action(validate_simplicial_action(K, [r, s]))
    Q = build_quotient(A)
    assert is_simply_connected(A.complex).verdict == "yes"
    assert is_two_connected(Q.quotient).verdict == "yes"
    T = todd_coxeter(build_presentation(A, Q))
    assert (T.status, T.order) == ("complete", 4)
    assert colimit_H1(A, Q) == group_abelianization(A.group) == AbelianInvariants(0, (2, 2))


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("seed", [0, 1])
def test_colimit_dihedral_cones(dihedral_cone, n, seed):
    A = dihedral_cone(n, seed)
    expected = AbelianInvariants(0, (2,) if n % 2 else (2, 2))
    assert colimit_H1(A, build_quotient(A)) == expected == group_abelianization(A.group)


@pytest.mark.parametrize(
    "builder, expected",
    [(f2_s3, AbelianInvariants(0, (2,))), (f3_octahedral, AbelianInvariants(0, (2, 2)))],
)
def test_colimit_ignores_redundant_generators(builder, expected):
    A0 = builder()
    g = A0.group.generators
    A = refine_action(validate_simplicial_action(A0.complex, g + (g[0] * g[-1],)))
    assert len(A.group.generators) == len(g) + 1
    assert colimit_H1(A, build_quotient(A)) == expected


# -- connectivity verdicts ----------------------------------------------


def test_two_connected_verdicts():
    assert is_two_connected(solid_triangle()).verdict == "yes"
    assert bool(is_two_connected(solid_triangle()))

    sphere = is_two_connected(octahedron_boundary())
    assert sphere.verdict == "no" and "H2" in sphere.witness

    rp2 = is_two_connected(build_quotient(refine_action(f5_antipodal())).quotient)
    assert rp2.verdict == "no" and "pi1" in rp2.witness

    hexagon = is_two_connected(cycle_complex(6), bound=50)
    assert hexagon.verdict == "unknown" and not bool(hexagon)

    from stabpres.complexes import SimplicialComplex

    two_points = SimplicialComplex(frozenset({"a", "b"}), frozenset(), frozenset())
    assert is_two_connected(two_points).verdict == "no"
    assert is_two_connected(SimplicialComplex(frozenset(), frozenset(), frozenset())).verdict == "no"


def test_two_connected_reads_h2_from_the_euler_characteristic(raw_dihedral_cone, monkeypatch):
    # every simply connected complex among X, refined X and X/G of f1-f3
    # and the D3-D24 cones, Sd^2(f3), the octahedron boundary and its
    # subdivision (H2 = Z): the verdict from V - E + T is the one the
    # Smith diagonal of d2 gives, and it eliminates no matrix
    corpus = [octahedron_boundary(), barycentric_subdivision(octahedron_boundary())[0]]
    corpus.append(subdivide_action(subdivide_action(f3_octahedral())).complex)
    raw = [f1_flip(), f2_s3(), f3_octahedral()] + [raw_dihedral_cone(n, 1) for n in range(3, 25)]
    for A in raw:
        R = refine_action(A)
        corpus += [A.complex, R.complex, build_quotient(R).quotient]
    corpus = [K for K in corpus if is_simply_connected(K)]
    expected = []
    for K in corpus:
        h2 = homology_invariants(K, 2)
        expected.append(("no", f"H2 = {h2}") if h2.rank or h2.torsion else ("yes", ""))
    assert expected[:2] == [("no", "H2 = Z")] * 2 and ("yes", "") in expected
    verdicts = [(r.verdict, r.witness) for r in map(is_two_connected, corpus)]
    assert verdicts == expected
    monkeypatch.setattr(abelian, "homology_invariants", _refuse)
    monkeypatch.setattr(abelian, "sparse_invariant_factors", _refuse)
    monkeypatch.setattr(linalg, "_smith", _refuse)
    assert [(r.verdict, r.witness) for r in map(is_two_connected, corpus)] == verdicts


def test_simply_connected_verdicts(monkeypatch):
    from stabpres.complexes import SimplicialComplex

    empty = is_simply_connected(SimplicialComplex(frozenset(), frozenset(), frozenset()))
    assert empty.verdict == "no" and empty.witness == "empty complex"
    # building pi1's spanning tree finds the disconnection; no separate
    # component count runs first
    monkeypatch.setattr(SimplicialComplex, "components", _refuse)
    for K in (_TWO_CIRCLES, SimplicialComplex(frozenset("ab"), frozenset(), frozenset())):
        apart = is_simply_connected(K)
        assert (apart.verdict, apart.witness) == ("no", "not connected")
    monkeypatch.undo()
    assert is_simply_connected(solid_triangle()).verdict == "yes"
    assert is_simply_connected(octahedron_boundary()).verdict == "yes"
    assert is_simply_connected(cycle_complex(6), bound=50).verdict == "unknown"
    rp2 = build_quotient(refine_action(f5_antipodal())).quotient
    assert is_simply_connected(rp2).verdict == "no"
