"""Integer linear algebra: the one Smith elimination and what uses it.

Everything here runs over Python's arbitrary-precision integers; no
float ever appears.  One dense elimination, `_smith`, computes every
Smith form.  `sparse_invariant_factors` takes a matrix as sparse rows,
{row index: {column: value}}, the form in which homology builds d2, and
first runs a sparse unit-pivot pass (`_unit_pivots`) on them: each
pivot is an entry of absolute value 1, so clearing its column is exact
over Z and contributes an invariant factor 1.  The pass walks one
worklist of rows, shortest first, pivoting on the unit whose column is
shortest and appending each row an elimination changes; it ends because
every pivot removes a row, and it leaves no unit behind because a row
is examined again whenever it changes.  The dense `_smith` sees only
the rest, which is empty for the boundary maps of Sd^2(f3) and Sd^3(f3)
and a column of +-2 for d2 of RP^2.  `invariant_factors` reads a dense
matrix into sparse rows once, at its entry.
`smith_normal_form` and `IntegerSolver` track the transforms, which
`_smith` reads off an augmented matrix, not by a second code path:
`smith_normal_form` checks U*M*V == S and the diagonal divisibility
chain on every call, and `IntegerSolver` keeps the transforms to solve
M x = b over Z and checks each solution it returns.  U and V are
unimodular by construction; `smith_normal_form` recomputes that by
Bareiss for matrices small enough to keep it cheap.

This module imports nothing from the package, so both the abelian side
and the complexes (for loop fillings) can build on it.
"""

from __future__ import annotations

from itertools import compress


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    n = len(A)
    k = len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def det_bareiss(M):
    """Exact integer determinant by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


_BAREISS_LIMIT = 80


def _smith(M, track):
    """The Smith elimination: returns (S, U, V).

    S is M diagonalized over Z with a nonnegative divisibility chain on
    its diagonal.  With track, U and V are the transforms with
    U*M*V == S, read off [[M, I_m], [I_n, 0]] eliminated by the same
    operations: a row operation runs to the end of the row (U is the
    right block) and a column operation down every row (V is the lower
    block), while the pivot search reads only M's block.  Without track
    U and V are None.  Swaps, additions of a multiple of another row or
    column and row negation keep U and V unimodular.  Rows and columns
    before the pivot are finished (zero off the diagonal), so no
    operation touches them.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(r) for r in M]
    if track:
        A = [r + e for r, e in zip(A, _eye(m))] + [e + [0] * m for e in _eye(n)]
    height = len(A)
    width = n + m if track else n
    t = 0

    def col_swap(a, b):
        if a != b:
            for i in range(t, height):
                row = A[i]
                row[a], row[b] = row[b], row[a]

    def row_add(dst, src, c):
        Ad, As = A[dst], A[src]
        for j in range(t, width):
            Ad[j] += c * As[j]

    def col_add(dst, src, c):
        for i in range(t, height):
            row = A[i]
            row[dst] += c * row[src]

    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = Ai[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        col_swap(t, piv[1])
        while True:
            # shrink until the pivot exactly divides its row and column
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    row_add(i, t, -q)
            At = A[t]
            for j in range(t + 1, n):
                q = At[j] // p
                if q:
                    col_add(j, t, -q)
            residue = None
            for i in range(t + 1, m):
                if A[i][t]:
                    residue = i
                    break
            if residue is not None:
                A[t], A[residue] = A[residue], A[t]
                continue
            for j in range(t + 1, n):
                if At[j]:
                    residue = j
                    break
            if residue is not None:
                col_swap(t, residue)
                continue
            # pivot must divide the rest of the submatrix for the chain;
            # a unit always does
            if p == 1 or p == -1:
                break
            witness = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_add(t, witness, 1)
        if A[t][t] < 0:
            row_add(t, t, -2)  # negate the row: A[t] + (-2)A[t] = -A[t]
        t += 1
    if not track:
        return A, None, None
    return [r[:n] for r in A[:m]], [r[n:] for r in A[:m]], [r[:n] for r in A[m:]]


def smith_normal_form(M):
    """Diagonalize M over Z: returns (S, U, V) with U*M*V == S, U and V
    unimodular, and S's diagonal a divisibility chain d1 | d2 | ...

    U*M*V == S, the zero off-diagonal and the chain are checked before
    returning, raising AssertionError even under python -O.
    Unimodularity holds by construction (see `_smith`); for matrices of
    at most _BAREISS_LIMIT rows and columns it is also recomputed by
    fraction-free elimination.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A, U, V = _smith(M, track=True)
    if any(A[i][j] for i in range(m) for j in range(n) if i != j):
        raise AssertionError("SNF left off-diagonal residue")
    diag = [A[i][i] for i in range(min(m, n))]
    if not all((a == 0 and b == 0) or (a != 0 and b % a == 0) for a, b in zip(diag, diag[1:])):
        raise AssertionError("divisibility chain broken")
    if matmul(matmul(U, [list(r) for r in M]), V) != A:
        raise AssertionError("U*M*V != S")
    if max(m, n) <= _BAREISS_LIMIT:
        if abs(det_bareiss(U)) != 1:
            raise AssertionError("U not unimodular")
        if abs(det_bareiss(V)) != 1:
            raise AssertionError("V not unimodular")
    return A, U, V


def _unit_pivots(rows):
    """Sparse unit-pivot elimination (Dumas, Saunders and Villard 2001) of
    the matrix with the sparse rows {row index: {column: nonzero value}},
    each row nonempty, which it consumes: returns (pivots, rest), where
    the matrix is equivalent over Z to the identity of size pivots beside
    the dense matrix rest, which holds no entry of absolute value 1.

    A column -> rows index runs beside the rows.  One worklist of row
    indices, seeded shortest row first, grows while it is walked: a
    popped row pivots on its entry of absolute value 1 whose column has
    the fewest rows, and every row that elimination changes is appended.
    Row operations clear the pivot's column, exactly because the pivot
    is a unit; column operations would then clear the rest of the pivot
    row without touching any other row, so the pivot row and column are
    just dropped.  Rows are only appended when a pivot is taken, and a
    pivot removes a row for good, so the walk ends.  A row left in rest
    was examined after its last change and held no unit then, so rest
    holds none.  Zero rows and columns are left out of rest.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    work = sorted(rows, key=lambda i: len(rows[i]))
    for i in work:  # grows while it is walked
        row = rows.get(i)  # None once the row was a pivot or became zero
        units = [j for j, a in row.items() if a == 1 or a == -1] if row else ()
        if not units:
            continue
        j = min(units, key=lambda j: len(cols[j]))
        pivots += 1
        del rows[i]
        for jj in row:
            cols[jj].discard(i)
        q0 = row[j]  # a unit: its own inverse
        for k in cols.pop(j):
            other = rows[k]
            q = other.pop(j) * q0
            for jj, a in row.items():
                if jj == j:
                    continue
                v = other.get(jj, 0) - q * a
                if v:
                    if jj not in other:
                        cols[jj].add(k)
                    other[jj] = v
                else:
                    del other[jj]
                    cols[jj].discard(k)
            if other:
                work.append(k)
            else:
                del rows[k]
    live = sorted(j for j, s in cols.items() if s)
    return pivots, [[row.get(j, 0) for j in live] for _, row in sorted(rows.items())]


def invariant_factors(M):
    """The positive diagonal of the Smith form (no transforms tracked) of
    the dense matrix M; its length is the rank of M.  M's nonzero rows
    are read once into sparse rows for `sparse_invariant_factors`."""
    columns = range(len(M[0]) if M else 0)
    rows = {}
    for i, r in enumerate(M):
        row = {j: r[j] for j in compress(columns, r)}
        if row:
            rows[i] = row
    return sparse_invariant_factors(rows)


def sparse_invariant_factors(rows):
    """`invariant_factors` of the matrix with the given sparse rows, {row
    index: {column: nonzero value}}, each row nonempty; the rows are
    consumed.  The unit pivots give the leading 1s and the dense
    elimination sees only the rest."""
    pivots, rest = _unit_pivots(rows)
    S = _smith(rest, track=False)[0]
    return [1] * pivots + [row[i] for i, row in enumerate(S) if i < len(row) and row[i]]


class IntegerSolver:
    """Integer solutions of M x = b from one Smith elimination of M.

    With U*M*V == S, U and V unimodular, M x = b holds exactly when
    S y = U b for y = V^-1 x.  So b has an integral preimage iff each
    (U b)_i is divisible by the i-th diagonal entry up to the rank and
    vanishes past it; then x = V y, with the kernel coordinates of y set
    to 0.  When M is injective that preimage is the only one.
    """

    def __init__(self, M):
        self.M = M
        self.columns = len(M[0]) if M else 0
        S, self.U, self.V = _smith(M, track=True)
        # the elimination stops at the first zero pivot, so the nonzero
        # diagonal entries come first
        self.diag = [row[i] for i, row in enumerate(S) if i < self.columns and row[i]]

    @property
    def injective(self):
        return len(self.diag) == self.columns

    def solve(self, b):
        """An integral x with M x == b, or None when there is none."""
        support = [(j, c) for j, c in enumerate(b) if c]
        y = []
        for i, row in enumerate(self.U):
            v = sum(row[j] * c for j, c in support)
            if i < len(self.diag):
                q, r = divmod(v, self.diag[i])
                if r:
                    return None
                y.append(q)
            elif v:
                return None
        x = [sum(row[i] * q for i, q in enumerate(y)) for row in self.V]
        if [sum(a * c for a, c in zip(row, x)) for row in self.M] != list(b):
            raise AssertionError("M x != b")
        return x
