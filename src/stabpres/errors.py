"""Error taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError/AssertionError (bug traps).
"""


class StabpresError(Exception):
    """Base class for all package errors."""


class InvalidComplex(StabpresError):
    """A vertex/edge/triangle listing is not a simplicial complex.

    Carries the full list of violations, each a (kind, detail) pair with
    kind one of "MissingFace", "DuplicateSimplex", "DegenerateSimplex".
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = ", ".join(f"{k}: {d}" for k, d in self.violations)
        super().__init__(f"invalid complex ({lines})")


class SimplexNotInComplex(StabpresError):
    def __init__(self, simplex):
        self.simplex = simplex
        super().__init__(f"simplex {simplex} not in complex")


class NotAnEdge(StabpresError):
    """A path step is not an edge of the complex; carries the step index."""

    def __init__(self, index, detail=""):
        self.index = index
        super().__init__(f"path invalid at step {index}" + (f": {detail}" if detail else ""))


class EmptyPath(StabpresError):
    def __init__(self):
        super().__init__("a path needs at least one vertex")


class NotABijection(StabpresError):
    def __init__(self, detail):
        super().__init__(f"generator is not a vertex bijection: {detail}")


class NotSimplicial(StabpresError):
    """A generator fails to map some simplex onto a simplex."""

    def __init__(self, generator, simplex):
        self.generator = generator
        self.simplex = simplex
        super().__init__(f"generator {generator} maps {simplex} outside the complex")


class GroupTooLarge(StabpresError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"group enumeration exceeded cap {cap}")


class UnknownVertex(StabpresError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"unknown vertex {vertex!r}")


class RefinementFailed(StabpresError):
    def __init__(self, detail, subdivisions):
        rounds = f"{subdivisions} subdivision{'' if subdivisions == 1 else 's'}"
        super().__init__(f"action still violates quotient hypotheses after {rounds}: {detail}")


class OrbitCollision(StabpresError):
    """Simplex orbits do not form a simplicial quotient; caller must refine.

    Covers both defects: two distinct orbits sharing a quotient vertex set,
    and an orbit whose quotient vertex set is degenerate (repeated vertex).
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"orbit collision: {witness}")


class PreconditionUnvalidated(StabpresError):
    def __init__(self, what):
        super().__init__(f"precondition not validated: {what}")


class IllegalMove(StabpresError):
    def __init__(self, reason):
        super().__init__(f"illegal move: {reason}")


class BudgetExhausted(StabpresError):
    """No contraction within the budget; a detail says why when none can exist."""

    def __init__(self, budget, detail=None):
        self.budget = budget
        super().__init__(detail or f"no contraction found within budget {budget}")


class NotCollapsible(StabpresError):
    """Bug trap: a supposed degenerate disc admitted no legal collapse."""

    def __init__(self, detail):
        super().__init__(f"no legal collapse available: {detail}")


class BadSize(StabpresError):
    def __init__(self, n, lo, hi):
        super().__init__(f"size {n} outside [{lo}, {hi}]")


class Disconnected(StabpresError):
    def __init__(self, u, w):
        super().__init__(f"no path from {u!r} to {w!r}")


class LiftFailed(StabpresError):
    """Bug trap: a quotient move admitted no lift (orbit condition broken?)."""

    def __init__(self, detail):
        super().__init__(f"lift failed: {detail}")


class LetterInvariantViolated(StabpresError):
    def __init__(self, element, vertex):
        super().__init__(f"letter element does not fix its vertex {vertex!r}: {element}")


class UnknownSymbol(StabpresError):
    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"word letter is not a presentation generator: {symbol}")


class CertificateFailed(StabpresError):
    def __init__(self, check, witness):
        self.check = check
        self.witness = witness
        super().__init__(f"certificate check {check!r} failed: {witness}")


class MalformedInput(StabpresError):
    """Unparseable or schema-violating input file (CLI exit code 3)."""

    def __init__(self, detail):
        super().__init__(f"malformed input: {detail}")
