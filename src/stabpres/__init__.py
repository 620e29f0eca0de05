"""Presentations of groups acting without rotations on simply connected
complexes, with machine-checked certificates.

The pipeline: validate a simplicial action, refine it by barycentric
subdivision until the orbit space is a simplicial complex, build the
canonical stabilizer presentation, enumerate its cosets, and certify
that the presented group is the acting group.  The Armstrong
construction writes any group element as an explicit word in vertex
stabilizers, and the abelianized story is checked independently.
"""

from .abelian import (
    AbelianInvariants,
    AbelianizedWords,
    colimit_H1,
    group_abelianization,
    homology_invariants,
    is_simply_connected,
    is_two_connected,
    presentation_abelianization,
    TwoConnectedResult,
)
from .actions import (
    GROUP_CAP,
    GroupAction,
    PermGroup,
    Permutation,
    QuotientData,
    action_from_json_obj,
    action_to_json_obj,
    all_transporters,
    build_quotient,
    check_without_rotations,
    close_under_product,
    edge_stabilizer,
    load_action,
    mark_without_rotations,
    orbit_of_simplex,
    orbit_of_vertex,
    parse_cycles,
    refine_action,
    refine_action_tracked,
    rotation_string,
    stabilizer,
    subdivide_action,
    validate_simplicial_action,
)
from .armstrong import (
    StabilizerLetter,
    StabilizerWord,
    armstrong_express,
    find_path,
    psi_evaluate,
    word_from_json_obj,
)
from .complexes import (
    EdgePath,
    SimplicialComplex,
    barycenter_name,
    barycentric_subdivision,
    boundary_matrices,
    complex_from_json_obj,
    faces,
    simplex,
    star,
    validate_complex,
    validate_path,
)
from .errors import (
    BadSize,
    BudgetExhausted,
    CertificateFailed,
    Disconnected,
    EmptyPath,
    GroupTooLarge,
    IllegalMove,
    InvalidComplex,
    LetterInvariantViolated,
    LiftFailed,
    MalformedInput,
    NotABijection,
    NotAnEdge,
    NotCollapsible,
    NotSimplicial,
    OrbitCollision,
    PreconditionUnvalidated,
    RefinementFailed,
    SimplexNotInComplex,
    StabpresError,
    UnknownSymbol,
    UnknownVertex,
)
from .homotopy import (
    DegenerateDisc,
    DiscCollapse,
    Move,
    MoveLog,
    apply_move,
    collapse_disc,
    contract_loop,
    default_budget,
    move_log_from_json_obj,
    random_nondegenerate_disc,
    verify_collapse,
)
from .linalg import det_bareiss, invariant_factors, smith_normal_form
from .presentation import (
    CosetTable,
    Presentation,
    Relator,
    TheoremCertificate,
    build_presentation,
    pi1_presentation,
    todd_coxeter,
    verify_theorem,
    word_to_coset,
)

__version__ = "0.1.0"
