"""posetlab: order-theoretic and homological invariants of finite posets."""

from .complexes import (
    FVector,
    SimplicialComplex,
    complex_from_dict,
    complex_to_dict,
    order_complex,
    reduced_order_complex,
)
from .hvectors import (
    HVectorReport,
    cubical_h,
    cubical_h_penultimate_direct,
    hetyei_decomposition_check,
    short_cubical_h,
    simplicial_h,
    toric_face_polynomials,
    toric_h,
    toric_h_penultimate_direct,
)
from .homology import (
    HomologyReport,
    chain_complex,
    classify,
    is_buchsbaum,
    is_buchsbaum_star,
    is_cohen_macaulay,
    is_doubly_cm,
    maximal_interval_classes,
    poset_is_cohen_macaulay,
    reduced_homology,
    relative_homology,
)
from .intpoly import IntPolynomial
from .linalg import DEFAULT_PRIME, FieldSpec, active_backend
from .poset import (
    FinitePoset,
    MobiusTable,
    RankProfile,
    atoms_below,
    build_from_covers,
    is_cubical_poset,
    is_graded,
    is_lower_eulerian,
    is_meet_semilattice,
    is_simplicial_poset,
    min_atoms_below,
    mobius,
    mobius_from,
    poset_from_dict,
    poset_to_dict,
    rank_alternating_sum,
    rank_profile,
    reduced_euler_char,
    structural_predicates,
)
from .audit import AuditReport, CheckRecord, audit_poset, run_suite

__version__ = "0.1.0"
