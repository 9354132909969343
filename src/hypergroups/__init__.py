"""Discrete association schemes, finite commutative hypergroups, and duals.

The package builds association schemes from relation data, graphs, or
group/subgroup pairs, verifies the defining counting identities exactly,
forms the induced convolution structure, computes character tables and
Plancherel weights, certifies dual positive product formulas, and covers
two closed-form families: the clique-tree polynomial family and the
deformed nearest-step family on the integers.
"""

from .errors import (
    BallTooLarge,
    ClosedFormSingular,
    ClosureResidual,
    DegenerateSplitFailure,
    DetailedBalanceViolation,
    DualNotPositive,
    EmptyClass,
    InconsistentIntersection,
    InvalidCayleyTable,
    NoIdentityClass,
    NoInvolution,
    NonSquare,
    NotACharacter,
    NotAHypergroup,
    NotASubgroup,
    NotBijective,
    NotCommutative,
    NotDistanceRegular,
    NotStochastic,
    ParameterOutOfRange,
    ParseError,
    QuadratureNotConverged,
    SchemeError,
    SupportMismatch,
)
from .schemes import (
    Scheme,
    audit_intersection_identities,
    build_scheme,
    check_automorphism,
    commutativity_by_involution_automorphism,
    is_commutative,
    is_symmetric,
    is_unimodular,
    scheme_from_distance_regular_graph,
)
from .groups import (
    FiniteGroup,
    check_subgroup,
    cyclic_group,
    group_from_table,
    hecke_convolution,
    scheme_from_group_quotient,
    symmetric_group,
)
from .hypergroup import (
    FiniteHypergroup,
    convolve_functions,
    convolve_measures,
    hypergroup_from_scheme,
    involute,
    is_probability,
    make_hypergroup,
    modular_function,
    translate,
    verify_hypergroup,
)
from .harmonic import (
    CharacterTable,
    DualCoefficients,
    DualMeasure,
    character_table,
    conjugate_index,
    dual_convolution,
    dual_hypergroup,
    fourier,
    inverse_fourier,
    is_positive_definite,
    orthogonality_residual,
    scheme_eigenvector_residual,
)
from .generalized import (
    GeneralizedScheme,
    build_generalized,
    build_windowed,
    classical_embedding,
    deformed_valencies,
    dual_product_generalized,
    hypergroup_from_generalized,
    kernel_F_f,
    pi_positive_definite,
    positive_connection_check,
    s_tilde_f,
)
from . import catalog, families, jsonio

__version__ = "0.1.0"

__all__ = [
    "BallTooLarge", "ClosedFormSingular", "ClosureResidual",
    "DegenerateSplitFailure", "DetailedBalanceViolation", "DualNotPositive",
    "EmptyClass", "InconsistentIntersection", "InvalidCayleyTable",
    "NoIdentityClass", "NoInvolution", "NonSquare", "NotACharacter",
    "NotAHypergroup", "NotASubgroup", "NotBijective", "NotCommutative",
    "NotDistanceRegular", "NotStochastic", "ParameterOutOfRange",
    "ParseError", "QuadratureNotConverged", "SchemeError", "SupportMismatch",
    "Scheme", "audit_intersection_identities", "build_scheme",
    "check_automorphism", "commutativity_by_involution_automorphism",
    "is_commutative", "is_symmetric", "is_unimodular",
    "scheme_from_distance_regular_graph",
    "FiniteGroup", "check_subgroup", "cyclic_group", "group_from_table",
    "hecke_convolution", "scheme_from_group_quotient", "symmetric_group",
    "FiniteHypergroup", "convolve_functions", "convolve_measures",
    "hypergroup_from_scheme", "involute", "is_probability",
    "make_hypergroup", "modular_function", "translate", "verify_hypergroup",
    "CharacterTable", "DualCoefficients", "DualMeasure", "character_table",
    "conjugate_index", "dual_convolution", "dual_hypergroup", "fourier",
    "inverse_fourier", "is_positive_definite", "orthogonality_residual",
    "scheme_eigenvector_residual",
    "GeneralizedScheme", "build_generalized", "build_windowed",
    "classical_embedding", "deformed_valencies", "dual_product_generalized",
    "hypergroup_from_generalized", "kernel_F_f", "pi_positive_definite",
    "positive_connection_check", "s_tilde_f",
    "catalog", "families", "jsonio",
    "__version__",
]
