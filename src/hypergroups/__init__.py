"""Discrete association schemes, finite commutative hypergroups, and duals.

The package builds association schemes from relation data, graphs, or
group/subgroup pairs, verifies the defining counting identities exactly,
forms the induced convolution structure, computes character tables and
Plancherel weights, certifies dual positive product formulas, and covers
two closed-form families: the clique-tree polynomial family and the
deformed nearest-step family on the integers.

Only the module of exception types loads with the package.  Every public
name, and the ``catalog``, ``families`` and ``jsonio`` modules, load on
first access (PEP 562), so a caller imports just the modules it uses.
"""

import importlib

from . import errors  # noqa: F401  (loaded with the package; its names bind on first access)

# the public names of each defining module; "" lists the modules themselves
_EXPORTS = {
    "errors": (
        "BallTooLarge", "ClosureResidual", "DegenerateSplitFailure",
        "DetailedBalanceViolation", "DualNotPositive", "EmptyClass",
        "InconsistentIntersection", "InvalidCayleyTable", "NoIdentityClass",
        "NoInvolution", "NonSquare", "NotACharacter", "NotAHypergroup",
        "NotASubgroup", "NotBijective", "NotCommutative", "NotDistanceRegular",
        "NotStochastic", "ParameterOutOfRange", "ParseError", "SchemeError",
        "SupportMismatch",
    ),
    "schemes": (
        "Scheme", "audit_intersection_identities", "build_scheme",
        "check_automorphism", "is_commutative", "is_symmetric", "is_unimodular",
        "scheme_from_distance_regular_graph",
    ),
    "groups": (
        "FiniteGroup", "check_subgroup", "cyclic_group", "group_from_table",
        "scheme_from_group_quotient", "symmetric_group",
    ),
    "hypergroup": (
        "FiniteHypergroup", "hypergroup_from_scheme", "make_hypergroup",
        "verify_hypergroup",
    ),
    "harmonic": (
        "CharacterTable", "DualCoefficients", "DualMeasure", "character_table",
        "dual_convolution", "dual_hypergroup", "fourier", "is_positive_definite",
        "orthogonality_residual",
    ),
    "generalized": (
        "GeneralizedScheme", "build_generalized", "build_windowed",
        "classical_embedding", "deformed_valencies", "dual_product_generalized",
        "hypergroup_from_generalized", "kernel_F_f", "pi_positive_definite",
        "positive_connection_check", "s_tilde_f",
    ),
    "": ("catalog", "families", "jsonio"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import the module that defines a public name, and keep the name bound here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = importlib.import_module(f".{home or name}", __name__)
    globals()[name] = value = getattr(module, name) if home else module
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
