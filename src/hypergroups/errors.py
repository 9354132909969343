"""Exception types shared across the package.

Every exception carries a human-readable message and, where a finite
counterexample exists, a ``witness`` attribute with the offending indices
so callers (and the CLI) can report exactly what failed.  ``SEED`` is the
default seed of the one random draw, which ``DegenerateSplitFailure`` asks to
redraw; it lives here, where every command finds it loaded.
"""

from __future__ import annotations

SEED = 0xC0FFEE


class SchemeError(Exception):
    """Base class for everything raised by this package."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(SchemeError):
    """Input file or mapping is malformed."""


class EmptyClass(SchemeError):
    """A declared relation class is attained by no pair."""


class NoIdentityClass(SchemeError):
    """The diagonal is not exactly one relation class."""


class NoInvolution(SchemeError):
    """Transposing some class does not land on a class."""


class InconsistentIntersection(SchemeError):
    """Triple counts depend on the representative pair."""


class NotDistanceRegular(SchemeError):
    """The distance partition of a graph is not a scheme."""


class InvalidCayleyTable(SchemeError):
    """Multiplication table violates the group axioms."""


class NotASubgroup(SchemeError):
    """Subset is not closed / misses identity or inverses."""


class NotBijective(SchemeError):
    """A supplied point or class map is not a bijection."""


class NotAHypergroup(SchemeError):
    """Convolution data violates a hypergroup axiom."""


class NotCommutative(SchemeError):
    """Operation requires commutativity and the input lacks it."""


class DegenerateSplitFailure(SchemeError):
    """Joint diagonalization could not separate characters."""


class DualNotPositive(SchemeError):
    """A dual product has a structurally negative weight."""


class NotACharacter(SchemeError):
    """Supplied function is not multiplicative within tolerance."""


class NonSquare(SchemeError):
    """Kernel matrix is not square over the point set."""


class NotStochastic(SchemeError):
    """A transition matrix row fails to sum to one."""


class SupportMismatch(SchemeError):
    """Transition matrix support disagrees with its relation class."""


class DetailedBalanceViolation(SchemeError):
    """Vertex weights fail the reversibility identity."""


class ClosureResidual(SchemeError):
    """Product of transition matrices leaves the linear span."""


class ParameterOutOfRange(SchemeError):
    """Family parameter outside its legal domain."""


class BallTooLarge(ParameterOutOfRange):
    """Graph ball would exceed the vertex budget."""

