"""Typed errors for the Leonard pair toolkit.

Every rejection the library can produce has its own class so that
callers (and the command line front end) can map failures to precise
diagnostics instead of parsing messages.
"""


class LeonardKitError(Exception):
    """Base class for all errors raised by this package."""


class AmbientMismatch(LeonardKitError):
    """Operands live in different ambient spaces or have incompatible shapes."""


class DimensionMismatch(LeonardKitError):
    """Two operators or pairs do not act on spaces of the same dimension."""


class NotSimpleRationalSpectrum(LeonardKitError):
    """The matrix does not have n distinct rational eigenvalues."""


class SingularBasis(LeonardKitError):
    """A claimed basis is linearly dependent."""


class NotTridiagonalizable(LeonardKitError):
    """No ordering of the eigenbasis makes the partner irreducible tridiagonal."""


class DecompositionNotStandard(LeonardKitError):
    """The decomposition is not standard for the given pair and kind."""


class NotOpposite(LeonardKitError):
    """Two flags fail the opposition condition."""


class NotADecomposition(LeonardKitError):
    """A sequence of subspaces is not a direct sum of lines covering the space."""


class DegenerateDimension(LeonardKitError):
    """The operation is undefined on a one-dimensional space."""


class RepeatedEntry(LeonardKitError):
    """A scalar sequence has two equal entries."""


class NotAdjacent(LeonardKitError):
    """The two Leonard pairs are not adjacent."""


class DichotomyViolation(LeonardKitError):
    """The four labeled sequences do not fall jointly into a single branch."""


class TheoremViolation(LeonardKitError):
    """A result a theorem guarantees failed its self-check; this signals
    an internal inconsistency, not bad input."""


class DependentVectors(LeonardKitError):
    """Vectors required to be linearly independent are not."""


class NotTraceless(LeonardKitError):
    """A matrix expected to lie in sl2 has nonzero trace."""


class InvalidP(LeonardKitError):
    """The parameter p must avoid 0 and 1."""


class ZeroScale(LeonardKitError):
    """An affine transformation needs nonzero leading coefficients."""


class NotArithmetic(LeonardKitError):
    """The eigenvalue data is not in arithmetic progression."""


class NotKrawtchouk(TheoremViolation):
    """A pair with arithmetic sequences missed the normal form: a failed self-check."""
