"""Exception hierarchy.

``PModError`` covers domain failures of well-formed requests (CLI exit code 1).
``ParseError`` and its subclasses cover malformed input files (CLI exit code 2).
"""


class PModError(Exception):
    """Base class for domain errors raised by library operations."""


class NotHermitian(PModError):
    """Matrix fails the Hermitian check at the requested tolerance."""


class NoConvergence(PModError):
    """A LAPACK routine (numpy.linalg) reported that it did not converge."""


class NotPositive(PModError):
    """Matrix fails the positive-semidefinite precondition."""


class SingularOperand(PModError):
    """inv / inv_sqrt requested for an operator that is numerically singular."""


class ShapeMismatch(PModError):
    """Operands have incompatible shapes or arities."""


class ArityUnsupported(PModError):
    """Operation is defined for two-leg modules only."""


class KernelOverlap(PModError):
    """The fusion normalizer K is numerically singular (overlapping kernels)."""


class SingularDenominator(PModError):
    """The star-operation denominator is numerically singular."""


class NotInvertible(PModError):
    """A leg required to be invertible is numerically singular."""


class NotIntertwiner(PModError):
    """No scalar multiple makes the candidate map an intertwiner."""


class OnUnitAxis(PModError):
    """Scalar module has a zero coordinate; not in the invertible-scalar group."""


class NotPrime(PModError):
    """Binary word is a proper power of a shorter word."""


class NotD2Shape(PModError):
    """Module does not have the diagonal / anti-diagonal 2x2 shape."""


class NotFullSuspected(PModError):
    """No longer raised by pmod: decompose_full keeps a leaking commutant block whole."""


class TooLarge(PModError):
    """A solve's working set, estimated before allocating, exceeds its cap."""


class ParseError(Exception):
    """Malformed input file (bad JSON, wrong types)."""


class ShapeError(ParseError):
    """Input file parsed but the declared shapes are inconsistent."""


class PythagoreanViolation(ParseError):
    """Input file parsed but the legs fail the Pythagorean identity."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
