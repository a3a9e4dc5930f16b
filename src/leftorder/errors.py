"""Exception types shared across the package."""


class LeftOrderError(Exception):
    """Base class for all package errors."""


class MalformedWordError(LeftOrderError):
    """Word uses a generator id unknown to its group context."""


class ContextMismatchError(LeftOrderError):
    """Operands belong to different group contexts."""


class ResourceLimitError(LeftOrderError):
    """A ball or census request exceeded the configured size cap."""


class UnsupportedComparisonError(LeftOrderError):
    """Comparison of two irrational surds over different radicands."""


class PoleError(LeftOrderError):
    """Mobius transformation evaluated at its pole."""


class NoSignError(LeftOrderError):
    """The identity element has no sign under a positive cone."""


class InvalidSlopeError(LeftOrderError):
    """Zero vector passed where a direction is required."""


class WrongConstructorError(LeftOrderError):
    """Rational direction passed to the irrational-slope constructor."""


class InsufficientBasepointsError(LeftOrderError):
    """A nonidentity element fixed every basepoint of a dynamical cone."""


class InvalidEmbeddingError(LeftOrderError):
    """A claimed subgroup embedding failed its homomorphism spot-check."""


class BrokenSESError(LeftOrderError):
    """Short exact sequence maps failed a consistency check."""


class NotInKernelError(LeftOrderError):
    """Word is not in the kernel of the free-product projection."""


class InvalidConeError(LeftOrderError):
    """Sign oracle violated the cone axioms during a scan."""


class InvalidHomError(LeftOrderError):
    """Claimed homomorphism failed its spot-check."""


class InvalidOracleError(LeftOrderError):
    """Amalgam weights are neither two positive integers nor (0, 0)."""


class OrbitUndecidedError(LeftOrderError):
    """Orbit closure hit an undecidable cone equality.

    Carries the partial report computed so far in ``.partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
