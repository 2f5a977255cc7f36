"""Exception hierarchy for the qps package."""


class QpsError(Exception):
    """Base class for all qps errors."""


class NotPrimeError(QpsError):
    """Qudit dimension is not a prime in the supported range."""


class NotInvertibleError(QpsError):
    """Residue has no multiplicative inverse mod d."""


class IncompatibleError(QpsError):
    """Operands live on mismatched (d, n) systems."""


class ConfigError(QpsError):
    """A configuration value (flag or environment variable) is malformed."""


class TooLargeError(QpsError):
    """Requested computation exceeds a desk-scale cap."""


class SingularGError(QpsError):
    """Parameter matrix G is singular mod d."""


class UnsupportedGError(QpsError):
    """Parameter matrix G lacks the positivity the operation requires."""


class UnsupportedDimensionError(QpsError):
    """Operation is undefined at this local dimension (typically d = 2)."""


class UnsupportedAlphaError(QpsError):
    """Renyi order outside the supported range."""


class NotUnitaryError(QpsError):
    """Matrix expected to be unitary is not."""


class NotStateError(QpsError):
    """Matrix fails the density-operator checks."""


class NotComparableError(QpsError):
    """Spectra cannot be compared by majorization (sums differ)."""


class NotTracePreservingError(QpsError):
    """Kraus set or Choi matrix does not define a trace-preserving map."""


class PhaseNotRootOfUnityError(QpsError):
    """Characteristic value on the mean-state group is not a d-th root of unity."""


class SingularStateError(QpsError):
    """State is rank-deficient where full rank is required (smooth it first)."""


class NegativeTimeError(QpsError):
    """Heat semigroup requested at t < 0."""


class InternalInconsistencyError(QpsError):
    """A property the theory guarantees failed numerically; input is broken."""
