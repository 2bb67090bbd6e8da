"""Semantic exception hierarchy. Public operations never raise bare ValueError."""


class FinprobError(Exception):
    """Base class for all errors raised by this package."""


class NegativeWeightError(FinprobError, ValueError):
    """A probability weight is negative."""


class NonFiniteError(FinprobError, ValueError):
    """A value is NaN or infinite where a finite number is required."""


class SumNotOneError(FinprobError, ValueError):
    """Probability weights do not sum to one; the message reports the deviation."""


class SpaceMismatchError(FinprobError, ValueError):
    """Operands live on incompatible probability spaces (or numeric modes)."""


class SizeMismatchError(FinprobError, ValueError):
    """Partition, vector or matrix sizes are incompatible."""


class DimMismatchError(FinprobError, ValueError):
    """Vector dimensions are incompatible."""


class NotMeasurePreservingError(FinprobError, ValueError):
    """A kernel (or map) fails the pushforward condition p^T K = q."""


class NotIdempotentError(FinprobError, ValueError):
    """A kernel is not almost-surely idempotent."""


class NotComparableError(FinprobError, ValueError):
    """Two idempotents are not ordered in the idempotent partial order."""


class NotAChainError(FinprobError, ValueError):
    """A sequence of idempotents or subspaces is not monotone."""


class NotMonotoneError(NotAChainError):
    """A sequence required to be monotone is not."""


class InvalidFiltrationError(FinprobError, ValueError):
    """Partitions do not form a monotone filtration."""


class NotAMartingaleError(FinprobError, ValueError):
    """Random variables fail the martingale (tower) identities."""


class NotOrthonormalError(FinprobError, ValueError):
    """A claimed orthonormal basis is not orthonormal within tolerance."""


class NotLipschitzError(FinprobError, ValueError):
    """An operator exceeds norm 1."""


class TooLargeError(FinprobError, ValueError):
    """The instance is too large for an exhaustive verification."""


class ConfigError(FinprobError, ValueError):
    """An experiment configuration is invalid."""


class ConfigParseError(ConfigError):
    """An experiment configuration file cannot be parsed."""
