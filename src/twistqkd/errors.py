"""Exception types raised across the package."""


class QkdError(Exception):
    """Base class for all package errors."""


class NotHermitianError(QkdError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class InvalidParamsError(QkdError):
    """Model, channel or configuration parameters are out of range."""


class EmptySubspaceError(QkdError):
    """The single-photon subspace carries (numerically) zero weight."""


class SingularGammaError(QkdError):
    """The state matrix is singular; detection statistics cannot be inverted."""


class UnphysicalStatsError(QkdError):
    """Statistics are inconsistent with any quantum channel under the
    package's conventions (PSD repair exceeded its tolerance)."""


class NoDetectionsError(QkdError):
    """The key-basis detection probability is (numerically) zero."""


class DomainError(QkdError):
    """Argument outside the mathematical domain of a function."""


class InvalidPhaseError(QkdError):
    """Phase/bit error rates violate the bounds of the key rate formula."""
