"""Exception types raised across the package, and the rule by which a
batch of rows records them."""

import numpy as np


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


def _record(errors: list, failed, error_of) -> None:
    """Record ``error_of(i)`` for each row ``i`` flagged in ``failed`` that
    has no error yet, so that every row keeps the first error recorded for
    it.  The stages of the pipeline record into one list in pipeline order.
    """
    for i in np.flatnonzero(failed):
        if errors[i] is None:
            errors[i] = error_of(i)
