"""Exception types raised across the package, the typed conversion of
numeric parameters, and the rule by which a batch of rows records errors."""

import reprlib

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
    package's conventions: PSD repair beyond its tolerance, relative to the
    trace, or a Gram eigenvalue above 1, which no pass operator gives."""


class NoDetectionsError(QkdError):
    """The key-basis detection probability is (numerically) zero."""


class DomainError(QkdError):
    """Argument outside the mathematical domain of a function."""


class InvalidPhaseError(QkdError):
    """Phase/bit error rates violate the bounds of the key rate formula."""


def _record(errors: list, failed: np.ndarray, error_of) -> None:
    """Record one stage's errors: ``failed`` (C, N) flags, per row, the
    failures of the stage's C checks in pipeline order, and each row ``i``
    that fails one and has no error yet gets ``error_of(c, i)`` of its first
    failed check ``c``.

    Every row thus keeps the first error of the pipeline: the stages record
    into one list in pipeline order, each in one pass over its rows.
    """
    if not np.count_nonzero(failed):
        return
    for i in np.logical_or.reduce(failed, axis=0).nonzero()[0]:
        if errors[i] is None:
            errors[i] = error_of(int(failed[:, i].argmax()), i)


def _numeric(value, name: str, convert=float):
    """``convert(value)``, ``float`` by default, or InvalidParamsError naming ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise InvalidParamsError(f"{name} must be numeric, got {reprlib.repr(value)}") from exc


def _float_array(value) -> np.ndarray:
    """``np.asarray(value, dtype=float)``, except that an entry None, which numpy
    reads as NaN, raises TypeError as ``float(None)`` does: for :func:`_numeric`,
    a missing number is not numeric, while NaN is left to the caller's rules."""
    array = np.asarray(value, dtype=float)
    if np.isnan(array).any() and any(v is None for v in np.asarray(value, dtype=object).flat):
        raise TypeError("an entry is None")
    return array
