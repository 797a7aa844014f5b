"""Reconstruction of the eavesdropper's Gram matrix from detection statistics.

The 16 pass probabilities are linear in the 16 inner products
``<e_{m'n'}|e_{mn}>`` of the (subnormalized) post-announcement states held
by the measurement node, with the coefficient matrix built from the signal
states.  Solving that linear system, symmetrizing and clipping negative
eigenvalues (at most ``CLIP_ERROR`` of the trace) yields a physical 4x4 Gram matrix.
The Gram matrix holds the matrix elements of the node's pass operator
``M``, which obeys ``M <= I``, so statistics whose Gram matrix has an
eigenvalue above 1 (by more than ``CLIP_ERROR``) are refused too.

Storage convention: ``e_matrix[2m+n, 2m'+n'] = <e_{m'n'}|e_{mn}>``, i.e. the
flattened entry ``s = 8m + 4m' + 2n + n'`` lands at row ``2m+n``, column
``2m'+n'``.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import DetectionStats, GammaMatrix, stats_index
from .errors import (
    InvalidParamsError,
    NoDetectionsError,
    NotHermitianError,
    SingularGammaError,
    UnphysicalStatsError,
    _record,
)
from .qmath import psd_project
from .states import COND_LIMIT, _usable_pair

CLIP_WARN = 1e-8
CLIP_ERROR = 1e-4

_EYE4 = np.eye(4)


def _warn_caller(message: str) -> None:
    """A RuntimeWarning at the caller's line: the first frame outside the package."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


@dataclass
class EveGram:
    """4x4 Hermitian PSD Gram matrix of the node's post-pass states.

    ``clipped_mass`` records how much negative eigenvalue mass the PSD
    repair removed; ``raw`` keeps the unrepaired length-16 solution vector
    for auditing.
    """

    e_matrix: np.ndarray
    clipped_mass: float
    raw: np.ndarray


def _vector_to_matrix(e_vec: np.ndarray) -> np.ndarray:
    """Entry ``8m + 4m' + 2n + n'`` of each length-16 row to ``[2m+n, 2m'+n']``."""
    shape = e_vec.shape[:-1]
    return e_vec.reshape(*shape, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*shape, 4, 4)


def _matrix_to_vector(E: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_vector_to_matrix`."""
    shape = E.shape[:-2]
    return E.reshape(*shape, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*shape, 16)


def _invert_factors(R: np.ndarray, cond: np.ndarray, errors: list) -> np.ndarray:
    """The inverse factors ``RA^-1, RB^-1`` (2, M, 4, 4) of M ensemble pairs'
    factors ``R`` with conds ``cond`` (2, M), for ``errors``' rows, pair-major.

    The package's one inverse, of the pairs that its one singularity test
    :func:`~twistqkd.states._usable_pair` passes (a zero prior zeroes a
    factor's row, so fails it).  Each row of another pair records a
    ``SingularGammaError``, and the pair gets zero inverses (of the identity
    in its place), which its rows solve against without error or warning.
    """
    good = _usable_pair(cond[0], cond[1])
    if good.all():
        return np.linalg.inv(R)
    rows = len(errors) // len(good)  # per pair; row i is pair i // rows's
    _record(errors, ~good.repeat(rows)[None], lambda c, i: SingularGammaError(
        f"{'Alice' if cond[0, i // rows] >= cond[1, i // rows] else 'Bob'}'s ensemble fails "
        f"the tetrahedron condition: state matrix condition number "
        f"{float(cond[0, i // rows] * cond[1, i // rows]):.3e} is not below {COND_LIMIT:.0e}, "
        "so detection statistics cannot determine the Gram matrix"
    ))
    good = good[:, None, None]
    return np.where(good, np.linalg.inv(np.where(good, R, _EYE4)), 0.0)


def _solve_rows(RA_inv: np.ndarray, RB_inv: np.ndarray, p_det: np.ndarray, errors: list):
    """Repaired Gram matrices for the M * D rows of statistics ``p_det``
    (M * D, 16), pair-major, of M ensemble pairs with inverse state-matrix
    factors stacked (M, 4, 4), or of one pair's.

    With ``gamma = RA (x) RB`` the linear system is
    ``RA X RB^T = P`` for ``P = p_det.reshape(4, 4)``, so ``X = RA^-1 P RB^-T``
    and ``raw = vec(X)``; each pair's factors broadcast over its D rows.
    Returns ``(E, clipped, raw)``: the repaired matrices (M * D, 4, 4), and
    the clipped mass and raw solution per row.  The
    :class:`~twistqkd.errors.QkdError` a row fails with is recorded in
    ``errors``, from three checks in order: ``E`` is not finite, its PSD
    repair removed more than ``CLIP_ERROR`` of its trace, or its largest
    eigenvalue, read off the repair's one eigendecomposition, exceeds 1 by
    more than ``CLIP_ERROR``.  ``E`` holds the matrix elements of the node's
    pass operator ``M`` (``E[2m+n, 2m'+n'] = <m'n'|M|mn>``), and
    ``0 <= M <= I``, so no node gives such statistics.
    """
    RA_inv, RB_inv = (R.reshape(-1, 1, 4, 4) for R in (RA_inv, RB_inv))
    P = np.asarray(p_det, dtype=float).reshape(len(RA_inv), -1, 4, 4)
    raw = (RA_inv @ P @ RB_inv.swapaxes(-1, -2)).reshape(-1, 16)
    E = _vector_to_matrix(raw)
    E = 0.5 * (E + E.conj().swapaxes(-1, -2))
    finite = np.logical_and.reduce(np.isfinite(E), axis=(-2, -1))
    E[~finite] = 0.0
    E, clipped, top = psd_project(E)
    if finite.all() and not (np.count_nonzero(clipped) or np.count_nonzero(top > 1.0 + CLIP_ERROR)):
        return E, clipped, raw
    trace = E.trace(axis1=-2, axis2=-1).real  # >= 0: an unrepaired row passes the repair test

    def error_of(c, i):
        if c == 0:
            return NotHermitianError("matrix contains NaN or Inf entries")
        if c == 1:
            return UnphysicalStatsError(
                f"PSD repair removed eigenvalue mass {clipped[i]:.3e}, more than "
                f"{CLIP_ERROR:.0e} of the repaired Gram matrix's trace {trace[i]:.3e} (warned "
                f"above {CLIP_WARN:.0e}); statistics are not consistent with any quantum channel"
            )
        return UnphysicalStatsError(
            f"the Gram matrix has largest eigenvalue {top[i]:.6g}, above 1 by more than "
            f"{CLIP_ERROR:.0e}; no pass operator M <= I gives these statistics"
        )

    _record(errors, np.array((~finite, clipped > CLIP_ERROR * trace, top > 1.0 + CLIP_ERROR)),
            error_of)
    for i in (clipped > CLIP_WARN * trace).nonzero()[0]:
        if errors[i] is None:
            _warn_caller(f"Gram reconstruction clipped eigenvalue mass {clipped[i]:.3e}, more "
                         f"than {CLIP_WARN:.0e} of the repaired Gram matrix's trace "
                         f"{trace[i]:.3e}")
    return E, clipped, raw


def solve_eve(gamma: GammaMatrix, stats: DetectionStats) -> EveGram:
    """Recover the Gram matrix by solving the statistics linear system.

    The system is solved through the two 4x4 factors of the state matrix
    rather than by explicit inversion of the 16x16 one.  The result is
    symmetrized to ``(E + E^dag)/2`` and repaired to PSD by clipping
    negative eigenvalues; a repair above 1e-8 of the repaired matrix's trace
    raises a warning and above 1e-4 of it the statistics are rejected as
    inconsistent with any quantum channel under this package's conventions.
    """
    errors = [None]
    cond = np.array([[gamma.cond_alice], [gamma.cond_bob]])
    R_inv = _invert_factors(np.array((gamma.RA, gamma.RB))[:, None], cond, errors)
    E, clipped, raw = _solve_rows(*R_inv, stats.p_det[None], errors)
    if errors[0] is not None:
        raise errors[0]
    return EveGram(e_matrix=E[0], clipped_mass=float(clipped[0]), raw=raw[0])


_KEYS = np.array([stats_index(0, 0, x, y) for x in (0, 1) for y in (0, 1)])
_MISMATCH = (stats_index(0, 0, 0, 1), stats_index(0, 0, 1, 0))


def _key_rows(p_det: np.ndarray):
    """``(p_det00, e_z)`` for N rows of statistics ``p_det`` (N, 16); a row
    without key-basis detections has ``e_z`` NaN or infinite, which the
    caller's ``np.errstate`` lets pass."""
    p00 = np.add.reduce(p_det.take(_KEYS, axis=1), axis=1)
    return p00, (p_det[:, _MISMATCH[0]] + p_det[:, _MISMATCH[1]]) / p00


def _key_checks(p_det00: np.ndarray, e_z: np.ndarray):
    """The checks of N rows' key-basis statistics, in pipeline order, for
    :func:`~twistqkd.errors._record`: no key-basis detections, ``p_det00``
    not positive, ``e_z`` outside [0, 1] by more than 1e-12.  Returns their
    failure masks (3, N) and the ``error_of(c, i)`` of check ``c`` at row ``i``.
    """
    failed = np.array((
        p_det00 < 1e-300, p_det00 <= 0, ~((e_z >= -1e-12) & (e_z <= 1 + 1e-12))
    ))

    def error_of(c, i):
        if c == 0:
            return NoDetectionsError("key-basis detection probability is zero")
        if c == 1:
            return InvalidParamsError(f"p_det00 must be positive, got {float(p_det00[i])}")
        return InvalidParamsError(f"e_z must be in [0, 1], got {float(e_z[i])}")

    return failed, error_of


def key_basis_stats(stats: DetectionStats) -> tuple[float, float]:
    """Key-basis detection probability and bit error rate.

    ``p_det00`` sums the four (i, j) = (0, 0) entries; the bit error rate is
    the mismatch fraction ``(p[0,0,0,1] + p[0,0,1,0]) / p_det00``.
    """
    errors = [None]
    with np.errstate(divide="ignore", invalid="ignore"):
        p00, e_z = _key_rows(stats.p_det[None])
    failed, error_of = _key_checks(p00, e_z)
    _record(errors, failed[:1], error_of)  # no detections only
    if errors[0] is not None:
        raise errors[0]
    return float(p00[0]), float(e_z[0])
