"""Reconstruction of the eavesdropper's Gram matrix from detection statistics.

The 16 pass probabilities are linear in the 16 inner products
``<e_{m'n'}|e_{mn}>`` of the (subnormalized) post-announcement states held
by the measurement node, with the coefficient matrix built from the signal
states.  Solving that linear system, symmetrizing and clipping tiny negative
eigenvalues yields a physical 4x4 Gram matrix.

Storage convention: ``e_matrix[2m+n, 2m'+n'] = <e_{m'n'}|e_{mn}>``, i.e. the
flattened entry ``s = 8m + 4m' + 2n + n'`` lands at row ``2m+n``, column
``2m'+n'``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import DetectionStats, GammaMatrix, stats_index
from .errors import (
    NoDetectionsError,
    NotHermitianError,
    SingularGammaError,
    UnphysicalStatsError,
    _record,
)
from .qmath import psd_project
from .states import COND_LIMIT

CLIP_WARN = 1e-8
CLIP_ERROR = 1e-4


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

    def to_json(self) -> str:
        """JSON form with separate real/imaginary entry arrays."""
        doc = {
            "real": [[float(v) for v in row] for row in self.e_matrix.real],
            "imag": [[float(v) for v in row] for row in self.e_matrix.imag],
            "clipped_mass": self.clipped_mass,
        }
        return json.dumps(doc, indent=2)


def _vector_to_matrix(e_vec: np.ndarray) -> np.ndarray:
    """Entry ``8m + 4m' + 2n + n'`` of each length-16 row to ``[2m+n, 2m'+n']``."""
    shape = e_vec.shape[:-1]
    return e_vec.reshape(*shape, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*shape, 4, 4)


def _matrix_to_vector(E: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_vector_to_matrix`."""
    shape = E.shape[:-2]
    return E.reshape(*shape, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*shape, 16)


def _singular_errors(cond_alice: np.ndarray, cond_bob: np.ndarray, errors: list) -> None:
    """Record, per row, the :class:`~twistqkd.errors.SingularGammaError` of
    a state matrix whose condition number ``cond(RA) * cond(RB)`` is not
    below ``COND_LIMIT``."""
    cond = cond_alice * cond_bob
    _record(errors, ~(cond < COND_LIMIT), lambda i: SingularGammaError(
        f"{'Alice' if cond_alice[i] >= cond_bob[i] else 'Bob'}'s ensemble fails the "
        f"tetrahedron condition: state matrix condition number {float(cond[i]):.3e} is not "
        f"below {COND_LIMIT:.0e}, so detection statistics cannot determine the Gram matrix"
    ))


def _solve_rows(RA_inv: np.ndarray, RB_inv: np.ndarray, p_det: np.ndarray, errors: list):
    """Repaired Gram matrices for N rows of statistics ``p_det`` (N, 16),
    from the inverse state-matrix factors of one pair, or of each row's pair
    stacked (N, 4, 4).

    With ``gamma = RA (x) RB`` the linear system is
    ``RA X RB^T = P`` for ``P = p_det.reshape(4, 4)``, so ``X = RA^-1 P RB^-T``
    and ``raw = vec(X)``.  Returns ``(E, clipped, raw)``: the repaired
    matrices (N, 4, 4), and the clipped mass and raw solution per row; the
    :class:`~twistqkd.errors.QkdError` a row fails with is recorded in
    ``errors``.
    """
    P = np.asarray(p_det, dtype=float).reshape(-1, 4, 4)
    raw = (RA_inv @ P @ RB_inv.swapaxes(-1, -2)).reshape(-1, 16)
    E = _vector_to_matrix(raw)
    E = 0.5 * (E + E.conj().swapaxes(-1, -2))
    finite = np.isfinite(E).all(axis=(-2, -1))
    _record(errors, ~finite, lambda i: NotHermitianError("matrix contains NaN or Inf entries"))
    E[~finite] = 0.0
    E, clipped = psd_project(E, tol=1e-10)
    _record(errors, clipped > CLIP_ERROR, lambda i: UnphysicalStatsError(
        f"PSD repair removed eigenvalue mass {clipped[i]:.3e} (> {CLIP_ERROR:.0e}); "
        "statistics are not consistent with any quantum channel"
    ))
    for i in np.flatnonzero(clipped > CLIP_WARN):
        if errors[i] is None:
            warnings.warn(
                f"Gram reconstruction clipped eigenvalue mass {clipped[i]:.3e}",
                RuntimeWarning,
                stacklevel=3,
            )
    return E, clipped, raw


def _gram_rows(gamma: GammaMatrix, p_det: np.ndarray, errors: list):
    """:func:`_solve_rows` for one pair's state matrix; a singular one
    (see :func:`_singular_errors`) fails every row and is raised."""
    singular = [None]
    _singular_errors(np.array([gamma.cond_alice]), np.array([gamma.cond_bob]), singular)
    if singular[0] is not None:
        raise singular[0]
    return _solve_rows(np.linalg.inv(gamma.RA), np.linalg.inv(gamma.RB), p_det, errors)


def solve_eve(gamma: GammaMatrix, stats: DetectionStats) -> EveGram:
    """Recover the Gram matrix by solving the statistics linear system.

    The system is solved through the two 4x4 factors of the state matrix
    rather than by explicit inversion of the 16x16 one.  The result is
    symmetrized to ``(E + E^dag)/2`` and repaired to PSD by clipping
    negative eigenvalues; a repair above 1e-8 raises a warning and above
    1e-4 the statistics are rejected as inconsistent with any quantum
    channel under this package's conventions.
    """
    errors = [None]
    E, clipped, raw = _gram_rows(gamma, stats.p_det[None], errors)
    if errors[0] is not None:
        raise errors[0]
    return EveGram(e_matrix=E[0], clipped_mass=float(clipped[0]), raw=raw[0])


_KEYS = [stats_index(0, 0, x, y) for x in (0, 1) for y in (0, 1)]
_MISMATCH = (stats_index(0, 0, 0, 1), stats_index(0, 0, 1, 0))


def _key_rows(p_det: np.ndarray, errors: list):
    """``(p_det00, e_z)`` for N rows of statistics ``p_det`` (N, 16); a row
    without key-basis detections is recorded in ``errors``."""
    p00 = p_det[:, _KEYS].sum(axis=1)
    _record(errors, p00 < 1e-300, lambda i: NoDetectionsError(
        "key-basis detection probability is zero"
    ))
    with np.errstate(divide="ignore", invalid="ignore"):
        e_z = (p_det[:, _MISMATCH[0]] + p_det[:, _MISMATCH[1]]) / p00
    return p00, e_z


def key_basis_stats(stats: DetectionStats) -> tuple[float, float]:
    """Key-basis detection probability and bit error rate.

    ``p_det00`` sums the four (i, j) = (0, 0) entries; the bit error rate is
    the mismatch fraction ``(p[0,0,0,1] + p[0,0,1,0]) / p_det00``.
    """
    errors = [None]
    p00, e_z = _key_rows(stats.p_det[None], errors)
    if errors[0] is not None:
        raise errors[0]
    return float(p00[0]), float(e_z[0])
