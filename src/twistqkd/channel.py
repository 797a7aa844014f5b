"""Honest measurement-node model and detection statistics.

The central node projects the incoming pair onto the Bell state
``|Phi+> = (|HH> + |VV>)/sqrt(2)`` and announces pass/fail.  Photons reach
it through lossy fiber (identical length on both sides) and imperfect
detectors with dark counts.  This module produces the 16-entry vector of
pass probabilities and the 16x16 matrix of vectorized weighted signal
states whose inversion recovers the eavesdropper's Gram matrix.

Index maps, fixed once:

* statistics row ``t = 4*(2i + x) + (2j + y)`` over Alice's choice (i, x)
  and Bob's (j, y);
* state-matrix column ``s = 8m + 4m' + 2n + n'`` over the basis labels of
  ``|m,n><m',n'|`` (H=0, V=1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, _float_array, _numeric
from .qmath import kron
from .states import SignalEnsemble, _conditioning, _state_rows

@dataclass
class ChannelParams:
    """Loss and detector parameters of the honest channel.

    ``eta`` is the overall detection efficiency, ``p_dark`` the dark count
    probability per detector per pulse.  The per-photon survival factor
    ``eta * 10**(-atten_db_per_km * distance_km / atten_divisor)`` is, at the
    default divisor 20, the loss of ``distance_km / 2`` of fiber, so
    ``distance_km`` is the Alice-Bob distance with the node midway (at
    divisor 10, the distance from each sender to the node).
    """

    eta: float
    p_dark: float
    distance_km: float
    atten_db_per_km: float = 0.2
    atten_divisor: float = 20.0

    def __post_init__(self):
        for name in ("eta", "p_dark", "distance_km", "atten_db_per_km", "atten_divisor"):
            value = _numeric(getattr(self, name), name)
            setattr(self, name, value)
            if not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value}")
        if not (0.0 < self.eta <= 1.0):
            raise InvalidParamsError(f"eta must be in (0, 1], got {self.eta}")
        if not (0.0 <= self.p_dark < 1.0):
            raise InvalidParamsError(f"p_dark must be in [0, 1), got {self.p_dark}")
        if self.distance_km < 0:
            raise InvalidParamsError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.atten_db_per_km < 0:
            raise InvalidParamsError(f"atten_db_per_km must be >= 0, got {self.atten_db_per_km}")
        if self.atten_divisor <= 0:
            raise InvalidParamsError(f"atten_divisor must be > 0, got {self.atten_divisor}")


def stats_index(i: int, j: int, x: int, y: int) -> int:
    """Row index t = 4*(2i+x) + (2j+y) of the statistics vector."""
    return 4 * (2 * i + x) + (2 * j + y)


@dataclass
class DetectionStats:
    """Length-16 vector of pass probabilities, indexed by :func:`stats_index`."""

    p_det: np.ndarray

    def __post_init__(self):
        self.p_det = _numeric(self.p_det, "p_det", _float_array)
        if self.p_det.shape != (16,):
            raise InvalidParamsError(f"p_det must have shape (16,), got {self.p_det.shape}")
        if not np.isfinite(self.p_det).all():
            raise InvalidParamsError("p_det entries must be finite")
        if np.any(self.p_det < -1e-15) or np.any(self.p_det > 1.0 + 1e-12):
            raise InvalidParamsError("p_det entries must lie in [0, 1]")
        if self.p_det.sum() > 1.0 + 1e-9:
            raise InvalidParamsError("p_det entries sum above 1")

    def __eq__(self, other):
        """Equal statistics: ``p_det`` compared by value."""
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.p_det, other.p_det)

    def to_csv(self, path) -> None:
        """Write rows ``i,j,x,y,p_det`` (with header) for all 16 settings."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "x", "y", "p_det"])
            for i in range(2):
                for j in range(2):
                    for x in range(2):
                        for y in range(2):
                            writer.writerow([i, j, x, y, f"{self.p_det[stats_index(i, j, x, y)]:.12g}"])

    @classmethod
    def from_csv(cls, path) -> "DetectionStats":
        """Read measured statistics from a CSV with columns i,j,x,y,p_det,
        one row for each of the 16 settings."""
        p = {}
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                rows = list(csv.DictReader(fh))
            except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not CSV text
                raise InvalidParamsError(f"stats CSV {path} is not readable CSV: {exc}") from exc
            for row in rows:
                try:
                    i, j, x, y = (int(row[k]) for k in ("i", "j", "x", "y"))
                    value = float(row["p_det"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise InvalidParamsError(f"bad stats row {row}: {exc}") from exc
                if not all(v in (0, 1) for v in (i, j, x, y)):
                    raise InvalidParamsError(f"indices must be 0/1, got {(i, j, x, y)}")
                t = stats_index(i, j, x, y)
                if t in p:
                    raise InvalidParamsError(
                        f"stats CSV repeats the setting i,j,x,y = {i},{j},{x},{y}"
                    )
                p[t] = value
        if len(p) < 16:
            raise InvalidParamsError(f"stats CSV is missing {16 - len(p)} of the 16 settings")
        return cls(p_det=[p[t] for t in range(16)])


@dataclass
class GammaMatrix:
    """The 16x16 state matrix ``RA (x) RB``, kept as its 4x4 factors.

    Row a of ``RA`` is ``vec(p_a rho_a)^T`` (Alice's weighted states), row b
    of ``RB`` the same for Bob, so row ``t = 4a + b`` of the full matrix is
    ``vec(p rho)^T (x) vec(q sigma)^T``.  ``cond_alice`` and ``cond_bob``
    are the 2-norm condition numbers of ``RA`` and ``RB``.
    """

    RA: np.ndarray
    RB: np.ndarray
    cond_alice: float
    cond_bob: float

    @property
    def cond(self) -> float:
        """2-norm condition number of the full matrix, ``cond(RA) * cond(RB)``."""
        return self.cond_alice * self.cond_bob

    @property
    def gamma(self) -> np.ndarray:
        """The dense 16x16 matrix."""
        return kron(self.RA, self.RB)


def _loss(params: ChannelParams, distance_km):
    """Per-photon loss of the channel ``params`` at each distance in
    ``distance_km``, whatever ``params.distance_km`` says."""
    return 1.0 - params.eta * 10.0 ** (-params.atten_db_per_km * distance_km / params.atten_divisor)


def photon_loss(params: ChannelParams) -> float:
    """Per-photon loss probability ``1 - eta * 10**(-a*l/divisor)``."""
    return _loss(params, params.distance_km)


def _detection_rows(RA, RB, priors_a, priors_b, channel, distances) -> np.ndarray:
    """Pass probabilities of all 16 state pairs of M ensemble pairs over
    ``channel`` at each of D ``distances``: (M * D, 16), rows pair-major.

    Both terms of :func:`detection_stats` factor into a channel scalar times
    a fixed 16-vector: ``p q Tr[(rho (x) sigma)|Phi+><Phi+|]`` is
    ``Re(RA RB^T)[a, b] / 2``, and the dark-count term is ``p q``.  Only the
    loss depends on the distance, so the rows are the outer product of the
    pairs' 16-vectors with the distances' two scalars.  The factors and
    priors are stacked (M, 4, 4) and (M, 4), or are one pair's.
    """
    p0 = _loss(channel, np.asarray(distances, dtype=float))
    pd = channel.p_dark
    clear = (1.0 - pd) * (1.0 - pd)  # (1-pd)^2, rounded as numpy squares an array
    both_arrive = (1.0 - p0) ** 2 * clear
    dark = 2.0 * (p0**2 * (pd * pd) * clear + p0 * (1.0 - p0) * pd * clear)
    p_pass = 0.5 * (RA @ RB.swapaxes(-1, -2)).real.reshape(-1, 1, 16)
    p_dark = (priors_a[..., :, None] * priors_b[..., None, :]).reshape(-1, 1, 16)
    return (both_arrive[:, None] * p_pass + dark[:, None] * p_dark).reshape(-1, 16)


def detection_stats(
    alice: SignalEnsemble, bob: SignalEnsemble, params: ChannelParams
) -> DetectionStats:
    """Simulated pass probabilities for all 16 state pairs.

    With per-photon loss p0 and dark count probability pd per detector,

    ``p_det = (1-p0)^2 (1-pd)^2 p_pass
              + 2 p q [p0^2 pd^2 (1-pd)^2 + p0 (1-p0) pd (1-pd)^2]``

    where ``p_pass = p q Tr[(rho (x) sigma)|Phi+><Phi+|]``.
    """
    RA, RB = _state_rows(alice.rho, alice.priors), _state_rows(bob.rho, bob.priors)
    rows = _detection_rows(RA, RB, alice.priors, bob.priors, params, [params.distance_km])
    return DetectionStats(p_det=rows[0])


def build_gamma(alice: SignalEnsemble, bob: SignalEnsemble) -> GammaMatrix:
    """Assemble the state matrix and each party's condition number.

    Row t factorizes as the Kronecker product of the two parties'
    vectorized weighted states, so the full matrix is ``RA (x) RB`` and its
    singular values are the products of theirs.  Each party's cond is the
    kernel's and the tetrahedron check's, :func:`~twistqkd.states._conditioning`.
    Singularity is not an error here; it surfaces when inverted downstream.
    """
    RA, RB = _state_rows(alice.rho, alice.priors), _state_rows(bob.rho, bob.priors)
    return GammaMatrix(RA, RB, *_conditioning(np.array((RA, RB))).tolist())
