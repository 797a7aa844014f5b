"""Signal-state ensembles: the (delta, p) source model, Stokes-vector
diagnostics, the tetrahedron (non-coplanarity) check, and projection of
multi-photon sources onto their single-photon component.

Each party prepares four qubit states indexed canonically by
``(i, x) = (0,0), (0,1), (1,0), (1,1)``: ``i`` selects key (0) or test (1)
usage and ``x`` the bit/test value.  The key rate machinery downstream takes
Alice's and Bob's ensembles independently, so asymmetric sources and
per-state noise are supported throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubspaceError, InvalidParamsError
from .qmath import PAULI, require_hermitian

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PROB_TOL = 1e-10

#: A state matrix is usable iff its 2-norm condition number is below this;
#: the one singularity test of the package, scale-invariant in the priors.
COND_LIMIT = 1e9


def _check_states(rho, prob) -> np.ndarray:
    """Validate qubit states stacked ``(..., 2, 2)`` with their send
    probabilities ``(...)``, in a fixed number of numpy calls.

    Each matrix must be finite, 2x2 and Hermitian (:func:`require_hermitian`),
    with trace within ``TRACE_TOL`` of 1 and smallest eigenvalue at least
    ``-PSD_TOL``; each probability must lie in [0, 1].  The checks run in
    that order and the first failing state is reported.  Returns ``rho`` as
    a complex array.
    """
    rho = require_hermitian(rho, name="rho")
    if rho.shape[-2:] != (2, 2):
        raise InvalidParamsError(f"rho must be 2x2, got {rho.shape[-2:]}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real.reshape(-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise InvalidParamsError(f"rho has trace {float(tr[bad[0]])}, expected 1")
    wmin = np.linalg.eigvalsh(rho)[..., 0].reshape(-1)
    bad = np.flatnonzero(wmin < -PSD_TOL)
    if bad.size:
        raise InvalidParamsError(f"rho is not PSD (min eigenvalue {wmin[bad[0]]:.3e})")
    prob = np.asarray(prob, dtype=float).reshape(-1)
    bad = np.flatnonzero(~((prob >= 0.0) & (prob <= 1.0)))
    if bad.size:
        raise InvalidParamsError(f"prob must be in [0, 1], got {float(prob[bad[0]])}")
    return rho


def _check_totals(priors) -> None:
    """Each ensemble's priors, the last axis of ``priors``, must sum to 1."""
    total = np.sum(priors, axis=-1).reshape(-1)
    bad = np.flatnonzero(np.abs(total - 1.0) > PROB_TOL)
    if bad.size:
        raise InvalidParamsError(f"send probabilities sum to {float(total[bad[0]])}, expected 1")


@dataclass
class QubitState:
    """A 2x2 density matrix together with its send probability."""

    rho: np.ndarray
    prob: float

    def __post_init__(self):
        self.prob = float(self.prob)
        self.rho = _check_states(self.rho, self.prob)

    def weighted(self) -> np.ndarray:
        """The probability-weighted matrix ``prob * rho``."""
        return self.prob * self.rho


def _stack(states) -> tuple[np.ndarray, np.ndarray]:
    """The ``rho`` (n, 2, 2) and send probabilities (n,) of ``states``."""
    return np.stack([s.rho for s in states]), np.array([s.prob for s in states])


class SignalEnsemble:
    """Four signal states in canonical (i, x) order with probabilities summing to 1.

    The ensemble is held as arrays, ``rho`` (4, 2, 2) and ``priors`` (4,),
    which is what the key-rate kernel reads; ``states`` gives the
    :class:`QubitState` of each entry.
    """

    def __init__(self, states):
        states = tuple(states)
        if len(states) != 4:
            raise InvalidParamsError(f"an ensemble has exactly 4 states, got {len(states)}")
        self.rho, self.priors = _stack(states)
        _check_totals(self.priors)
        self._states = states

    @classmethod
    def _of_checked(cls, rho: np.ndarray, priors: np.ndarray) -> "SignalEnsemble":
        """The ensemble of arrays that :func:`_check_states` and
        :func:`_check_totals` have passed; its states are made on first use."""
        ensemble = cls.__new__(cls)
        ensemble.rho, ensemble.priors, ensemble._states = rho, priors, None
        return ensemble

    @property
    def states(self) -> tuple:
        if self._states is None:
            self._states = tuple(QubitState(r, p) for r, p in zip(self.rho, self.priors))
        return self._states

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, k):
        return self.states[k]

    def key_states(self) -> tuple[QubitState, QubitState]:
        """The two key-generation states, (i, x) = (0, 0) and (0, 1)."""
        return self.states[0], self.states[1]


@dataclass
class ModelParams:
    """Two-parameter source model: a constant modulation offset ``delta``
    (radians) applied to each target state, plus depolarizing noise of
    strength ``depol`` that shortens every Bloch vector to ``1 - depol``."""

    delta: float
    depol: float

    def __post_init__(self):
        self.delta = float(self.delta)
        self.depol = float(self.depol)
        if not math.isfinite(self.delta):
            raise InvalidParamsError("delta must be finite")
        if not (0.0 <= self.depol < 1.0):
            raise InvalidParamsError(f"depol must be in [0, 1), got {self.depol}")


def _model_kets(delta) -> np.ndarray:
    """The four target kets H, V, (H+V)/sqrt2, (H-iV)/sqrt2, each with its
    own constant offset parametrized by delta, stacked ``(..., 4, 2)`` over
    an array of deltas."""
    delta = np.asarray(delta, dtype=float)
    s, c = np.sin(delta / 2), np.cos(delta / 2)
    a, b = (np.pi + delta) / 4, (-np.pi + delta) / 4
    one, zero = np.ones_like(delta), np.zeros_like(delta)
    kets = [one, zero, -s, c, np.cos(a), np.sin(a), np.cos(b), 1j * np.sin(b)]
    return np.stack(kets, axis=-1).reshape(*delta.shape, 4, 2)


def _model_grid(deltas, depols, priors=(0.25, 0.25, 0.25, 0.25)):
    """The model ensembles of the pairs ``(deltas[m], depols[m])`` as
    validated arrays: ``rho`` (M, 4, 2, 2) and ``priors`` (M, 4).

    The parameters are those :class:`ModelParams` accepts; the states are
    built by broadcasting, and they and the priors are checked by one
    :func:`_check_states` call and the priors' sum by :func:`_check_totals`.
    """
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (4,):
        raise InvalidParamsError(f"priors must have length 4, got shape {priors.shape}")
    kets = _model_kets(deltas)
    p = np.asarray(depols, dtype=float)[:, None, None, None]
    rho = (1.0 - p) * (kets[..., :, None] * kets.conj()[..., None, :]) + p * np.eye(2) / 2.0
    priors = np.broadcast_to(priors, rho.shape[:2])
    rho = _check_states(rho, priors)
    _check_totals(priors)
    return rho, priors


def model_states(params: ModelParams, priors=(0.25, 0.25, 0.25, 0.25)) -> SignalEnsemble:
    """Build the four-state ensemble of the (delta, p) source model.

    Each state is ``(1-p) |xi><xi| + p * I/2`` where ``|xi>`` is the
    delta-offset target ket; the maximally-mixed admixture keeps every state
    unit trace and shrinks its Bloch vector to length ``1 - p``.

    Parameters
    ----------
    params : ModelParams
    priors : four nonnegative reals summing to 1

    Returns
    -------
    SignalEnsemble in canonical (i, x) order.
    """
    rho, priors = _model_grid([params.delta], [params.depol], priors)
    return SignalEnsemble._of_checked(rho[0], priors[0])


def stokes(state: QubitState) -> np.ndarray:
    """Probability-weighted Stokes vector ``P_r = prob * Tr(sigma_r rho)``.

    ``P_0`` equals the send probability; ``(P_1, P_2, P_3)`` is the Bloch
    vector scaled by it.  H is the +Z pole, so ``|H><H|`` with probability 1
    maps to ``(1, 0, 0, 1)``.
    """
    return state.prob * np.einsum("kij,ji->k", PAULI, state.rho).real


@dataclass
class TetrahedronDiagnostics:
    """Result of the non-coplanarity check on an ensemble."""

    determinant: float
    cond: float
    passed: bool
    stokes_matrix: np.ndarray


def tetrahedron_check(ensemble: SignalEnsemble) -> TetrahedronDiagnostics:
    """Check that the four weighted Stokes vectors are linearly independent.

    Independence (the states' Bloch vectors not all falling in one plane,
    with nonzero priors) is exactly what makes the 16x16 state matrix built
    downstream invertible.  The Stokes matrix ``S`` is the party's factor
    ``RA`` of that matrix times a fixed scaled unitary, so
    ``cond(S) == cond(RA)``, and the check is the package's one singularity
    test applied to the ensemble paired with itself: it passes iff
    ``cond(S)**2 < COND_LIMIT``.  ``determinant`` is reported as a
    diagnostic only.
    """
    S = np.vstack([stokes(s) for s in ensemble.states])
    cond = float(np.linalg.cond(S))
    return TetrahedronDiagnostics(
        determinant=float(np.linalg.det(S)),
        cond=cond,
        passed=cond**2 < COND_LIMIT,
        stokes_matrix=S,
    )


def single_photon_project(
    two_mode_state,
    mu: float,
    normalize: str = "poisson",
    prob: float = 1.0,
) -> QubitState:
    """Extract the single-photon polarization qubit from a two-mode state.

    The input is a density matrix on a two-mode Fock space
    ``H (x) V`` with equal per-mode truncation ``d`` (shape ``(d*d, d*d)``,
    basis index ``d*n_H + n_V``).  The state is projected onto
    ``span{|1,0>, |0,1>}`` and divided either by the single-photon Poisson
    weight ``exp(-mu) * mu`` (``normalize="poisson"``) or by the projected
    trace (``normalize="trace"``), the latter being appropriate for sources
    that are not exactly Poissonian.

    The returned qubit uses ``|H> = |1,0>``, ``|V> = |0,1>``.
    """
    M = require_hermitian(two_mode_state, name="two_mode_state")
    d = int(round(np.sqrt(M.shape[0])))
    if d * d != M.shape[0] or d < 2:
        raise InvalidParamsError(
            f"two_mode_state must act on d^2-dimensional space with d >= 2, got {M.shape[0]}"
        )
    if normalize not in ("poisson", "trace"):
        raise InvalidParamsError(f"normalize must be 'poisson' or 'trace', got {normalize!r}")
    if normalize == "poisson" and not mu > 0:
        raise InvalidParamsError(f"mu must be positive, got {mu}")
    idx = [d, 1]  # |1,0> (single photon in H) then |0,1>
    block = M[np.ix_(idx, idx)]
    weight = float(block.trace().real)
    if weight < 1e-12:
        raise EmptySubspaceError(f"single-photon subspace weight {weight:.3e} is below 1e-12")
    divisor = math.exp(-mu) * mu if normalize == "poisson" else weight
    return QubitState(rho=block / divisor, prob=prob)


def phase_randomized_coherent(jones, mu: float, n_max: int = 4) -> np.ndarray:
    """Two-mode phase-randomized coherent state, truncated at ``n_max`` photons.

    ``jones = (a_H, a_V)`` sets the polarization (it is normalized
    internally) and ``mu`` the mean photon number.  The result is a Poisson
    mixture over total photon number of pure n-photon states of that
    polarization, expressed in the Fock basis ``|n_H> (x) |n_V>`` with
    per-mode dimension ``n_max + 1``.  Photon numbers above ``n_max`` are
    dropped, so the matrix is subnormalized by the Poisson tail; every kept
    block, including the single-photon one, is exact.
    """
    if not mu > 0:
        raise InvalidParamsError(f"mu must be positive, got {mu}")
    a = np.asarray(jones, dtype=complex)
    if a.shape != (2,):
        raise InvalidParamsError("jones must be a length-2 amplitude pair")
    norm = np.linalg.norm(a)
    if norm == 0:
        raise InvalidParamsError("jones vector must be nonzero")
    a = a / norm
    d = n_max + 1
    rho = np.zeros((d * d, d * d), dtype=complex)
    for n in range(n_max + 1):
        ket = np.zeros(d * d, dtype=complex)
        for k in range(n + 1):
            amp = math.sqrt(math.comb(n, k)) * a[0] ** k * a[1] ** (n - k)
            ket[d * k + (n - k)] = amp
        weight = math.exp(-mu) * mu**n / math.factorial(n)
        rho += weight * np.outer(ket, ket.conj())
    return rho


def ensemble_to_json(ensemble: SignalEnsemble) -> str:
    """Serialize an ensemble to JSON.

    Schema: ``{"priors": [p0, p1, p2, p3], "rhos": [rho0, ..., rho3]}`` with
    each ``rho`` a 2x2 row-major nested list whose entries are ``[re, im]``
    pairs.
    """
    doc = {
        "priors": [s.prob for s in ensemble.states],
        "rhos": [
            [[[float(e.real), float(e.imag)] for e in row] for row in s.rho]
            for s in ensemble.states
        ],
    }
    return json.dumps(doc, indent=2)


def ensemble_from_json(text: str) -> SignalEnsemble:
    """Inverse of :func:`ensemble_to_json`; validates the resulting states."""
    doc = json.loads(text)
    return ensemble_from_dict(doc)


def ensemble_from_dict(doc: dict) -> SignalEnsemble:
    """Build an ensemble from the parsed JSON document form."""
    try:
        priors = doc["priors"]
        rhos = doc["rhos"]
    except (KeyError, TypeError) as exc:
        raise InvalidParamsError(f"ensemble document missing field: {exc}") from exc
    if len(priors) != 4 or len(rhos) != 4:
        raise InvalidParamsError("ensemble document must list 4 priors and 4 states")
    states = []
    for prior, rho in zip(priors, rhos):
        mat = np.array([[complex(e[0], e[1]) for e in row] for row in rho])
        states.append(QubitState(rho=mat, prob=float(prior)))
    return SignalEnsemble(states=tuple(states))
