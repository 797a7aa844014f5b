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

from .errors import EmptySubspaceError, InvalidParamsError, _float_array, _numeric
from .qmath import PAULI, require_hermitian

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PROB_TOL = 1e-10

#: A state matrix is usable iff its 2-norm condition number is below this;
#: the one singularity test of the package, scale-invariant in the priors.
COND_LIMIT = 1e9

#: The largest photon-number cutoff of :func:`phase_randomized_coherent`,
#: whose dense (n_max+1)^2-square matrix is then 961x961 (about 15 MB).
N_MAX_LIMIT = 30

_IDENTITY = np.eye(2)
# The model kets' angles are (delta + shift) / divisor; a shift of -0.0 keeps any delta.
_KET_SHIFTS, _KET_DIVISORS = np.array(((-0.0, np.pi, -np.pi), (2.0, 4.0, 4.0)))[:, :, None]


def _state_rows(rho: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """The state-matrix factor whose row a is ``vec(p_a rho_a)``, of each
    ensemble ``rho`` (..., 4, 2, 2) with ``priors`` (..., 4): (..., 4, 4)."""
    return (priors[..., None, None] * rho).reshape(*priors.shape, 4)


def _conditioning(R: np.ndarray) -> np.ndarray:
    """The package's one condition number: each matrix ``R`` (..., 4, 4)'s
    ratio of extreme singular values, the 2-norm value numpy's ``cond`` gives."""
    s = np.linalg.svd(R, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s[..., 0] / s[..., -1]


def _usable_pair(cond_a, cond_b):
    """The package's one singularity test: the state matrix of a pair whose
    factors have conds ``cond_a`` and ``cond_b`` (elementwise, arrays or
    floats) is usable iff its cond, their product, is below ``COND_LIMIT``."""
    return cond_a * cond_b < COND_LIMIT


def _check_states(rho, prob) -> np.ndarray:
    """Validate qubit states stacked ``(..., 2, 2)`` with their send
    probabilities ``(...)``, in a fixed number of numpy calls.

    Each matrix must be finite, 2x2 and Hermitian (:func:`require_hermitian`),
    with trace within ``TRACE_TOL`` of 1 and smallest eigenvalue (in closed
    form) at least ``-PSD_TOL``; each probability must lie in [0, 1].  The
    last three checks are evaluated together, and the first failing one, in
    that order, is reported for its first failing state.  Returns ``rho`` as
    a complex array.
    """
    rho = require_hermitian(rho, name="rho")
    if rho.shape[-2:] != (2, 2):
        raise InvalidParamsError(f"rho must be 2x2, got {rho.shape[-2:]}")
    a, _, c, d = rho.reshape(-1, 4).T  # the entries [0, 0], [0, 1], [1, 0], [1, 1]
    tr = (a + d).real
    wmin = 0.5 * tr - np.hypot(0.5 * (a.real - d.real), np.abs(c))
    prob = np.asarray(prob, dtype=float).reshape(-1)
    failed = np.array((
        np.abs(tr - 1.0) > TRACE_TOL, wmin < -PSD_TOL, ~((prob >= 0.0) & (prob <= 1.0))
    ))
    if np.count_nonzero(failed):
        check, i = divmod(int(failed.argmax()), len(tr))
        raise InvalidParamsError((
            f"rho has trace {float(tr[i])}, expected 1",
            f"rho is not PSD (min eigenvalue {wmin[i]:.3e})",
            f"prob must be in [0, 1], got {float(prob[i])}",
        )[check])
    return rho


def _check_totals(priors) -> None:
    """Each ensemble's priors, the last axis of ``priors``, must sum to 1."""
    total = np.add.reduce(priors, axis=-1).reshape(-1)
    bad = np.abs(total - 1.0) > PROB_TOL
    if np.count_nonzero(bad):
        total = float(total[bad.argmax()])
        raise InvalidParamsError(f"send probabilities sum to {total}, expected 1")


_UNIFORM_PRIORS = np.full(4, 0.25)  # the model's default: read-only, summed here, once
_UNIFORM_PRIORS.flags.writeable = False
_check_totals(_UNIFORM_PRIORS)


@dataclass
class QubitState:
    """A 2x2 density matrix together with its send probability."""

    rho: np.ndarray
    prob: float

    def __post_init__(self):
        self.prob = _numeric(self.prob, "prob")
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
        self.delta = _numeric(self.delta, "delta")
        self.depol = _numeric(self.depol, "depol")
        if not math.isfinite(self.delta):
            raise InvalidParamsError("delta must be finite")
        if not (0.0 <= self.depol < 1.0):
            raise InvalidParamsError(f"depol must be in [0, 1), got {self.depol}")


def _model_kets(deltas) -> np.ndarray:
    """The four target kets H, V, (H+V)/sqrt2, (H-iV)/sqrt2, each with its
    own constant offset parametrized by delta, stacked ``(M, 4, 2)`` over a
    sequence of M deltas."""
    angles = (np.asarray(deltas, dtype=float) + _KET_SHIFTS) / _KET_DIVISORS
    sin, cos = np.sin(angles), np.cos(angles)
    kets = np.empty((*angles.shape[1:], 4, 2), dtype=complex)
    kets[..., 0, :] = (1.0, 0.0)
    kets[..., 1, 0], kets[..., 1, 1] = -sin[0], cos[0]
    kets[..., 2, 0], kets[..., 2, 1] = cos[1], sin[1]
    kets[..., 3, 0], kets[..., 3, 1] = cos[2], 1j * sin[2]
    return kets


def _model_grid(deltas, depols, priors=_UNIFORM_PRIORS):
    """The model ensembles of the pairs ``(deltas[m], depols[m])`` as
    validated arrays: ``rho`` (M, 4, 2, 2) and ``priors`` (M, 4).

    The parameters are those :class:`ModelParams` accepts; the states are
    built by broadcasting, and they and the priors are checked by one
    :func:`_check_states` call and the priors' sum by :func:`_check_totals`.
    A :class:`~twistqkd.keyrate.ScanConfig` builds its grid with it, once.
    """
    priors = _numeric(priors, "priors", _float_array)
    if priors.shape != (4,):
        raise InvalidParamsError(f"priors must have length 4, got shape {priors.shape}")
    kets = _model_kets(deltas)
    p = np.asarray(depols, dtype=float)[:, None, None, None]
    rho = (1.0 - p) * (kets[..., :, None] * kets.conj()[..., None, :]) + p * _IDENTITY / 2.0
    grid_priors = priors[None].repeat(len(rho), axis=0)
    rho = _check_states(rho, grid_priors)
    if priors is not _UNIFORM_PRIORS:
        _check_totals(priors)
    return rho, grid_priors


def model_states(params: ModelParams, priors=_UNIFORM_PRIORS) -> SignalEnsemble:
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
    return _stokes(state.rho, state.prob)


def _stokes(rho, prob) -> np.ndarray:
    """The weighted Stokes vectors (..., 4) of states ``rho`` (..., 2, 2)
    with probabilities ``prob`` (...)."""
    return np.asarray(prob)[..., None] * np.einsum("kij,...ji->...k", PAULI, rho).real


@dataclass
class TetrahedronDiagnostics:
    """Result of the non-coplanarity check on an ensemble."""

    determinant: float
    cond: float
    passed: bool
    stokes_matrix: np.ndarray


def _tetrahedra(rho: np.ndarray, priors: np.ndarray) -> tuple:
    """The Stokes matrices (..., 4, 4), their determinants and the conds of
    the state-matrix factors of checked ensembles ``rho`` (..., 4, 2, 2)
    with ``priors`` (..., 4)."""
    S = _stokes(rho, priors)
    return S, np.linalg.det(S), _conditioning(_state_rows(rho, priors))


def tetrahedron_check(ensemble: SignalEnsemble) -> TetrahedronDiagnostics:
    """Check that the four weighted Stokes vectors are linearly independent.

    Independence (the states' Bloch vectors not all falling in one plane,
    with nonzero priors) is exactly what makes the 16x16 state matrix built
    downstream invertible.  The Stokes matrix ``S`` is the party's factor
    ``RA`` of that matrix times a fixed scaled unitary, so ``cond`` is read
    from ``RA`` by :func:`_conditioning`, as in ``build_gamma`` and the
    kernel.  The check is the package's one singularity test,
    :func:`_usable_pair`, applied to the ensemble paired with itself.
    ``determinant`` (of ``S``) is reported as a diagnostic only.  The
    ensemble's arrays, checked when it was built, are read as they are.
    """
    S, det, cond = _tetrahedra(ensemble.rho, ensemble.priors)
    cond = float(cond)
    return TetrahedronDiagnostics(
        determinant=float(det),
        cond=cond,
        passed=_usable_pair(cond, cond),
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
    if normalize == "poisson":
        mu = _mean_photon_number(mu)
    idx = [d, 1]  # |1,0> (single photon in H) then |0,1>
    block = M[np.ix_(idx, idx)]
    weight = float(block.trace().real)
    if weight < 1e-12:
        raise EmptySubspaceError(f"single-photon subspace weight {weight:.3e} is below 1e-12")
    divisor = math.exp(-mu) * mu if normalize == "poisson" else weight
    return QubitState(rho=block / divisor, prob=prob)


def _mean_photon_number(mu) -> float:
    """``mu`` as a float, or InvalidParamsError unless the single-photon
    weight ``exp(-mu) * mu`` is positive: ``0 < mu`` and below about 745."""
    mu = _numeric(mu, "mu")
    if not (mu > 0 and math.exp(-mu) * mu > 0):
        raise InvalidParamsError(f"mu must be positive, with exp(-mu) * mu > 0, got {mu}")
    return mu


def phase_randomized_coherent(jones, mu: float, n_max: int = 4) -> np.ndarray:
    """Two-mode phase-randomized coherent state, truncated at ``n_max`` photons.

    ``jones = (a_H, a_V)`` sets the polarization (it is normalized
    internally) and ``mu`` the mean photon number.  The result is a Poisson
    mixture over total photon number of pure n-photon states of that
    polarization, expressed in the Fock basis ``|n_H> (x) |n_V>`` with
    per-mode dimension ``n_max + 1``, for ``n_max`` at most ``N_MAX_LIMIT``.
    Photon numbers above ``n_max`` are dropped, so the matrix is
    subnormalized by the Poisson tail; every kept block, including the
    single-photon one, is exact.
    """
    mu = _mean_photon_number(mu)
    if (isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer))
            or not 0 <= n_max <= N_MAX_LIMIT):
        raise InvalidParamsError(
            f"n_max must be an integer >= 0, at most {N_MAX_LIMIT}, got {n_max!r}"
        )
    a = _numeric(jones, "jones", lambda v: np.asarray(v, dtype=complex))
    peak = np.maximum(abs(a.real), abs(a.imag)).max(initial=0.0)
    if a.shape != (2,) or not 0 < peak < math.inf:
        raise InvalidParamsError(f"jones must be a nonzero, finite amplitude pair, got {jones!r}")
    # Scaled exactly by the power of two that brings its entries below 1, the
    # pair's norm neither overflows nor underflows.
    exponent = np.frexp(peak)[1]
    a = np.ldexp(a.real, -exponent) + 1j * np.ldexp(a.imag, -exponent)
    a = a / np.linalg.norm(a)
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
    rho = ensemble.rho
    doc = {"priors": ensemble.priors.tolist(), "rhos": np.stack((rho.real, rho.imag), -1).tolist()}
    return json.dumps(doc, indent=2)


def ensemble_from_json(text: str) -> SignalEnsemble:
    """Inverse of :func:`ensemble_to_json`; validates the resulting states."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise InvalidParamsError(f"ensemble document is not valid JSON: {exc}") from exc
    return ensemble_from_dict(doc)


def ensemble_from_dict(doc: dict) -> SignalEnsemble:
    """Build an ensemble from the parsed JSON document form."""
    if not isinstance(doc, dict):
        raise InvalidParamsError("ensemble document must be a JSON object, got "
                                 + type(doc).__name__)
    try:
        priors = doc["priors"]
        rhos = doc["rhos"]
    except KeyError as exc:
        raise InvalidParamsError(f"ensemble document missing field: {exc}") from exc
    for name, value in (("priors", priors), ("rhos", rhos)):
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise InvalidParamsError(f"ensemble field {name} must be a list, got {value!r}")
    if len(priors) != 4 or len(rhos) != 4:
        raise InvalidParamsError("ensemble document must list 4 priors and 4 states")
    states = []
    for prior, rho in zip(priors, rhos):
        # Each entry is one [re, im] pair; any other form fails to unpack.
        mat = _numeric(
            rho, "rho", lambda r: np.array([[complex(re, im) for re, im in row] for row in r])
        )
        states.append(QubitState(rho=mat, prob=prior))
    return SignalEnsemble(states=tuple(states))
