"""Phase-error optimization over virtual purifications of the key states.

Mixed key-generation states admit many purifications, all related by
unitary "twisting" operations on the purifying ancillas.  The twist never
changes observable statistics, but it does change the phase error rates of
the virtual qubits, so it can be optimized after the fact.  The two
objectives

    e_minus = e_X - e_Y   (maximized)
    e_plus  = e_X + e_Y   (minimized)

are linear in the cross block ``X`` of the Gram matrix of two key pairs'
ancilla vectors, whose diagonal blocks ``W1``, ``W2`` are fixed by the key
states.  By Uhlmann's theorem the reachable cross blocks are exactly
``W1^{1/2} K W2^{1/2}`` with ``||K|| <= 1``, so each optimum is a trace norm

    s = (2/p_det00) * || S1^T E S2^* ||_1,    S = W^{1/2},

with ``E`` the measurement node's Gram matrix.  A block is
``W = p q rho (x) sigma``, so its square root is the Kronecker product
``S = sqrt(p rho) (x) sqrt(q sigma)`` of per-state 2x2 roots, each in
closed form.  Every ``S`` is 4x4 whatever the rank of the states: no
eigenbasis is computed and no rank cutoff applies.  The scalar windows of
the rate formula act as clamps: ``e_minus = min(s_-, e_z)`` and
``e_plus = max(1 - s_+, e_z)``.

Gram storage convention (matching :class:`twistqkd.evegram.EveGram`): entry
``[2m+n, 2m'+n']`` of a block holds the inner product of the ``(m', n')``
vector with the ``(m, n)`` one, so a diagonal block for key pair (x, y)
equals ``p^x q^y * kron(rho_A^x, sigma_B^y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, _record
from .evegram import EveGram, _key_checks
from .qmath import kron
from .states import _IDENTITY, _stack

_TINY = np.finfo(float).tiny


def _weighted_roots(W: np.ndarray) -> np.ndarray:
    """The square roots of PSD 2x2 matrices ``W`` (..., 2, 2), such as the
    weighted states ``prob * rho``.

    A 2x2 PSD matrix has ``sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))``
    (Levinger, Math. Mag. 53 (1980)); a negative ``det`` is rounding dust of
    a pure state and is clamped at 0.  The denominator vanishes only for
    ``M = 0``, whose root is 0.
    """
    det = np.maximum((W[..., 0, 0] * W[..., 1, 1] - W[..., 0, 1] * W[..., 1, 0]).real, 0.0)
    root_det = np.sqrt(det)[..., None, None]
    trace = (W[..., 0, 0] + W[..., 1, 1]).real[..., None, None]
    scale = np.maximum(np.sqrt(trace + 2.0 * root_det), _TINY)
    return (W + root_det * _IDENTITY) / scale


def _twist_factors(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors ``S1^T`` and ``S2^*`` of both pairings, each stacked
    ``(..., 2, 4, 4)`` in the order (e_minus, e_plus), from the weighted key
    states ``p_x rho_x`` of Alice and of Bob, stacked ``(2, ..., 2, 2, 2)``.

    ``S_xy = sqrt(p_x rho_x) (x) sqrt(q_y sigma_y)`` is the square root of
    the ancilla block of key pair (x, y); e_minus pairs (0,1) with (1,0)
    and e_plus pairs (0,0) with (1,1).  The four roots are one ``kron``.
    """
    A, B = _weighted_roots(key)
    S = kron(A.take((0, 0, 1, 1), axis=-3), B.take((1, 0, 0, 1), axis=-3))
    return S[..., :2, :, :].swapaxes(-1, -2), S[..., 2:, :, :].conj()


@dataclass
class TwistProblem:
    """Inputs of the two phase-error optimizations for one parameter point.

    ``alice_key`` and ``bob_key`` hold each party's two key-generation
    states; key bit pairs ((0,1), (1,0)) feed the e_minus optimization and
    ((0,0), (1,1)) the e_plus one.
    """

    alice_key: tuple
    bob_key: tuple
    eve_gram: EveGram
    p_det00: float
    e_z: float

    def __post_init__(self):
        errors = [None]
        failed, error_of = _key_checks(np.array([self.p_det00]), np.array([self.e_z]))
        _record(errors, failed[1:], lambda c, i: error_of(c + 1, i))  # all but no detections
        if errors[0] is not None:
            raise errors[0]
        self.e_z = min(max(self.e_z, 0.0), 1.0)

    @classmethod
    def from_key_states(cls, alice_key, bob_key, eve: EveGram, p_det00: float, e_z: float):
        """Assemble the problem from each party's two key-generation states."""
        return cls(tuple(alice_key), tuple(bob_key), eve, p_det00, e_z)


@dataclass
class PhaseErrors:
    """Phase error rates; ``e_x``/``e_y`` are ``(e_plus +/- e_minus) / 2``.

    ``bound_minus`` (``s_-``) and ``bound_plus`` (``1 - s_+``) are the
    unclamped optima of the twist, before the windows ``[0, e_z]`` and
    ``[e_z, 1]`` apply; they are NaN for the fixed-purification baseline.
    """

    e_minus: float
    e_plus: float
    bound_minus: float = math.nan
    bound_plus: float = math.nan

    @property
    def e_x(self) -> float:
        return (self.e_plus + self.e_minus) / 2.0

    @property
    def e_y(self) -> float:
        return (self.e_plus - self.e_minus) / 2.0


def _phase_error_rows(factors: tuple, E: np.ndarray, p_det00: np.ndarray, e_z: np.ndarray):
    """Optimized ``(e_minus, e_plus, s_minus, 1 - s_plus)`` for the M * D
    Gram matrices ``E`` (M * D, 4, 4), pair-major, of M ensemble pairs with
    :func:`_twist_factors` stacked (M, 2, 4, 4), or of one pair's; ``e_z``
    is the clamped bit error rate of each row.

    Each pair's factors broadcast over its D rows, and both trace norms of
    every row come from one batched ``svd``."""
    left, right = (F.reshape(-1, 1, 2, 4, 4) for F in factors)
    E = E.reshape(len(left), -1, 1, 4, 4)
    singular_values = np.linalg.svd(left @ E @ right, compute_uv=False)
    norms = np.add.reduce(singular_values, axis=-1).reshape(-1, 2)
    s = 2.0 / p_det00[:, None] * norms
    s_minus, bound_plus = s[:, 0], 1.0 - s[:, 1]
    return np.minimum(s_minus, e_z), np.maximum(bound_plus, e_z), s_minus, bound_plus


def optimize_phase_errors(problem: TwistProblem) -> PhaseErrors:
    """Optimized phase errors over all twists, in closed form."""
    keys = (problem.alice_key, problem.bob_key)
    for party, key in zip(("Alice", "Bob"), keys):
        for x, state in enumerate(key):
            if not state.prob > 0.0:
                raise InvalidParamsError(
                    f"{party}'s key state {x} has prior {state.prob}, so its ancilla "
                    "Gram blocks are zero; check key-state priors"
                )
    rows = _phase_error_rows(
        _twist_factors(np.array([[state.weighted() for state in key] for key in keys])),
        problem.eve_gram.e_matrix[None],
        np.array([problem.p_det00]),
        np.array([problem.e_z]),
    )
    e_minus, e_plus, bound_minus, bound_plus = (float(v[0]) for v in rows)
    return PhaseErrors(e_minus, e_plus, bound_minus, bound_plus)


def _purification_factors(rho: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """``F`` with ``prob * rho = F F^dag`` for each state ``rho`` (..., 2, 2)
    with send probability ``prob`` (...): column k is the k-th eigenvector
    (decreasing eigenvalues) scaled by ``sqrt(prob * lam_k)``.

    One batched ``eigh`` runs the same LAPACK routine on every matrix, so
    each state gets the eigenvector phases a single ``eigh`` would give it.
    """
    w, V = np.linalg.eigh(rho)
    w, V = w[..., ::-1], V[..., ::-1]
    return np.sqrt(prob)[..., None, None] * (V * np.sqrt(np.maximum(w, 0.0))[..., None, :])


def naive_phase_errors(alice_key, bob_key, eve: EveGram, p_det00: float) -> PhaseErrors:
    """Phase errors of the fixed eigenbasis purification (no twist).

    This is the baseline the optimization is compared against.  Note that
    ``e_minus`` is the signed difference ``e_X - e_Y`` and can be negative
    here; the key rate formula is even in it.

    The baseline is *not* phase-invariant: each eigenvector of a key state
    is fixed only up to a phase, and the values depend on the phases that
    the batched ``eigh`` of :func:`_purification_factors` happens to
    return.  Re-phasing them spreads ``e_plus`` over a range with a median
    width of about 0.75 across random asymmetric ensembles; at delta=0.1,
    p=0.05, 50 km it ranges from 0.052 (near the optimum, 0.0513) up to
    1.95.  The twisted optimum absorbs every such
    phase and does not move.
    """
    rho, prob = _stack((*alice_key, *bob_key))
    pairings = _naive_pairings(rho.reshape(2, 2, 2, 2), prob.reshape(2, 2))
    e_minus, e_plus = _naive_rows(pairings, eve.e_matrix[None], np.array([p_det00]))
    return PhaseErrors(e_minus=float(e_minus[0]), e_plus=float(e_plus[0]))


def _naive_pairings(rho: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """The pairings ``G00 G11^dag`` and ``G01 G10^dag`` of the eigenbasis
    purification vectors, stacked (2, ..., 4, 4) in that order, from the
    key states of Alice and of Bob, ``rho`` (2, ..., 2, 2, 2) with send
    probabilities ``prob`` (2, ..., 2).

    The factors of all key states come from one batched ``eigh``; each
    pairing is the Kronecker product of Alice's factor pairing ``A0 A1^dag``
    with one of Bob's, ``B0 B1^dag`` or ``B1 B0^dag``, and the three factor
    pairings are one batched product, the two Kronecker products one ``kron``.
    """
    F = _purification_factors(rho, prob)
    left, right = F[[0, 1, 1], ..., [0, 0, 1], :, :], F[[0, 1, 1], ..., [1, 1, 0], :, :]
    pairings = left @ right.conj().swapaxes(-1, -2)
    return kron(pairings[0], pairings[1:])


def _naive_rows(pairings: np.ndarray, E: np.ndarray, p_det00: np.ndarray):
    """Signed ``e_minus`` and ``e_plus`` of the eigenbasis purification for
    the M * D Gram matrices ``E`` (M * D, 4, 4), pair-major, of M ensemble
    pairs with :func:`_naive_pairings` stacked (2, M, 4, 4), or of one
    pair's; each pair's pairings broadcast over its D rows, and both
    pairings are one multiply-and-sum."""
    pairings = pairings.reshape(2, -1, 1, 4, 4)
    E = E.reshape(pairings.shape[1], -1, 4, 4)
    s_plus, s_minus = np.add.reduce(E * pairings, axis=(-2, -1)).real.reshape(2, -1)
    return -2.0 * s_minus / p_det00, 1.0 - 2.0 * s_plus / p_det00
