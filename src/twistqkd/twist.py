"""Phase-error optimization over virtual purifications of the key states.

Mixed key-generation states admit many purifications, all related by
unitary "twisting" operations on the purifying ancillas.  The twist never
changes observable statistics, but it does change the phase error rates of
the virtual qubits, so it can be optimized after the fact.  The two
objectives

    e_minus = e_X - e_Y   (maximized)
    e_plus  = e_X + e_Y   (minimized)

are linear in the cross block of the Gram matrix of two key pairs'
ancilla vectors, whose diagonal blocks ``W = S S^dag`` are fixed by the
key states.  By Uhlmann's theorem the reachable cross blocks are
``S1 K S2^dag`` with ``||K|| <= 1``, and the objective at ``K`` is
``Re tr(K^T X)``, with ``E`` the measurement node's Gram matrix and
``X = S1^T E S2^*``.  So the twist's optimum is a trace norm

    s = (2/p_det00) * ||X||_1.

The factor of a block ``W = p q rho (x) sigma`` is ``S = F (x) G``, with
``p rho = F F^dag`` and ``F = sqrt(p) V sqrt(lam)`` from the eigenbasis
of ``rho``: the fixed eigenbasis purification (Koashi, NJP 11, 045018
(2009)).  So the baseline is the objective at ``K = I``, ``Re tr X``, and
``|Re tr X| <= ||X||_1`` on every row.  No rank cutoff applies.  One
``eigh`` over the key states of a batch of ensemble pairs gives the factors
(:func:`_pair_factors`), and one product ``X`` per row and pairing gives
both values (:func:`_phase_error_rows`).  The scalar windows of the rate
formula act as clamps: ``e_minus = min(s_-, e_z)`` and
``e_plus = max(1 - s_+, e_z)``.

The twist model is joint: each pairing is optimized over every
contraction ``K`` on the joint 4-dimensional ancilla space of Alice and
Bob, one ``K`` per pairing, as the paper's two independent semidefinite
programs are.  The tests' oracles ``sampled_twist_values`` and
``build_twist_sdp`` share this model.  Local twists ``K = KA (x) KB``,
each party twisting its own ancilla, are a stricter model that is not
used here: a local search fell short of the joint optimum by 2e-6 to 5e-5
at mixed model points and by up to 0.02 on random asymmetric pairs.

Gram storage convention (matching :class:`twistqkd.evegram.EveGram`): entry
``[2m+n, 2m'+n']`` of a block holds the inner product of the ``(m', n')``
vector with the ``(m, n)`` one, so a diagonal block for key pair (x, y)
equals ``p^x q^y * kron(rho_A^x, sigma_B^y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, _numeric
from .evegram import EveGram, _key_checks
from .qmath import kron
from .states import _stack


def _purification_factors(rho: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """``F`` with ``prob * rho = F F^dag`` for each state ``rho`` (..., 2, 2)
    with send probability ``prob`` (...): column k of ``F`` is the k-th
    eigenvector (decreasing eigenvalues) scaled by ``sqrt(prob * lam_k)``, so
    a zero prior gives ``F = 0``.

    One batched ``eigh`` runs the same LAPACK routine on every matrix, so
    each state gets the eigenvector phases a single ``eigh`` would give it.
    The baseline depends on those phases; the twist does not.
    """
    w, V = np.linalg.eigh(rho)
    w, V = w[..., ::-1], V[..., ::-1]
    return np.sqrt(prob)[..., None, None] * (V * np.sqrt(np.maximum(w, 0.0))[..., None, :])


def _pair_factors(rho: np.ndarray, prob: np.ndarray) -> tuple:
    """The factors ``S1^T`` and ``S2^*``, each ``(..., 2, 4, 4)`` in the
    order (e_minus, e_plus), of the key states of Alice and of Bob, ``rho``
    ``(2, ..., 2, 2, 2)`` with send probabilities ``prob`` ``(2, ..., 2)``.

    ``S_xy = F_x (x) G_y`` factors the ancilla block of key pair (x, y);
    e_minus pairs (0,1) with (1,0) and e_plus pairs (0,0) with (1,1), and
    the four products are one ``kron``.
    """
    A, B = _purification_factors(rho, prob)
    S = kron(A.take((0, 0, 1, 1), axis=-3), B.take((1, 0, 0, 1), axis=-3))
    return S[..., :2, :, :].swapaxes(-1, -2), S[..., 2:, :, :].conj()


def _key_scalars(p_det00, e_z=0.0) -> tuple:
    """``p_det00`` and ``e_z`` as floats that pass the kernel's key-basis
    checks, all but the no-detections one."""
    p_det00, e_z = _numeric(p_det00, "p_det00"), _numeric(e_z, "e_z")
    failed, error_of = _key_checks(np.array([p_det00]), np.array([e_z]))
    if failed[1:].any():
        raise error_of(int(failed[1:, 0].argmax()) + 1, 0)
    return p_det00, e_z


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
        self.p_det00, e_z = _key_scalars(self.p_det00, self.e_z)
        self.e_z = min(max(e_z, 0.0), 1.0)

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
    """Optimized ``(e_minus, e_plus, s_minus, 1 - s_plus)``, then the
    baseline's signed ``e_minus`` and its ``e_plus``, for the M * D Gram
    matrices ``E`` (M * D, 4, 4), pair-major, of M ensemble pairs with
    :func:`_pair_factors` stacked for M pairs, or of one pair's; ``e_z`` is
    the clamped bit error rate of each row.

    Each pair's factors broadcast over its D rows.  Each row forms
    ``X = S1^T E S2^*`` once per pairing: the twist is its trace norm, from
    one batched ``svd``, and the baseline is its real trace."""
    left, right = (F.reshape(-1, 1, 2, 4, 4) for F in factors)
    E = E.reshape(len(left), -1, 4, 4)
    X = left @ E[:, :, None] @ right
    norms = np.add.reduce(np.linalg.svd(X, compute_uv=False), axis=-1)
    s, naive = (2.0 / p_det00[:, None] * values.reshape(-1, 2)
                for values in (norms, np.trace(X, axis1=-2, axis2=-1).real))
    s_minus, bound_plus = s[:, 0], 1.0 - s[:, 1]
    return (
        np.minimum(s_minus, e_z), np.maximum(bound_plus, e_z), s_minus, bound_plus,
        -naive[:, 0], 1.0 - naive[:, 1],
    )


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
    return PhaseErrors(*_one_pair(*keys, problem.eve_gram, problem.p_det00, problem.e_z)[:4])


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
    p_det00, _ = _key_scalars(p_det00)
    e_minus, e_plus = _one_pair(alice_key, bob_key, eve, p_det00, 0.0)[4:]
    return PhaseErrors(e_minus=e_minus, e_plus=e_plus)


def _one_pair(alice_key, bob_key, eve: EveGram, p_det00: float, e_z: float) -> list:
    """The six values of :func:`_phase_error_rows` for one pair's key states,
    through the kernel's two stages."""
    rho, prob = _stack((*alice_key, *bob_key))
    factors = _pair_factors(rho.reshape(2, 2, 2, 2), prob.reshape(2, 2))
    rows = _phase_error_rows(factors, eve.e_matrix[None], np.array([p_det00]), np.array([e_z]))
    return [float(v[0]) for v in rows]
