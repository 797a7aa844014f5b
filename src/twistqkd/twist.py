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

    s = (2/p_det00) * || Lam1^{1/2} (V1^T E V2^*) Lam2^{1/2} ||_1

in the eigenbases ``W = V Lam V^dag``, with ``E`` the measurement node's Gram
matrix.  The scalar windows of the rate formula act as clamps:
``e_minus = min(s_-, e_z)`` and ``e_plus = max(1 - s_+, e_z)``.

Gram storage convention (matching :class:`twistqkd.evegram.EveGram`): entry
``[2m+n, 2m'+n']`` of a block holds the inner product of the ``(m', n')``
vector with the ``(m, n)`` one, so a diagonal block for key pair (x, y)
equals ``p^x q^y * kron(rho_A^x, sigma_B^y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .evegram import EveGram
from .qmath import eig2_hermitian, kron, require_hermitian
from .states import QubitState

#: Relative eigenvalue cutoff below which a Gram block's eigenvalue is
#: treated as zero and dropped from its support.
RANK_TOL = 1e-12

_KEY_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def ancilla_gram_block(alice_state: QubitState, bob_state: QubitState) -> np.ndarray:
    """Fixed 4x4 Gram block of the ancilla vectors for one key-state pair."""
    return alice_state.prob * bob_state.prob * kron(alice_state.rho, bob_state.rho)


def _key_blocks(alice_key, bob_key) -> dict:
    return {(x, y): ancilla_gram_block(alice_key[x], bob_key[y]) for x in (0, 1) for y in (0, 1)}


def _checked_blocks(blocks: dict) -> dict:
    """The four ancilla Gram blocks, validated as Hermitian PSD matrices."""
    checked = {}
    for pair in _KEY_PAIRS:
        if pair not in blocks:
            raise InvalidParamsError(f"missing ancilla Gram block for key pair {pair}")
        W = require_hermitian(blocks[pair], tol=1e-10, name=f"block {pair}")
        wmin = float(np.linalg.eigvalsh(W)[0])
        if wmin < -1e-10:
            raise InvalidParamsError(f"ancilla Gram block {pair} is not PSD")
        checked[pair] = W
    return checked


def _scalar_errors(p_det00: np.ndarray, e_z: np.ndarray) -> list:
    """Per row, the :class:`InvalidParamsError` of an out-of-range
    ``p_det00`` or ``e_z`` (checked in that order), or None."""
    errors = [None] * len(p_det00)
    for i in np.flatnonzero(~((e_z >= -1e-12) & (e_z <= 1 + 1e-12))):
        errors[i] = InvalidParamsError(f"e_z must be in [0, 1], got {float(e_z[i])}")
    for i in np.flatnonzero(p_det00 <= 0):
        errors[i] = InvalidParamsError(f"p_det00 must be positive, got {float(p_det00[i])}")
    return errors


@dataclass
class TwistProblem:
    """Inputs of the two phase-error optimizations for one parameter point.

    ``blocks`` maps each key bit pair (x, y) to its weighted ancilla Gram
    block; the pair ((0,1), (1,0)) feeds the e_minus optimization and
    ((0,0), (1,1)) the e_plus one.
    """

    blocks: dict
    eve_gram: EveGram
    p_det00: float
    e_z: float

    def __post_init__(self):
        error = _scalar_errors(np.array([self.p_det00]), np.array([self.e_z]))[0]
        if error is not None:
            raise error
        self.e_z = min(max(self.e_z, 0.0), 1.0)
        self.blocks.update(_checked_blocks(self.blocks))

    @classmethod
    def from_key_states(cls, alice_key, bob_key, eve: EveGram, p_det00: float, e_z: float):
        """Assemble the problem from each party's two key-generation states."""
        return cls(blocks=_key_blocks(alice_key, bob_key), eve_gram=eve, p_det00=p_det00, e_z=e_z)


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


def _reduce_block(W: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-basis of the numerical support of a PSD block.

    Returns ``(lam, V)`` with ``lam`` the kept (positive) eigenvalues and
    ``V`` the matching orthonormal columns; eigenvalues below ``RANK_TOL``
    times the largest are rounding dust and are dropped.
    """
    w, V = np.linalg.eigh(W)
    wmax = float(w[-1])
    if wmax <= 0.0:
        raise InvalidParamsError(f"ancilla Gram block {label} is zero; check key-state priors")
    keep = w > RANK_TOL * wmax
    return w[keep].copy(), V[:, keep].copy()


def _trace_norms(blocks: dict, left: tuple, right: tuple, E: np.ndarray, p_det00: np.ndarray):
    """``(2/p_det00) * ||Lam1^{1/2} (V1^T E V2^*) Lam2^{1/2}||_1`` for the
    blocks of key pairs ``left`` and ``right``, per Gram matrix of ``E``
    (N, 4, 4): the largest value of ``+/-(2/p_det00) Re sum E[a,b] X[a,b]``
    over the reachable cross blocks."""
    lam1, V1 = _reduce_block(blocks[left], str(left))
    lam2, V2 = _reduce_block(blocks[right], str(right))
    pairing = V1.T @ E @ V2.conj()
    pairing = np.sqrt(lam1)[:, None] * pairing * np.sqrt(lam2)[None, :]
    return 2.0 / p_det00 * np.sum(np.linalg.svd(pairing, compute_uv=False), axis=-1)


def _phase_error_rows(blocks: dict, E: np.ndarray, p_det00: np.ndarray, e_z: np.ndarray):
    """Optimized ``(e_minus, e_plus, s_minus, 1 - s_plus)`` for N rows.

    The eigenbases of the blocks are computed once for all rows; ``e_z`` is
    the clamped bit error rate of each row."""
    s_minus = _trace_norms(blocks, (0, 1), (1, 0), E, p_det00)
    s_plus = _trace_norms(blocks, (0, 0), (1, 1), E, p_det00)
    return np.minimum(s_minus, e_z), np.maximum(1.0 - s_plus, e_z), s_minus, 1.0 - s_plus


def optimize_phase_errors(problem: TwistProblem) -> PhaseErrors:
    """Optimized phase errors over all twists, in closed form."""
    rows = _phase_error_rows(
        problem.blocks,
        problem.eve_gram.e_matrix[None],
        np.array([problem.p_det00]),
        np.array([problem.e_z]),
    )
    e_minus, e_plus, bound_minus, bound_plus = (float(v[0]) for v in rows)
    return PhaseErrors(e_minus, e_plus, bound_minus, bound_plus)


def _purification_factor(state: QubitState) -> np.ndarray:
    """``F`` with ``prob * rho = F F^dag``: column k is the k-th eigenvector
    (decreasing eigenvalues) scaled by ``sqrt(prob * lam_k)``."""
    w, V = eig2_hermitian(state.rho)
    return np.sqrt(state.prob) * (V * np.sqrt(np.clip(w, 0.0, None)))


def _purification_vectors(alice_state: QubitState, bob_state: QubitState) -> np.ndarray:
    """Explicit ancilla vectors of the eigenbasis purification.

    Row ``2m+n`` holds the ancilla vector attached to ``|m, n>``, expanded
    over the ancilla basis ``|k, k'>`` that indexes both parties'
    eigenvalues in decreasing order:

        Gamma[2m+n, 2k+k'] = sqrt(p q) sqrt(lam_k mu_k') v_k[m] w_k'[n]

    which is the Kronecker product of the two parties' factors.
    """
    return kron(_purification_factor(alice_state), _purification_factor(bob_state))


def naive_twist_gram(alice_key, bob_key, pair: str = "plus") -> np.ndarray:
    """8x8 Gram of the stacked untwisted purification vectors.

    Stored in the Gram convention of the module (entry ``[u, v]`` is the
    inner product of vector v with vector u), so it is a feasible point of
    the corresponding optimization: PSD with the fixed diagonal blocks.
    """
    if pair == "plus":
        combos = ((0, 0), (1, 1))
    elif pair == "minus":
        combos = ((0, 1), (1, 0))
    else:
        raise InvalidParamsError(f"pair must be 'plus' or 'minus', got {pair!r}")
    S = np.vstack([_purification_vectors(alice_key[x], bob_key[y]) for x, y in combos])
    return S @ S.conj().T


def naive_phase_errors(alice_key, bob_key, eve: EveGram, p_det00: float) -> PhaseErrors:
    """Phase errors of the fixed eigenbasis purification (no twist).

    This is the baseline the optimization is compared against.  Note that
    ``e_minus`` is the signed difference ``e_X - e_Y`` and can be negative
    here; the key rate formula is even in it.

    The baseline is *not* phase-invariant: each eigenvector of a key state
    is fixed only up to a phase, and the values depend on the phases that
    ``eigh`` happens to return.  Re-phasing them spreads ``e_plus`` over a
    range with a median width of about 0.75 across random asymmetric
    ensembles; at delta=0.1, p=0.05, 50 km it ranges from 0.052 (near the
    optimum, 0.0513) up to 1.95.  The twisted optimum absorbs every such
    phase and does not move.
    """
    e_minus, e_plus = _naive_rows(alice_key, bob_key, eve.e_matrix[None], np.array([p_det00]))
    return PhaseErrors(e_minus=float(e_minus[0]), e_plus=float(e_plus[0]))


def _naive_rows(alice_key, bob_key, E: np.ndarray, p_det00: np.ndarray):
    """Signed ``e_minus`` and ``e_plus`` of the eigenbasis purification for
    N Gram matrices ``E`` (N, 4, 4).

    The pairings ``G00 G11^dag`` and ``G01 G10^dag`` of the purification
    vectors are built once, as Kronecker products of the parties' factors.
    """
    A0, A1 = (_purification_factor(s) for s in alice_key)
    B0, B1 = (_purification_factor(s) for s in bob_key)
    alice_pairing = A0 @ A1.conj().T
    pairing_plus = kron(alice_pairing, B0 @ B1.conj().T)
    pairing_minus = kron(alice_pairing, B1 @ B0.conj().T)
    s_plus = np.real(np.sum(E * pairing_plus, axis=(-2, -1)))
    s_minus = np.real(np.sum(E * pairing_minus, axis=(-2, -1)))
    return -2.0 * s_minus / p_det00, 1.0 - 2.0 * s_plus / p_det00
