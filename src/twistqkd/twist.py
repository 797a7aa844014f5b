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
        if self.p_det00 <= 0:
            raise InvalidParamsError(f"p_det00 must be positive, got {self.p_det00}")
        if not (-1e-12 <= self.e_z <= 1 + 1e-12):
            raise InvalidParamsError(f"e_z must be in [0, 1], got {self.e_z}")
        self.e_z = min(max(self.e_z, 0.0), 1.0)
        for pair in _KEY_PAIRS:
            if pair not in self.blocks:
                raise InvalidParamsError(f"missing ancilla Gram block for key pair {pair}")
            W = require_hermitian(self.blocks[pair], tol=1e-10, name=f"block {pair}")
            wmin = float(np.linalg.eigvalsh(W)[0])
            if wmin < -1e-10:
                raise InvalidParamsError(f"ancilla Gram block {pair} is not PSD")
            self.blocks[pair] = W

    @classmethod
    def from_key_states(cls, alice_key, bob_key, eve: EveGram, p_det00: float, e_z: float):
        """Assemble the problem from each party's two key-generation states."""
        blocks = {
            (x, y): ancilla_gram_block(alice_key[x], bob_key[y])
            for x in (0, 1)
            for y in (0, 1)
        }
        return cls(blocks=blocks, eve_gram=eve, p_det00=p_det00, e_z=e_z)


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


def _twist_bound(problem: TwistProblem, left: tuple, right: tuple) -> float:
    """``(2/p_det00) * ||Lam1^{1/2} (V1^T E V2^*) Lam2^{1/2}||_1`` for the
    blocks of key pairs ``left`` and ``right``: the largest value of
    ``+/-(2/p_det00) Re sum E[a,b] X[a,b]`` over the reachable cross blocks."""
    lam1, V1 = _reduce_block(problem.blocks[left], str(left))
    lam2, V2 = _reduce_block(problem.blocks[right], str(right))
    pairing = V1.T @ problem.eve_gram.e_matrix @ V2.conj()
    pairing = np.sqrt(lam1)[:, None] * pairing * np.sqrt(lam2)[None, :]
    return 2.0 / problem.p_det00 * float(np.sum(np.linalg.svd(pairing, compute_uv=False)))


def optimize_phase_errors(problem: TwistProblem) -> PhaseErrors:
    """Optimized phase errors over all twists, in closed form."""
    s_minus = _twist_bound(problem, (0, 1), (1, 0))
    s_plus = _twist_bound(problem, (0, 0), (1, 1))
    return PhaseErrors(
        e_minus=min(s_minus, problem.e_z),
        e_plus=max(1.0 - s_plus, problem.e_z),
        bound_minus=s_minus,
        bound_plus=1.0 - s_plus,
    )


def _purification_vectors(alice_state: QubitState, bob_state: QubitState) -> np.ndarray:
    """Explicit ancilla vectors of the eigenbasis purification.

    Row ``2m+n`` holds the ancilla vector attached to ``|m, n>``, expanded
    over the ancilla basis ``|k, k'>`` that indexes both parties'
    eigenvalues in decreasing order:

        Gamma[2m+n, 2k+k'] = sqrt(p q) sqrt(lam_k mu_k') v_k[m] w_k'[n]
    """
    wA, VA = eig2_hermitian(alice_state.rho)
    wB, VB = eig2_hermitian(bob_state.rho)
    wA = np.sqrt(np.clip(wA, 0.0, None))
    wB = np.sqrt(np.clip(wB, 0.0, None))
    scale = np.sqrt(alice_state.prob * bob_state.prob)
    G = scale * np.einsum("k,p,mk,np->mnkp", wA, wB, VA, VB)
    return G.reshape(4, 4)


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
    G00 = _purification_vectors(alice_key[0], bob_key[0])
    G11 = _purification_vectors(alice_key[1], bob_key[1])
    G01 = _purification_vectors(alice_key[0], bob_key[1])
    G10 = _purification_vectors(alice_key[1], bob_key[0])
    E = eve.e_matrix
    s_plus = float(np.real(np.sum(E * (G00 @ G11.conj().T))))
    s_minus = float(np.real(np.sum(E * (G01 @ G10.conj().T))))
    e_plus = 1.0 - 2.0 * s_plus / p_det00
    e_minus = -2.0 * s_minus / p_det00
    return PhaseErrors(e_minus=e_minus, e_plus=e_plus)
