"""Shared helpers: random and degenerate test ensembles, the explicit
eigenbasis purification, and the two independent oracles for the
phase-error optimization (sampled twists and the dense semidefinite
program)."""

import os

import numpy as np
from hypothesis import settings

from twistqkd.qmath import HERMITIAN_TOL, PAULI, kron, require_hermitian
from twistqkd.sdp import SdpProblem, solve_sdp
from twistqkd.states import QubitState, SignalEnsemble, _stack
from twistqkd.twist import _purification_factors

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so that a property failure
# replays exactly: a fixed search, and the failing example's reproduction
# blob in the report.  Without the variable the default profile applies.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def bloch_state(r, prob):
    """Qubit state with Bloch vector ``r`` (length <= 1)."""
    r = np.asarray(r, dtype=float)
    rho = 0.5 * (PAULI[0] + r[0] * PAULI[1] + r[1] * PAULI[2] + r[2] * PAULI[3])
    return QubitState(rho=rho, prob=prob)


def random_priors(rng):
    """Priors bounded away from zero so the ensembles stay well conditioned."""
    raw = rng.dirichlet(np.ones(4) * 4.0)
    return 0.5 * raw + 0.5 * 0.25


def random_ensemble(rng):
    """Generic random ensemble; tetrahedral with overwhelming probability."""
    priors = random_priors(rng)
    states = []
    for k in range(4):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        length = rng.uniform(0.2, 0.95)
        states.append(bloch_state(length * direction, priors[k]))
    return SignalEnsemble(states=tuple(states))


def coplanar_ensemble(rng):
    """Ensemble whose four Bloch vectors lie in one (affine) plane, which
    makes the weighted Stokes vectors linearly dependent."""
    priors = random_priors(rng)
    basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    u, v, w = basis.T
    center = rng.uniform(-0.2, 0.2) * w
    states = []
    for k in range(4):
        r = center + rng.uniform(-0.6, 0.6) * u + rng.uniform(-0.6, 0.6) * v
        norm = np.linalg.norm(r)
        if norm > 0.95:
            r *= 0.95 / norm
        states.append(bloch_state(r, priors[k]))
    return SignalEnsemble(states=tuple(states))


def ancilla_gram_block(alice_state, bob_state):
    """Fixed 4x4 Gram block of the ancilla vectors for one key-state pair."""
    return alice_state.prob * bob_state.prob * kron(alice_state.rho, bob_state.rho)


def _purification_vectors(alice_state, bob_state):
    """Explicit ancilla vectors of the eigenbasis purification.

    Row ``2m+n`` holds the ancilla vector attached to ``|m, n>``, expanded
    over the ancilla basis ``|k, k'>`` that indexes both parties'
    eigenvalues in decreasing order:

        Gamma[2m+n, 2k+k'] = sqrt(p q) sqrt(lam_k mu_k') v_k[m] w_k'[n]

    which is the Kronecker product of the two parties' factors.  The factors
    are the kernel's own (:func:`twistqkd.twist._purification_factors`), so
    the vectors carry the eigenvector phases of the package's baseline.
    """
    A, B = _purification_factors(*_stack((alice_state, bob_state)))
    return kron(A, B)


def naive_twist_gram(alice_key, bob_key, pair="plus"):
    """8x8 Gram of the stacked untwisted purification vectors of the key
    pairs ((0,0), (1,1)) (``pair="plus"``) or ((0,1), (1,0)) (``"minus"``).

    Stored in the Gram convention of :mod:`twistqkd.twist` (entry ``[u, v]``
    is the inner product of vector v with vector u), so it is a feasible
    point of the corresponding optimization: PSD with the fixed diagonal
    blocks.
    """
    combos = {"plus": ((0, 0), (1, 1)), "minus": ((0, 1), (1, 0))}[pair]
    S = np.vstack([_purification_vectors(alice_key[x], bob_key[y]) for x, y in combos])
    return S @ S.conj().T


def haar_unitaries(rng, n_batch):
    """``n_batch`` Haar-random 4x4 unitaries: the QR factors of Ginibre
    matrices, their column phases fixed by the diagonals of R."""
    g = rng.normal(size=(n_batch, 4, 4)) + 1j * rng.normal(size=(n_batch, 4, 4))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def sampled_twist_values(alice_key, bob_key, eve, p00, n_samples, seed):
    """Oracle: evaluate both phase-error objectives at randomly sampled
    twisting unitaries acting on the explicit purification ancillas."""
    rng = np.random.default_rng(seed)

    def values(block1, block2):
        g1 = _purification_vectors(alice_key[block1[0]], bob_key[block1[1]])
        g2 = _purification_vectors(alice_key[block2[0]], bob_key[block2[1]])
        # effective twist U = U2^dag U1 on the shared ancilla space
        U = np.einsum("nba,nbc->nac", haar_unitaries(rng, n_samples).conj(),
                      haar_unitaries(rng, n_samples))
        cross = np.einsum("ad,ncd,bc->nab", g1, U, g2.conj())
        return np.real(np.einsum("ab,nab->n", eve.e_matrix, cross))

    e_minus_samples = -2.0 / p00 * values((0, 1), (1, 0))
    e_plus_samples = 1.0 - 2.0 / p00 * values((0, 0), (1, 1))
    return e_minus_samples, e_plus_samples


def real_embed_hermitian(C, tol=HERMITIAN_TOL):
    """Embed an n x n Hermitian matrix as a 2n x 2n real symmetric one.

    The embedding ``[[Re C, -Im C], [Im C, Re C]]`` is PSD exactly when C is
    PSD, carries each eigenvalue of C twice, and doubles the trace.
    """
    C = require_hermitian(C, tol=tol)
    re, im = C.real, C.imag
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    out = np.vstack([top, bot])
    return 0.5 * (out + out.T)


def _elem(dim, a, b):
    E = np.zeros((dim, dim))
    E[a, b] += 0.5
    E[b, a] += 0.5
    return E


def reduce_block(W, rank_tol=1e-12):
    """Eigenbasis of the numerical support of a PSD block: the eigenvalues
    above ``rank_tol`` times the largest, and their orthonormal columns."""
    w, V = np.linalg.eigh(W)
    keep = w > rank_tol * w[-1]
    return w[keep], V[:, keep]


def build_twist_sdp(W_left, W_right, eve4, p_det00, lo, hi, affine, sense):
    """Oracle: one phase-error optimization as a real-embedded SDP.

    The variable is the Gram matrix ``G`` of the two key pairs' ancilla
    vectors, restricted to the support of its pinned diagonal blocks.  The
    objective value equals ``e - affine`` where
    ``e = affine - (2/p_det00) * sum Re(E[a,b] * G[a, r1+b])`` over the
    off-diagonal block; the scalar bounds ``lo <= e <= hi`` enter as two
    linear inequalities.
    """
    lam1, V1 = reduce_block(W_left)
    lam2, V2 = reduce_block(W_right)
    r1, r2 = len(lam1), len(lam2)
    nc = r1 + r2

    # Pairing matrix in the reduced basis, then the Hermitian coefficient
    # matrix Phi with Tr(Phi G) = sum Re(Ehat[c,d] G[c, r1+d]).
    Ehat = V1.T @ eve4 @ V2.conj()
    Phi = np.zeros((nc, nc), dtype=complex)
    Phi[:r1, r1:] = Ehat.conj() / 2.0
    Phi[r1:, :r1] = Ehat.T / 2.0
    scale = -2.0 / p_det00
    C = (scale / 2.0) * real_embed_hermitian(Phi)

    equalities = []
    dim = 2 * nc
    # Tie the two copies of the real embedding together so the solution is a
    # valid Hermitian matrix: Y = [[P, -Q], [Q, P]] with P symmetric and Q
    # antisymmetric.
    for a in range(nc):
        for b in range(a, nc):
            equalities.append((_elem(dim, a, b) - _elem(dim, nc + a, nc + b), 0.0))
            if a == b:
                equalities.append((_elem(dim, nc + a, a), 0.0))
            else:
                equalities.append((_elem(dim, nc + a, b) + _elem(dim, nc + b, a), 0.0))
    # Pin the diagonal blocks (diagonal in the reduced eigenbasis).
    for off, lam in ((0, lam1), (r1, lam2)):
        for c in range(len(lam)):
            for d in range(c, len(lam)):
                value = float(lam[c]) if c == d else 0.0
                equalities.append((_elem(dim, off + c, off + d), value))
                if c != d:
                    equalities.append((_elem(dim, nc + off + c, off + d), 0.0))

    inequalities = [(-C, affine - lo), (C, hi - affine)]
    return SdpProblem(
        dim=dim,
        objective=C,
        equalities=equalities,
        inequalities=inequalities,
        sense=sense,
    )


def twist_sdps(problem):
    """The (e_minus, e_plus) programs of a :class:`TwistProblem`.  The
    e_minus optimum is ``e_minus``; the e_plus optimum is ``e_plus - 1``."""
    ak, bk = problem.alice_key, problem.bob_key
    blocks = {(x, y): ancilla_gram_block(ak[x], bk[y]) for x in (0, 1) for y in (0, 1)}
    E, p00, e_z = problem.eve_gram.e_matrix, problem.p_det00, problem.e_z
    minus = build_twist_sdp(
        blocks[(0, 1)], blocks[(1, 0)], E, p00, lo=0.0, hi=e_z, affine=0.0, sense="max"
    )
    plus = build_twist_sdp(
        blocks[(0, 0)], blocks[(1, 1)], E, p00, lo=e_z, hi=1.0, affine=1.0, sense="min"
    )
    return minus, plus


def sdp_phase_errors(problem, tol=1e-8):
    """Oracle: ``(e_minus, e_plus)`` from the interior-point solver, or None
    when either program fails to converge to ``tol``."""
    sol_minus, sol_plus = (solve_sdp(p, tol=tol) for p in twist_sdps(problem))
    if sol_minus.status != "optimal" or sol_plus.status != "optimal":
        return None
    e_minus = min(max(sol_minus.objective_value, 0.0), problem.e_z)
    e_plus = min(max(1.0 + sol_plus.objective_value, problem.e_z), 1.0)
    return e_minus, e_plus


def random_density_matrix(rng, dim=2):
    """Random full-rank density matrix (Ginibre construction)."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_pass_operator(rng):
    """Random node pass operator ``0 <= M <= I`` on C^2 (x) C^2: Haar
    eigenvectors, eigenvalues drawn uniformly in [0.05, 1]."""
    U = haar_unitaries(rng, 1)[0]
    return (U * rng.uniform(0.05, 1.0, size=4)) @ U.conj().T


def node_stats(alice, bob, M):
    """The statistics ``p_a q_b Tr[(rho_a (x) sigma_b) M]`` of pass operator
    ``M`` on ensembles ``alice`` and ``bob``, row ``4a + b``."""
    states = kron(alice.rho[:, None], bob.rho[None, :])  # (4, 4, 4, 4)
    traces = np.einsum("abuv,vu->ab", states, M).real
    return (np.outer(alice.priors, bob.priors) * traces).reshape(16)


def random_hermitian(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (G + G.conj().T)


def mp_twist_oracle(alice, bob, p_det, f=1.0, dps=40):
    """Oracle at ``dps`` digits: ``(s_-, 1 - s_+, rate / p_det00)`` of the
    twist for ensembles ``alice`` and ``bob`` and statistics ``p_det`` (16,).

    It reads the Gram convention from the physics: the node's pass operator
    ``M`` solves ``p_det[4a+b] = p_a q_b Tr[(rho_a (x) sigma_b) M]``, a
    16 x 16 linear system in ``M[i, j]`` (index ``4i + j``), and the Gram
    matrix is ``E[2m+n, 2m'+n'] = <m'n'|M|mn>``, so ``E = M^T``, symmetrized
    and clipped to PSD.  With ``p_x rho_x = F_x F_x^dag`` from each key
    state's eigenbasis and ``S_xy = F_x (x) G_y``, the twist is
    ``s = (2/p_det00) ||S1^T E S2^*||_1``, e_minus pairing (0,1) with (1,0)
    and e_plus (0,0) with (1,1).  The rate is the six-state formula on the
    windowed phase errors, with the kernel's branches below ``e_z`` 1e-12.
    """
    import mpmath

    with mpmath.mp.workdps(dps):
        mp = mpmath.mp

        def matrix(array):
            return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.asarray(array)])

        def kron_mp(a, b):
            return mp.matrix([[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
                               for j in range(a.cols * b.cols)] for i in range(a.rows * b.rows)])

        def h2(x):
            return sum((-t * mp.log(t, 2) for t in (x, 1 - x) if t > 0), mp.mpf(0))

        states = [[(matrix(rho), mp.mpf(float(p))) for rho, p in zip(e.rho, e.priors)]
                  for e in (alice, bob)]
        coefficients = mp.matrix(16, 16)
        for a, (rho, p) in enumerate(states[0]):
            for b, (sigma, q) in enumerate(states[1]):
                joint = kron_mp(rho, sigma)
                for i in range(4):
                    for j in range(4):
                        coefficients[4 * a + b, 4 * i + j] = p * q * joint[j, i]
        p = [mp.mpf(float(v)) for v in p_det]
        m = mp.lu_solve(coefficients, mp.matrix(p))
        E = mp.matrix([[m[4 * j + i] for j in range(4)] for i in range(4)])  # M^T
        E = (E + E.H) / 2
        w, V = mp.eighe(E)
        E = V * mp.diag([max(mp.re(x), 0) for x in w]) * V.H

        def factor(rho, prior):
            lam, U = mp.eighe(rho)
            return U * mp.diag([mp.sqrt(prior * max(mp.re(x), 0)) for x in lam])

        F, G = ([factor(*states[party][x]) for x in (0, 1)] for party in (0, 1))

        def trace_norm(left, right):  # the key pairs (x, y) of both sides
            S1, S2 = kron_mp(F[left[0]], G[left[1]]), kron_mp(F[right[0]], G[right[1]])
            return sum(mp.svd_c(S1.T * E * S2.conjugate(), compute_uv=False))

        p00 = p[0] + p[1] + p[4] + p[5]
        s_minus = 2 * trace_norm((0, 1), (1, 0)) / p00
        bound_plus = 1 - 2 * trace_norm((0, 0), (1, 1)) / p00
        e_z = min(max((p[1] + p[4]) / p00, 0), 1)
        e_minus, e_plus = min(max(s_minus, 0), e_z), min(max(bound_plus, e_z), 1)
        rest = 1 - e_z
        if e_z < 1e-12:
            bit_flip, phase = 0, h2(1 - e_plus / 2)
        else:
            bit_flip = e_z * h2((1 + e_minus / e_z) / 2)
            phase = h2(min(max((1 - (e_plus + e_z) / 2) / rest, 0), 1))
        rate = 1 - f * h2(e_z) - bit_flip - (rest * phase if rest >= 1e-12 else 0)
        return float(s_minus), float(bound_plus), float(max(rate, 0))
