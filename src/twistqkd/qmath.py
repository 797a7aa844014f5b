"""Dense complex linear algebra for small matrices.

Conventions fixed here and used everywhere in the package:

* vectorization is row-major: ``vec(M)[d*u + v] = M[u, v]``;
* basis index 0 is horizontal polarization H, index 1 is vertical V,
  and H sits at the +Z pole of the Bloch sphere;
* Hermiticity is checked relative to the matrix norm with tolerance
  ``HERMITIAN_TOL`` (about 100x double-precision epsilon).

All functions are pure and operate on plain ``numpy`` arrays, dense: the
largest matrices the package builds are the Fock-space states of
``states.phase_randomized_coherent``, at most 961x961 (``n_max <= 30``).
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, _numeric

HERMITIAN_TOL = 1e-12

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])


def _frobenius(M: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack ``(..., n, n)``, as the
    ufunc reduction ``np.linalg.norm`` evaluates it, without its dispatch."""
    return np.sqrt(np.add.reduce((M.conj() * M).real, axis=(-2, -1)))


def require_hermitian(M, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is a finite square Hermitian matrix, or a stack
    ``(..., n, n)`` of them.

    The asymmetry ``||M - M^dag||_F`` of each matrix is compared against
    ``tol * max(1, ||M||_F)``; the worst matrix is reported.  Returns ``M``
    as a complex array; entries that are not numbers raise
    ``InvalidParamsError``.  Entries beyond about 1e154 overflow the squares
    of the norms; such a matrix is judged by the norms of ``M / 2**k``, for
    the power of two that brings its entries below 2, which scales both
    norms exactly.
    """
    M = _numeric(M, name, lambda m: np.asarray(m, dtype=complex))
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise NotHermitianError(f"{name} must be square, got shape {M.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _frobenius(np.array((M, M - M.conj().swapaxes(-1, -2))))
        # Every matrix passes, read so that a NaN or infinite norm does not.
        if np.count_nonzero(norms[1] < tol * np.maximum(1.0, norms[0])) == norms[1].size:
            return M
    if not np.isfinite(M).all():
        raise NotHermitianError(f"{name} contains NaN or Inf entries")
    unit = np.ones(norms.shape[1:])
    big = ~np.isfinite(norms[0])
    if np.count_nonzero(big):
        peak = np.maximum(abs(M.real), abs(M.imag))[big].max(axis=(-2, -1))
        unit[big] = np.ldexp(1.0, np.frexp(peak)[1] - 1)
        M_unit = M[big] / unit[big][:, None, None]
        norms[:, big] = _frobenius(np.array((M_unit, M_unit - M_unit.conj().swapaxes(-1, -2))))
    scale, asym = np.maximum(1.0 / unit, norms[0]), norms[1]
    if np.count_nonzero(asym > tol * scale):
        worst = np.unravel_index(np.argmax(asym / scale), asym.shape)
        unit = float(unit[worst])  # a norm beyond the float range reads inf
        raise NotHermitianError(
            f"{name} is not Hermitian: asymmetry {float(asym[worst]) * unit:.3e} exceeds "
            f"{tol:.1e} * {float(scale[worst]) * unit:.3e}"
        )
    return M


def vec_rowmajor(M) -> np.ndarray:
    """Row-major vectorization: ``vec(M)[d*u + v] = M[u, v]``."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M.reshape(-1).copy()


def kron(A, B) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of two
    broadcast stacks ``(..., r, c)``:
    ``(A (x) B)[a*rB+b, c*cB+d] = A[a,c] B[b,d]``."""
    A, B = np.asarray(A), np.asarray(B)
    (rA, cA), (rB, cB) = A.shape[-2:], B.shape[-2:]
    K = A[..., :, None, :, None] * B[..., None, :, None, :]
    return K.reshape(*K.shape[:-4], rA * rB, cA * cB)


def psd_project(M: np.ndarray) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Project a Hermitian matrix, or each of a stack ``(..., n, n)``, onto
    the PSD cone by eigenvalue clipping.

    ``M`` must be finite and Hermitian; it is not checked.  Returns
    ``(M_psd, clipped_mass, top)``, one each per matrix: ``clipped_mass`` is
    the total magnitude of the negative eigenvalues that were zeroed, and
    ``top`` the largest eigenvalue of ``M`` (and of ``M_psd`` if nonnegative).
    A matrix that is already PSD is returned unchanged (the input itself
    when no matrix needs clipping).  The clipping floor is exactly zero,
    which yields the nearest PSD matrix in Frobenius norm.
    """
    w, V = np.linalg.eigh(M)
    clipped_mass = np.add.reduce(np.maximum(-w, 0.0), axis=-1)
    if not np.count_nonzero(clipped_mass):
        return M, clipped_mass, w[..., -1]
    M_psd = (V * np.maximum(w, 0.0)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    M_psd = 0.5 * (M_psd + M_psd.conj().swapaxes(-1, -2))
    return np.where((clipped_mass > 0.0)[..., None, None], M_psd, M), clipped_mass, w[..., -1]
