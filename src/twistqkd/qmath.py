"""Dense complex linear algebra for small matrices (at most 32x32).

Conventions fixed here and used everywhere in the package:

* vectorization is row-major: ``vec(M)[d*u + v] = M[u, v]``;
* basis index 0 is horizontal polarization H, index 1 is vertical V,
  and H sits at the +Z pole of the Bloch sphere;
* Hermiticity is checked relative to the matrix norm with tolerance
  ``HERMITIAN_TOL`` (about 100x double-precision epsilon).

All functions are pure and operate on plain ``numpy`` arrays; matrices in
this package never exceed 32x32, so everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, SingularMatrixError

HERMITIAN_TOL = 1e-12

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])


def require_hermitian(M, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is a finite square Hermitian matrix.

    The asymmetry ``||M - M^dag||_F`` is compared against
    ``tol * max(1, ||M||_F)``.  Returns ``M`` as a complex array.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitianError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise NotHermitianError(f"{name} contains NaN or Inf entries")
    scale = max(1.0, float(np.linalg.norm(M)))
    asym = float(np.linalg.norm(M - M.conj().T))
    if asym > tol * scale:
        raise NotHermitianError(
            f"{name} is not Hermitian: asymmetry {asym:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return M


def eig2_hermitian(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a 2x2 Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ``w[0] >= w[1]`` and orthonormal
    eigenvectors in the columns of ``V``, so that
    ``M = sum_k w[k] V[:,k] V[:,k]^dag``.
    """
    M = require_hermitian(M)
    if M.shape != (2, 2):
        raise NotHermitianError(f"expected a 2x2 matrix, got {M.shape}")
    w, V = np.linalg.eigh(M)
    return w[::-1].copy(), V[:, ::-1].copy()


def vec_rowmajor(M) -> np.ndarray:
    """Row-major vectorization: ``vec(M)[d*u + v] = M[u, v]``."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M.reshape(-1).copy()


def unvec_rowmajor(v) -> np.ndarray:
    """Inverse of :func:`vec_rowmajor`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d).copy()


def kron(A, B) -> np.ndarray:
    """Kronecker product, ``(A (x) B)[a*rB+b, c*cB+d] = A[a,c] B[b,d]``."""
    return np.kron(np.asarray(A), np.asarray(B))


@dataclass
class SolveResult:
    """Solution of a linear system together with quality metrics."""

    x: np.ndarray
    residual: float
    cond: float


def solve_linear(A, b, cond_limit: float = 1e13) -> SolveResult:
    """Solve ``A x = b`` for square ``A``, reporting residual and condition.

    Raises ``SingularMatrixError`` when the 2-norm condition number exceeds
    ``cond_limit`` (or the factorization breaks down outright).
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularMatrixError(f"matrix is singular to working precision (cond={cond:.3e})")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check catches first
        raise SingularMatrixError(str(exc)) from exc
    residual = float(np.linalg.norm(A @ x - b))
    return SolveResult(x=x, residual=residual, cond=cond)


def psd_project(M, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, float]:
    """Project a Hermitian matrix onto the PSD cone by eigenvalue clipping.

    Returns ``(M_psd, clipped_mass)`` where ``clipped_mass`` is the total
    magnitude of the negative eigenvalues that were zeroed.  The input is
    returned unchanged when it is already PSD.  ``tol`` is the Hermiticity
    validation tolerance; the clipping floor itself is exactly zero, which
    yields the nearest PSD matrix in Frobenius norm.
    """
    M = require_hermitian(M, tol=tol)
    w, V = np.linalg.eigh(M)
    clipped_mass = float(-np.sum(w[w < 0.0]))
    if clipped_mass == 0.0:
        return M, 0.0
    w_clipped = np.maximum(w, 0.0)
    M_psd = (V * w_clipped) @ V.conj().T
    M_psd = 0.5 * (M_psd + M_psd.conj().T)
    return M_psd, clipped_mass

