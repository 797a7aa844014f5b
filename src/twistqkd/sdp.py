"""Self-contained dense semidefinite programming for small problems.

Solves

    minimize / maximize   <C, X>
    subject to            <A_i, X>  = b_i
                          <G_j, X> <= h_j
                          X real symmetric PSD

with an infeasible-start primal-dual interior-point method: HKM search
direction, Mehrotra predictor-corrector, and a fraction-to-boundary step
rule with factor 0.98.  Inequalities are converted to equalities with
scalar nonnegative slacks adjoined as extra diagonal entries of the PSD
variable.  Problem sizes here never exceed n = 64, so every linear-algebra
step is dense and uses ``numpy.linalg`` alone: a Cholesky factor ``L`` and
its inverse, with ``LinAlgError`` from ``cholesky`` as the signal that a
matrix is not positive definite.

Complex Hermitian problems enter through the real symmetric embedding
``[[Re C, -Im C], [Im C, Re C]]``.  The key-rate pipeline does not use this
module: the phase-error optimizations have a closed form
(:mod:`twistqkd.twist`).  It is kept as the certified reference solver that
checks that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError

SYM_TOL = 1e-10
_STEP_FRACTION = 0.98


def _check_symmetric(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParamsError(f"{name} must be square, got {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M)))
    if float(np.linalg.norm(M - M.T)) > SYM_TOL * scale:
        raise InvalidParamsError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


@dataclass
class SdpProblem:
    """Linear objective over a PSD matrix variable with linear constraints.

    ``equalities`` is a list of ``(A_i, b_i)`` pairs meaning
    ``<A_i, X> = b_i`` and ``inequalities`` a list of ``(G_j, h_j)`` meaning
    ``<G_j, X> <= h_j``; all constraint matrices must be symmetric of size
    ``dim``.  ``sense`` is ``"min"`` or ``"max"``.
    """

    dim: int
    objective: np.ndarray
    equalities: list = field(default_factory=list)
    inequalities: list = field(default_factory=list)
    sense: str = "min"

    def __post_init__(self):
        if self.dim < 1 or self.dim > 64:
            raise InvalidParamsError(f"dim must be in [1, 64], got {self.dim}")
        if self.sense not in ("min", "max"):
            raise InvalidParamsError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.objective = _check_symmetric(self.objective, "objective")
        if self.objective.shape != (self.dim, self.dim):
            raise InvalidParamsError("objective size does not match dim")
        self.equalities = [
            (self._check_constraint(A, f"equality {k}"), float(b))
            for k, (A, b) in enumerate(self.equalities)
        ]
        self.inequalities = [
            (self._check_constraint(G, f"inequality {k}"), float(h))
            for k, (G, h) in enumerate(self.inequalities)
        ]

    def _check_constraint(self, M, name: str) -> np.ndarray:
        M = _check_symmetric(M, name)
        if M.shape != (self.dim, self.dim):
            raise InvalidParamsError(f"{name} size does not match dim")
        return M


@dataclass
class SdpSolution:
    """Certified solution: when ``status == "optimal"`` all three residual
    metrics are at or below the solve tolerance."""

    X: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    status: str
    iterations: int = 0
    y: np.ndarray | None = None
    dual_objective: float = np.nan
    message: str = ""


def _cholesky_inverse(M: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``M = L L^T`` of a symmetric PD
    ``M``; ``cholesky`` raises ``LinAlgError`` when ``M`` is not PD."""
    return np.linalg.inv(np.linalg.cholesky(M))


def _max_step(M: np.ndarray, dM: np.ndarray) -> float:
    """Largest step a with M + a*dM still PSD, for PD symmetric M."""
    Linv = _cholesky_inverse(M)
    W = Linv @ dM @ Linv.T  # L^-1 dM L^-T
    lam = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _psd_inverse(M: np.ndarray) -> np.ndarray:
    Linv = _cholesky_inverse(M)
    return Linv.T @ Linv


def _solve_schur(Mmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the (symmetric PD) Schur system with a jitter/lstsq fallback."""
    base = max(float(np.mean(np.abs(np.diag(Mmat)))), 1e-300)
    for jitter in (0.0, 1e-14, 1e-11, 1e-8):
        try:
            Linv = _cholesky_inverse(Mmat + jitter * base * np.eye(Mmat.shape[0]))
        except np.linalg.LinAlgError:
            continue
        dy = Linv.T @ (Linv @ rhs)
        # one step of iterative refinement
        dy += Linv.T @ (Linv @ (rhs - Mmat @ dy))
        return dy
    return np.linalg.lstsq(Mmat, rhs, rcond=None)[0]


def solve_sdp(problem: SdpProblem, tol: float = 1e-8, max_iters: int = 200) -> SdpSolution:
    """Solve a small dense SDP to the requested tolerance.

    Returns a solution whose ``status`` is ``"optimal"`` (all residual
    metrics <= tol), ``"infeasible"`` (a primal infeasibility certificate
    was found or the iterates diverged in the telltale way) or
    ``"numerical_trouble"`` (iteration cap or breakdown with the duality gap
    still above tolerance).  ``objective_value`` is always ``<C, X>`` in the
    problem's own sense.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    n = problem.dim

    # Drop constraints with (numerically) zero matrices; they are either
    # vacuous or outright infeasible.
    equalities = []
    for A, b in problem.equalities:
        if np.linalg.norm(A) <= 1e-14 * (1.0 + abs(b)):
            if abs(b) > 1e-12:
                return _trivial_infeasible(problem, "zero equality row with nonzero rhs")
            continue
        equalities.append((A, b))
    inequalities = []
    for G, h in problem.inequalities:
        if np.linalg.norm(G) <= 1e-14 * (1.0 + abs(h)):
            if h < -1e-12:
                return _trivial_infeasible(problem, "zero inequality row with negative rhs")
            continue
        inequalities.append((G, h))

    J = len(inequalities)
    N = n + J
    m = len(equalities) + J

    Chat = np.zeros((N, N))
    Chat[:n, :n] = sign * problem.objective

    if m == 0:
        # Unconstrained over the PSD cone: X = 0 unless the objective has a
        # descent direction, in which case the problem is unbounded.
        wmin = float(np.linalg.eigvalsh(Chat)[0]) if N else 0.0
        status = "optimal" if wmin >= -1e-12 else "numerical_trouble"
        return SdpSolution(
            X=np.zeros((n, n)),
            objective_value=0.0,
            primal_residual=0.0,
            dual_residual=0.0,
            duality_gap=0.0,
            status=status,
            y=np.zeros(0),
            dual_objective=0.0,
            message="" if status == "optimal" else "objective unbounded below on the PSD cone",
        )

    Astack = np.zeros((m, N, N))
    b = np.zeros(m)
    for k, (A, bk) in enumerate(equalities):
        Astack[k, :n, :n] = A
        b[k] = bk
    for j, (G, h) in enumerate(inequalities):
        k = len(equalities) + j
        Astack[k, :n, :n] = G
        Astack[k, n + j, n + j] = 1.0
        b[k] = h
    AF = Astack.reshape(m, -1)

    norm_b = float(np.linalg.norm(b))
    norm_C = float(np.linalg.norm(Chat))
    normsA = np.linalg.norm(AF, axis=1)

    # SDPT3-style starting point, scaled to the data.
    xi = max(1.0, np.sqrt(N), N * float(np.max((1.0 + np.abs(b)) / (1.0 + normsA))))
    eta = max(1.0, np.sqrt(N), (1.0 + max(norm_C, float(np.max(normsA)))) / np.sqrt(N))
    X = xi * np.eye(N)
    Z = eta * np.eye(N)
    y = np.zeros(m)

    status = "numerical_trouble"
    message = ""
    pres = dres = gap = np.inf
    iters = 0
    tiny_steps = 0

    for iters in range(1, max_iters + 1):
        AX = AF @ X.ravel()
        rp = AX - b
        Fd = Z - Chat + np.einsum("m,mij->ij", y, Astack)
        pobj = float(np.sum(Chat * X))
        dobj = float(b @ y)
        pres = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        dres = float(np.linalg.norm(Fd)) / (1.0 + norm_C)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        mu = float(np.sum(X * Z)) / N

        if pres <= tol and dres <= tol and gap <= tol:
            status = "optimal"
            break
        if not (np.isfinite(mu) and np.isfinite(pres) and np.isfinite(dres)):
            status = "numerical_trouble"
            message = "iterates diverged"
            break

        # Primal infeasibility certificate: A*(y) <= 0 with b.y > 0.
        ynorm = float(np.linalg.norm(y))
        if ynorm > 1e8 * (1.0 + norm_b):
            yn = y / ynorm
            Ayn = np.einsum("m,mij->ij", yn, Astack)
            if b @ yn > 1e-8 and float(np.linalg.eigvalsh(Ayn)[-1]) <= 1e-8:
                status = "infeasible"
                message = "primal infeasibility certificate found"
                break

        try:
            Zinv = _psd_inverse(Z)
        except np.linalg.LinAlgError:
            status = "numerical_trouble"
            message = "dual iterate lost positive definiteness"
            break

        # Schur complement M_ij = Tr(A_i X A_j Z^-1).
        T = np.einsum("ik,mkl,lj->mij", X, Astack, Zinv, optimize=True)
        Mmat = AF @ T.transpose(0, 2, 1).reshape(m, -1).T
        Mmat = 0.5 * (Mmat + Mmat.T)

        K = X @ Fd @ Zinv
        rhs_aff = b - AF @ K.T.ravel()
        dy_aff = _solve_schur(Mmat, rhs_aff)
        dZ_aff = -Fd - np.einsum("m,mij->ij", dy_aff, Astack)
        dX_aff = -X + X @ (Fd + np.einsum("m,mij->ij", dy_aff, Astack)) @ Zinv
        dX_aff = 0.5 * (dX_aff + dX_aff.T)

        try:
            ap_aff = min(1.0, _STEP_FRACTION * _max_step(X, dX_aff))
            ad_aff = min(1.0, _STEP_FRACTION * _max_step(Z, dZ_aff))
        except np.linalg.LinAlgError:
            status = "numerical_trouble"
            message = "iterate lost positive definiteness"
            break
        mu_aff = float(np.sum((X + ap_aff * dX_aff) * (Z + ad_aff * dZ_aff))) / N
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-12))

        K2 = dX_aff @ dZ_aff @ Zinv
        rhs = b - sigma * mu * (AF @ Zinv.ravel()) + AF @ K2.T.ravel() - AF @ K.T.ravel()
        dy = _solve_schur(Mmat, rhs)
        dZ = -Fd - np.einsum("m,mij->ij", dy, Astack)
        dX = sigma * mu * Zinv - X - K2 - X @ dZ @ Zinv
        dX = 0.5 * (dX + dX.T)

        try:
            ap = min(1.0, _STEP_FRACTION * _max_step(X, dX))
            ad = min(1.0, _STEP_FRACTION * _max_step(Z, dZ))
        except np.linalg.LinAlgError:
            status = "numerical_trouble"
            message = "iterate lost positive definiteness"
            break

        if ap < 1e-12 and ad < 1e-12:
            tiny_steps += 1
            if tiny_steps >= 3:
                status = "numerical_trouble"
                message = "step sizes collapsed"
                break
        else:
            tiny_steps = 0

        X = X + ap * dX
        Z = Z + ad * dZ
        y = y + ad * dy
    else:
        message = f"iteration cap reached with gap {gap:.2e}"

    if status != "optimal" and not message:
        message = f"stopped with gap {gap:.2e}"

    X_main = 0.5 * (X[:n, :n] + X[:n, :n].T)
    obj = float(np.sum(problem.objective * X_main))
    dual_obj = float(b @ y) * sign
    return SdpSolution(
        X=X_main,
        objective_value=obj,
        primal_residual=pres,
        dual_residual=dres,
        duality_gap=gap,
        status=status,
        iterations=iters,
        y=y,
        dual_objective=dual_obj,
        message=message,
    )


def _trivial_infeasible(problem: SdpProblem, message: str) -> SdpSolution:
    n = problem.dim
    return SdpSolution(
        X=np.zeros((n, n)),
        objective_value=np.nan,
        primal_residual=np.inf,
        dual_residual=np.inf,
        duality_gap=np.inf,
        status="infeasible",
        y=None,
        message=message,
    )
