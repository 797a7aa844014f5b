import numpy as np
import pytest

from twistqkd.errors import InvalidParamsError
from twistqkd.sdp import SdpProblem, SdpSolution, solve_sdp

try:
    import cvxpy

    HAVE_CVXPY = True
except ImportError:  # pragma: no cover
    HAVE_CVXPY = False


def elem(n, a, b):
    E = np.zeros((n, n))
    E[a, b] += 0.5
    E[b, a] += 0.5
    return E


def random_symmetric(rng, n):
    M = rng.normal(size=(n, n))
    return 0.5 * (M + M.T)


def certified_random_problem(rng, n, m, rank):
    """Random problem with a known optimum built from complementary slackness.

    Pick X* and Z* PSD with X* Z* = 0 and complementary ranks, random
    constraint matrices A_i with b_i = <A_i, X*>, a random multiplier y*,
    and C = Z* + sum_i y*_i A_i.  Then (X*, y*, Z*) is a primal-dual optimal
    triple with objective <C, X*> = b.y*.
    """
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    lam_x = np.concatenate([rng.uniform(0.5, 2.0, size=rank), np.zeros(n - rank)])
    lam_z = np.concatenate([np.zeros(rank), rng.uniform(0.5, 2.0, size=n - rank)])
    X_star = (Q * lam_x) @ Q.T
    Z_star = (Q * lam_z) @ Q.T
    A = [random_symmetric(rng, n) for _ in range(m)]
    b = [float(np.sum(Ai * X_star)) for Ai in A]
    y_star = rng.normal(size=m)
    C = Z_star + sum(y * Ai for y, Ai in zip(y_star, A))
    C = 0.5 * (C + C.T)
    problem = SdpProblem(dim=n, objective=C, equalities=list(zip(A, b)))
    return problem, float(np.sum(C * X_star))


class TestTrivialProblems:
    def test_min_trace_with_pinned_corner(self):
        n = 3
        problem = SdpProblem(
            dim=n, objective=np.eye(n), equalities=[(elem(n, 0, 0), 1.0)], sense="min"
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
        expected = np.zeros((n, n))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(sol.X, expected, atol=1e-6)

    def test_max_offdiagonal_of_correlation(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        problem = SdpProblem(
            dim=2,
            objective=C,
            equalities=[(elem(2, 0, 0), 1.0), (elem(2, 1, 1), 1.0)],
            sense="max",
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-7)
        np.testing.assert_allclose(sol.X, np.ones((2, 2)), atol=1e-6)

    def test_min_eigenvalue_oracle(self):
        # min <C, X> over PSD X with Tr X = 1 equals the smallest eigenvalue
        rng = np.random.default_rng(101)
        for _ in range(10):
            C = random_symmetric(rng, 4)
            problem = SdpProblem(
                dim=4, objective=C, equalities=[(np.eye(4) / 1.0, 1.0)], sense="min"
            )
            sol = solve_sdp(problem)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(
                float(np.linalg.eigvalsh(C)[0]), abs=1e-7
            )

    def test_max_eigenvalue_via_sense(self):
        rng = np.random.default_rng(103)
        C = random_symmetric(rng, 5)
        problem = SdpProblem(
            dim=5, objective=C, equalities=[(np.eye(5), 1.0)], sense="max"
        )
        sol = solve_sdp(problem)
        assert sol.objective_value == pytest.approx(float(np.linalg.eigvalsh(C)[-1]), abs=1e-7)


class TestInequalities:
    def test_lower_bound_activates(self):
        # min X00 with X00 >= 2
        problem = SdpProblem(
            dim=2,
            objective=elem(2, 0, 0) * 2,
            inequalities=[(-2 * elem(2, 0, 0), -2.0)],
            sense="min",
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-7)

    def test_upper_bound_activates(self):
        # max X00 with X00 <= 3
        problem = SdpProblem(
            dim=2,
            objective=2 * elem(2, 0, 0),
            inequalities=[(2 * elem(2, 0, 0), 3.0)],
            sense="max",
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-7)

    def test_inactive_inequality_ignored(self):
        rng = np.random.default_rng(107)
        problem, expected = certified_random_problem(rng, 5, 3, rank=2)
        # add an inequality satisfied strictly at any bounded X
        loose = (np.eye(5), 1e6)
        problem = SdpProblem(
            dim=5,
            objective=problem.objective,
            equalities=problem.equalities,
            inequalities=[loose],
            sense="min",
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(expected, abs=1e-6)

    def test_zero_inequality_dropped(self):
        problem = SdpProblem(
            dim=2,
            objective=np.eye(2),
            equalities=[(elem(2, 0, 0), 1.0)],
            inequalities=[(np.zeros((2, 2)), 0.0)],
        )
        sol = solve_sdp(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


class TestCertifiedRandomSuite:
    def test_complementary_slackness_suite(self):
        rng = np.random.default_rng(109)
        for k in range(15):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, n + 2))
            rank = int(rng.integers(1, n))
            problem, expected = certified_random_problem(rng, n, m, rank)
            sol = solve_sdp(problem, tol=1e-8)
            assert sol.status == "optimal", f"case {k}: {sol.message}"
            assert sol.objective_value == pytest.approx(expected, abs=1e-6 * (1 + abs(expected)))
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            assert sol.duality_gap <= 1e-8
            assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7

    def test_weak_duality_at_solution(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            problem, _ = certified_random_problem(rng, 6, 4, rank=3)
            sol = solve_sdp(problem)
            # dual objective below primal for min problems, up to residual slack
            assert sol.dual_objective <= sol.objective_value + 1e-6

    def test_scaling_invariance(self):
        rng = np.random.default_rng(127)
        problem, _ = certified_random_problem(rng, 5, 3, rank=2)
        sol1 = solve_sdp(problem)
        scaled = SdpProblem(
            dim=5,
            objective=7.0 * problem.objective,
            equalities=problem.equalities,
            sense="min",
        )
        sol2 = solve_sdp(scaled)
        assert sol2.objective_value == pytest.approx(7.0 * sol1.objective_value, rel=1e-6)
        np.testing.assert_allclose(sol2.X, sol1.X, atol=1e-4)


def criterion_4_draw(seed, index):
    """Draw ``index`` (from 0) of acceptance criterion 4's rule on
    ``default_rng(seed)``: its ``(n, m, rank)``, problem and known optimum."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n = int(rng.integers(3, 17))
        m = int(rng.integers(2, min(n + 3, 12)))
        rank = int(rng.integers(1, n))
        problem, expected = certified_random_problem(rng, n, m, rank)
    return (n, m, rank), problem, expected


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="solve_sdp stops with numerical_trouble ('dual iterate lost positive "
           "definiteness') on these certified draws, which have no strictly feasible dual point",
)
@pytest.mark.parametrize("index, shape", [(44, (16, 6, 7)), (85, (8, 2, 3))],
                         ids=["draw-44", "draw-85"])
def test_certified_draws_that_stop_with_numerical_trouble(index, shape):
    # Criterion 4's rule on default_rng(2026); its own 50 draws from seed
    # 4096 all pass.  A drifted generator is an error here, not the
    # expected failure.
    got, problem, expected = criterion_4_draw(2026, index)
    if got != shape:
        raise LookupError(f"draw {index} has (n, m, rank) {got}, not {shape}")
    sol = solve_sdp(problem, tol=1e-8)
    assert sol.status == "optimal", sol.message
    assert sol.objective_value == pytest.approx(expected, abs=1e-6 * (1 + abs(expected)))
    assert sol.primal_residual <= 1e-8
    assert sol.dual_residual <= 1e-8
    assert sol.duality_gap <= 1e-8


class TestStatuses:
    def test_infeasible_detected(self):
        # X00 = -1 contradicts PSD
        problem = SdpProblem(dim=2, objective=np.eye(2), equalities=[(elem(2, 0, 0), -1.0)])
        sol = solve_sdp(problem)
        assert sol.status == "infeasible"

    def test_iteration_cap_reports_trouble(self):
        rng = np.random.default_rng(131)
        problem, _ = certified_random_problem(rng, 6, 4, rank=3)
        sol = solve_sdp(problem, max_iters=2)
        assert sol.status == "numerical_trouble"

    def test_no_constraints(self):
        sol = solve_sdp(SdpProblem(dim=3, objective=np.eye(3)))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0)
        sol2 = solve_sdp(SdpProblem(dim=3, objective=-np.eye(3)))
        assert sol2.status == "numerical_trouble"  # unbounded below

    def test_zero_equality_with_nonzero_rhs(self):
        problem = SdpProblem(dim=2, objective=np.eye(2), equalities=[(np.zeros((2, 2)), 1.0)])
        assert solve_sdp(problem).status == "infeasible"


class TestValidation:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidParamsError):
            SdpProblem(dim=2, objective=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_sense(self):
        with pytest.raises(InvalidParamsError):
            SdpProblem(dim=2, objective=np.eye(2), sense="maximize")

    def test_rejects_oversize(self):
        with pytest.raises(InvalidParamsError):
            SdpProblem(dim=65, objective=np.eye(65))


def _svec(M):
    n = M.shape[0]
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return M[iu] * scale


def _smat(v, n):
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, 1.0 / np.sqrt(2.0))
    M = np.zeros((n, n))
    M[iu] = v * scale
    return M + np.triu(M, 1).T


def grid_parameterization_minimum(problem, t_half_width, stages=5, points=15):
    """Independent zoom-grid oracle for a 3-dimensional feasible set.

    Works in svec coordinates on symmetric matrices: parameterizes the
    equality-constrained affine slice and minimizes the objective by
    successive grid refinement with PSD rejection.
    """
    n = problem.dim
    A = np.array([_svec(a) for a, _ in problem.equalities])
    b = np.array([bb for _, bb in problem.equalities])
    x0 = np.linalg.lstsq(A, b, rcond=None)[0]
    X0 = _smat(x0, n)
    basis = np.linalg.svd(A)[2][len(problem.equalities):]
    dirs = [_smat(v, n) for v in basis]
    assert len(dirs) == 3
    center = np.zeros(3)
    width = t_half_width
    best_val, best_t = np.inf, center
    for _ in range(stages):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        for t0 in axes[0]:
            for t1 in axes[1]:
                for t2 in axes[2]:
                    X = X0 + t0 * dirs[0] + t1 * dirs[1] + t2 * dirs[2]
                    if np.linalg.eigvalsh(X)[0] < -1e-12:
                        continue
                    val = float(np.sum(problem.objective * X))
                    if val < best_val:
                        best_val, best_t = val, np.array([t0, t1, t2])
        center = best_t
        width *= 2.5 / points
    return best_val


def test_grid_parameterization_oracle():
    # 3x3 variable with trace pinned and two extra random equalities leaves a
    # bounded 3-dimensional feasible slice the grid can search exhaustively
    rng = np.random.default_rng(139)
    X_interior = np.eye(3) / 3.0
    A1 = np.eye(3)
    A2 = random_symmetric(rng, 3)
    A3 = random_symmetric(rng, 3)
    eqs = [(A1, 1.0)] + [(A, float(np.sum(A * X_interior))) for A in (A2, A3)]
    problem = SdpProblem(dim=3, objective=random_symmetric(rng, 3), equalities=eqs)
    sol = solve_sdp(problem)
    assert sol.status == "optimal"
    oracle = grid_parameterization_minimum(problem, t_half_width=1.5)
    assert sol.objective_value == pytest.approx(oracle, abs=2e-4)
    assert sol.objective_value <= oracle + 1e-8


@pytest.mark.skipif(not HAVE_CVXPY, reason="cvxpy not installed")
class TestCvxpyCrossCheck:
    def _cvxpy_solve(self, problem):
        X = cvxpy.Variable((problem.dim, problem.dim), symmetric=True)
        constraints = [X >> 0]
        constraints += [cvxpy.sum(cvxpy.multiply(A, X)) == b for A, b in problem.equalities]
        constraints += [cvxpy.sum(cvxpy.multiply(G, X)) <= h for G, h in problem.inequalities]
        objective = cvxpy.sum(cvxpy.multiply(problem.objective, X))
        sense = cvxpy.Minimize(objective) if problem.sense == "min" else cvxpy.Maximize(objective)
        cp = cvxpy.Problem(sense, constraints)
        cp.solve(solver=cvxpy.SCS, eps=1e-9, max_iters=200_000)
        return float(cp.value)

    def test_random_equality_problems(self):
        rng = np.random.default_rng(149)
        for _ in range(3):
            problem, expected = certified_random_problem(rng, 4, 3, rank=2)
            ours = solve_sdp(problem).objective_value
            theirs = self._cvxpy_solve(problem)
            assert ours == pytest.approx(theirs, abs=2e-6)
            assert ours == pytest.approx(expected, abs=2e-6)

    def test_random_problems_with_inequalities(self):
        rng = np.random.default_rng(151)
        for _ in range(3):
            problem, _ = certified_random_problem(rng, 4, 2, rank=2)
            G = random_symmetric(rng, 4)
            problem = SdpProblem(
                dim=4,
                objective=problem.objective,
                equalities=problem.equalities,
                inequalities=[(G, 0.3), (-G, 0.3), (np.eye(4), 5.0)],
                sense="min",
            )
            ours = solve_sdp(problem)
            assert ours.status == "optimal"
            theirs = self._cvxpy_solve(problem)
            assert ours.objective_value == pytest.approx(theirs, abs=5e-6)
