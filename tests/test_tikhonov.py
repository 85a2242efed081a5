import numpy as np
import pytest

from csample import tikhonov
from csample.errors import DegenerateCurveWarning, SolverConvergenceWarning
from csample.forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    MatrixOperator,
    SaturationWrapper,
)
from csample.linalg_rng import SpdMatrix
from csample.tikhonov import (
    DEFAULT_ALPHA_GRID,
    TikhonovProblem,
    discrete_laplacian,
    lcurve_select_alpha,
    solve_tikhonov,
    tikhonov_objective,
)


def simple_problem(alpha=1.0):
    op = MatrixOperator([[1.0, 0.0], [0.0, 2.0]])
    return TikhonovProblem(
        op, [1.0, 1.0], SpdMatrix.identity(2), SpdMatrix.identity(2), alpha
    )


def fd_gradient(problem, x, step=1e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        up, _ = tikhonov_objective(problem, x + e)
        dn, _ = tikhonov_objective(problem, x - e)
        grad[i] = (up - dn) / (2 * step)
    return grad


class TestObjective:
    def test_alpha_zero_identity(self):
        op = IdentityOperator(3)
        y = np.array([0.3, -1.0, 2.0])
        prob = TikhonovProblem(op, y, SpdMatrix.identity(3), SpdMatrix.identity(3), 0.0)
        value, grad = tikhonov_objective(prob, y)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(grad, 0.0, atol=1e-15)
        value_off, _ = tikhonov_objective(prob, y + 0.5)
        assert value_off > 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        prob = simple_problem(alpha=0.7)
        for _ in range(5):
            x = rng.standard_normal(2)
            _, grad = tikhonov_objective(prob, x)
            assert np.allclose(grad, fd_gradient(prob, x), rtol=1e-6, atol=1e-8)

    def test_gradient_matches_fd_nonlinear(self):
        rng = np.random.default_rng(2)
        inner = GaussianBlurOperator(3, 3, width=3, sigma=1.0)
        op = SaturationWrapper(inner)
        prob = TikhonovProblem(
            op,
            rng.uniform(0.1, 0.5, 9),
            SpdMatrix.spherical(9, 0.5),
            SpdMatrix.identity(9),
            0.3,
        )
        for _ in range(3):
            x = rng.uniform(0.1, 0.9, 9)
            _, grad = tikhonov_objective(prob, x)
            fd = fd_gradient(prob, x)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


class TestSolve:
    def test_two_by_two_closed_form(self):
        # (H^T H + alpha I) x = H^T y -> x = (0.5, 0.4).
        sol = solve_tikhonov(simple_problem(alpha=1.0))
        assert np.allclose(sol.x, [0.5, 0.4], atol=1e-6)
        assert sol.converged

    def test_start_at_solution_converges_immediately(self):
        sol = solve_tikhonov(simple_problem(alpha=1.0), np.array([0.5, 0.4]))
        assert sol.iterations <= 1

    def test_minimizer_shrinks_with_alpha(self):
        norms = [
            np.linalg.norm(solve_tikhonov(simple_problem(alpha=a)).x)
            for a in (0.0, 0.5, 2.0, 10.0, 1e4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms[:-1], norms[1:]))
        assert norms[-1] < 1e-3

    def test_linear_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 6))
        y = rng.standard_normal(4)
        r = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, 4))
        c = SpdMatrix.from_diagonal(rng.uniform(0.5, 2.0, 6))
        alpha = 0.8
        prob = TikhonovProblem(MatrixOperator(h), y, r, c, alpha)
        sol = solve_tikhonov(prob)
        a = h.T @ np.linalg.inv(r.dense()) @ h + alpha * c.dense()
        b = h.T @ np.linalg.inv(r.dense()) @ y
        assert np.allclose(sol.x, np.linalg.solve(a, b), atol=1e-6)

    def test_nonlinear_descends_to_small_gradient(self):
        rng = np.random.default_rng(4)
        op = SaturationWrapper(MatrixOperator(rng.standard_normal((3, 3))))
        prob = TikhonovProblem(
            op, [0.1, -0.2, 0.3], SpdMatrix.identity(3), SpdMatrix.identity(3), 0.5
        )
        sol = solve_tikhonov(prob, np.zeros(3))
        assert sol.converged
        _, grad = tikhonov_objective(prob, sol.x)
        assert np.linalg.norm(grad) <= 1e-6

    def test_blur_descent_from_data(self):
        # Deblurring at 16x16: the solution must fit the data better than
        # the blurred observation itself does.
        rng = np.random.default_rng(5)
        op = GaussianBlurOperator(16, 16, width=5, sigma=1.5)
        truth = np.zeros((16, 16))
        truth[4:12, 4:12] = 0.9
        truth += 0.1
        y = op.apply(truth.reshape(-1)) + 0.01 * rng.standard_normal(256)
        prob = TikhonovProblem(
            op, y, SpdMatrix.spherical(256, 1e-4), SpdMatrix.identity(256), 1.0
        )
        sol = solve_tikhonov(prob, y)
        assert np.linalg.norm(op.apply(sol.x) - y) < np.linalg.norm(op.apply(y) - y)

    def test_linear_problem_converges_in_one_step(self, monkeypatch):
        # One objective call at x0 and one for the accepted full step. CG on
        # eight unknowns needs about eight iterations; a preconditioner that
        # aliased the CG direction would run on to the cap.
        rng = np.random.default_rng(11)
        prob = TikhonovProblem(
            MatrixOperator(rng.standard_normal((8, 8))), rng.standard_normal(8),
            SpdMatrix.identity(8), SpdMatrix.identity(8), 1e-2,
        )
        calls = []

        def counted(problem, x):
            calls.append(x)
            return tikhonov_objective(problem, x)

        monkeypatch.setattr(tikhonov, "tikhonov_objective", counted)
        sol = solve_tikhonov(prob)
        assert sol.converged
        assert len(calls) == 2
        assert sol.iterations <= 2 * 8

    def test_max_iterations_flagged(self):
        sol = solve_tikhonov(simple_problem(alpha=1.0), np.array([50.0, -30.0]), max_iter=1)
        assert not sol.converged


class TestLCurve:
    def test_monotone_norms_along_grid(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((8, 8))
        y = rng.standard_normal(8)
        prob = TikhonovProblem(
            MatrixOperator(h), y, SpdMatrix.identity(8), SpdMatrix.identity(8), 1.0
        )
        sel = lcurve_select_alpha(prob, np.logspace(-6, 2, 30))
        res = [p.residual_norm for p in sel.points]
        sol = [p.solution_norm for p in sel.points]
        assert all(a <= b + 1e-8 for a, b in zip(res[:-1], res[1:]))
        assert all(a >= b - 1e-8 for a, b in zip(sol[:-1], sol[1:]))

    def test_noise_identity_selects_interior_alpha(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(20)
        prob = TikhonovProblem(
            IdentityOperator(20), y, SpdMatrix.identity(20), SpdMatrix.identity(20), 1.0
        )
        grid = np.logspace(-6, 2, 25)
        sel = lcurve_select_alpha(prob, grid)
        assert not sel.degenerate
        assert sel.alpha > grid[0]
        assert np.isfinite(sel.alpha)

    def test_repeated_single_alpha(self):
        prob = simple_problem()
        sel = lcurve_select_alpha(prob, [0.3, 0.3, 0.3, 0.3, 0.3])
        assert sel.alpha == 0.3

    def test_flat_curve_degenerates(self):
        # alpha = 0 everywhere: every solve lands on the same unregularized
        # minimizer, so the curve collapses to a point.
        prob = simple_problem()
        with pytest.warns(DegenerateCurveWarning):
            sel = lcurve_select_alpha(prob, [0.0, 0.0, 0.0, 0.0, 0.0, 1e-300])
        assert sel.degenerate

    def test_csv_output(self):
        # The fields of lcurve.csv, one point per grid alpha in grid order.
        grid = np.logspace(-3, 1, 6)
        sel = lcurve_select_alpha(simple_problem(), grid)
        assert [p.alpha for p in sel.points] == grid.tolist()
        for point in sel.points:
            assert point.residual_norm > 0.0 and point.solution_norm > 0.0
            assert point.iterations >= 1
            assert point.converged

    def test_unconverged_solves_warn_and_are_recorded(self):
        rng = np.random.default_rng(8)
        prob = TikhonovProblem(
            MatrixOperator(rng.standard_normal((6, 6))),
            rng.standard_normal(6),
            SpdMatrix.identity(6),
            SpdMatrix.identity(6),
            1.0,
        )
        grid = np.logspace(-4, 1, 5)
        with pytest.warns(SolverConvergenceWarning, match="5 of 5") as record:
            sel = lcurve_select_alpha(prob, grid, solver_options={"max_iter": 1})
        message = str(record[0].message)
        for alpha in grid:
            assert f"{alpha:.6g}" in message
        assert [p.iterations for p in sel.points] == [1] * 5
        assert not any(p.converged for p in sel.points)


def dense_laplacian_reference(rows, cols, epsilon):
    """The grid Laplacian plus epsilon * I, assembled entry by entry."""
    n = rows * cols
    lap = np.zeros((n, n))
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < rows and 0 <= jj < cols:
                    kk = ii * cols + jj
                    lap[k, k] += 1.0
                    lap[k, kk] -= 1.0
    return lap + epsilon * np.eye(n)


class TestGridLaplacian:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 1), (6, 7), (5, 5)])
    def test_stencil_matches_dense_reference(self, rows, cols):
        rng = np.random.default_rng(9)
        lap = discrete_laplacian(rows, cols, epsilon=1e-3)
        dense = dense_laplacian_reference(rows, cols, 1e-3)
        assert lap.order == rows * cols
        for _ in range(3):
            x = rng.standard_normal(rows * cols)
            assert np.allclose(lap.matvec(x), dense @ x, rtol=0.0, atol=1e-13)

    def test_dct_eigenvalues_diagonalize(self):
        # Eigenvalue (k, l) belongs to the outer product of the k-th and l-th
        # DCT-II cosines.
        rows, cols = 6, 7
        lap = discrete_laplacian(rows, cols, epsilon=0.2)
        dense = dense_laplacian_reference(rows, cols, 0.2)
        eig = lap.dct_eigenvalues()
        for k, l in ((0, 0), (1, 3), (5, 6)):
            u = np.cos(np.pi * k * (2 * np.arange(rows) + 1) / (2 * rows))
            w = np.cos(np.pi * l * (2 * np.arange(cols) + 1) / (2 * cols))
            v = np.outer(u, w).reshape(-1)
            assert np.allclose(dense @ v, eig[k, l] * v, atol=1e-12)


def dense_matrix(op):
    return np.column_stack([op.apply(e) for e in np.eye(op.in_dim)])


def dense_tikhonov_solution(problem):
    """argmin of the Tikhonov objective from dense linear algebra.

    Solves the stacked least-squares form min ||[R^-1/2 H; sqrt(alpha) L^T] x
    - [R^-1/2 y; 0]|| with C = L L^T, which has the normal equations
    (H^T R^-1 H + alpha C) x = H^T R^-1 y but only the square root of their
    condition number, so the oracle stays accurate where a blur frequency
    response is near zero.
    """
    h = dense_matrix(problem.operator)
    n = h.shape[1]
    c = np.column_stack([problem.reg_matrix.matvec(e) for e in np.eye(n)])
    r_sqrt = np.sqrt(problem.obs_cov.diagonal())
    a = np.vstack([h / r_sqrt[:, None], np.sqrt(problem.alpha) * np.linalg.cholesky(c).T])
    b = np.concatenate([problem.y / r_sqrt, np.zeros(n)])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def blur_problem(rows=6, cols=7, width=5, reg="laplacian", boundary="reflect",
                 obs_cov=None, alpha=1.0, seed=10):
    rng = np.random.default_rng(seed)
    op = GaussianBlurOperator(rows, cols, width=width, sigma=1.2, boundary=boundary)
    n = rows * cols
    reg_matrix = discrete_laplacian(rows, cols) if reg == "laplacian" else reg
    obs_cov = SpdMatrix.spherical(n, 0.05**2) if obs_cov is None else obs_cov
    y = op.apply(rng.uniform(0.0, 1.0, n)) + 0.05 * rng.standard_normal(n)
    return TikhonovProblem(op, y, obs_cov, reg_matrix, alpha)


class TestSpectralSolve:
    @pytest.mark.parametrize("alpha", DEFAULT_ALPHA_GRID[::7])
    @pytest.mark.parametrize("reg", ["laplacian", "identity", "scaled"])
    @pytest.mark.parametrize("width", [3, 5])
    @pytest.mark.parametrize("rows,cols", [(6, 7), (5, 5), (1, 9)])
    def test_matches_dense_solution(self, rows, cols, width, reg, alpha):
        reg_matrix = {
            "laplacian": "laplacian",
            "identity": SpdMatrix.identity(rows * cols),
            "scaled": SpdMatrix.spherical(rows * cols, 2.5),
        }[reg]
        prob = blur_problem(rows, cols, width, reg_matrix, alpha=alpha)
        sol = solve_tikhonov(prob)
        expected = dense_tikhonov_solution(prob)
        assert sol.iterations == 0
        assert sol.converged
        assert np.linalg.norm(sol.x - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_gradient_measured_at_returned_point(self):
        prob = blur_problem(alpha=0.3)
        sol = solve_tikhonov(prob, np.ones(42))
        _, grad = tikhonov_objective(prob, sol.x)
        assert sol.grad_norm == pytest.approx(float(np.linalg.norm(grad)))

    def test_wide_kernel_on_small_grid(self):
        prob = blur_problem(2, 3, width=7, alpha=0.01)
        sol = solve_tikhonov(prob)
        assert sol.iterations == 0
        expected = dense_tikhonov_solution(prob)
        assert np.linalg.norm(sol.x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "case", ["periodic", "saturated", "matrix", "diagonal_r", "diagonal_c"]
    )
    def test_other_problems_take_gauss_newton(self, case):
        prob = blur_problem(alpha=0.5)
        n = prob.operator.in_dim
        if case == "periodic":
            prob = blur_problem(boundary="periodic", alpha=0.5)
        elif case == "saturated":
            prob = TikhonovProblem(
                SaturationWrapper(prob.operator), prob.y, prob.obs_cov, prob.reg_matrix, 0.5
            )
        elif case == "matrix":
            prob = TikhonovProblem(
                MatrixOperator(dense_matrix(prob.operator)),
                prob.y, prob.obs_cov, prob.reg_matrix, 0.5,
            )
        elif case == "diagonal_r":
            prob = blur_problem(
                obs_cov=SpdMatrix.from_diagonal(np.linspace(0.01, 0.02, n)), alpha=0.5
            )
        else:
            prob = blur_problem(
                reg=SpdMatrix.from_diagonal(np.linspace(1.0, 2.0, n)), alpha=0.5
            )
        sol = solve_tikhonov(prob)
        assert sol.iterations > 0
        assert sol.converged
        if case != "saturated":
            # Gauss-Newton stops on a 1e-8 relative gradient; x inherits
            # that times the condition number.
            expected = dense_tikhonov_solution(prob)
            assert np.linalg.norm(sol.x - expected) <= 1e-4 * np.linalg.norm(expected)

