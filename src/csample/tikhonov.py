"""Tikhonov-regularized variational baseline with L-curve parameter selection.

The objective is T(x) = ||H(x) - y||^2_{R^-1} + alpha ||x||^2_C with gradient
2 [dH(x)]^T R^-1 (H(x) - y) + 2 alpha C x; the factor-2 convention keeps the
pair mutually consistent. The contract of every solver is the gradient norm
at the returned point.

Two solvers, chosen from the problem's structure:

- Closed form, when H is a reflect-boundary Gaussian blur (not saturated),
  R = sigma^2 I, and C is c I or the grid Laplacian. The orthonormal 2-D
  DCT-II diagonalizes the half-sample-symmetric blur and the Neumann grid
  Laplacian alike (Ng, Chan & Tang, SIAM J. Sci. Comput. 1999), so the
  minimizer is x_hat = (b_hat / sigma^2) y_hat / (b_hat^2 / sigma^2 +
  alpha c_hat) in that basis, with no iterations.
- Gauss-Newton for every other problem (dense matrices, periodic or
  saturated blur, non-spherical R). Its inner CG is preconditioned by the
  same DCT solve wherever a blur, R = sigma^2 I and such a C make one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateCurveWarning, DimensionMismatch, SolverConvergenceWarning
from .forward_models import GaussianBlurOperator, SaturationWrapper
from .linalg_rng import SpdMatrix

DEFAULT_ALPHA_GRID = np.logspace(-6.0, 2.0, 30)
GRAD_TOL_REL = 1e-8
STALL_STEPS = 3  # Gauss-Newton steps in a row that do not lower |grad|


@dataclass(frozen=True)
class GridLaplacian:
    """Grid-graph Laplacian plus epsilon * I on a rows-by-cols pixel grid.

    Applied by its 5-point stencil with no neighbor across the grid edge
    (Neumann boundary), so it costs O(rows * cols) time and no matrix.
    """

    rows: int
    cols: int
    epsilon: float

    @property
    def order(self):
        return self.rows * self.cols

    def matvec(self, x):
        img = np.asarray(x, dtype=float).reshape(self.rows, self.cols)
        out = self.epsilon * img
        # Each edge (a, b) adds a - b at a and b - a at b.
        down = np.diff(img, axis=0)
        out[:-1] -= down
        out[1:] += down
        right = np.diff(img, axis=1)
        out[:, :-1] -= right
        out[:, 1:] += right
        return out.reshape(-1)

    def dct_eigenvalues(self):
        """Eigenvalues on the 2-D DCT-II basis, as a rows-by-cols array."""
        def path(n):
            return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)

        return path(self.rows)[:, None] + path(self.cols)[None, :] + self.epsilon


def discrete_laplacian(rows, cols, epsilon=1e-3):
    """Grid-graph Laplacian plus epsilon * I: an SPD roughness penalty.

    ||x||^2_C sums squared differences between 4-neighbors, so the penalty
    targets gradients instead of the image's mean level.
    """
    return GridLaplacian(int(rows), int(cols), float(epsilon))


@dataclass(frozen=True)
class TikhonovProblem:
    operator: object
    y: np.ndarray
    obs_cov: object  # SpdMatrix, order m
    reg_matrix: object  # SpdMatrix C, order n_var
    alpha: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "y", y)
        if self.operator.out_dim != y.size or self.obs_cov.order != y.size:
            raise DimensionMismatch("operator output, y, and R must agree")
        if self.reg_matrix.order != self.operator.in_dim:
            raise DimensionMismatch("C order must equal the state dimension")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")


def tikhonov_objective(problem, x):
    """Objective value and exact gradient at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != problem.operator.in_dim:
        raise DimensionMismatch(f"state length {x.size} != {problem.operator.in_dim}")
    residual = problem.operator.apply(x) - problem.y
    rinv_residual = problem.obs_cov.solve(residual)
    cx = problem.reg_matrix.matvec(x)
    value = float(residual @ rinv_residual) + problem.alpha * float(x @ cx)
    grad = 2.0 * problem.operator.adjoint_jacobian_apply(x, rinv_residual)
    grad += 2.0 * problem.alpha * cx
    return value, grad


@dataclass
class TikhonovSolution:
    x: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def _dct_matrix(n):
    """Orthonormal DCT-II matrix; row k is the k-th cosine basis vector."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    d[0] /= np.sqrt(2.0)
    return d


def _scalar_multiple_of_identity(matrix):
    """c when matrix is an SpdMatrix equal to c * I, else None."""
    if not isinstance(matrix, SpdMatrix) or not matrix.is_diagonal:
        return None
    diag = matrix.diagonal()
    return float(diag[0]) if np.all(diag == diag[0]) else None


def _dct_diagonalization(problem):
    """(blur, d_r, d_c, b_hat, c_hat, sigma^2): the blur unwrapped from any
    saturation, the DCT-II matrices of its axes, and the eigenvalues of the
    blur (exact for the reflect boundary) and of C on the 2-D DCT-II basis.
    None when R is not sigma^2 I, C is not diagonal there, or there is no blur.
    """
    op, reg = problem.operator, problem.reg_matrix
    blur = op.inner if isinstance(op, SaturationWrapper) else op
    variance = _scalar_multiple_of_identity(problem.obs_cov)
    c_hat = (reg.dct_eigenvalues() if isinstance(reg, GridLaplacian)
             else _scalar_multiple_of_identity(reg))
    if not isinstance(blur, GaussianBlurOperator) or variance is None or c_hat is None:
        return None
    d_r, d_c = _dct_matrix(blur.rows), _dct_matrix(blur.cols)
    b_r = np.einsum("ij,jk,ik->i", d_r, blur.row_matrix, d_r)
    b_c = np.einsum("ij,jk,ik->i", d_c, blur.col_matrix, d_c)
    return blur, d_r, d_c, b_r[:, None] * b_c[None, :], c_hat, variance


def _dct_solve(problem, diagonalization, v, scale=1.0):
    """(B^T B / sigma^2 + alpha C)^-1 D^T (scale * D v): the solve on the DCT
    basis D, with ``scale`` weighting the coefficients of v."""
    blur, d_r, d_c, b_hat, c_hat, variance = diagonalization
    v_hat = d_r @ v.reshape(blur.rows, blur.cols) @ d_c.T
    x_hat = scale * v_hat / (b_hat**2 / variance + problem.alpha * c_hat)
    return (d_r.T @ x_hat @ d_c).reshape(-1)


def _solve_gauss_newton(problem, x, value, grad, tol, max_iter, precondition):
    """Gauss-Newton with Armijo backtracking (Nocedal & Wright, ch. 7, 10).

    Each step runs CG from p = 0 on (J^T R^-1 J + alpha C) p = -grad / 2,
    preconditioned by ``precondition`` (which returns a new array), until the
    step's linearized gradient, -2 r for CG residual r, meets tol: a linear
    problem converges in one step. ``iterations`` counts CG iterations.
    """
    op, obs_cov, reg = problem.operator, problem.obs_cov, problem.reg_matrix
    grad_norm = float(np.linalg.norm(grad))
    iterations = stalls = 0
    while grad_norm > tol and iterations < max_iter and stalls < STALL_STEPS:
        p, r = np.zeros_like(x), -0.5 * grad
        d = precondition(r)
        rz = float(r @ d)
        while 2.0 * np.linalg.norm(r) > tol and iterations < max_iter:
            ad = op.adjoint_jacobian_apply(x, obs_cov.solve(op.jacobian_apply(x, d)))
            ad += problem.alpha * reg.matvec(d)
            dad = float(d @ ad)
            if dad <= 0.0:
                break
            p += (rz / dad) * d
            r -= (rz / dad) * ad
            z = precondition(r)
            rz, rz_old = float(r @ z), rz
            d = z + (rz / rz_old) * d
            iterations += 1
        slope = float(grad @ p)
        for step in 0.5 ** np.arange(60.0):  # Armijo backtracking
            candidate = x + step * p
            new_value, new_grad = tikhonov_objective(problem, candidate)
            if new_value <= value + 1e-4 * step * slope:
                break
        else:
            break
        new_norm = float(np.linalg.norm(new_grad))
        stalls = stalls + 1 if new_norm >= grad_norm else 0
        x, value, grad, grad_norm = candidate, new_value, new_grad, new_norm
    return TikhonovSolution(x, grad_norm, iterations, grad_norm <= tol)


def solve_tikhonov(problem, x0=None, *, max_iter=None):
    """Minimize the Tikhonov objective from x0.

    Converges when the gradient norm, measured at the returned point, falls to
    GRAD_TOL_REL times max(1, ||grad(x0)||). Problems diagonal on the DCT
    basis are solved in closed form with ``iterations=0``. Gauss-Newton stops
    with ``converged=False`` at its last iterate when its CG iterations reach
    ``max_iter`` (default max(200, 10 n)), its line search fails, or
    STALL_STEPS steps in a row do not lower the gradient norm.
    """
    n = problem.operator.in_dim
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != n:
        raise DimensionMismatch(f"x0 length {x0.size} != {n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    value, grad = tikhonov_objective(problem, x0)
    tol = GRAD_TOL_REL * max(1.0, float(np.linalg.norm(grad)))
    max_iter = max(200, 10 * n) if max_iter is None else max_iter
    diagonalization = _dct_diagonalization(problem)
    if diagonalization is None:
        return _solve_gauss_newton(problem, x0, value, grad, tol, max_iter, np.copy)
    blur, _, _, b_hat, _, variance = diagonalization
    if blur is problem.operator and blur.boundary == "reflect":
        x = _dct_solve(problem, diagonalization, problem.y, b_hat / variance)
        grad_norm = float(np.linalg.norm(tikhonov_objective(problem, x)[1]))
        return TikhonovSolution(x, grad_norm, 0, grad_norm <= tol)
    # Elsewhere the same solve, applied to r, preconditions Gauss-Newton; it
    # ignores the saturation's slope and the periodic blur's wrap.
    return _solve_gauss_newton(problem, x0, value, grad, tol, max_iter,
                               lambda r: _dct_solve(problem, diagonalization, r))


@dataclass
class LCurvePoint:
    alpha: float
    residual_norm: float  # ||H(x) - y||_{R^-1}
    solution_norm: float  # ||x||_C
    curvature: float
    iterations: int
    converged: bool


@dataclass
class LCurveSelection:
    alpha: float
    points: list
    degenerate: bool
    solution: TikhonovSolution  # the solve at alpha


def lcurve_select_alpha(problem, alphas=None, *, solver_options=None):
    """Pick the regularization weight at the L-curve's sharpest corner.

    Solves the problem per grid alpha (warm-started along the grid), builds
    the (log residual-norm, log solution-norm) curve, scores interior points
    by three-point Menger curvature, and returns the curvature maximizer
    (ties toward larger alpha) with its solve. A curvature range below
    1e-12 degenerates to the grid midpoint with a warning. A maximizer
    within one point of either end of the grid also warns, naming it and
    that end: the corner may lie outside the grid. Each point records its
    solve's iteration count and convergence flag; unconverged solves raise a
    SolverConvergenceWarning naming their alphas.
    """
    alphas = DEFAULT_ALPHA_GRID if alphas is None else np.asarray(alphas, dtype=float)
    if alphas.size < 1:
        raise ValueError("alpha grid must be non-empty")
    solver_options = solver_options or {}
    # Solve from the best-conditioned (largest) alpha down, from zero and then
    # warm-starting each solve from its neighbor; report points in grid order.
    order = np.argsort(-alphas, kind="stable")
    points = [None] * alphas.size
    solutions = [None] * alphas.size
    warm = None
    for idx in order:
        sub = replace(problem, alpha=float(alphas[idx]))
        sol = solve_tikhonov(sub, warm, **solver_options)
        warm = sol.x
        residual = sub.operator.apply(sol.x) - sub.y
        res_norm = float(np.sqrt(residual @ sub.obs_cov.solve(residual)))
        sol_norm = float(np.sqrt(sol.x @ sub.reg_matrix.matvec(sol.x)))
        points[idx] = LCurvePoint(
            float(alphas[idx]), res_norm, sol_norm, 0.0, sol.iterations, sol.converged
        )
        solutions[idx] = sol
    unconverged = [p.alpha for p in points if not p.converged]
    if unconverged:
        warnings.warn(
            f"{len(unconverged)} of {len(points)} L-curve solves stopped before "
            f"convergence, at alpha = {', '.join(f'{a:.6g}' for a in unconverged)}",
            SolverConvergenceWarning,
        )

    unique_alphas = {p.alpha for p in points}
    if len(unique_alphas) == 1:
        return LCurveSelection(points[0].alpha, points, False, solutions[0])

    floor = np.finfo(float).tiny
    xs = np.log(np.maximum([p.residual_norm for p in points], floor))
    ys = np.log(np.maximum([p.solution_norm for p in points], floor))
    for j in range(1, len(points) - 1):
        a = np.array([xs[j] - xs[j - 1], ys[j] - ys[j - 1]])
        b = np.array([xs[j + 1] - xs[j], ys[j + 1] - ys[j]])
        c = np.array([xs[j + 1] - xs[j - 1], ys[j + 1] - ys[j - 1]])
        la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
        if la * lb * lc == 0.0:
            continue
        cross = a[0] * b[1] - a[1] * b[0]
        points[j].curvature = float(2.0 * cross / (la * lb * lc))

    curvatures = np.array([p.curvature for p in points])
    if np.max(curvatures) - np.min(curvatures) < 1e-12:
        warnings.warn(
            "L-curve curvature is flat; falling back to the grid midpoint",
            DegenerateCurveWarning,
        )
        mid = len(points) // 2
        return LCurveSelection(points[mid].alpha, points, True, solutions[mid])
    best = np.max(curvatures)
    # Ties break toward larger alpha; the grid is scanned in order.
    idx = max(j for j, p in enumerate(points) if p.curvature == best)
    if idx <= 1 or idx >= len(points) - 2:
        end = points[0] if idx <= 1 else points[-1]
        warnings.warn(
            f"L-curve corner alpha = {points[idx].alpha:.6g} is within one point of the "
            f"grid end {end.alpha:.6g}; the corner may lie outside the grid",
            DegenerateCurveWarning,
        )
    return LCurveSelection(points[idx].alpha, points, False, solutions[idx])
