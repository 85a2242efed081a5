"""Sweep the regularization weight of a small deconvolution problem and
locate the L-curve corner by discrete curvature."""

import numpy as np

from csample.forward_models import GaussianBlurOperator
from csample.linalg_rng import SpdMatrix
from csample.tikhonov import TikhonovProblem, discrete_laplacian, lcurve_select_alpha

rng = np.random.default_rng(0)
n = 12
op = GaussianBlurOperator(n, n, width=5, sigma=1.2)
truth = np.zeros((n, n))
truth[3:9, 3:9] = 0.8
truth += 0.1
y = op.apply(truth.reshape(-1)) + 0.02 * rng.standard_normal(n * n)

problem = TikhonovProblem(
    op,
    y,
    SpdMatrix.spherical(n * n, 0.02**2),
    discrete_laplacian(n, n),
    1.0,
)
selection = lcurve_select_alpha(problem, np.logspace(-4, 2, 20))

print(f"{'alpha':>10} {'residual':>10} {'seminorm':>10} {'curvature':>10}")
for p in selection.points:
    marker = "  <-- corner" if p.alpha == selection.alpha else ""
    print(f"{p.alpha:10.3g} {p.residual_norm:10.4f} {p.solution_norm:10.4f} "
          f"{p.curvature:10.4f}{marker}")

best = selection.solution.x
err = np.linalg.norm(best - truth.reshape(-1)) / np.linalg.norm(truth)
print(f"\ncorner alpha {selection.alpha:.3g}; relative error of the corner "
      f"solution {err:.4f}")
