"""The target distribution: Gaussian likelihood times GMM prior.

The sampler-facing surface is the potential J(x) (the posterior negative
log-kernel) and its gradient, apart or fused (``potential_and_grad``). The
model holds only the likelihood half: R, the misfit and its adjoint. The
prior half (kernel log-sum-exp, responsibilities, pullback) is the
mixture's own, computed from the factors, inverse factors and log
determinants it caches once and shares read-only with every chain worker.
R^{-1} itself is never formed: solves go through the Cholesky factor that
R caches, or for dense R through that factor's cached inverse. For a
linear operator the posterior is itself a Gaussian mixture:
``linear_mixture_posterior``.

The per-step contract: ``neg_log_posterior``, ``grad_neg_log_posterior`` and
``potential_and_grad`` take a float (dim,) vector and do not check it. The
state is checked once per chain, by ``samplers.run_chain`` before its first
step; the operator's own apply and adjoint still check their arguments.
``_residuals`` gives every call the residual and R^{-1} times it, and
``_misfit`` takes their dot product, so the gradient computes no misfit it
would discard and J, the likelihood and the fused call share one formula.
The dot product uses ``ndarray.dot``, the same BLAS call as ``@`` with less
work per call.
``log_likelihood``, which runs once per component when chains are planned,
checks its state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .forward_models import materialize_jacobian
from .gmm import GaussianMixture
from .linalg_rng import cholesky_stack


class PosteriorModel:
    """Posterior kernel for observation y = H(x) + noise with a GMM prior.

    Parameters
    ----------
    prior : GaussianMixture
        Prior over the state, dimension n_var.
    operator : ForwardOperator
        Observation map H from state space to observation space.
    y : array, shape (m,)
        Observed data.
    obs_cov : SpdMatrix, order m
        Observation-error covariance R.
    """

    def __init__(self, prior, operator, y, obs_cov):
        y = np.asarray(y, dtype=float).reshape(-1)
        if operator.out_dim != y.size or obs_cov.order != y.size:
            raise DimensionMismatch(
                f"operator out_dim {operator.out_dim}, y length {y.size}, and "
                f"R order {obs_cov.order} must agree"
            )
        if operator.in_dim != prior.dim:
            raise DimensionMismatch(
                f"operator in_dim {operator.in_dim} != prior dimension {prior.dim}"
            )
        self.prior = prior
        self.operator = operator
        self.y = y
        self.obs_cov = obs_cov
        m = y.size
        self._lik_const = -0.5 * (m * np.log(2.0 * np.pi) + obs_cov.logdet())

    @property
    def dim(self):
        return self.prior.dim

    def _check_state(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DimensionMismatch(f"state length {x.size} != {self.dim}")
        return x

    def _residuals(self, x):
        """The residual H(x) - y and R^{-1} times it."""
        residual = self.operator.apply(x) - self.y
        return residual, self.obs_cov.solve(residual)

    def log_likelihood(self, x):
        """Gaussian log-likelihood of y given x, constants included."""
        return self._lik_const - 0.5 * _misfit(*self._residuals(self._check_state(x)))

    def neg_log_posterior(self, x):
        """Potential J(x): misfit quadratic minus the log mixture kernel."""
        return 0.5 * _misfit(*self._residuals(x)) - self.prior.log_kernel(x)

    def grad_neg_log_posterior(self, x):
        """Gradient of J: adjoint-weighted misfit plus responsibility-weighted
        prior pullbacks, with responsibilities formed in log space."""
        _, rinv_residual = self._residuals(x)
        grad = self.operator.adjoint_jacobian_apply(x, rinv_residual)
        return grad + self.prior.kernel_pullback(x)

    def potential_and_grad(self, x):
        """J(x) and its gradient from one misfit and one Mahalanobis step,
        each bit-equal to ``neg_log_posterior`` and
        ``grad_neg_log_posterior`` at x."""
        residual, rinv_residual = self._residuals(x)
        log_kernel, pullback = self.prior.log_kernel_and_pullback(x)
        grad = self.operator.adjoint_jacobian_apply(x, rinv_residual)
        return 0.5 * _misfit(residual, rinv_residual) - log_kernel, grad + pullback


def _misfit(residual, rinv_residual):
    """The misfit quadratic (H(x) - y)^T R^{-1} (H(x) - y)."""
    return float(residual.dot(rinv_residual))


def linear_mixture_posterior(model):
    """The exact posterior of a model with a linear operator, as a mixture.

    This is the Gaussian-sum update (Alspach & Sorenson, IEEE TAC 1972).
    With H the dense operator matrix, component k has the innovation
    covariance C_k = R + H Sigma_k H^T, factored once as L_k L_k^T. With
    the whitened gain G_k = L_k^{-1} H Sigma_k and residual
    z_k = L_k^{-1} (y - H mu_k), the component has mean mu_k + G_k^T z_k and
    covariance Sigma_k - G_k^T G_k. Its weight is proportional to
    tau_k N(y; H mu_k, C_k), the evidence, normalised in log space. A
    nonlinear operator raises ValueError.
    """
    h = materialize_jacobian(model.operator)
    prior = model.prior
    covs = prior.covariances
    if covs.ndim == 2:
        covs = covs[:, :, None] * np.eye(prior.dim)
    h_covs = h @ covs
    # np.linalg.cholesky reads only the lower triangle of each C_k.
    factors = cholesky_stack(model.obs_cov.dense() + h_covs @ h.T)
    residuals = model.y - prior.means @ h.T
    # One stacked solve: column 0 of each L_k^{-1} [r_k, H Sigma_k] is z_k,
    # the rest is G_k.
    solved = _forward_substitution(factors, np.concatenate([residuals[:, :, None], h_covs],
                                                           axis=2))
    z, gains = solved[:, :, 0], solved[:, :, 1:]
    logdets = 2.0 * np.sum(np.log(np.diagonal(factors, axis1=1, axis2=2)), axis=1)
    log_weights = np.log(prior.weights) - 0.5 * (
        z.shape[1] * np.log(2.0 * np.pi) + logdets + np.einsum("km,km->k", z, z))
    means = prior.means + np.einsum("kmd,km->kd", gains, z)
    post_covs = covs - gains.swapaxes(1, 2) @ gains
    weights = np.exp(log_weights - log_weights.max())
    return GaussianMixture(weights / weights.sum(), means, post_covs, structure="full")


def _forward_substitution(lower, b):
    """L_k^{-1} B_k for a (k, m, m) stack of lower factors and a (k, m, n)
    stack of right-hand sides, row by row over the whole stack. Each row is
    divided by its pivot: a one-row system (the 1-D benchmark's) is b / l,
    exactly as a triangular solve gives it, where np.linalg.solve multiplies
    by 1 / l and rounds differently."""
    x = np.empty_like(b)
    for i in range(b.shape[1]):
        x[:, i] = (b[:, i] - (lower[:, i, None, :i] @ x[:, :i])[:, 0]) / lower[:, i, i, None]
    return x
