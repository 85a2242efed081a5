"""The target distribution: Gaussian likelihood times GMM prior.

The sampler-facing surface is the potential J(x) (the posterior negative
log-kernel), its gradient, and the shape function -J(x). The model holds
only the likelihood half: the factor of R, the misfit and its adjoint. The
prior half (kernel log-sum-exp, responsibilities, pullback) is the
mixture's own, computed from the factors and log determinants it caches
once and shares read-only with every chain worker. The observation-error
inverse is never formed: solves go through the cached factor of R.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg_rng import SpdMatrix


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
        self._obs_factor = obs_cov.chol()
        m = y.size
        self._lik_const = -0.5 * (m * np.log(2.0 * np.pi) + self._obs_factor.logdet())

    @property
    def dim(self):
        return self.prior.dim

    @property
    def obs_dim(self):
        return self.y.size

    def _check_state(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DimensionMismatch(f"state length {x.size} != {self.dim}")
        return x

    def _misfit_terms(self, x):
        residual = self.operator.apply(x) - self.y
        rinv_residual = self._obs_factor.solve(residual)
        return residual, rinv_residual, float(residual @ rinv_residual)

    def log_likelihood(self, x):
        """Gaussian log-likelihood of y given x, constants included."""
        x = self._check_state(x)
        _, _, maha = self._misfit_terms(x)
        return self._lik_const - 0.5 * maha

    def neg_log_posterior(self, x):
        """Potential J(x): misfit quadratic minus the log mixture kernel."""
        x = self._check_state(x)
        _, _, misfit = self._misfit_terms(x)
        return 0.5 * misfit - self.prior.log_kernel(x)

    def grad_neg_log_posterior(self, x):
        """Gradient of J: adjoint-weighted misfit plus responsibility-weighted
        prior pullbacks, with responsibilities formed in log space."""
        x = self._check_state(x)
        _, rinv_residual, _ = self._misfit_terms(x)
        grad = self.operator.adjoint_jacobian_apply(x, rinv_residual)
        return grad + self.prior.kernel_pullback(x)

    def unnormalized_log_posterior(self, x):
        """The shape function -J(x); samplers depend only on this."""
        return -self.neg_log_posterior(x)

    def prior_responsibilities(self, x):
        """Normalized kernel responsibilities w_i(x); they sum to 1."""
        return self.prior.kernel_responsibilities(self._check_state(x))


def conjugate_posterior(prior_mean, prior_cov, operator_matrix, y, obs_cov):
    """Analytic Gaussian posterior for a single-Gaussian prior and linear H.

    Standard normal-equation formulas: P_a = (S^-1 + H^T R^-1 H)^-1 and
    x_a = P_a (S^-1 mu + H^T R^-1 y). Used as the oracle for the n_c = 1
    reduction of the mixture posterior.
    """
    h = np.asarray(operator_matrix, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    s_inv = np.linalg.inv(prior_cov.dense())
    r_inv = np.linalg.inv(obs_cov.dense())
    precision = s_inv + h.T @ r_inv @ h
    cov = np.linalg.inv(precision)
    mean = cov @ (s_inv @ prior_mean + h.T @ r_inv @ y)
    return mean, SpdMatrix.from_dense(0.5 * (cov + cov.T))
