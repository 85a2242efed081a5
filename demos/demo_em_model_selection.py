"""Fit Gaussian mixtures of increasing size to a multimodal ensemble and
let AIC pick the component count."""

import numpy as np

from csample.experiments import benchmark_prior_mixture
from csample.gmm import select_model_aic
from csample.linalg_rng import RngStream

truth = benchmark_prior_mixture()
print(f"generator: {truth.n_components} components at "
      f"{np.round(truth.means.ravel(), 1)}")

data = truth.sample_n(RngStream(7, 0), 1000)
selection = select_model_aic(data, range(1, 11), structure="full", rng=RngStream(7, 1))

print(f"\n{'n_c':>4} {'AIC':>10} {'loglik':>10}")
for row in selection.table:
    marker = "  <-- selected" if row["n_c"] == selection.n_components else ""
    print(f"{row['n_c']:4d} {row['aic']:10.1f} {row['log_likelihood']:10.1f}{marker}")

mix = selection.mixture
print("\nselected fit:")
for w, mu, var in zip(mix.weights, mix.means, mix.covariances[:, 0]):
    print(f"  weight {w:.3f}  mean {mu[0]:+6.2f}  variance {var:.4f}")
