"""Gaussian mixture models: density evaluation, sampling, EM fitting, AIC selection.

Mixtures are immutable once built and share their per-component Cholesky
factors, so concurrent readers (chain workers) never re-factorize. This is
the one home of per-component mixture arithmetic: Mahalanobis distances,
densities and the posterior's prior kernel (log-sum-exp, responsibilities
and pullback) all come from the factors cached here. Fitting
canonicalizes the data ordering before seeding, which makes the whole
EM/AIC pipeline invariant to permutations of the input ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateComponent, DimensionMismatch
from .linalg_rng import RngStream, SpdMatrix, sample_mvn

WEIGHT_TOLERANCE = 1e-12

GMM_STRUCTURES = ("diagonal", "spherical", "tied", "full")

# Relative covariance floor added in every M-step: lambda * trace(S)/dim * I.
COVARIANCE_FLOOR = 1e-6


def _logsumexp(a, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class Ensemble:
    """A set of state samples, optionally importance-weighted."""

    members: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float)
        if members.ndim == 1:
            # A flat list of scalars is n one-dimensional samples.
            members = members.reshape(-1, 1)
        if members.ndim != 2:
            raise DimensionMismatch("members must be an (n, dim) array")
        object.__setattr__(self, "members", members)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (members.shape[0],):
                raise DimensionMismatch("weights length must match member count")
            if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOLERANCE:
                raise ValueError("ensemble weights must sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def size(self):
        return self.members.shape[0]

    @property
    def dim(self):
        return self.members.shape[1]

    def mean(self):
        if self.weights is None:
            return self.members.mean(axis=0)
        return self.weights @ self.members


class GaussianMixture:
    """Weighted sum of Gaussians with a shared covariance-structure tag.

    ``covariances`` is one SpdMatrix per component; for ``tied`` structure
    the same object is shared by every component.
    """

    def __init__(self, weights, means, covariances, structure="full"):
        if structure not in GMM_STRUCTURES:
            raise ValueError(f"unknown covariance structure {structure!r}")
        weights = np.asarray(weights, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if weights.ndim != 1 or weights.size != means.shape[0]:
            raise DimensionMismatch("weights and means disagree on component count")
        if weights.size < 1:
            raise ValueError("at least one component required")
        if np.any(weights <= 0.0):
            raise ValueError("all mixture weights must be positive")
        if abs(float(np.sum(weights)) - 1.0) > WEIGHT_TOLERANCE:
            raise ValueError("mixture weights must sum to 1")
        covariances = list(covariances)
        if len(covariances) != weights.size:
            raise DimensionMismatch("one covariance per component required")
        dim = means.shape[1]
        for cov in covariances:
            if cov.order != dim:
                raise DimensionMismatch("covariance order must equal mean dimension")
        if structure == "tied" and any(c is not covariances[0] for c in covariances):
            raise ValueError("tied structure requires a single shared covariance")

        self.weights = weights
        self.means = means
        self.covariances = covariances
        self.structure = structure
        self._log_weights = np.log(weights)
        self._logdets = np.array([c.logdet() for c in covariances])
        # Per-component terms of the kernel: log tau_k - 0.5 log|Sigma_k|.
        self._kernel_consts = self._log_weights - 0.5 * self._logdets
        self._factors = [c.chol() for c in covariances]
        # Fast vectorized path when every covariance is stored diagonally.
        if all(c.is_diagonal for c in covariances):
            self._inv_diag = np.array([1.0 / c.diagonal() for c in covariances])
        else:
            self._inv_diag = None

    @property
    def n_components(self):
        return self.weights.size

    @property
    def dim(self):
        return self.means.shape[1]

    def mahalanobis_sq(self, x):
        """(x - mu_k)^T Sigma_k^{-1} (x - mu_k) for every component k.

        ``x`` is one float state (dim,) or a batch (n, dim); the result is
        (n_c,) or (n, n_c) accordingly.
        """
        if self._inv_diag is not None:
            dev = x[..., None, :] - self.means
            return np.einsum("...kd,kd,...kd->...k", dev, self._inv_diag, dev)
        maha = np.empty(x.shape[:-1] + (self.n_components,))
        for k, (factor, mu) in enumerate(zip(self._factors, self.means)):
            maha[..., k] = factor.maha_sq((x - mu).T)
        return maha

    def component_log_densities(self, x):
        """log N(x; mu_k, Sigma_k) for each component, vectorized over rows.

        Accepts a single state (dim,) or a batch (n, dim); returns (n_c,) or
        (n, n_c) accordingly. Includes the full (2 pi)^{-dim/2} normalizers.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"state dimension {x.shape[-1]} != {self.dim}")
        const = self.dim * np.log(2.0 * np.pi)
        return -0.5 * (const + self._logdets + self.mahalanobis_sq(x))

    def joint_log_densities(self, x):
        """log tau_k + log N(x; mu_k, Sigma_k), shaped like
        ``component_log_densities``."""
        return self._log_weights + self.component_log_densities(x)

    def logpdf(self, x):
        """Log mixture density, stabilized with log-sum-exp."""
        return float(_logsumexp(self.joint_log_densities(x), axis=-1))

    def responsibilities(self, x):
        """Posterior component probabilities of x under the mixture."""
        logr = self.joint_log_densities(x)
        return np.exp(logr - _logsumexp(logr, axis=-1)[..., None])

    # -- the kernel of one float state x (dim,) --------------------------
    # sum_k tau_k |Sigma_k|^{-1/2} exp(-0.5 maha_k(x)): the density without
    # its (2 pi)^{-dim/2} factor, which is all a posterior potential needs.

    def _kernel_log_terms(self, x):
        return self._kernel_consts - 0.5 * self.mahalanobis_sq(x)

    def log_kernel(self, x):
        """Log of the mixture kernel at x, by log-sum-exp."""
        logs = self._kernel_log_terms(x)
        m = logs.max()
        return m + np.log(np.exp(logs - m).sum())

    def kernel_responsibilities(self, x):
        """Normalized kernel terms w_k(x); they sum to 1."""
        logs = self._kernel_log_terms(x)
        shifted = np.exp(logs - logs.max())
        return shifted / shifted.sum()

    def kernel_pullback(self, x):
        """sum_k w_k(x) Sigma_k^{-1} (x - mu_k), the gradient of -log_kernel."""
        resp = self.kernel_responsibilities(x)
        if self._inv_diag is not None:
            return resp @ (self._inv_diag * (x[None, :] - self.means))
        return sum(w * f.solve(x - mu) for w, f, mu in zip(resp, self._factors, self.means))

    def sample(self, rng):
        """One draw: a categorical component pick followed by an MVN draw."""
        k = int(np.searchsorted(np.cumsum(self.weights), rng.uniform()))
        k = min(k, self.n_components - 1)
        return sample_mvn(rng, self.means[k], self.covariances[k])

    def sample_n(self, rng, n):
        return np.array([self.sample(rng) for _ in range(n)])

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        """JSON document with fields {structure, weights, means, covariances}."""
        if self.structure == "diagonal":
            covs = [c.diagonal().tolist() for c in self.covariances]
        elif self.structure == "spherical":
            covs = [float(c.diagonal()[0]) for c in self.covariances]
        elif self.structure == "tied":
            covs = self.covariances[0].dense().tolist()
        else:
            covs = [c.dense().tolist() for c in self.covariances]
        return {
            "structure": self.structure,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": covs,
        }

    @classmethod
    def from_json_dict(cls, doc):
        structure = doc["structure"]
        weights = np.asarray(doc["weights"], dtype=float)
        means = np.asarray(doc["means"], dtype=float)
        raw = doc["covariances"]
        dim = means.shape[1] if means.ndim == 2 else 1
        if structure == "diagonal":
            covs = [SpdMatrix.from_diagonal(d) for d in raw]
        elif structure == "spherical":
            covs = [SpdMatrix.spherical(dim, v) for v in raw]
        elif structure == "tied":
            shared = SpdMatrix.from_dense(raw)
            covs = [shared] * weights.size
        else:
            covs = [SpdMatrix.from_dense(m) for m in raw]
        return cls(weights, means, covs, structure=structure)


def free_parameter_count(structure, n_components, dim):
    """Number of free parameters, the k in AIC = 2k - 2 loglik."""
    base = (n_components - 1) + n_components * dim
    if structure == "diagonal":
        return base + n_components * dim
    if structure == "spherical":
        return base + n_components
    if structure == "tied":
        return base + dim * (dim + 1) // 2
    return base + n_components * dim * (dim + 1) // 2


@dataclass
class EmFit:
    """Result of one EM fit: the mixture plus convergence bookkeeping."""

    mixture: GaussianMixture
    log_likelihood: float
    loglik_trace: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = True


def _as_members(data):
    if isinstance(data, Ensemble):
        return data.members
    points = np.asarray(data, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    return points


def _quantile_centers(points, k):
    """Deterministic seeding at evenly spaced order statistics along the
    most-varying axis; strong on one-dimensional multimodal data."""
    axis = int(np.argmax(np.var(points, axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    picks = ((np.arange(k) + 0.5) / k * (points.shape[0] - 1)).astype(int)
    return points[order[picks]].copy()


def _kmeanspp_centers(points, k, rng):
    """k-means++ style seeding: spread initial centers over the data."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.uniform() * n)
    centers[0] = points[min(first, n - 1)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(closest))
        if total <= 0.0:
            centers[j] = points[int(rng.uniform() * n) % n]
        else:
            target = rng.uniform() * total
            idx = int(np.searchsorted(np.cumsum(closest), target))
            centers[j] = points[min(idx, n - 1)]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _data_floor(points):
    """Covariance floor lambda * trace(S)/dim with S the data covariance.

    Anchoring the floor to the overall data scatter keeps single components
    from collapsing onto a handful of near-identical points.
    """
    variances = np.var(points, axis=0)
    total = float(np.sum(variances))
    return COVARIANCE_FLOOR * max(total, np.finfo(float).tiny) / points.shape[1]


def _m_step(points, resp, structure, floor):
    """Means/covariances maximizing the expected complete-data likelihood."""
    n, dim = points.shape
    mass = resp.sum(axis=0)
    weights = mass / n
    means = (resp.T @ points) / mass[:, None]
    covs = []
    if structure == "tied":
        pooled = np.zeros((dim, dim))
        for k in range(means.shape[0]):
            dev = points - means[k]
            pooled += (resp[:, k : k + 1] * dev).T @ dev
        pooled /= n
        pooled += floor * np.eye(dim)
        shared = SpdMatrix.from_dense(pooled)
        covs = [shared] * means.shape[0]
        return weights, means, covs
    for k in range(means.shape[0]):
        dev = points - means[k]
        if structure in ("diagonal", "spherical"):
            var = (resp[:, k] @ (dev * dev)) / mass[k]
            if structure == "spherical":
                var = np.full(dim, float(np.mean(var)))
            var = var + floor
            covs.append(SpdMatrix.from_diagonal(var))
        else:
            cov = (resp[:, k : k + 1] * dev).T @ dev / mass[k]
            cov += floor * np.eye(dim)
            covs.append(SpdMatrix.from_dense(cov))
    return weights, means, covs


def _em_single(points, n_components, structure, rng, max_iter, rel_tol, seeding="kmeans++"):
    n, dim = points.shape
    if seeding == "quantile":
        centers = _quantile_centers(points, n_components)
    else:
        centers = _kmeanspp_centers(points, n_components, rng)
    # Hard assignment to the nearest seed gives the first responsibilities.
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    resp = np.zeros((n, n_components))
    resp[np.arange(n), np.argmin(d2, axis=1)] = 1.0

    repair_budget = 3
    k = 0
    while True:
        mass = resp.sum(axis=0)
        weak = np.nonzero(mass < 2.0)[0]
        if weak.size == 0:
            break
        if repair_budget == 0:
            raise DegenerateComponent(
                f"component {weak[0]} holds {mass[weak[0]]:.3f} effective points"
            )
        repair_budget -= 1
        # Reseat starved components on random data points and reassign.
        for j in weak:
            centers[j] = points[int(rng.uniform() * n) % n]
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        resp = np.zeros((n, n_components))
        resp[np.arange(n), np.argmin(d2, axis=1)] = 1.0
        k += 1

    floor = _data_floor(points)
    weights, means, covs = _m_step(points, resp, structure, floor)
    mixture = GaussianMixture(weights, means, covs, structure=structure)

    trace = []
    loglik = -np.inf
    converged = False
    n_iter = 0
    repair_budget = 3
    previous = mixture
    for n_iter in range(1, max_iter + 1):
        logr = mixture.joint_log_densities(points)
        point_ll = _logsumexp(logr, axis=1)
        new_loglik = float(np.sum(point_ll))
        if trace and new_loglik < trace[-1]:
            # The covariance floor perturbs the exact M-step; at the fixed
            # point that can show up as a tiny dip. Keep the better iterate.
            mixture = previous
            loglik = trace[-1]
            converged = True
            break
        trace.append(new_loglik)
        if len(trace) >= 2 and trace[-1] - trace[-2] < rel_tol * abs(trace[-1]):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
        resp = np.exp(logr - point_ll[:, None])
        mass = resp.sum(axis=0)
        weak = np.nonzero(mass < 2.0)[0]
        if weak.size:
            if repair_budget == 0:
                raise DegenerateComponent(
                    f"component {weak[0]} holds {mass[weak[0]]:.3f} effective points"
                )
            repair_budget -= 1
            for j in weak:
                # Reseat the component on a random point plus its neighbor so
                # it owns at least two effective points.
                pick = points[int(rng.uniform() * points.shape[0]) % points.shape[0]]
                resp[:, j] = 0.0
                order = np.argsort(np.sum((points - pick) ** 2, axis=1))
                for idx in order[:2]:
                    resp[idx] = 0.0
                    resp[idx, j] = 1.0
            resp /= resp.sum(axis=1, keepdims=True)
            # A reseed starts a fresh ascent segment.
            trace.clear()
        previous = mixture
        weights, means, covs = _m_step(points, resp, structure, floor)
        mixture = GaussianMixture(weights, means, covs, structure=structure)
    return EmFit(mixture, loglik, trace, n_iter, converged)


def em_fit(data, n_components, structure="full", rng=None, *, max_iter=500,
           rel_tol=1e-8, restarts=5):
    """Fit a mixture by expectation-maximization with random restarts.

    The data ordering is canonicalized (lexicographic sort) before seeding,
    so fits are invariant to permutations of the ensemble. The reported
    ``loglik_trace`` covers the final uninterrupted ascent (a degenerate
    component reseed starts a new segment) and is non-decreasing: an M-step
    that would lower the observed log-likelihood (possible only through the
    covariance floor, at round-off scale) is rejected in favor of the
    previous iterate. The best restart by final log-likelihood is returned;
    exhausting ``max_iter`` comes back with ``converged=False``.

    Raises DegenerateComponent when a component cannot keep at least two
    effective points even after reseeding attempts (in every restart).
    """
    points = _as_members(data)
    n, dim = points.shape
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if n < n_components:
        raise ValueError(f"need at least {n_components} points, got {n}")
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"unknown covariance structure {structure!r}")
    if rng is None:
        rng = RngStream(0)
    order = np.lexsort(points.T[::-1])
    points = points[order]

    best = None
    last_error = None
    n_attempts = max(1, restarts)
    for attempt in range(n_attempts):
        # The first attempt seeds deterministically at quantiles; the rest
        # use randomized k-means++ spreads.
        seeding = "quantile" if attempt == 0 and n_attempts > 1 else "kmeans++"
        try:
            fit = _em_single(
                points, n_components, structure, rng, max_iter, rel_tol, seeding=seeding
            )
        except DegenerateComponent as exc:
            last_error = exc
            continue
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    if best is None:
        raise last_error
    return best


@dataclass
class AicSelection:
    """Best fit across candidate component counts plus the scored table."""

    fit: EmFit
    n_components: int
    table: list  # (n_c, aic, log_likelihood) per successful candidate

    @property
    def mixture(self):
        return self.fit.mixture


def select_model_aic(data, candidates, structure="full", rng=None, **em_kwargs):
    """Fit each candidate component count and keep the AIC minimizer.

    AIC = 2k - 2 loglik with k the free-parameter count of the structure.
    Ties break toward the smaller component count. Candidates whose fits
    degenerate are skipped; if every candidate fails the last error
    propagates.
    """
    points = _as_members(data)
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidate range must be non-empty")
    if rng is None:
        rng = RngStream(0)
    dim = points.shape[1]
    best = None
    best_aic = np.inf
    best_nc = None
    table = []
    last_error = None
    for n_c in candidates:
        try:
            fit = em_fit(points, n_c, structure=structure, rng=rng, **em_kwargs)
        except (DegenerateComponent, ValueError) as exc:
            last_error = exc
            continue
        k = free_parameter_count(structure, n_c, dim)
        aic = 2.0 * k - 2.0 * fit.log_likelihood
        table.append((n_c, aic, fit.log_likelihood))
        if aic < best_aic:
            best, best_aic, best_nc = fit, aic, n_c
    if best is None:
        raise last_error if last_error is not None else RuntimeError("no candidates fit")
    return AicSelection(best, best_nc, table)
