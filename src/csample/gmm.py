"""Gaussian mixture models: density evaluation, sampling, EM fitting, AIC selection.

Mixtures are immutable once built and keep their covariances and Cholesky
factors in two stacked arrays (see GaussianMixture), so concurrent readers
(chain workers) never re-factorize. Dense storage also caches each factor's
inverse transpose, so whitening a state or a batch against a component is
one matrix product, with no triangular solve. This is the one home of
per-component mixture arithmetic: Mahalanobis distances, densities and the
posterior's prior kernel (log-sum-exp, responsibilities and pullback) all
come from the arrays cached here. The EM M-step writes those arrays
directly. Fitting canonicalizes the data ordering before seeding, which
makes the whole EM/AIC pipeline invariant to permutations of the input
ensemble. The caller seeds every EM restart, and the restarts run as tasks
on a worker pool (``_fit_restarts``).

An EM fit (``_em_single``) runs SQUAREM cycles (Varadhan & Roland, Scand.
J. Statist. 2008): two EM maps, an extrapolation along them on the
mixture's unconstrained coordinates (log weights, means, log variances or
log-Cholesky factors) that backtracks toward the plain point until it
builds and scores no lower, then one stabilizing map. Its iteration count
and cap count EM maps.

The per-step contract: the kernel methods (``log_kernel``,
``kernel_pullback``, ``log_kernel_and_pullback``) take one float (dim,)
state unchecked, as the posterior's per-step calls pass it; the density
methods check the dimension of what they are given. An E-step reduces its
(n, k) log densities over the short component axis only where the order of
the sum matters: the max is taken column by column, the sum keeps numpy's
row order, and the responsibility column sums are computed once and shared
by the starvation check and the M-step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateComponent, DimensionMismatch
from .linalg_rng import RngStream, cholesky_stack, inverse_transposes, symmetrized
from .pool import WorkerPool

WEIGHT_TOLERANCE = 1e-12

GMM_STRUCTURES = ("diagonal", "spherical", "tied", "full")

# Relative covariance floor added in every M-step: lambda * trace(S)/dim * I.
COVARIANCE_FLOOR = 1e-6

# A component whose responsibilities sum to fewer effective points starves.
MIN_EFFECTIVE_POINTS = 2.0

# Rounds of reseating starved components allowed at seeding, and again
# during the EM maps; a starvation after the last raises DegenerateComponent.
REPAIR_BUDGET = 3

# Step-length halvings a SQUAREM extrapolation may take before its cycle
# keeps the plain EM point.
SQUAREM_HALVINGS = 4

# Restarts whose log-likelihoods agree to this (relative) reached one optimum,
# and round-off alone orders them; the first of them is kept.
RESTART_TIE = 1e-10


def _logsumexp(a):
    """log sum_k exp(a[..., k]), over the last axis of a (k,) or (n, k) array.

    The max is taken column by column: a max is exact in any order, and
    numpy reduces a short last axis row by row, far more slowly. The sum
    keeps numpy's own order over that axis, which is pairwise for k >= 8.
    """
    amax = functools.reduce(np.maximum, a.T)[..., None]
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=-1, keepdims=True)) + amax
    return np.squeeze(out, axis=-1)


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

    ``covariances`` is one array: (k, dim) variances for the diagonal and
    spherical structures and for dim = 1, (k, dim, dim) matrices otherwise;
    tied broadcasts its one matrix. The factors are stored alike, and so, for
    dense storage, are their inverse transposes L_k^{-T}. Callers may also
    pass diagonal matrices for variances, or one SpdMatrix each.
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
        if (weights <= 0.0).any():
            raise ValueError("all mixture weights must be positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_TOLERANCE:
            raise ValueError("mixture weights must sum to 1")
        covs = _stacked_covariances(covariances, weights.size, means.shape[1], structure)
        if structure == "tied":
            if np.any(covs != covs[:1]):
                raise ValueError("tied structure requires a single shared covariance")
            covs = covs[:1]
        factors = cholesky_stack(covs)
        pivots = factors if covs.ndim == 2 else np.diagonal(factors, axis1=1, axis2=2)
        logdets = 2.0 * np.sum(np.log(pivots), axis=1)

        def per_component(a):
            # Read-only, one row per component: tied shares its one row by view.
            if a.shape[0] == weights.size:
                a.flags.writeable = False
                return a
            return np.broadcast_to(a, weights.shape + a.shape[1:])

        self.weights = weights
        self.means = means
        self.covariances, self._factors, self._logdets = map(per_component,
                                                             (covs, factors, logdets))
        self.structure = structure
        # Variance storage: the precisions 1 / sigma^2, computed once.
        self._precisions = 1.0 / self.covariances if covs.ndim == 2 else None
        # Dense storage: the whitening matrices L_k^{-T}, inverted once.
        self._inv_t = None if covs.ndim == 2 else per_component(inverse_transposes(factors))
        self._log_weights = np.log(weights)
        # Per-component terms of the kernel: log tau_k - 0.5 log|Sigma_k|.
        self._kernel_consts = self._log_weights - 0.5 * self._logdets

    def __reduce__(self):
        # Chain workers get a mixture rebuilt from its parameters: pickled
        # factor and inverse stacks could arrive in another memory order, and
        # the products would then take another BLAS path and round differently.
        return GaussianMixture, (self.weights, self.means, self.covariances, self.structure)

    @property
    def n_components(self):
        return self.weights.size

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def variances(self):
        """The covariance diagonals, (k, dim)."""
        if self.covariances.ndim == 2:
            return self.covariances
        return np.diagonal(self.covariances, axis1=1, axis2=2)

    def _mahalanobis_parts(self, x):
        """mahalanobis_sq of x, and the deviations it came from: x - mu_k
        (..., k, dim) for variance storage; for dense storage the whitened
        (x - mu_k) @ L_k^{-T}, that is L_k^{-1} (x - mu_k) laid out as the
        state, one (dim,) or (n, dim) array per component, each made by one
        matrix product with the cached inverse."""
        if self._precisions is not None:
            dev = (x if x.ndim == 1 else x[..., None, :]) - self.means
            return np.einsum("...kd,kd,...kd->...k", dev, self._precisions, dev), dev
        whitened = [(x - mu) @ inv_t for mu, inv_t in zip(self.means, self._inv_t)]
        # Component-major, so each component's distances fill one contiguous row.
        maha = np.empty((self.n_components,) + x.shape[:-1])
        for k, w in enumerate(whitened):
            maha[k] = w.dot(w) if w.ndim == 1 else np.einsum("ij,ij->i", w, w)
        return maha.T, whitened

    def mahalanobis_sq(self, x):
        """(x - mu_k)^T Sigma_k^{-1} (x - mu_k) for every component k.

        ``x`` is one float state (dim,) or a batch (n, dim); the result is
        (n_c,) or (n, n_c) accordingly.
        """
        return self._mahalanobis_parts(x)[0]

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
        """Log mixture density, stabilized with log-sum-exp: a float for one
        state (dim,), an (n,) array for a batch (n, dim)."""
        out = _logsumexp(self.joint_log_densities(x))
        return float(out) if out.ndim == 0 else out

    def responsibilities(self, x):
        """Posterior component probabilities of x under the mixture."""
        logr = self.joint_log_densities(x)
        return np.exp(logr - _logsumexp(logr)[..., None])

    # -- the kernel of one float state x (dim,) --------------------------
    # sum_k tau_k |Sigma_k|^{-1/2} exp(-0.5 maha_k(x)): the density without
    # its (2 pi)^{-dim/2} factor, which is all a posterior potential needs.

    def _kernel_terms(self, x):
        """The kernel's terms at x over the largest, their sum, the largest
        log term, and the deviations of the Mahalanobis step."""
        maha, dev = self._mahalanobis_parts(x)
        logs = self._kernel_consts - 0.5 * maha
        # Exact in any order; Python's max over k floats beats numpy's.
        peak = max(logs.tolist())
        terms = np.exp(logs - peak)
        return terms, terms.sum(), peak, dev

    def _pullback(self, resp, dev):
        if self._precisions is not None:
            return resp.dot(self._precisions * dev)
        # Sigma_k^{-1} (x - mu_k) = L_k^{-T} times the whitened deviation.
        return sum(r * (inv_t @ w) for r, inv_t, w in zip(resp, self._inv_t, dev))

    def log_kernel(self, x):
        """Log of the mixture kernel at x, by log-sum-exp."""
        _, total, peak, _ = self._kernel_terms(x)
        return peak + np.log(total)

    def kernel_pullback(self, x):
        """sum_k w_k(x) Sigma_k^{-1} (x - mu_k), the gradient of -log_kernel."""
        terms, total, _, dev = self._kernel_terms(x)
        return self._pullback(terms / total, dev)

    def log_kernel_and_pullback(self, x):
        """``log_kernel(x)`` and ``kernel_pullback(x)`` from one Mahalanobis
        step, each bit-equal to its own call."""
        terms, total, peak, dev = self._kernel_terms(x)
        return peak + np.log(total), self._pullback(terms / total, dev)

    def sample(self, rng):
        """One draw: a categorical component pick followed by an MVN draw."""
        k = int(np.searchsorted(np.cumsum(self.weights), rng.uniform()))
        k = min(k, self.n_components - 1)
        z = rng.standard_normal(self.dim)
        if self.covariances.ndim == 2:
            return self.means[k] + self._factors[k] * z
        return self.means[k] + self._factors[k] @ z

    def sample_n(self, rng, n):
        return np.array([self.sample(rng) for _ in range(n)])

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        """JSON document with fields {structure, weights, means, covariances}."""
        covs = self.covariances
        if self.structure == "diagonal":
            covs = covs.tolist()
        elif self.structure == "spherical":
            covs = covs[:, 0].tolist()
        else:
            # Only order-1 matrices of these structures are stored as variances.
            dense = covs.reshape(self.n_components, self.dim, self.dim)
            covs = dense[0].tolist() if self.structure == "tied" else dense.tolist()
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
        covs = np.asarray(doc["covariances"], dtype=float)
        if structure == "spherical":
            covs = np.repeat(covs[:, None], np.atleast_2d(means).shape[1], axis=1)
        elif structure == "tied":
            covs = np.broadcast_to(covs, weights.shape + covs.shape)
        return cls(weights, means, covs, structure=structure)


def _stacked_covariances(covariances, n_components, dim, structure):
    """The covariances in GaussianMixture's storage, a fresh array."""
    if isinstance(covariances, np.ndarray):
        covs = np.array(covariances, dtype=float)
    else:
        covs = np.array([c.dense() for c in covariances])
    diagonal = structure in ("diagonal", "spherical") or dim == 1
    if diagonal and covs.shape == (n_components, dim, dim):
        variances = np.diagonal(covs, axis1=1, axis2=2).copy()
        if np.any(covs != variances[..., None] * np.eye(dim)):
            raise ValueError(f"{structure} covariances must be diagonal")
        covs = variances
    want = (n_components, dim) if diagonal else (n_components, dim, dim)
    if covs.shape != want:
        raise DimensionMismatch(f"covariances of shape {covs.shape}, expected {want}")
    return covs if diagonal else symmetrized(covs)


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
    """Result of one EM fit: the mixture plus convergence bookkeeping.
    ``loglik_trace`` holds the log-likelihoods of the points the fit kept
    since any reseed, the kept extrapolations among them, non-decreasing:
    a map that would lower it (only the covariance floor can, at round-off
    scale) is rejected for the previous point. ``n_iter`` counts EM maps."""

    mixture: GaussianMixture
    log_likelihood: float
    loglik_trace: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = True


def _sorted_members(data):
    """The data as (n, dim) points in lexicographic row order, which makes
    every fit invariant to permutations of the ensemble."""
    points = data.members if isinstance(data, Ensemble) else np.asarray(data, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    return points[np.lexsort(points.T[::-1])]


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


def _m_step(points, resp, mass, structure, floor):
    """Means/covariances maximizing the expected complete-data likelihood,
    given the responsibilities and their column sums ``mass``, the
    covariances stacked as GaussianMixture stores them: (k, dim) variances
    for the diagonal and spherical structures and for dim = 1, else
    (k, dim, dim) matrices."""
    n, dim = points.shape
    weights = mass / n
    means = (resp.T @ points) / mass[:, None]
    n_c = means.shape[0]
    if structure == "tied":
        pooled = np.zeros((dim, dim))
        for k in range(n_c):
            dev = points - means[k]
            pooled += (resp[:, k : k + 1] * dev).T @ dev
        pooled /= n
        pooled += floor * np.eye(dim)
        return weights, means, np.broadcast_to(pooled, (n_c, dim, dim))
    diagonal = structure in ("diagonal", "spherical")
    covs = np.empty((n_c, dim) if diagonal or dim == 1 else (n_c, dim, dim))
    for k in range(n_c):
        dev = points - means[k]
        if diagonal:
            var = (resp[:, k] @ (dev * dev)) / mass[k]
            if structure == "spherical":
                var = np.full(dim, float(np.mean(var)))
            covs[k] = var + floor
        else:
            cov = (resp[:, k : k + 1] * dev).T @ dev / mass[k]
            covs[k] = cov[0] + floor if dim == 1 else cov + floor * np.eye(dim)
    return weights, means, covs


def _nearest_center_assignment(points, centers):
    """Hard responsibilities: each point wholly to its nearest center."""
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    resp = np.zeros((points.shape[0], centers.shape[0]))
    resp[np.arange(points.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return resp


def _starved_components(mass, repairs_left):
    """Components whose responsibility column sum ``mass`` is below
    MIN_EFFECTIVE_POINTS; raises DegenerateComponent if there are any and no
    repair is left."""
    weak = np.nonzero(mass < MIN_EFFECTIVE_POINTS)[0]
    if weak.size and repairs_left == 0:
        k = weak[0]
        raise DegenerateComponent(f"component {k} holds {mass[k]:.3f} effective points")
    return weak


def _seed_centers(points, n_components, rng, seeding):
    """The initial centers of one fit, drawn from ``rng``: quantile or
    k-means++ centers, and any component that starts with fewer than two
    points reseated on a random data point. Raises DegenerateComponent when
    REPAIR_BUDGET reseeding rounds leave a component starved."""
    n = points.shape[0]
    if seeding == "quantile":
        centers = _quantile_centers(points, n_components)
    else:
        centers = _kmeanspp_centers(points, n_components, rng)
    # Hard assignment to the nearest seed gives the first responsibilities.
    resp = _nearest_center_assignment(points, centers)
    repair_budget = REPAIR_BUDGET
    while (weak := _starved_components(resp.sum(axis=0), repair_budget)).size:
        repair_budget -= 1
        # Reseat starved components on random data points and reassign.
        for j in weak:
            centers[j] = points[int(rng.uniform() * n) % n]
        resp = _nearest_center_assignment(points, centers)
    return centers


def _e_step(mixture, points):
    """The points' log-likelihood under the mixture and their (n, k)
    responsibilities."""
    logr = mixture.joint_log_densities(points)
    point_ll = _logsumexp(logr)
    return float(np.sum(point_ll)), np.exp(logr - point_ll[:, None])


def _to_theta(mixture):
    """The mixture's free parameters as one flat vector of unconstrained
    coordinates: log weights, means, then log variances (variance storage;
    one per component for spherical) or Cholesky factors with log diagonals
    (dense storage). Tied contributes its one covariance."""
    shared = 1 if mixture.structure == "tied" else mixture.n_components
    if mixture._precisions is not None:
        columns = 1 if mixture.structure == "spherical" else mixture.dim
        scale = np.log(mixture.covariances[:shared, :columns])
    else:
        scale = mixture._factors[:shared].copy()
        i = np.arange(mixture.dim)
        scale[:, i, i] = np.log(scale[:, i, i])
    return np.concatenate([mixture._log_weights, mixture.means.ravel(), scale.ravel()])


def _from_theta(theta, like):
    """The mixture at coordinates ``theta`` (see ``_to_theta``), shaped and
    structured like the mixture ``like``. Raises ValueError when it does not
    build: a non-finite coordinate, a covariance that does not factor
    (NotPositiveDefinite) or a weight that underflows to zero."""
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite mixture coordinates")
    n_c, dim = like.n_components, like.dim
    log_weights, means, scale = np.split(theta, [n_c, n_c + n_c * dim])
    weights = np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    # An overflowing variance or factor is left to the factorization to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        if like._precisions is not None:
            columns = 1 if like.structure == "spherical" else dim
            covs = np.broadcast_to(np.exp(scale).reshape(-1, columns), (n_c, dim))
        else:
            lower = scale.reshape(-1, dim, dim).copy()
            i = np.arange(dim)
            lower[:, i, i] = np.exp(lower[:, i, i])
            covs = np.broadcast_to(lower @ lower.swapaxes(1, 2), (n_c, dim, dim))
        return GaussianMixture(weights, means.reshape(n_c, dim), covs, structure=like.structure)


def _squarem_point(points, cycle, loglik, resp):
    """The point one SQUAREM cycle keeps (Varadhan & Roland, Scand. J.
    Statist. 2008): from EM maps theta0 -> theta1 -> theta2 (``cycle``, the
    last of log-likelihood ``loglik`` and responsibilities ``resp``), with
    r = theta1 - theta0, v = theta2 - theta1 - r and the step length
    alpha = min(-1, -|r|/|v|), it tries theta0 - 2 alpha r + alpha^2 v. A
    point that does not build, scores below theta2 or starves a component is
    retried with alpha <- (alpha - 1)/2, which moves it toward theta2
    (alpha = -1), up to SQUAREM_HALVINGS times; theta2 is kept when none
    passes. So only a plain EM map starves a component, and only there does
    the fit reseed it. Returns the kept mixture, its log-likelihood and its
    responsibilities."""
    theta0, theta1, theta2 = map(_to_theta, cycle)
    r = theta1 - theta0
    v = theta2 - theta1 - r
    norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
    if not norm_r > norm_v > 0.0:  # alpha = -1: the extrapolation is theta2
        return cycle[2], loglik, resp
    alpha = -norm_r / norm_v
    for _ in range(SQUAREM_HALVINGS + 1):
        try:
            trial = _from_theta(theta0 - 2.0 * alpha * r + alpha * alpha * v, cycle[2])
        except ValueError:  # it does not build
            pass
        else:
            trial_ll, trial_resp = _e_step(trial, points)
            if trial_ll >= loglik and trial_resp.sum(axis=0).min() >= MIN_EFFECTIVE_POINTS:
                return trial, trial_ll, trial_resp
        alpha = 0.5 * (alpha - 1.0)
    return cycle[2], loglik, resp


def _em_single(points, centers, structure, rng, max_iter, rel_tol):
    """One EM fit from seeded ``centers``, whose nearest-center assignment
    gives the first responsibilities, accelerated by SQUAREM cycles.

    Each cycle makes two EM maps (E-step then M-step) theta0 -> theta1 ->
    theta2, keeps the extrapolated point ``_squarem_point`` returns, and
    makes one stabilizing map from it, whose point starts the next cycle.
    ``n_iter`` and ``max_iter`` count maps, the first M-step from the seeded
    assignment included. The fit converges when a map raises the
    log-likelihood of the point it maps by less than ``rel_tol`` (relative),
    or when a map lowers it, which only the covariance floor can do, at
    round-off scale near the fixed point; the better point is then kept.
    A component that starves mid-fit is reseated by draws from ``rng``, the
    fit's own stream; the reseated map ends its cycle, with no extrapolation
    across it, and starts a fresh ascent segment of ``loglik_trace``."""
    floor = _data_floor(points)
    resp = _nearest_center_assignment(points, centers)
    mixture = GaussianMixture(*_m_step(points, resp, resp.sum(axis=0), structure, floor),
                              structure=structure)
    loglik, resp = _e_step(mixture, points)
    trace, cycle = [loglik], [mixture]
    n_iter, repair_budget, converged = 1, REPAIR_BUDGET, False
    while n_iter < max_iter:
        mass = resp.sum(axis=0)
        weak = _starved_components(mass, repair_budget)
        if weak.size:
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
            mass = resp.sum(axis=0)
            trace.clear()
            cycle.clear()
        mapped = GaussianMixture(*_m_step(points, resp, mass, structure, floor),
                                 structure=structure)
        n_iter += 1
        mapped_ll, mapped_resp = _e_step(mapped, points)
        if trace and mapped_ll < trace[-1]:
            converged = True
            break
        mixture, loglik, resp = mapped, mapped_ll, mapped_resp
        trace.append(loglik)
        if len(trace) >= 2 and trace[-1] - trace[-2] < rel_tol * abs(trace[-1]):
            converged = True
            break
        cycle.append(mixture)
        if len(cycle) == 3:
            mixture, loglik, resp = _squarem_point(points, cycle, loglik, resp)
            if mixture is not cycle[2]:
                trace.append(loglik)
            cycle.clear()
    return EmFit(mixture, loglik, trace, n_iter, converged)


# A pool task; it looks up _em_single when it runs, so a patched one runs in workers too.
def _fit_task(points, centers, structure, rng, max_iter, rel_tol):
    return _em_single(points, centers, structure, rng, max_iter, rel_tol)


def _check_fittable(n_points, n_components, structure):
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if n_points < n_components:
        raise ValueError(f"need at least {n_components} points, got {n_points}")
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"unknown covariance structure {structure!r}")


def _fit_restarts(points, candidates, structure, rng, pool, *, max_iter=1000, rel_tol=1e-8,
                  restarts=5):
    """Every restart of every candidate component count, run on ``pool``.

    Every fit is seeded here, in the calling process, from ``rng`` in order:
    candidates ascending, then restarts ascending. Of several restarts the first seeds
    at quantiles, the rest by k-means++. Each fit then runs as a task,
    queued by its n_c (largest first; the cost only orders the queue), and a
    component that starves mid-fit is reseeded from the fit's own stream,
    ``rng.child(n_c, restart)``. So no fit moves another's seeding, and the
    outcomes are the same on any pool.

    Returns, per candidate, each restart's outcome in order (an EmFit or the
    exception that ended it; a candidate the data cannot fit holds only its
    ValueError), and the summed seconds of the fits.
    """
    n_attempts = max(1, restarts)
    outcomes, tasks, slots = {}, [], []
    for n_c in candidates:
        try:
            _check_fittable(points.shape[0], n_c, structure)
        except ValueError as exc:
            outcomes[n_c] = [exc]
            continue
        outcomes[n_c] = [None] * n_attempts
        for restart in range(n_attempts):
            seeding = "quantile" if restart == 0 and n_attempts > 1 else "kmeans++"
            try:
                centers = _seed_centers(points, n_c, rng, seeding)
            except DegenerateComponent as exc:
                outcomes[n_c][restart] = exc
                continue
            tasks.append((centers, structure, rng.child(n_c, restart), max_iter, rel_tol))
            slots.append((n_c, restart))
    if pool is None:
        pool = WorkerPool(1)  # runs the tasks in this process; nothing to close
    results = pool.run(_fit_task, points, tasks, [len(task[0]) for task in tasks])
    for (n_c, restart), (outcome, _) in zip(slots, results):
        outcomes[n_c][restart] = outcome
    return outcomes, sum(seconds for _, seconds in results)


def _best_restart(outcomes):
    """The kept fit of one candidate: the first restart whose log-likelihood
    is within RESTART_TIE (relative) of the highest. Restarts that ended in
    DegenerateComponent are skipped; any other exception is raised, as is
    the last DegenerateComponent when no restart fitted."""
    fits, last_error = [], None
    for outcome in outcomes:
        if isinstance(outcome, DegenerateComponent):
            last_error = outcome
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            fits.append(outcome)
    if not fits:
        raise last_error
    top = max(fit.log_likelihood for fit in fits)
    return next(fit for fit in fits if fit.log_likelihood >= top - RESTART_TIE * abs(top))


@dataclass
class AicSelection:
    """Best fit across candidate component counts plus the scored table."""

    fit: EmFit
    n_components: int
    # One row per candidate that fitted: {n_c, aic, log_likelihood, n_iter,
    # converged}, the last two from the kept restart.
    table: list
    work_s: float = 0.0  # seconds of every fit, each timed where it ran
    # Totals over every restart of every candidate that returned a fit, kept
    # or not: the fits, their EM maps, and those stopped at max_iter.
    fits: int = 0
    iterations: int = 0
    unconverged: int = 0

    @property
    def mixture(self):
        return self.fit.mixture

    @property
    def em_totals(self):
        return {"fits": self.fits, "iterations": self.iterations,
                "unconverged": self.unconverged}


def select_model_aic(data, candidates, structure="full", rng=None, pool=None, **em_kwargs):
    """Fit each candidate component count by EM and keep the AIC minimizer;
    ``select_model_aic(data, [k], ...).fit`` is the best fit of k components.

    AIC = 2k - 2 loglik with k the free-parameter count of the structure.
    Ties break toward the smaller component count. Candidates whose fits
    degenerate are skipped; if every candidate fails the last error
    propagates.

    Every restart of every candidate is seeded from ``rng`` in order
    (candidates ascending, then restarts), and the fits run as tasks on
    ``pool``, largest n_c first to the next free worker, in this process
    when None. A mid-fit reseed draws from the fit's own stream
    ``rng.child(n_c, restart)``, so the selection is the same for any pool.
    A restart that ends in DegenerateComponent is skipped; any other
    ValueError skips its candidate.
    """
    points = _sorted_members(data)
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidate range must be non-empty")
    if rng is None:
        rng = RngStream(0)
    outcomes, work_s = _fit_restarts(points, candidates, structure, rng, pool, **em_kwargs)
    dim = points.shape[1]
    best = last_error = None
    table = []
    for n_c in candidates:
        try:
            fit = _best_restart(outcomes[n_c])
        except (DegenerateComponent, ValueError) as exc:
            last_error = exc
            continue
        k = free_parameter_count(structure, n_c, dim)
        aic = 2.0 * k - 2.0 * fit.log_likelihood
        table.append({"n_c": n_c, "aic": aic, "log_likelihood": fit.log_likelihood,
                      "n_iter": fit.n_iter, "converged": bool(fit.converged)})
        if aic < (np.inf if best is None else best["aic"]):
            best, best_fit = table[-1], fit
    if best is None:
        raise last_error if last_error is not None else RuntimeError("no candidates fit")
    fits = [o for restarts in outcomes.values() for o in restarts if isinstance(o, EmFit)]
    return AicSelection(best_fit, best["n_c"], table, work_s, fits=len(fits),
                        iterations=sum(f.n_iter for f in fits),
                        unconverged=sum(not f.converged for f in fits))
