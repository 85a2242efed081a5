"""Gaussian mixture models: density evaluation, sampling, EM fitting, AIC selection.

Mixtures are immutable once built and keep their covariances and Cholesky
factors in two stacked arrays (see GaussianMixture), so concurrent readers
(chain workers) never re-factorize. This is the one home of per-component
mixture arithmetic: Mahalanobis distances, densities and the posterior's
prior kernel (log-sum-exp, responsibilities and pullback) all come from the
arrays cached here. The EM M-step writes those arrays directly. Fitting
canonicalizes the data ordering before seeding, which makes the whole
EM/AIC pipeline invariant to permutations of the input ensemble. The caller
seeds every EM restart, and the restarts run as tasks on a worker pool
(``_fit_restarts``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateComponent, DimensionMismatch
from .linalg_rng import RngStream, cholesky_stack, symmetrized
from .pool import WorkerPool

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

    ``covariances`` is one array: (k, dim) variances for the diagonal and
    spherical structures and for dim = 1, (k, dim, dim) matrices otherwise;
    tied broadcasts its one matrix. The factors are stored alike. Callers may
    also pass diagonal matrices for variances, or one SpdMatrix each.
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
        covs = _stacked_covariances(covariances, weights.size, means.shape[1], structure)
        if structure == "tied":
            if np.any(covs != covs[:1]):
                raise ValueError("tied structure requires a single shared covariance")
            covs = covs[:1]
        factors = cholesky_stack(covs)
        pivots = factors if covs.ndim == 2 else np.diagonal(factors, axis1=1, axis2=2)

        self.weights = weights
        self.means = means
        self.covariances = np.broadcast_to(covs, weights.shape + covs.shape[1:])
        self.structure = structure
        self._factors = np.broadcast_to(factors, self.covariances.shape)
        # Variance storage: the precisions 1 / sigma^2, computed once.
        self._precisions = 1.0 / self.covariances if covs.ndim == 2 else None
        self._log_weights = np.log(weights)
        self._logdets = np.broadcast_to(2.0 * np.sum(np.log(pivots), axis=1), weights.shape)
        # Per-component terms of the kernel: log tau_k - 0.5 log|Sigma_k|.
        self._kernel_consts = self._log_weights - 0.5 * self._logdets

    def __reduce__(self):
        # Chain workers get a mixture rebuilt from its parameters: a pickled
        # factor stack would arrive in C order, and the triangular solves
        # would then take another LAPACK path and round differently.
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
        (..., k, dim) for variance storage, for dense storage the whitened
        L_k^{-1} (x - mu_k), one (dim,) or (dim, n) array per component."""
        if self.covariances.ndim == 2:
            dev = x[..., None, :] - self.means
            return np.einsum("...kd,kd,...kd->...k", dev, self._precisions, dev), dev
        whitened = [
            solve_triangular(lower, (x - mu).T, lower=True)
            for lower, mu in zip(self._factors, self.means)
        ]
        maha = np.empty(x.shape[:-1] + (self.n_components,))
        for k, w in enumerate(whitened):
            maha[..., k] = w @ w if w.ndim == 1 else np.einsum("i...,i...->...", w, w)
        return maha, whitened

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
        out = _logsumexp(self.joint_log_densities(x), axis=-1)
        return float(out) if out.ndim == 0 else out

    def responsibilities(self, x):
        """Posterior component probabilities of x under the mixture."""
        logr = self.joint_log_densities(x)
        return np.exp(logr - _logsumexp(logr, axis=-1)[..., None])

    # -- the kernel of one float state x (dim,) --------------------------
    # sum_k tau_k |Sigma_k|^{-1/2} exp(-0.5 maha_k(x)): the density without
    # its (2 pi)^{-dim/2} factor, which is all a posterior potential needs.

    def _kernel_terms(self, x):
        """The kernel's terms at x over the largest, their sum, the largest
        log term, and the deviations of the Mahalanobis step."""
        maha, dev = self._mahalanobis_parts(x)
        logs = self._kernel_consts - 0.5 * maha
        peak = logs.max()
        terms = np.exp(logs - peak)
        return terms, terms.sum(), peak, dev

    def _pullback(self, resp, dev):
        if self.covariances.ndim == 2:
            return resp @ (self._precisions * dev)
        # Dense storage back-substitutes the whitened deviations.
        return sum(
            w * solve_triangular(lower, v, lower=True, trans="T")
            for w, lower, v in zip(resp, self._factors, dev)
        )

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
    """Result of one EM fit: the mixture plus convergence bookkeeping."""

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


def _m_step(points, resp, structure, floor):
    """Means/covariances maximizing the expected complete-data likelihood,
    the covariances stacked as (k, dim) variances or (k, dim, dim) matrices."""
    n, dim = points.shape
    mass = resp.sum(axis=0)
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
    covs = np.empty((n_c, dim) if diagonal else (n_c, dim, dim))
    for k in range(n_c):
        dev = points - means[k]
        if diagonal:
            var = (resp[:, k] @ (dev * dev)) / mass[k]
            if structure == "spherical":
                var = np.full(dim, float(np.mean(var)))
            covs[k] = var + floor
        else:
            covs[k] = (resp[:, k : k + 1] * dev).T @ dev / mass[k]
            covs[k] += floor * np.eye(dim)
    return weights, means, covs


def _nearest_center_assignment(points, centers):
    """Hard responsibilities: each point wholly to its nearest center."""
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    resp = np.zeros((points.shape[0], centers.shape[0]))
    resp[np.arange(points.shape[0]), np.argmin(d2, axis=1)] = 1.0
    return resp


def _starved_components(resp, repairs_left):
    """Components holding fewer than two effective points; raises
    DegenerateComponent if there are any and no repair is left."""
    mass = resp.sum(axis=0)
    weak = np.nonzero(mass < 2.0)[0]
    if weak.size and repairs_left == 0:
        k = weak[0]
        raise DegenerateComponent(f"component {k} holds {mass[k]:.3f} effective points")
    return weak


def _seed_centers(points, n_components, rng, seeding):
    """The initial centers of one fit, drawn from ``rng``: quantile or
    k-means++ centers, and any component that starts with fewer than two
    points reseated on a random data point. Raises DegenerateComponent when
    three reseeding rounds leave a component starved."""
    n = points.shape[0]
    if seeding == "quantile":
        centers = _quantile_centers(points, n_components)
    else:
        centers = _kmeanspp_centers(points, n_components, rng)
    # Hard assignment to the nearest seed gives the first responsibilities.
    resp = _nearest_center_assignment(points, centers)
    repair_budget = 3
    while (weak := _starved_components(resp, repair_budget)).size:
        repair_budget -= 1
        # Reseat starved components on random data points and reassign.
        for j in weak:
            centers[j] = points[int(rng.uniform() * n) % n]
        resp = _nearest_center_assignment(points, centers)
    return centers


def _em_single(points, centers, structure, rng, max_iter, rel_tol):
    """One EM fit from seeded ``centers``, whose nearest-center assignment
    gives the first responsibilities. A component that starves mid-fit is
    reseated by draws from ``rng``, the fit's own stream."""
    resp = _nearest_center_assignment(points, centers)
    floor = _data_floor(points)
    weights, means, covs = _m_step(points, resp, structure, floor)
    mixture = GaussianMixture(weights, means, covs, structure=structure)

    trace = []
    loglik = -np.inf
    converged = False
    n_iter = 0
    repair_budget = 3
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
        weak = _starved_components(resp, repair_budget)
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
            # A reseed starts a fresh ascent segment.
            trace.clear()
        previous = mixture
        weights, means, covs = _m_step(points, resp, structure, floor)
        mixture = GaussianMixture(weights, means, covs, structure=structure)
    return EmFit(mixture, loglik, trace, n_iter, converged)


def _fit_task(points, centers, structure, rng, max_iter, rel_tol):
    """One fit as a pool task, timed where it runs: the EmFit, or the
    exception that ended the fit, and the fit's seconds."""
    start = time.perf_counter()
    try:
        outcome = _em_single(points, centers, structure, rng, max_iter, rel_tol)
    except Exception as exc:  # a failed fit must never abort its siblings
        outcome = exc
    return outcome, time.perf_counter() - start


def _check_fittable(n_points, n_components, structure):
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if n_points < n_components:
        raise ValueError(f"need at least {n_components} points, got {n_points}")
    if structure not in GMM_STRUCTURES:
        raise ValueError(f"unknown covariance structure {structure!r}")


def _fit_restarts(points, candidates, structure, rng, pool, *, max_iter=500, rel_tol=1e-8,
                  restarts=5):
    """Every restart of every candidate component count, run on ``pool``.

    Every fit is seeded here, in the calling process, from ``rng`` in order:
    candidates ascending, then restarts ascending. Of several restarts the first seeds
    at quantiles, the rest by k-means++. Each fit then runs as a task of
    cost n_c, and a component that starves mid-fit is reseated from the
    fit's own stream, ``rng.child(n_c, restart)``. So no fit moves another's
    seeding, and the outcomes are the same on any pool.

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
    """The kept fit of one candidate: the first restart of the highest
    log-likelihood. Restarts that ended in DegenerateComponent are skipped;
    any other exception is raised, as is the last DegenerateComponent when
    no restart fitted."""
    best = last_error = None
    for outcome in outcomes:
        if isinstance(outcome, DegenerateComponent):
            last_error = outcome
        elif isinstance(outcome, Exception):
            raise outcome
        elif best is None or outcome.log_likelihood > best.log_likelihood:
            best = outcome
    if best is None:
        raise last_error
    return best


def em_fit(data, n_components, structure="full", rng=None, *, max_iter=500,
           rel_tol=1e-8, restarts=5):
    """Fit a mixture by expectation-maximization with random restarts.

    The data ordering is canonicalized (lexicographic sort) before seeding,
    so fits are invariant to permutations of the ensemble. The restarts are
    seeded from ``rng`` by the rule of ``select_model_aic`` and run in this
    process. The reported ``loglik_trace`` covers
    the final uninterrupted ascent (a degenerate component reseed starts a
    new segment) and is non-decreasing: an M-step that would lower the
    observed log-likelihood (possible only through the covariance floor, at
    round-off scale) is rejected in favor of the previous iterate. The best
    restart by final log-likelihood is returned; exhausting ``max_iter``
    comes back with ``converged=False``.

    Raises DegenerateComponent when a component cannot keep at least two
    effective points even after reseeding attempts (in every restart).
    """
    points = _sorted_members(data)
    if rng is None:
        rng = RngStream(0)
    outcomes, _ = _fit_restarts(points, [n_components], structure, rng, None,
                                max_iter=max_iter, rel_tol=rel_tol, restarts=restarts)
    return _best_restart(outcomes[n_components])


@dataclass
class AicSelection:
    """Best fit across candidate component counts plus the scored table."""

    fit: EmFit
    n_components: int
    # One row per candidate that fitted: {n_c, aic, log_likelihood, n_iter,
    # converged}, the last two from the kept restart.
    table: list
    work_s: float = 0.0  # seconds of every fit, each timed where it ran

    @property
    def mixture(self):
        return self.fit.mixture


def select_model_aic(data, candidates, structure="full", rng=None, pool=None, **em_kwargs):
    """Fit each candidate component count and keep the AIC minimizer.

    AIC = 2k - 2 loglik with k the free-parameter count of the structure.
    Ties break toward the smaller component count. Candidates whose fits
    degenerate are skipped; if every candidate fails the last error
    propagates.

    Every restart of every candidate is seeded from ``rng`` in order
    (candidates ascending, then restarts), and the fits run as tasks on
    ``pool``, in this process when None. A mid-fit reseed draws from the
    fit's own stream ``rng.child(n_c, restart)``, so the selection is the
    same for any pool. A restart that ends in DegenerateComponent is
    skipped; any other ValueError skips its candidate.
    """
    points = _sorted_members(data)
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidate range must be non-empty")
    if rng is None:
        rng = RngStream(0)
    outcomes, work_s = _fit_restarts(points, candidates, structure, rng, pool, **em_kwargs)
    dim = points.shape[1]
    best = None
    table = []
    last_error = None
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
    return AicSelection(best_fit, best["n_c"], table, work_s)
