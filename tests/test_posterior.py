import numpy as np
import pytest

from conftest import FIT_1D

from csample.errors import DimensionMismatch
from csample.experiments import mixture_bin_masses
from csample.forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    MatrixOperator,
    SaturationWrapper,
)
from csample.gmm import GaussianMixture
from csample.linalg_rng import SpdMatrix
from csample.posterior import PosteriorModel, linear_mixture_posterior


@pytest.fixture
def bench_model(fit_mixture_1d):
    return PosteriorModel(
        fit_mixture_1d, IdentityOperator(1), [-1.0], SpdMatrix.from_diagonal([2.2])
    )


def naive_neg_log_posterior_1d(model, x):
    """Direct summation oracle for J(x), no log-sum-exp."""
    r = x - model.y[0]
    misfit = 0.5 * r * r / model.obs_cov.diagonal()[0]
    total = 0.0
    for tau, mu, var in zip(
        model.prior.weights, model.prior.means[:, 0], model.prior.covariances[:, 0]
    ):
        total += tau / np.sqrt(var) * np.exp(-0.5 * (x - mu) ** 2 / var)
    return misfit - np.log(total)


def model_minus_posterior(model, posterior, points):
    """-J(x) - log p_post(x) at each point: constant iff p_post is exp(-J)
    normalised."""
    potentials = np.array([model.neg_log_posterior(x) for x in points])
    return -potentials - posterior.logpdf(points)


def finite_difference_gradient(f, x, step):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


class TestLogLikelihood:
    def test_peak_value(self, bench_model):
        # Zero misfit leaves only the normalizer -0.5 log(2 pi R).
        expected = -0.5 * np.log(2.0 * np.pi * 2.2)
        assert bench_model.log_likelihood([-1.0]) == pytest.approx(expected, abs=1e-12)
        assert bench_model.log_likelihood([-1.0]) == pytest.approx(-1.313167, abs=1e-6)

    def test_zero_misfit_is_maximal(self, bench_model):
        peak = bench_model.log_likelihood([-1.0])
        for x in (-3.0, 0.0, 4.0):
            assert bench_model.log_likelihood([x]) < peak

    def test_quadratic_decay(self):
        prior = GaussianMixture([1.0], [[0.0, 0.0]], [SpdMatrix.identity(2)])
        model = PosteriorModel(
            prior, IdentityOperator(2), [0.0, 0.0], SpdMatrix.identity(2)
        )
        base = model.log_likelihood([0.0, 0.0])
        assert model.log_likelihood([3.0, 4.0]) == pytest.approx(base - 12.5)

    def test_dimension_mismatch(self, bench_model):
        with pytest.raises(DimensionMismatch):
            bench_model.log_likelihood([0.0, 1.0])


class TestPotential:
    def test_single_component_at_shared_center(self):
        var = 0.7
        prior = GaussianMixture([1.0], [[2.0]], [SpdMatrix.from_diagonal([var])])
        model = PosteriorModel(
            prior, IdentityOperator(1), [2.0], SpdMatrix.from_diagonal([1.3])
        )
        # Both quadratics vanish at x = y = mu, leaving 0.5 log|Sigma|.
        assert model.neg_log_posterior([2.0]) == pytest.approx(0.5 * np.log(var), abs=1e-14)

    def test_matches_direct_summation(self, bench_model):
        for x in (-3.0, 0.0, 2.5):
            oracle = naive_neg_log_posterior_1d(bench_model, x)
            assert bench_model.neg_log_posterior([x]) == pytest.approx(oracle, abs=1e-10)

    def test_coercive(self, bench_model):
        far = 1e6 * max(abs(m) for m in FIT_1D["means"])
        j_far = bench_model.neg_log_posterior([far])
        j_mode = bench_model.neg_log_posterior([FIT_1D["means"][0]])
        assert j_far - j_mode > 1e6

    def test_kernel_quadrature_finite(self, bench_model):
        grid = np.linspace(-15.0, 15.0, 6001)
        values = np.exp([-bench_model.neg_log_posterior([x]) for x in grid])
        z = np.trapezoid(values, grid)
        assert np.isfinite(z) and z > 0.0


class TestGradient:
    def test_stationary_at_shared_center(self):
        prior = GaussianMixture([1.0], [[1.5, -0.5]], [SpdMatrix.identity(2)])
        model = PosteriorModel(
            prior, IdentityOperator(2), [1.5, -0.5], SpdMatrix.identity(2)
        )
        grad = model.grad_neg_log_posterior([1.5, -0.5])
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_finite_difference_oracle(self, bench_model):
        for x in (-3.0, 0.0, 2.5):
            fd = finite_difference_gradient(
                lambda v: bench_model.neg_log_posterior(v), np.array([x]), 1e-5
            )
            grad = bench_model.grad_neg_log_posterior([x])
            assert np.abs(grad - fd) <= 1e-5 * max(1.0, np.abs(grad))

    def test_symmetric_mixture_midpoint(self):
        cov = SpdMatrix.from_diagonal([0.5])
        prior = GaussianMixture(
            [0.5, 0.5], [[-2.0], [2.0]], [cov, cov], structure="diagonal"
        )
        # Observation centered at the midpoint kills the misfit term there.
        model = PosteriorModel(
            prior, IdentityOperator(1), [0.0], SpdMatrix.from_diagonal([1.0])
        )
        assert model.grad_neg_log_posterior([0.0]) == pytest.approx([0.0], abs=1e-14)

    def test_gradient_matches_fd_on_blur_model(self):
        rng = np.random.default_rng(12)
        rows = cols = 4
        dim = rows * cols
        means = rng.uniform(0.2, 0.8, size=(2, dim))
        covs = [
            SpdMatrix.from_diagonal(rng.uniform(0.05, 0.2, size=dim)) for _ in range(2)
        ]
        prior = GaussianMixture([0.6, 0.4], means, covs, structure="diagonal")
        op = GaussianBlurOperator(rows, cols, width=3, sigma=1.0)
        y = op.apply(means[0]) + 0.01 * rng.standard_normal(dim)
        model = PosteriorModel(prior, op, y, SpdMatrix.spherical(dim, 1e-3))
        for _ in range(3):
            x = rng.uniform(0.1, 0.9, size=dim)
            grad = model.grad_neg_log_posterior(x)
            fd = finite_difference_gradient(model.neg_log_posterior, x, 1e-6)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
            assert rel <= 1e-5


@pytest.fixture
def full_model():
    """Three full-covariance components in 4-D under a dense linear H."""
    rng = np.random.default_rng(41)
    dim, obs = 4, 3
    covs = []
    for _ in range(3):
        g = rng.standard_normal((dim, dim))
        covs.append(SpdMatrix.from_dense(g @ g.T + 0.5 * np.eye(dim)))
    means = 1.5 * rng.standard_normal((3, dim))
    prior = GaussianMixture([0.5, 0.3, 0.2], means, covs, structure="full")
    h = rng.standard_normal((obs, dim))
    g = rng.standard_normal((obs, obs))
    obs_cov = SpdMatrix.from_dense(g @ g.T + np.eye(obs))
    y = h @ means[1] + 0.3 * rng.standard_normal(obs)
    return PosteriorModel(prior, MatrixOperator(h), y, obs_cov)


def states_between_means(model, n=6):
    """Points between the component means, where every component holds a
    share of the responsibility."""
    rng = np.random.default_rng(42)
    mix = rng.dirichlet(np.ones(model.prior.n_components), size=n)
    return mix @ model.prior.means + 0.2 * rng.standard_normal((n, model.dim))


class TestFullCovariancePosterior:
    @pytest.fixture
    def model(self, full_model):
        return full_model

    def test_gradient_matches_finite_differences(self, model):
        assert model.prior.covariances.shape == (3, 4, 4)
        for x in states_between_means(model):
            resp = model.prior.responsibilities(x)
            assert np.sum(resp > 1e-3) >= 2
            grad = model.grad_neg_log_posterior(x)
            fd = finite_difference_gradient(model.neg_log_posterior, x, 1e-6)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))

    def test_gradient_makes_two_solves_per_component(self, model, monkeypatch):
        import csample.gmm
        import csample.linalg_rng
        from scipy.linalg import solve_triangular

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_triangular(*args, **kwargs)

        for module in (csample.gmm, csample.linalg_rng):
            monkeypatch.setattr(module, "solve_triangular", counting)
        model.grad_neg_log_posterior(states_between_means(model)[0])
        # Two for the solve with R, then per component one whitening solve
        # (shared with the Mahalanobis step) and one back-substitution.
        assert len(calls) == 2 + 2 * 3

    def test_potential_is_negative_log_likelihood_times_prior(self, model):
        # Dense oracle: -log N(y; Hx, R) - log sum_k tau_k N(x; mu_k, Sigma_k).
        h = model.operator.matrix
        r = model.obs_cov.dense()

        def neg_log_gaussian(v, cov):
            _, logdet = np.linalg.slogdet(cov)
            quad = v @ np.linalg.solve(cov, v)
            return 0.5 * (quad + logdet + v.size * np.log(2.0 * np.pi))

        def oracle(x):
            prior = model.prior
            dens = sum(
                tau * np.exp(-neg_log_gaussian(x - mu, cov))
                for tau, mu, cov in zip(prior.weights, prior.means, prior.covariances)
            )
            return neg_log_gaussian(h @ x - model.y, r) - np.log(dens)

        diffs = [model.neg_log_posterior(x) - oracle(x) for x in states_between_means(model)]
        assert max(diffs) - min(diffs) <= 1e-10


class TestResponsibilities:
    def test_sum_to_one_even_far_out(self, bench_model):
        # The kernel's weights stay normalized far out: its log stays finite
        # and its pullback weighs each component by the density
        # responsibilities, which sum to one.
        prior = bench_model.prior
        for x in (-80.0, -1.0, 40.0):
            point = np.array([x])
            w = prior.responsibilities(point)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0.0)
            assert np.isfinite(prior.log_kernel(point))
            pullback = prior.kernel_pullback(point)
            assert np.all(np.isfinite(pullback))
            assert np.allclose(pullback, w @ ((point - prior.means) / prior.covariances),
                               rtol=1e-12, atol=1e-12)

    def test_matches_prior_mixture_when_variances_shared(self):
        # Kernel responsibilities and density responsibilities agree: the
        # 2 pi terms cancel.
        cov = SpdMatrix.from_diagonal([0.4])
        prior = GaussianMixture(
            [0.3, 0.7], [[-1.0], [2.0]], [cov, cov], structure="diagonal"
        )
        model = PosteriorModel(
            prior, IdentityOperator(1), [0.0], SpdMatrix.identity(1)
        )
        # The kernel's pullback weighs each component by exactly those
        # responsibilities.
        for x in (-1.5, 0.2, 3.0):
            resp = prior.responsibilities([x])
            assert np.allclose(
                model.prior.kernel_pullback(np.array([x])),
                resp @ ((x - prior.means) / 0.4),
                atol=1e-13,
            )


class TestConjugateReduction:
    def test_potential_differs_from_gaussian_by_constant(self):
        rng = np.random.default_rng(21)
        dim, obs = 3, 2
        g = rng.standard_normal((dim, dim))
        prior_cov = SpdMatrix.from_dense(g @ g.T + dim * np.eye(dim))
        prior_mean = rng.standard_normal(dim)
        prior = GaussianMixture([1.0], [prior_mean], [prior_cov])
        h = rng.standard_normal((obs, dim))
        obs_cov = SpdMatrix.from_dense(np.diag([0.5, 1.5]))
        y = rng.standard_normal(obs)
        model = PosteriorModel(prior, MatrixOperator(h), y, obs_cov)

        posterior = linear_mixture_posterior(model)
        assert posterior.n_components == 1

        points = rng.standard_normal((10, dim))
        diffs = model_minus_posterior(model, posterior, points)
        assert max(diffs) - min(diffs) <= 1e-8

    def test_tikhonov_equivalence(self):
        # With mu = 0 and Sigma = (alpha C)^-1, 2 J(x) equals the Tikhonov
        # objective ||Hx-y||^2_Rinv + alpha ||x||^2_C up to a constant.
        rng = np.random.default_rng(30)
        dim = 3
        alpha = 0.7
        c = np.diag([1.0, 2.0, 0.5])
        prior_cov = SpdMatrix.from_dense(np.linalg.inv(alpha * c))
        prior = GaussianMixture([1.0], [np.zeros(dim)], [prior_cov])
        h = rng.standard_normal((dim, dim))
        y = rng.standard_normal(dim)
        obs_cov = SpdMatrix.from_diagonal([0.5, 1.0, 2.0])
        model = PosteriorModel(prior, MatrixOperator(h), y, obs_cov)

        def tikhonov(x):
            r = h @ x - y
            return r @ obs_cov.solve(r) + alpha * x @ (c @ x)

        points = rng.standard_normal((10, dim))
        diffs = [2.0 * model.neg_log_posterior(p) - tikhonov(p) for p in points]
        assert max(diffs) - min(diffs) <= 1e-8


@pytest.fixture
def blur_model():
    """A 16x16 blur with a two-component diagonal prior."""
    rng = np.random.default_rng(5)
    n = 16
    op = GaussianBlurOperator(n, n, width=5, sigma=1.5)
    blurred = op.apply(rng.uniform(0.1, 0.9, n * n))
    means = blurred + 0.03 * rng.standard_normal((2, n * n))
    variances = rng.uniform(5e-4, 2e-3, (2, n * n))
    prior = GaussianMixture([0.6, 0.4], means, variances, structure="diagonal")
    y = blurred + 0.03 * rng.standard_normal(n * n)
    return PosteriorModel(prior, op, y, SpdMatrix.spherical(n * n, 0.03**2))


class TestLinearMixturePosterior:
    def test_exact_on_full_covariance_matrix_model(self, full_model):
        posterior = linear_mixture_posterior(full_model)
        assert posterior.n_components == 3
        points = states_between_means(full_model, n=10)
        diffs = model_minus_posterior(full_model, posterior, points)
        assert max(diffs) - min(diffs) <= 1e-8

    def test_exact_on_blur_with_two_diagonal_components(self, blur_model):
        posterior = linear_mixture_posterior(blur_model)
        assert posterior.covariances.shape == (2, 256, 256)
        # Five states near each posterior component's mean.
        rng = np.random.default_rng(6)
        points = np.repeat(posterior.means, 5, axis=0)
        points += 0.02 * rng.standard_normal(points.shape)
        diffs = model_minus_posterior(blur_model, posterior, points)
        assert max(diffs) - min(diffs) <= 1e-8

    def test_single_component_matches_normal_equations(self):
        rng = np.random.default_rng(21)
        dim, obs = 3, 2
        g = rng.standard_normal((dim, dim))
        prior_cov = g @ g.T + dim * np.eye(dim)
        prior_mean = rng.standard_normal(dim)
        h = rng.standard_normal((obs, dim))
        r = np.diag([0.5, 1.5])
        y = rng.standard_normal(obs)
        prior = GaussianMixture([1.0], [prior_mean], [SpdMatrix.from_dense(prior_cov)])
        model = PosteriorModel(prior, MatrixOperator(h), y, SpdMatrix.from_dense(r))

        posterior = linear_mixture_posterior(model)
        # P = (S^-1 + H^T R^-1 H)^-1 and x = P (S^-1 mu + H^T R^-1 y).
        s_inv, r_inv = np.linalg.inv(prior_cov), np.linalg.inv(r)
        cov = np.linalg.inv(s_inv + h.T @ r_inv @ h)
        mean = cov @ (s_inv @ prior_mean + h.T @ r_inv @ y)
        assert posterior.weights == pytest.approx([1.0], abs=1e-15)
        assert np.allclose(posterior.means[0], mean, rtol=0.0, atol=1e-12)
        assert np.allclose(posterior.covariances[0], cov, rtol=0.0, atol=1e-12)

    def test_1d_weights_and_bin_masses_match_quadrature(self, bench_model):
        posterior = linear_mixture_posterior(bench_model)
        # Trapezoid quadrature of exp(-J), split over the prior components
        # by their responsibilities.
        grid = np.linspace(-15.0, 15.0, 12001)
        potentials = np.array([bench_model.neg_log_posterior([x]) for x in grid])
        kernel = np.exp(potentials.min() - potentials)
        density = kernel / np.trapezoid(kernel, grid)
        resp = np.array([bench_model.prior.responsibilities(np.array([x])) for x in grid])
        weights = np.trapezoid(density[:, None] * resp, grid, axis=0)
        assert np.allclose(posterior.weights, weights, rtol=0.0, atol=1e-5)

        edges = np.linspace(-10.0, 10.0, 51)
        masses = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sub = np.linspace(lo, hi, 81)
            masses.append(np.trapezoid(np.interp(sub, grid, density), sub))
        assert np.allclose(mixture_bin_masses(posterior, edges), masses, rtol=0.0, atol=1e-5)

    def test_nonlinear_operator_raises(self, bench_model):
        model = PosteriorModel(
            bench_model.prior, SaturationWrapper(IdentityOperator(1)), [-0.5],
            bench_model.obs_cov,
        )
        with pytest.raises(ValueError, match="nonlinear"):
            linear_mixture_posterior(model)


class TestPotentialAndGrad:
    """The fused call is bit-equal to J and its gradient taken apart."""

    @staticmethod
    def assert_bit_equal(model, points):
        for x in points:
            potential, grad = model.potential_and_grad(x)
            assert np.float64(potential).tobytes() == np.float64(
                model.neg_log_posterior(x)).tobytes()
            assert grad.tobytes() == model.grad_neg_log_posterior(x).tobytes()

    def test_oned_model_variance_storage(self, bench_model):
        assert bench_model.prior.covariances.ndim == 2
        self.assert_bit_equal(bench_model, [np.array([x]) for x in (-80.0, -3.0, 0.1, 2.5, 40.0)])

    def test_full_covariance_mixture(self, full_model):
        assert full_model.prior.covariances.ndim == 3
        self.assert_bit_equal(full_model, states_between_means(full_model))

    def test_blur_16(self, blur_model):
        rng = np.random.default_rng(7)
        points = blur_model.prior.means + 0.02 * rng.standard_normal((2, blur_model.dim))
        self.assert_bit_equal(blur_model, points)

    def test_shares_the_misfit(self, full_model):
        calls = []
        original = full_model.operator.apply

        def counting(x):
            calls.append(x)
            return original(x)

        full_model.operator.apply = counting
        full_model.potential_and_grad(states_between_means(full_model)[0])
        assert len(calls) == 1
