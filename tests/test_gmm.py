import numpy as np
import pytest

from conftest import FIT_1D

from csample.errors import DegenerateComponent, DimensionMismatch
from csample.gmm import (
    Ensemble,
    GaussianMixture,
    em_fit,
    free_parameter_count,
    select_model_aic,
)
from csample.linalg_rng import RngStream, SpdMatrix, sample_mvn


def naive_logpdf_1d(weights, means, variances, x):
    """Direct summation oracle, no log-sum-exp stabilization."""
    total = 0.0
    for w, mu, var in zip(weights, means, variances):
        total += w * np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    return np.log(total)


class TestLogpdf:
    def test_standard_normal_peak(self):
        g = GaussianMixture([1.0], [[0.0]], [SpdMatrix.identity(1)])
        assert g.logpdf([0.0]) == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-12)
        assert g.logpdf([0.0]) == pytest.approx(-0.9189385, abs=1e-6)

    def test_symmetric_mixture(self):
        cov = SpdMatrix.from_diagonal([0.7])
        g = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [cov, cov], structure="diagonal")
        for x in (0.3, 1.7, -4.2):
            assert g.logpdf([x]) == pytest.approx(g.logpdf([-x]), abs=1e-13)

    def test_matches_direct_summation(self, fit_mixture_1d):
        w, m, v = FIT_1D["weights"], FIT_1D["means"], FIT_1D["variances"]
        assert fit_mixture_1d.logpdf([-2.49]) == pytest.approx(
            naive_logpdf_1d(w, m, v, -2.49), abs=1e-12
        )
        for x in np.linspace(-8.0, 9.0, 61):
            naive = naive_logpdf_1d(w, m, v, x)
            assert fit_mixture_1d.logpdf([x]) == pytest.approx(naive, abs=1e-10)

    def test_density_integrates_to_one(self, fit_mixture_1d):
        lo = min(FIT_1D["means"]) - 10.0 * np.sqrt(max(FIT_1D["variances"]))
        hi = max(FIT_1D["means"]) + 10.0 * np.sqrt(max(FIT_1D["variances"]))
        grid = np.linspace(lo, hi, 40001)
        dens = np.exp([fit_mixture_1d.logpdf([x]) for x in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self, fit_mixture_1d):
        with pytest.raises(DimensionMismatch):
            fit_mixture_1d.logpdf([0.0, 1.0])

    def test_full_covariance_against_dense_formula(self):
        rng = np.random.default_rng(5)
        g_mat = rng.standard_normal((3, 3))
        cov = g_mat @ g_mat.T + 3 * np.eye(3)
        mix = GaussianMixture([1.0], [np.zeros(3)], [SpdMatrix.from_dense(cov)])
        x = rng.standard_normal(3)
        expected = -0.5 * (
            3 * np.log(2 * np.pi)
            + np.log(np.linalg.det(cov))
            + x @ np.linalg.solve(cov, x)
        )
        assert mix.logpdf(x) == pytest.approx(expected, abs=1e-12)


class TestSample:
    def test_single_component_reduces_to_mvn(self):
        cov = SpdMatrix.from_dense([[2.0, 0.3], [0.3, 1.0]])
        mix = GaussianMixture([1.0], [[1.0, -1.0]], [cov])
        got = mix.sample(RngStream(3, 1))
        stream = RngStream(3, 1)
        stream.uniform()  # the categorical pick comes first
        want = sample_mvn(stream, np.array([1.0, -1.0]), cov)
        assert np.array_equal(got, want)

    def test_deterministic(self, true_mixture_1d):
        a = true_mixture_1d.sample_n(RngStream(11, 0), 20)
        b = true_mixture_1d.sample_n(RngStream(11, 0), 20)
        assert np.array_equal(a, b)

    def test_region_frequencies(self, true_mixture_1d):
        # Count draws in fixed regions and compare with the exact mixture
        # masses from the normal CDF (independent oracle).
        from scipy.stats import norm

        n = 10**5
        draws = gmm_sample_many(true_mixture_1d, RngStream(77, 0), n)
        edges = np.array([-np.inf, -4.25, -1.25, 1.25, 4.25, np.inf])
        weights = true_mixture_1d.weights
        means = np.asarray(true_mixture_1d.means).ravel()
        sigmas = np.sqrt([c.diagonal()[0] for c in true_mixture_1d.covariances])
        for lo, hi in zip(edges[:-1], edges[1:]):
            p = float(
                np.sum(
                    weights
                    * (norm.cdf((hi - means) / sigmas) - norm.cdf((lo - means) / sigmas))
                )
            )
            count = int(np.sum((draws > lo) & (draws <= hi)))
            sigma = np.sqrt(n * p * (1.0 - p))
            assert abs(count - n * p) <= 3.5 * sigma


def gmm_sample_many(mixture, rng, n):
    return np.array([mixture.sample(rng) for _ in range(n)]).ravel()


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 2)) * [1.5, 0.4] + [3.0, -1.0]
        fit = em_fit(data, 1, structure="full", rng=RngStream(1))
        assert fit.mixture.means[0] == pytest.approx(data.mean(axis=0), abs=1e-12)
        biased_cov = np.cov(data.T, bias=True)
        # Covariance matches up to the documented relative floor.
        assert np.allclose(
            fit.mixture.covariances[0].dense(), biased_cov, rtol=1e-5, atol=1e-9
        )
        assert fit.converged

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            centers = rng.uniform(-4, 4, size=(3, 1))
            data = np.concatenate(
                [c + 0.5 * rng.standard_normal((40, 1)) for c in centers]
            )
            fit = em_fit(data, 3, structure="diagonal", rng=RngStream(trial))
            diffs = np.diff(fit.loglik_trace)
            assert np.all(diffs >= -1e-10)

    def test_accepts_ensemble(self):
        data = Ensemble(np.linspace(-1, 1, 30).reshape(-1, 1))
        fit = em_fit(data, 1, rng=RngStream(0))
        assert fit.mixture.n_components == 1

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 1))
        fit = em_fit(data, 2, rng=RngStream(0), max_iter=2, restarts=1)
        assert not fit.converged

    def test_degenerate_component_raises(self):
        # Three requested components over two distinct points cannot all
        # hold two effective members.
        data = np.array([[0.0], [0.0], [0.0], [1.0]])
        with pytest.raises((DegenerateComponent, ValueError)):
            em_fit(data, 3, rng=RngStream(0), restarts=2)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            em_fit(np.zeros((2, 1)), 5, rng=RngStream(0))

    def test_structures_fit(self):
        rng = np.random.default_rng(9)
        data = np.concatenate(
            [
                rng.standard_normal((60, 2)) * 0.3 + [2.0, 0.0],
                rng.standard_normal((60, 2)) * 0.3 - [2.0, 0.0],
            ]
        )
        for structure in ("diagonal", "spherical", "tied", "full"):
            fit = em_fit(data, 2, structure=structure, rng=RngStream(4))
            assert fit.mixture.structure == structure
            assert sorted(np.round(fit.mixture.means[:, 0])) == [-2.0, 2.0]


class TestModelSelection:
    def test_unimodal_selects_one(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((300, 1))
        sel = select_model_aic(data, range(1, 5), structure="full", rng=RngStream(2))
        assert sel.n_components == 1
        # Direct AIC recomputation from the reported table.
        for n_c, aic, loglik in sel.table:
            k = free_parameter_count("full", n_c, 1)
            assert aic == pytest.approx(2 * k - 2 * loglik)
        best = min(sel.table, key=lambda row: (row[1], row[0]))
        assert best[0] == sel.n_components

    def test_free_parameters_1d_full(self):
        for n_c in range(1, 6):
            assert free_parameter_count("full", n_c, 1) == 3 * n_c - 1

    def test_free_parameters_structures(self):
        assert free_parameter_count("diagonal", 3, 4) == 2 + 12 + 12
        assert free_parameter_count("spherical", 3, 4) == 2 + 12 + 3
        assert free_parameter_count("tied", 3, 4) == 2 + 12 + 10
        assert free_parameter_count("full", 3, 4) == 2 + 12 + 30

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        data = np.concatenate(
            [rng.standard_normal((80, 1)) - 3.0, rng.standard_normal((80, 1)) + 3.0]
        )
        sel_a = select_model_aic(data, [1, 2, 3], rng=RngStream(5))
        shuffled = data[rng.permutation(len(data))]
        sel_b = select_model_aic(shuffled, [1, 2, 3], rng=RngStream(5))
        assert sel_a.n_components == sel_b.n_components
        assert np.array_equal(sel_a.mixture.means, sel_b.mixture.means)
        assert np.array_equal(sel_a.mixture.weights, sel_b.mixture.weights)

    def test_benchmark_generator_recovers_near_seven(self, true_mixture_1d):
        # On a single draw the argmin can sit on a knife edge between 7 and
        # 10 (fractions of an AIC unit); the stable statement is that the
        # seven-ish region is AIC-equivalent to the minimum. The statistical
        # recovery contract lives in the acceptance suite.
        data = true_mixture_1d.sample_n(RngStream(2024, 900), 1000)
        sel = select_model_aic(
            data, range(1, 11), structure="full", rng=RngStream(2024, 901)
        )
        assert 5 <= sel.n_components <= 10
        best = min(aic for _, aic, _ in sel.table)
        near_seven = min(aic for n_c, aic, _ in sel.table if 5 <= n_c <= 9)
        assert near_seven <= best + 2.0


class TestResponsibilities:
    def test_rows_sum_to_one(self, fit_mixture_1d):
        for x in (-50.0, -2.5, 0.0, 3.0, 50.0):
            r = fit_mixture_1d.responsibilities([x])
            assert np.sum(r) == pytest.approx(1.0, abs=1e-12)
            assert np.all(r >= 0.0)

    def test_batch_matches_single_states(self, fit_mixture_1d):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 3))
        full = GaussianMixture(
            [0.5, 0.5],
            [[0.0, 1.0, -1.0], [2.0, 0.0, 0.5]],
            [SpdMatrix.from_dense(g @ g.T + np.eye(3)), SpdMatrix.identity(3).scaled(2.0)],
        )
        for mix in (fit_mixture_1d, full):
            # Three rows against n_c components: a row count that differs
            # from the component count.
            batch = rng.uniform(-3.0, 3.0, size=(3, mix.dim))
            single_maha = np.array([mix.mahalanobis_sq(x) for x in batch])
            assert np.allclose(mix.mahalanobis_sq(batch), single_maha, rtol=1e-13)
            single = np.array([mix.responsibilities(x) for x in batch])
            assert np.allclose(mix.responsibilities(batch), single, atol=1e-13)
            assert np.allclose(mix.responsibilities(batch).sum(axis=1), 1.0, atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("structure", ["diagonal", "spherical", "tied", "full"])
    def test_roundtrip(self, structure):
        rng = np.random.default_rng(6)
        data = np.concatenate(
            [
                rng.standard_normal((50, 2)) * 0.4 + [1.5, 0.0],
                rng.standard_normal((50, 2)) * 0.4 - [1.5, 0.0],
            ]
        )
        fit = em_fit(data, 2, structure=structure, rng=RngStream(1))
        doc = fit.mixture.to_json_dict()
        assert set(doc) == {"structure", "weights", "means", "covariances"}
        back = GaussianMixture.from_json_dict(doc)
        assert back.structure == structure
        x = np.array([0.3, -0.2])
        assert back.logpdf(x) == pytest.approx(fit.mixture.logpdf(x), abs=1e-12)
