import pickle

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import FIT_1D, selection_bytes

from csample import gmm
from csample.errors import DegenerateComponent, DimensionMismatch, NotPositiveDefinite
from csample.gmm import (
    Ensemble,
    GaussianMixture,
    free_parameter_count,
    select_model_aic,
)
from csample.linalg_rng import RngStream, SpdMatrix, sample_mvn
from csample.pool import WorkerPool


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

    @pytest.mark.parametrize("structure, dim", [("diagonal", 1), ("diagonal", 4), ("full", 3)])
    def test_batch_matches_single_states(self, structure, dim):
        mix, _ = _stacked_case(structure, dim)
        batch = np.random.default_rng(9).uniform(-3.0, 3.0, size=(5, dim))
        out = mix.logpdf(batch)
        assert out.shape == (5,)
        single = np.array([mix.logpdf(x) for x in batch])
        assert np.allclose(out, single, rtol=0.0, atol=1e-12)
        assert isinstance(mix.logpdf(batch[0]), float)


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
        sigmas = np.sqrt(true_mixture_1d.covariances[:, 0])
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
        fit = select_model_aic(data, [1], structure="full", rng=RngStream(1)).fit
        assert fit.mixture.means[0] == pytest.approx(data.mean(axis=0), abs=1e-12)
        biased_cov = np.cov(data.T, bias=True)
        # Covariance matches up to the documented relative floor.
        assert np.allclose(fit.mixture.covariances[0], biased_cov, rtol=1e-5, atol=1e-9)
        assert fit.converged

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            centers = rng.uniform(-4, 4, size=(3, 1))
            data = np.concatenate(
                [c + 0.5 * rng.standard_normal((40, 1)) for c in centers]
            )
            fit = select_model_aic(data, [3], structure="diagonal", rng=RngStream(trial)).fit
            diffs = np.diff(fit.loglik_trace)
            assert np.all(diffs >= -1e-10)

    def test_accepts_ensemble(self):
        data = Ensemble(np.linspace(-1, 1, 30).reshape(-1, 1))
        fit = select_model_aic(data, [1], rng=RngStream(0)).fit
        assert fit.mixture.n_components == 1

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 1))
        # The cap counts EM maps; at 3 it falls just after the first cycle's
        # extrapolation. The kept point is the one whose log-likelihood is
        # reported.
        for max_iter in (2, 3, 4):
            fit = select_model_aic(data, [2], rng=RngStream(0), max_iter=max_iter,
                                   restarts=1).fit
            assert (fit.n_iter, fit.converged) == (max_iter, False)
            assert fit.log_likelihood == pytest.approx(np.sum(fit.mixture.logpdf(data)),
                                                       rel=1e-12)

    def test_degenerate_component_raises(self):
        # Three requested components over two distinct points cannot all
        # hold two effective members.
        data = np.array([[0.0], [0.0], [0.0], [1.0]])
        with pytest.raises((DegenerateComponent, ValueError)):
            select_model_aic(data, [3], rng=RngStream(0), restarts=2)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            select_model_aic(np.zeros((2, 1)), [5], rng=RngStream(0))

    def test_structures_fit(self):
        rng = np.random.default_rng(9)
        data = np.concatenate(
            [
                rng.standard_normal((60, 2)) * 0.3 + [2.0, 0.0],
                rng.standard_normal((60, 2)) * 0.3 - [2.0, 0.0],
            ]
        )
        for structure in ("diagonal", "spherical", "tied", "full"):
            fit = select_model_aic(data, [2], structure=structure, rng=RngStream(4)).fit
            assert fit.mixture.structure == structure
            assert sorted(np.round(fit.mixture.means[:, 0])) == [-2.0, 2.0]


class TestModelSelection:
    def test_unimodal_selects_one(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((300, 1))
        sel = select_model_aic(data, range(1, 5), structure="full", rng=RngStream(2))
        assert sel.n_components == 1
        # Direct AIC recomputation from the reported table.
        for row in sel.table:
            k = free_parameter_count("full", row["n_c"], 1)
            assert row["aic"] == pytest.approx(2 * k - 2 * row["log_likelihood"])
        best = min(sel.table, key=lambda row: (row["aic"], row["n_c"]))
        assert best["n_c"] == sel.n_components

    def test_table_reports_em_convergence(self):
        rng = np.random.default_rng(1)
        data = np.concatenate([rng.standard_normal(60) - 3.0, rng.standard_normal(60) + 3.0])
        capped = select_model_aic(data, [2, 3], rng=RngStream(0), max_iter=2)
        assert [row["n_c"] for row in capped.table] == [2, 3]
        assert all(row["n_iter"] == 2 and not row["converged"] for row in capped.table)
        free = select_model_aic(data, [2, 3], rng=RngStream(0))
        assert all(row["n_iter"] > 2 and row["converged"] for row in free.table)

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

    def test_near_tied_restarts_keep_the_first(self):
        mixture = GaussianMixture([1.0], [[0.0]], np.array([[1.0]]))
        top = -1234.5

        def restarts(*logliks):
            return [gmm.EmFit(mixture, ll, n_iter=n) for n, ll in enumerate(logliks, start=2)]

        # 1e-13 apart: one optimum, ordered by round-off; the first is kept.
        assert gmm._best_restart(restarts(top * (1 + 1e-13), top)).n_iter == 2
        assert gmm._best_restart(restarts(top, top * (1 + 1e-13))).n_iter == 2
        # 1e-8 apart: the better restart is kept.
        assert gmm._best_restart(restarts(top * (1 + 1e-8), top)).n_iter == 3
        failed = DegenerateComponent("starved")
        assert gmm._best_restart([failed, *restarts(top, top)]).n_iter == 2

    def test_dense_selection_pinned(self):
        # Full covariances in 8-D: the selection, each kept fit's iterations
        # and convergence are pinned exactly, the log-likelihoods to
        # round-off. AIC keeps a fifth component of about 2% weight here.
        rng = np.random.default_rng(2)
        centers = 4.0 * rng.standard_normal((4, 8))
        labels = rng.choice(4, size=600, p=[0.3, 0.3, 0.2, 0.2])
        shapes = np.array([np.linalg.qr(rng.standard_normal((8, 8)))[0] * rng.uniform(0.4, 1.2, 8)
                           for _ in range(4)])
        data = centers[labels] + np.einsum("nij,nj->ni", shapes[labels],
                                           rng.standard_normal((600, 8)))
        sel = select_model_aic(data, range(1, 7), structure="full", rng=RngStream(2))
        assert sel.n_components == 5
        assert sel.em_totals == {"fits": 30, "iterations": 363, "unconverged": 0}
        pinned = [(1, 2, -8117.948402761529), (2, 5, -7082.7794403148055),
                  (3, 2, -6459.593331149879), (4, 2, -6081.356557042099),
                  (5, 32, -6027.35757037268), (6, 32, -5997.917224272758)]
        for row, (n_c, n_iter, loglik) in zip(sel.table, pinned, strict=True):
            assert (row["n_c"], row["n_iter"], row["converged"]) == (n_c, n_iter, True)
            assert row["log_likelihood"] == pytest.approx(loglik, rel=1e-10, abs=0.0)

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
        best = min(row["aic"] for row in sel.table)
        near_seven = min(row["aic"] for row in sel.table if 5 <= row["n_c"] <= 9)
        assert near_seven <= best + 2.0


def overlapping_clusters(dim, seed=3):
    """300 points in three overlapping clusters: EM crawls on them, so every
    fit makes several SQUAREM cycles."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-1.5] * dim, [0.0] * dim, [1.5] * dim])
    return np.concatenate([c + 0.8 * rng.standard_normal((100, dim)) for c in centers])


def plain_em(points, centers, structure, n_maps):
    """(mixture, log-likelihood, responsibilities) of each of n_maps plain
    EM maps from the seeded centers, the first M-step included."""
    floor = gmm._data_floor(points)
    resp = gmm._nearest_center_assignment(points, centers)
    path = []
    for _ in range(n_maps):
        mixture = GaussianMixture(*gmm._m_step(points, resp, resp.sum(axis=0), structure, floor),
                                  structure=structure)
        loglik, resp = gmm._e_step(mixture, points)
        path.append((mixture, loglik, resp))
    return path


class TestSquarem:
    @pytest.mark.parametrize("structure, dim", [("diagonal", 2), ("spherical", 2), ("tied", 2),
                                                ("full", 2), ("full", 8)])
    def test_accepted_logliks_never_decrease(self, monkeypatch, structure, dim):
        kept = []
        real = gmm._squarem_point

        def counted(points, cycle, loglik, resp):
            out = real(points, cycle, loglik, resp)
            kept.append(out[0] is not cycle[2])
            return out

        monkeypatch.setattr(gmm, "_squarem_point", counted)
        points = gmm._sorted_members(overlapping_clusters(dim))
        centers = gmm._seed_centers(points, 3, RngStream(1), "kmeans++")
        fit = gmm._em_single(points, centers, structure, RngStream(1, 1), 1000, 1e-10)
        assert fit.converged and fit.mixture.structure == structure
        # Extrapolated points were kept, and the trace holds every accepted point.
        assert sum(kept) >= 2
        assert len(fit.loglik_trace) == fit.n_iter + sum(kept)
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)
        assert fit.log_likelihood == fit.loglik_trace[-1]

    def test_extrapolation_that_does_not_build_keeps_plain_point(self, monkeypatch):
        points = gmm._sorted_members(overlapping_clusters(2))
        centers = gmm._seed_centers(points, 3, RngStream(1), "quantile")
        real = gmm._from_theta
        calls = []

        def failing_first_cycle(theta, like):
            calls.append(like)
            if like is calls[0]:
                raise NotPositiveDefinite(0)
            return real(theta, like)

        monkeypatch.setattr(gmm, "_from_theta", failing_first_cycle)
        fit = gmm._em_single(points, centers, "full", RngStream(1, 1), 1000, 1e-10)
        # Every halving of the first cycle's step was tried and failed; the
        # cycle kept its plain point, so the first four maps are plain EM's.
        assert calls[:gmm.SQUAREM_HALVINGS + 1] == [calls[0]] * (gmm.SQUAREM_HALVINGS + 1)
        assert fit.loglik_trace[:4] == [ll for _, ll, _ in plain_em(points, centers, "full", 4)]
        assert len(set(map(id, calls))) > 1  # later cycles extrapolated
        assert fit.converged
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)

    def test_extrapolation_that_starves_a_component_is_retried(self, monkeypatch):
        points = gmm._sorted_members(overlapping_clusters(2))
        centers = gmm._seed_centers(points, 3, RngStream(1), "quantile")
        path = plain_em(points, centers, "full", 3)
        cycle, (_, loglik, resp) = [mixture for mixture, _, _ in path], path[-1]
        real_e_step, trials = gmm._e_step, []

        def starving_first_trial(mixture, points):
            trials.append(mixture)
            trial_ll, trial_resp = real_e_step(mixture, points)
            if len(trials) == 1:  # it scores above theta2, but component 0 starves
                trial_resp = trial_resp.copy()
                trial_resp[:, 0] = 0.0
                return loglik + 1.0, trial_resp
            return trial_ll, trial_resp

        monkeypatch.setattr(gmm, "_e_step", starving_first_trial)
        kept, kept_ll, _ = gmm._squarem_point(points, cycle, loglik, resp)
        assert len(trials) == 2 and kept is trials[1]
        assert kept_ll >= loglik


class CountingStream(RngStream):
    """An RngStream that counts the uniforms drawn from it and from each of
    its children (copies that share the tally), by stream key."""

    __slots__ = ("draws",)

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.draws = {}

    def uniform(self, n=None):
        self.draws[self.key] = self.draws.get(self.key, 0) + 1
        return super().uniform(n)


def three_clusters(seed):
    """60 points in three clusters of unequal size and spread: too few for
    four to six components, whose fits reseed starved components mid-fit."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-3.0, 0.5, 25), rng.normal(2.0, 1.0, 25),
                           rng.normal(6.0, 0.2, 10)])[:, None]


def recorded_em_single(seeded, fit):
    """An _em_single that records each fit's centers by (n_c, restart) and
    hands the call to ``fit``."""

    def em_single(points, centers, structure, rng, max_iter, rel_tol):
        seeded[rng.key[1:]] = centers.copy()
        return fit(points, centers, structure, rng, max_iter, rel_tol)

    return em_single


class TestPooledFits:
    def test_selection_identical_for_any_pool(self):
        data = three_clusters(1)
        stream = CountingStream(1, 1)
        reference = select_model_aic(data, range(1, 7), rng=stream)
        # Fits reseeded mid-fit from their own streams, and every restart of
        # n_c = 6 ended in DegenerateComponent inside its fit.
        assert any(len(key) == 3 for key in stream.draws)
        assert [row["n_c"] for row in reference.table] == [1, 2, 3, 4, 5]
        for p in (1, 2, 3):
            with WorkerPool(p) as pool:
                pooled = select_model_aic(data, range(1, 7), rng=RngStream(1, 1), pool=pool)
            assert selection_bytes(pooled) == selection_bytes(reference), f"differs at p={p}"

    def test_midfit_reseed_leaves_later_seeding_unchanged(self, monkeypatch):
        data = three_clusters(5)
        seeded = {}
        monkeypatch.setattr(gmm, "_em_single", recorded_em_single(seeded, gmm._em_single))
        stream = CountingStream(5, 1)
        select_model_aic(data, range(1, 7), rng=stream)
        # Only fit (n_c 4, restart 2) reseeds; it draws from its own stream.
        assert sorted(key[1:] for key in stream.draws if len(key) == 3) == [(4, 2)]
        fitted = dict(seeded)

        def no_fit(points, centers, structure, rng, max_iter, rel_tol):
            raise DegenerateComponent("not fitted")

        seeded.clear()
        monkeypatch.setattr(gmm, "_em_single", recorded_em_single(seeded, no_fit))
        bare = CountingStream(5, 1)
        with pytest.raises(DegenerateComponent):
            select_model_aic(data, range(1, 7), rng=bare)
        # Every fit, (4, 3) after the reseeding one included, was seeded as if
        # no fit had drawn at all.
        assert bare.draws == {(1,): stream.draws[(1,)]}
        assert seeded.keys() == fitted.keys()
        for key, centers in fitted.items():
            assert np.array_equal(seeded[key], centers), key

    def test_failed_fits_in_workers_skipped_as_in_process(self, monkeypatch):
        data = three_clusters(5)
        real = gmm._em_single

        def faulty(points, centers, structure, rng, max_iter, rel_tol):
            if rng.key[1:] == (2, 0):
                raise DegenerateComponent("injected")
            if rng.key[1:] == (3, 1):
                raise NotPositiveDefinite(0)
            return real(points, centers, structure, rng, max_iter, rel_tol)

        # The pool forks its workers after the patch, so they run it too.
        monkeypatch.setattr(gmm, "_em_single", faulty)
        in_process = select_model_aic(data, range(1, 5), rng=RngStream(5, 1))
        with WorkerPool(2) as pool:
            pooled = select_model_aic(data, range(1, 5), rng=RngStream(5, 1), pool=pool)
        # A degenerate restart is skipped; a ValueError skips its candidate.
        assert [row["n_c"] for row in in_process.table] == [1, 2, 4]
        assert selection_bytes(pooled) == selection_bytes(in_process)
        assert pooled.work_s > 0.0 and in_process.work_s > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_em_totals_count_every_fit(self, monkeypatch, tmp_path, workers):
        data = three_clusters(1)
        log = tmp_path / "fits.txt"
        real = gmm._em_single

        def counted(points, centers, structure, rng, max_iter, rel_tol):
            fit = real(points, centers, structure, rng, max_iter, rel_tol)
            with open(log, "a", encoding="utf-8") as fh:  # one line per fit, from any worker
                fh.write(f"{fit.n_iter} {int(fit.converged)}\n")
            return fit

        monkeypatch.setattr(gmm, "_em_single", counted)
        with WorkerPool(workers) as pool:
            selection = select_model_aic(data, range(1, 7), rng=RngStream(1, 1), pool=pool,
                                         max_iter=40)
        fits = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert selection.em_totals == {"fits": len(fits),
                                       "iterations": sum(n for n, _ in fits),
                                       "unconverged": sum(1 - c for _, c in fits)}
        # The totals cover discarded restarts too; restarts that degenerate
        # inside their fits return none and count for nothing.
        assert len(selection.table) < selection.fits < 30
        assert 0 < selection.unconverged < selection.fits


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


def _logsumexp_by_row_max(a, axis):
    """The log-sum-exp formula with numpy's own max over the axis."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return np.squeeze(out, axis=axis)


class TestLogsumexp:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_bit_equal_to_row_max_formula(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(-50.0, 30.0, size=(64, k))
        a[3] = -np.inf  # a row of zero densities
        a[5, 0] = -np.inf
        a[7] = 700.0 + rng.uniform(size=k)  # exp would overflow without the shift
        with np.errstate(divide="ignore"):
            got = gmm._logsumexp(a)
            want = _logsumexp_by_row_max(a, axis=1)
            single = gmm._logsumexp(a[9])
        assert got.shape == (64,)
        assert got.tobytes() == want.tobytes()
        assert got[3] == -np.inf
        assert single.shape == () and single.tobytes() == want[9].tobytes()


def _stacked_case(structure, dim, n_c=3):
    """A mixture built from one SpdMatrix per component, and those matrices."""
    rng = np.random.default_rng(17)
    if structure == "diagonal":
        covs = [SpdMatrix.from_diagonal(rng.uniform(0.3, 2.0, dim)) for _ in range(n_c)]
    elif structure == "spherical":
        covs = [SpdMatrix.spherical(dim, v) for v in rng.uniform(0.3, 2.0, n_c)]
    else:
        dense = []
        for _ in range(1 if structure == "tied" else n_c):
            g = rng.standard_normal((dim, dim))
            dense.append(SpdMatrix.from_dense(g @ g.T + 0.5 * np.eye(dim)))
        covs = dense * n_c if structure == "tied" else dense
    weights = rng.dirichlet(np.ones(n_c))
    means = 1.5 * rng.standard_normal((n_c, dim))
    return GaussianMixture(weights, means, covs, structure=structure), covs


class TestStackedStorage:
    """The stacked arrays against a per-component SpdMatrix reference."""

    CASES = [("diagonal", 3), ("spherical", 3), ("tied", 3), ("full", 3), ("full", 1)]

    @pytest.mark.parametrize("structure,dim", CASES)
    def test_matches_per_component_reference(self, structure, dim):
        mix, covs = _stacked_case(structure, dim)
        diagonal = structure in ("diagonal", "spherical") or dim == 1
        assert mix.covariances.shape == ((3, dim) if diagonal else (3, dim, dim))
        rng = np.random.default_rng(3)
        for x in mix.means.mean(axis=0) + 0.5 * rng.standard_normal((4, dim)):
            maha = np.array([c.maha_sq(x - mu) for c, mu in zip(covs, mix.means)])
            logdets = np.array([c.logdet() for c in covs])
            log_dens = -0.5 * (dim * np.log(2 * np.pi) + logdets + maha)
            assert np.allclose(mix.component_log_densities(x), log_dens, rtol=1e-12)
            terms = np.log(mix.weights) - 0.5 * logdets - 0.5 * maha
            log_kernel = np.log(np.sum(np.exp(terms)))
            assert mix.log_kernel(x) == pytest.approx(log_kernel, rel=1e-12)
            resp = np.exp(terms - log_kernel)
            pullback = sum(w * c.solve(x - mu) for w, c, mu in zip(resp, covs, mix.means))
            assert np.allclose(mix.kernel_pullback(x), pullback, rtol=1e-10, atol=1e-12)
        for seed in range(5):
            stream = RngStream(seed, 2)
            k = int(np.searchsorted(np.cumsum(mix.weights), stream.uniform()))
            want = sample_mvn(stream, mix.means[k], covs[k])
            assert np.array_equal(mix.sample(RngStream(seed, 2)), want)

    @pytest.mark.parametrize("dim", [1, 8])
    def test_em_builds_no_spd_matrix(self, monkeypatch, dim):
        builds = []
        original = SpdMatrix.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SpdMatrix, "__init__", counting)
        rng = np.random.default_rng(dim)
        data = np.concatenate(
            [rng.standard_normal((60, dim)) - 2.0, rng.standard_normal((60, dim)) + 2.0]
        )
        fit = select_model_aic(data, [2], structure="full", rng=RngStream(0)).fit
        assert fit.n_iter > 1
        assert builds == []

    @pytest.mark.parametrize("structure", ["tied", "full"])
    def test_pickled_mixture_computes_the_same_bits(self, structure):
        # Chain workers receive the prior pickled; their pools must match
        # the in-process pool bit for bit.
        mix, _ = _stacked_case(structure, 6)
        copy = pickle.loads(pickle.dumps(mix))
        batch = np.random.default_rng(4).standard_normal((50, 6))
        for x in batch:
            assert np.array_equal(copy.kernel_pullback(x), mix.kernel_pullback(x))
            assert np.array_equal(copy.mahalanobis_sq(x), mix.mahalanobis_sq(x))
        # EM workers receive their data pickled and score it as one batch.
        assert np.array_equal(copy.mahalanobis_sq(batch), mix.mahalanobis_sq(batch))
        assert np.array_equal(copy.joint_log_densities(batch), mix.joint_log_densities(batch))
        assert np.array_equal(copy.sample(RngStream(1)), mix.sample(RngStream(1)))

    def test_tied_keeps_one_matrix(self):
        mix, _ = _stacked_case("tied", 3)
        assert mix.covariances.strides[0] == 0
        with pytest.raises(ValueError):
            covs = np.array([np.eye(2), 2.0 * np.eye(2)])
            GaussianMixture([0.5, 0.5], np.zeros((2, 2)), covs, structure="tied")

    def test_indefinite_component_raises(self):
        covs = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NotPositiveDefinite) as exc:
            GaussianMixture([0.5, 0.5], np.zeros((2, 2)), covs)
        assert exc.value.pivot_index == 1
        assert "matrix 1" in str(exc.value)

    def test_zero_variance_raises(self):
        covs = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            GaussianMixture([0.5, 0.5], np.zeros((2, 2)), covs, structure="diagonal")
        assert exc.value.pivot_index == 1

    def test_non_finite_covariance_raises(self):
        # A NaN variance once factored to NaN and every density read NaN.
        with pytest.raises(NotPositiveDefinite) as exc:
            GaussianMixture([1.0], [[0.0]], np.array([[np.nan]]))
        assert exc.value.pivot_index == 0
        covs = np.array([np.eye(3), np.eye(3)])
        covs[1, 2, 2] = np.inf
        # inf - inf in the symmetry check warns; the factorization must raise.
        with np.errstate(invalid="ignore"), pytest.raises(NotPositiveDefinite,
                                                          match="matrix 1 ") as exc:
            GaussianMixture([0.5, 0.5], np.zeros((2, 3)), covs)
        assert exc.value.pivot_index == 2

    def test_asymmetric_matrix_rejected(self):
        covs = np.array([[[1.0, 0.2], [0.1, 1.0]]])
        with pytest.raises(ValueError):
            GaussianMixture([1.0], np.zeros((1, 2)), covs)


def _dense_case(structure, floor_component=False, dim=8, n_c=6):
    """A dense-storage mixture of n_c components. With ``floor_component``,
    component 2's smallest eigenvalue is COVARIANCE_FLOOR (against the others'
    0.5 to 2), as for a component that EM's covariance floor holds up."""
    rng = np.random.default_rng(23)
    covs = np.array([g @ g.T + 0.5 * np.eye(dim) for g in rng.standard_normal((n_c, dim, dim))])
    if floor_component:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigenvalues = np.concatenate([[gmm.COVARIANCE_FLOOR], rng.uniform(0.5, 2.0, dim - 1)])
        covs[2] = (q * eigenvalues) @ q.T
    if structure == "tied":
        covs = np.broadcast_to(covs[0], covs.shape)
    weights = rng.dirichlet(np.ones(n_c))
    means = 1.5 * rng.standard_normal((n_c, dim))
    return GaussianMixture(weights, means, covs, structure=structure)


def _whitened_by_solves(mix, x):
    """Reference whitening: L_k^{-1} (x - mu_k) by one triangular solve per
    component, (dim,) or (dim, n) each."""
    return [solve_triangular(lower, (x - mu).T, lower=True)
            for lower, mu in zip(mix._factors, mix.means)]


class TestDenseWhitening:
    """Whitening by the cached L_k^{-T} against per-component triangular
    solves, at d = 8 and k = 6. Each tolerance is relative: to the reference
    distance, or to the largest entry of the reference array. Measured worst
    errors, over a batch of 200 and its first 20 rows as single states:
    full and tied 9.5e-16 (distances), 4.5e-16 (whitened) and 3.5e-15
    (pullback), so 1e-13; with a component at the floor (condition number
    about 2e6) 7.4e-14 on its distances, so 1e-11."""

    @pytest.mark.parametrize("structure, floor_component, rtol", [
        ("full", False, 1e-13), ("tied", False, 1e-13), ("full", True, 1e-11)])
    def test_matches_triangular_solves(self, structure, floor_component, rtol):
        mix = _dense_case(structure, floor_component)
        if structure == "tied":
            assert mix._inv_t.strides[0] == 0
        batch = mix.means.mean(axis=0) + np.random.default_rng(5).standard_normal((200, 8))
        maha, whitened = mix._mahalanobis_parts(batch)
        reference = _whitened_by_solves(mix, batch)
        want = np.stack([np.sum(w * w, axis=0) for w in reference], axis=1)
        assert maha.shape == (200, 6)
        np.testing.assert_allclose(maha, want, rtol=rtol, atol=0.0)
        for got, ref in zip(whitened, reference):
            np.testing.assert_allclose(got, ref.T, rtol=0.0, atol=rtol * np.abs(ref).max())
        for x in batch[:20]:
            maha, whitened = mix._mahalanobis_parts(x)
            reference = _whitened_by_solves(mix, x)
            np.testing.assert_allclose(maha, [w @ w for w in reference], rtol=rtol, atol=0.0)
            for got, ref in zip(whitened, reference):
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=rtol * np.abs(ref).max())
            pullback = sum(r * solve_triangular(lower, w, lower=True, trans="T") for r, lower, w
                           in zip(mix.responsibilities(x), mix._factors, reference))
            np.testing.assert_allclose(mix.kernel_pullback(x), pullback, rtol=0.0,
                                       atol=rtol * np.abs(pullback).max())


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
        fit = select_model_aic(data, [2], structure=structure, rng=RngStream(1)).fit
        doc = fit.mixture.to_json_dict()
        assert set(doc) == {"structure", "weights", "means", "covariances"}
        back = GaussianMixture.from_json_dict(doc)
        assert back.structure == structure
        x = np.array([0.3, -0.2])
        assert back.logpdf(x) == pytest.approx(fit.mixture.logpdf(x), abs=1e-12)
