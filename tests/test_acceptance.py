"""Acceptance suite: one test per shipped criterion, each reporting a
PASS/FAIL line in the terminal summary. Heavy shared pipelines (the 1-D
benchmark run and the image experiment) are session-scoped fixtures with
their build times tracked against the stated runtime budgets.
"""

import os
import time

import numpy as np
import pytest

from conftest import record_criterion, selection_bytes

from csample.cost_model import CostModelInput, predict_cost
from csample.experiments import (
    default_config,
    fit_prior_mixture,
    mixture_bin_masses,
    oned_plans,
    prepare_oned_model,
    run_deblur_experiment,
    total_variation,
    weighted_histogram,
)
from csample.forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    MatrixOperator,
    blur_jacobian_structure_check,
)
from csample.gmm import GaussianMixture, select_model_aic
from csample.linalg_rng import RngStream, SpdMatrix
from csample.mc_scheduler import WorkerPool, benchmark_speedup, build_plan, run_plans
from csample.posterior import PosteriorModel, linear_mixture_posterior
from csample.samplers import ChainPlan, GaussianProposal, chain_diagnostics, run_chain
from csample.tikhonov import (
    TikhonovProblem,
    lcurve_select_alpha,
    solve_tikhonov,
)


@pytest.fixture(scope="session")
def oned_pipeline():
    """EM-fitted 1-D benchmark model plus the four sampling runs and the
    exact posterior, with stage timings. The fit and the four variants' chains
    share one pool of two workers, as in the ``oned`` run."""
    cfg = default_config("oned")
    timings = {}
    t0 = time.perf_counter()
    with WorkerPool(2) as pool:
        model, selection, ensemble = prepare_oned_model(cfg, pool)
        timings["em"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        plans = oned_plans(model, cfg)
        runs = dict(zip(plans, run_plans(model, list(plans.values()), pool)))
        timings["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    posterior = linear_mixture_posterior(model)
    timings["reference"] = time.perf_counter() - t0

    return {
        "config": cfg,
        "model": model,
        "selection": selection,
        "ensemble": ensemble,
        **runs,
        "posterior": posterior,
        "timings": timings,
    }


def make_deblur_model_16(seed=5):
    """A 16x16 blur posterior with a two-component diagonal prior."""
    n = 16
    yy, xx = np.mgrid[0:n, 0:n]
    r = np.sqrt((yy - 7.5) ** 2 + (xx - 7.5) ** 2)
    truth = (0.1 + 0.8 / (1.0 + np.exp((r - 4.5) / 1.2))).reshape(-1)
    op = GaussianBlurOperator(n, n, width=5, sigma=1.5)
    blurred = op.apply(truth)
    rng = RngStream(seed, 0)
    noise_std = 0.09 * float(np.mean(truth))
    observed = blurred + noise_std * rng.standard_normal(n * n)
    members = blurred[None, :] + 0.03 * RngStream(seed, 1).standard_normal(
        24 * n * n
    ).reshape(24, n * n)
    fit = select_model_aic(members, [2], structure="diagonal", rng=RngStream(seed, 2)).fit
    model = PosteriorModel(
        fit.mixture, op, observed, SpdMatrix.spherical(n * n, noise_std**2)
    )
    return model, truth


def finite_difference_gradient(f, x, step):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


class TestCriterion1GradientCorrectness:
    def test_gradients_match_finite_differences(self, oned_pipeline):
        t0 = time.perf_counter()
        model = oned_pipeline["model"]
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            x = np.array([rng.uniform(-8.0, 9.0)])
            grad = model.grad_neg_log_posterior(x)
            fd = finite_difference_gradient(model.neg_log_posterior, x, 1e-5)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            worst = max(worst, rel)

        deblur_model, _ = make_deblur_model_16()
        for _ in range(20):
            x = rng.uniform(0.1, 0.9, size=256)
            grad = deblur_model.grad_neg_log_posterior(x)
            fd = finite_difference_gradient(deblur_model.neg_log_posterior, x, 1e-5)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-5 and elapsed < 30.0
        record_criterion(
            1, ok, f"gradient vs central differences: worst rel {worst:.2e}, "
            f"{elapsed:.1f}s (budget 30s)"
        )
        assert worst <= 1e-5
        assert elapsed < 30.0


class TestCriterion2ConjugateOracle:
    def test_single_gaussian_linear_reduction(self):
        rng = np.random.default_rng(23)
        dim, obs = 3, 3
        g = rng.standard_normal((dim, dim))
        prior_cov = SpdMatrix.from_dense(g @ g.T + dim * np.eye(dim))
        prior_mean = rng.standard_normal(dim)
        prior = GaussianMixture([1.0], [prior_mean], [prior_cov])
        h = rng.standard_normal((obs, dim))
        y = rng.standard_normal(obs)
        obs_cov = SpdMatrix.from_diagonal([0.8, 1.2, 0.5])
        model = PosteriorModel(prior, MatrixOperator(h), y, obs_cov)
        posterior = linear_mixture_posterior(model)
        mean_a = posterior.means[0]
        cov_a = SpdMatrix.from_dense(posterior.covariances[0])

        diffs = []
        for _ in range(10):
            x = mean_a + rng.standard_normal(dim)
            diffs.append(model.neg_log_posterior(x) + posterior.logpdf(x))
        spread = max(diffs) - min(diffs)

        proposal = GaussianProposal(cov_a.scaled(2.38**2 / dim))
        chain = ChainPlan(5000, mean_a, proposal, 0)
        result = run_chain(model, chain, burn_in=500, stride=2, seed=77)
        diag = chain_diagnostics(result)
        se = np.sqrt(np.diag(cov_a.dense())) / np.sqrt(diag.ess)
        err = np.abs(result.samples.mean(axis=0) - mean_a)
        within = bool(np.all(err <= 3.0 * se))

        ok = spread <= 1e-8 and within
        record_criterion(
            2, ok, f"conjugate reduction: constant spread {spread:.2e} (<=1e-8), "
            f"chain mean within 3 SE: {within}"
        )
        assert spread <= 1e-8
        assert within


class TestCriterion3DistributionalAccuracy:
    def test_parallel_hmc_total_variation(self, oned_pipeline):
        cfg = oned_pipeline["config"]
        edges = np.linspace(*cfg["histogram_range"], cfg["histogram_bins"] + 1)
        ref = mixture_bin_masses(oned_pipeline["posterior"], edges)
        ens = oned_pipeline["parallel_hmc"].ensemble
        sampled = weighted_histogram(ens.members[:, 0], ens.weights, edges)
        tv = total_variation(sampled, ref)
        t = oned_pipeline["timings"]
        runtime = t["em"] + t["sampling"] + t["reference"]
        ok = tv <= 0.08 and ens.size == 5000 and runtime < 120.0
        record_criterion(
            3, ok, f"pooled parallel-HMC vs exact posterior: TV {tv:.4f} (<=0.08) at "
            f"{ens.size} samples, {runtime:.0f}s (budget 120s)"
        )
        assert ens.size == 5000
        assert tv <= 0.08
        assert runtime < 120.0


class TestCriterion4AcceptanceRates:
    def test_reproduces_reported_rates(self, oned_pipeline):
        serial_g = oned_pipeline["serial_gaussian"].acceptance_rate
        serial_h = oned_pipeline["serial_hmc"].acceptance_rate
        par_g = oned_pipeline["parallel_gaussian"].acceptance_rate
        par_h = oned_pipeline["parallel_hmc"].acceptance_rate
        ok = (
            0.30 <= serial_g <= 0.60
            and par_g >= 0.70
            and par_g - serial_g >= 0.20
            and serial_h >= 0.90
            and par_h >= 0.90
        )
        record_criterion(
            4, ok, f"acceptance: serial G {serial_g:.3f} in [0.30,0.60], "
            f"parallel G {par_g:.3f} (>=0.70, gap {par_g - serial_g:.3f}), "
            f"serial HMC {serial_h:.3f}, parallel HMC {par_h:.3f} (>=0.90)"
        )
        assert 0.30 <= serial_g <= 0.60
        assert par_g >= 0.70
        assert par_g - serial_g >= 0.20
        assert serial_h >= 0.90
        assert par_h >= 0.90


class TestCriterion5CostModelExactness:
    def test_closed_forms_exact(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(20):
            inp = CostModelInput(
                workers=int(rng.integers(1, 40)),
                n_components=int(rng.integers(1, 20)),
                n_ens=int(rng.integers(10, 10000)),
                n_var=int(rng.integers(1, 5000)),
                burn_in=0,
                stride=int(rng.integers(1, 12)),
                traj_steps=int(rng.integers(1, 50)),
                gmm_structure=str(rng.choice(["diagonal", "spherical", "tied", "full"])),
                proposal=str(rng.choice(["diagonal", "full", "hmc"])),
            )
            report = predict_cost(inp)
            if inp.workers <= inp.n_components:
                assert report.speedup == float(inp.workers)
                assert report.efficiency == 1.0
            else:
                assert report.speedup == float(inp.n_components)
                assert report.efficiency == inp.n_components / inp.workers
            checked += 1
        record_criterion(
            5, True, f"cost-model closed forms exact on {checked} random tuples"
        )


class TestCriterion6MeasuredScaling:
    def test_wall_time_scaling(self):
        # The reference seven-component fit with uniform budgets: the exact
        # scenario of the idealized analysis.
        from conftest import FIT_1D, make_mixture_1d

        model = PosteriorModel(
            make_mixture_1d(FIT_1D),
            IdentityOperator(1),
            [-1.0],
            SpdMatrix.from_diagonal([2.2]),
        )
        cpus = os.cpu_count() or 1
        p_values = [1, 2, 4, 7, 8, 12]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = benchmark_speedup(
                model,
                3500,
                "gaussian",
                p_values,
                seed=2024,
                repetitions=3,
                burn_in=0,
                stride=5,
                proposal_scale=0.3,
            )
        by_p = {r.workers: r for r in rows}
        bound_ok = all(r.speedup <= r.workers * 1.02 for r in rows)
        # S(p) is the median over repetitions of walls(1) / walls(p).
        table = "\n".join(f"p={r.workers} S(p)={r.speedup:.3f} walls_s="
                          f"{[round(w, 4) for w in r.walls]}" for r in rows)
        assert bound_ok, f"S(p) > 1.02 p for some p:\n{table}"

        if cpus < 8:
            flagged = any(r.oversubscribed for r in rows)
            record_criterion(
                6,
                None,
                f"measured scaling: SKIP wall-time asserts ({cpus} logical "
                f"processors < 8; oversubscription flagged: {flagged}); "
                f"S(p)<=p holds for all p",
            )
            assert flagged
            return

        walls = [by_p[p].wall_s for p in (1, 2, 4, 7)]
        nonincreasing = all(b <= a * 1.10 for a, b in zip(walls[:-1], walls[1:]))
        flat = abs(by_p[12].wall_s - by_p[7].wall_s) < 0.05 * by_p[7].wall_s
        ok = nonincreasing and flat and bound_ok
        record_criterion(
            6, ok, f"measured scaling: nonincreasing to p=7 {nonincreasing}, "
            f"flat 7->12 {flat}, S<=p {bound_ok}"
        )
        assert nonincreasing
        assert flat


class TestCriterion7Determinism:
    def test_pooled_ensemble_identical_across_worker_counts(self, oned_pipeline):
        model = oned_pipeline["model"]
        cfg = oned_pipeline["config"]
        baseline = None
        for p in (1, 3, 7):
            plan = build_plan(
                model, 600, "hmc", cfg["seed"],
                burn_in=cfg["burn_in"], stride=cfg["stride"],
                hmc_steps=cfg["hmc_steps"],
                hmc_jitter=cfg["hmc_jitter"],
            )
            with WorkerPool(p) as pool:
                result = run_plans(model, [plan], pool)[0]
            payload = (
                result.ensemble.members.tobytes(),
                result.ensemble.weights.tobytes(),
            )
            if baseline is None:
                baseline = payload
            ok = payload == baseline
            assert ok, f"pooled ensemble differs at p={p}"
        record_criterion(
            7, True, "pooled ensembles byte-identical for p in {1, 3, 7}"
        )

    def test_aic_selection_identical_across_worker_counts(self, oned_pipeline):
        # The fixture fitted the shipped ensemble on a pool of two workers.
        cfg = oned_pipeline["config"]
        expected = selection_bytes(oned_pipeline["selection"])
        for p in (1, 3):
            with WorkerPool(p) as pool:
                selection = fit_prior_mixture(oned_pipeline["ensemble"], cfg, pool)
            assert selection_bytes(selection) == expected, f"AIC selection differs at p={p}"


class TestCriterion8DeblurComparison:
    def test_posterior_mean_beats_tuned_tikhonov(self, tmp_path_factory):
        t0 = time.perf_counter()
        cfg = default_config("deblur")
        out = tmp_path_factory.mktemp("deblur_acceptance")
        summary = run_deblur_experiment(cfg, out)
        elapsed = time.perf_counter() - t0
        errs = summary.relative_errors
        margin = errs["tikhonov"] * 0.95
        ok = (
            errs["posterior_mean"] <= margin
            and errs["posterior_mean"] < errs["noisy_input"]
            and errs["tikhonov"] < errs["noisy_input"]
            and elapsed < 600.0
        )
        record_criterion(
            8, ok, f"deblur: posterior mean {errs['posterior_mean']:.4f} vs "
            f"tikhonov {errs['tikhonov']:.4f} (need <= {margin:.4f}), noisy "
            f"{errs['noisy_input']:.4f}, {elapsed:.0f}s (budget 600s)"
        )
        assert errs["posterior_mean"] <= margin
        assert errs["posterior_mean"] < errs["noisy_input"]
        assert errs["tikhonov"] < errs["noisy_input"]
        assert elapsed < 600.0


class TestCriterion9EmAic:
    def test_monotone_loglik_and_component_recovery(self):
        rng = np.random.default_rng(90)
        violations = 0
        for trial in range(100):
            k = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 3))
            centers = rng.uniform(-5, 5, size=(k, dim))
            data = np.concatenate(
                [c + rng.uniform(0.2, 0.8) * rng.standard_normal((40, dim)) for c in centers]
            )
            fit = select_model_aic(data, [k], structure="diagonal", rng=RngStream(trial),
                                   restarts=2).fit
            if np.any(np.diff(fit.loglik_trace) < -1e-10):
                violations += 1
        from csample.experiments import benchmark_prior_mixture

        truth = benchmark_prior_mixture()
        hits = 0
        with WorkerPool(2) as pool:
            for trial in range(10):
                data = truth.sample_n(RngStream(3000 + trial, 0), 1000)
                sel = select_model_aic(
                    data, range(1, 11), structure="full", rng=RngStream(3000 + trial, 1),
                    pool=pool,
                )
                hits += 5 <= sel.n_components <= 9
        ok = violations == 0 and hits >= 8
        record_criterion(
            9, ok, f"EM ascent violations {violations}/100 (need 0); AIC picks "
            f"n_c within 7±2 in {hits}/10 seeded trials (need >=8)"
        )
        assert violations == 0
        assert hits >= 8


class TestCriterion10OperatorAlgebra:
    def test_adjoint_identities_and_toeplitz(self):
        rng = np.random.default_rng(101)
        ops = [
            IdentityOperator(9),
            MatrixOperator(rng.standard_normal((4, 9))),
            GaussianBlurOperator(3, 3, width=3, sigma=1.0),
            GaussianBlurOperator(3, 3, width=3, sigma=1.0, boundary="periodic"),
        ]
        worst = 0.0
        for op in ops:
            for _ in range(10):
                x = rng.standard_normal(op.in_dim)
                v = rng.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ v)
                rhs = float(x @ op.adjoint_jacobian_apply(x, v))
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
        toeplitz = blur_jacobian_structure_check(
            GaussianBlurOperator(1, 16, width=5, sigma=1.5)
        )
        ok = worst <= 1e-10 and toeplitz
        record_criterion(
            10, ok, f"adjoint identity worst rel {worst:.2e} (<=1e-10); "
            f"1-D blur Jacobian Toeplitz: {toeplitz}"
        )
        assert worst <= 1e-10
        assert toeplitz


class TestCriterion11TikhonovBaseline:
    def test_closed_form_and_lcurve_monotonicity(self):
        op = MatrixOperator([[1.0, 0.0], [0.0, 2.0]])
        problem = TikhonovProblem(
            op, [1.0, 1.0], SpdMatrix.identity(2), SpdMatrix.identity(2), 1.0
        )
        sol = solve_tikhonov(problem)
        closed_form_err = float(np.max(np.abs(sol.x - [0.5, 0.4])))

        rng = np.random.default_rng(111)
        h = rng.standard_normal((8, 8))
        big = TikhonovProblem(
            MatrixOperator(h),
            rng.standard_normal(8),
            SpdMatrix.identity(8),
            SpdMatrix.identity(8),
            1.0,
        )
        sel = lcurve_select_alpha(big)  # default 30-point grid
        res = [p.residual_norm for p in sel.points]
        norm = [p.solution_norm for p in sel.points]
        res_monotone = all(a <= b + 1e-8 for a, b in zip(res[:-1], res[1:]))
        norm_monotone = all(a >= b - 1e-8 for a, b in zip(norm[:-1], norm[1:]))
        ok = closed_form_err <= 1e-6 and res_monotone and norm_monotone
        record_criterion(
            11, ok, f"2x2 closed form err {closed_form_err:.2e} (<=1e-6); "
            f"L-curve monotone: residual {res_monotone}, seminorm {norm_monotone}"
        )
        assert closed_form_err <= 1e-6
        assert res_monotone
        assert norm_monotone
