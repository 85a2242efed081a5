from dataclasses import fields

import numpy as np
import pytest

from csample.errors import DimensionMismatch, InsufficientSamples
from csample.forward_models import IdentityOperator, MatrixOperator
from csample.gmm import GaussianMixture
from csample.linalg_rng import RngStream, SpdMatrix
from csample.posterior import PosteriorModel, linear_mixture_posterior
from csample.samplers import (
    ChainPlan,
    ChainResult,
    GaussianProposal,
    HmcParams,
    chain_diagnostics,
    hmc_step,
    leapfrog,
    mh_step,
    run_chain,
)


class FlatTarget:
    """Constant density: every proposal must be accepted."""

    def neg_log_posterior(self, x):
        return 0.0


class HalfDensityTarget:
    """J = 0 at the origin state, log 2 elsewhere: half the density."""

    def __init__(self, origin):
        self.origin = np.asarray(origin, dtype=float)

    def neg_log_posterior(self, x):
        if np.array_equal(x, self.origin):
            return 0.0
        return np.log(2.0)


class QuadraticPotential:
    """J(x) = 0.5 ||x||^2: a standard Gaussian potential."""

    def neg_log_posterior(self, x):
        return 0.5 * float(x @ x)

    def grad_neg_log_posterior(self, x):
        return np.asarray(x, dtype=float)

    def potential_and_grad(self, x):
        return self.neg_log_posterior(x), self.grad_neg_log_posterior(x)


class NanAwayTarget:
    """J = 0 at the origin state, NaN everywhere else."""

    def __init__(self, origin):
        self.origin = np.asarray(origin, dtype=float)

    def neg_log_posterior(self, x):
        return 0.0 if np.array_equal(x, self.origin) else np.nan


def gaussian_model_1d(mean=0.0, var=1.0):
    prior = GaussianMixture([1.0], [[mean]], [SpdMatrix.from_diagonal([var])])
    return PosteriorModel(
        prior, IdentityOperator(1), [mean], SpdMatrix.from_diagonal([var])
    )


class TestMhStep:
    def test_equal_density_always_accepts(self):
        rng = RngStream(0, 0)
        proposal = GaussianProposal(SpdMatrix.identity(2))
        x = np.zeros(2)
        for _ in range(50):
            x, accepted, _, _, _ = mh_step(FlatTarget(), x, proposal, rng)
            assert accepted

    def test_half_density_accepts_half(self):
        # From the origin the ratio is exactly 1/2, so the long-run
        # acceptance frequency is 0.5 within binomial error.
        target = HalfDensityTarget([0.0])
        proposal = GaussianProposal(SpdMatrix.identity(1))
        rng = RngStream(1, 0)
        n = 20000
        accepted = 0
        origin = np.zeros(1)
        for _ in range(n):
            accepted += mh_step(target, origin, proposal, rng).accepted
        assert abs(accepted / n - 0.5) <= 3.5 * np.sqrt(0.25 / n)

    def test_replay_identical_trajectory(self):
        model = gaussian_model_1d()
        proposal = GaussianProposal(SpdMatrix.from_diagonal([0.8]))

        def walk(seed):
            rng = RngStream(seed, 4)
            x = np.array([2.0])
            path = []
            for _ in range(30):
                x, _, _, _, _ = mh_step(model, x, proposal, rng)
                path.append(float(x[0]))
            return path

        assert walk(9) == walk(9)

    def test_rejection_returns_same_object(self):
        target = HalfDensityTarget([0.0])
        proposal = GaussianProposal(SpdMatrix.identity(1))
        rng = RngStream(3, 0)
        origin = np.zeros(1)
        rejected = None
        for _ in range(100):
            out = mh_step(target, origin, proposal, rng)
            if not out.accepted:
                rejected = out
                break
        assert rejected is not None
        assert rejected.state is origin

    def test_nan_candidate_rejected(self):
        # Every candidate's J is NaN, so every step is rejected; the uniform
        # is still drawn each step, so the stream stays where a finite
        # target leaves it.
        origin = np.zeros(1)
        proposal = GaussianProposal(SpdMatrix.identity(1))
        rng, reference = RngStream(5, 0), RngStream(5, 0)
        for _ in range(20):
            out = mh_step(NanAwayTarget(origin), origin, proposal, rng)
            assert not out.accepted and out.state is origin and out.potential == 0.0
            mh_step(FlatTarget(), origin, proposal, reference)
        assert rng.uniform() == reference.uniform()


class TestTransitionRecord:
    def test_both_transitions_return_one_record(self):
        # MH and HMC share one contract: one record, with no divergence and
        # no gradient after an MH step.
        model = gaussian_model_1d()
        x = np.array([0.3])
        mh = mh_step(model, x, GaussianProposal(SpdMatrix.identity(1)), RngStream(1, 0))
        hmc = hmc_step(model, x, HmcParams(SpdMatrix.identity(1), 0.1, 5), RngStream(1, 0))
        assert type(mh) is type(hmc)
        assert mh._fields == ("state", "accepted", "potential", "divergent", "grad")
        assert mh.divergent is False and mh.grad is None


class TestLeapfrog:
    def test_hand_algebra_single_step(self):
        # One step on J = x^2/2 from (x, p) = (1, 0):
        # x' = 1 - h^2/2 and p' = -h + h^3/4.
        model = QuadraticPotential()
        mass = SpdMatrix.identity(1)
        for h in (0.3, 0.1, 0.05):
            x0 = np.array([1.0])
            g0 = model.grad_neg_log_posterior(x0)
            x, p, _, _ = leapfrog(model, x0, np.array([0.0]), mass, h, 1, g0)
            assert x[0] == pytest.approx(1.0 - h * h / 2.0, abs=1e-15)
            assert p[0] == pytest.approx(-h + h**3 / 4.0, abs=1e-15)

    def test_reversibility(self):
        model = QuadraticPotential()
        mass = SpdMatrix.from_diagonal([2.0, 0.5, 1.0])
        rng = RngStream(5, 0)
        x0 = rng.standard_normal(3)
        p0 = rng.standard_normal(3)
        g0 = model.grad_neg_log_posterior(x0)
        x1, p1, _, g1 = leapfrog(model, x0, p0, mass, 0.15, 25, g0)
        x2, p2, _, _ = leapfrog(model, x1, -p1, mass, 0.15, 25, g1)
        assert np.allclose(x2, x0, atol=1e-10)
        assert np.allclose(-p2, p0, atol=1e-10)


class TestHmcStep:
    def test_small_step_accepts(self):
        model = gaussian_model_1d()
        params = HmcParams(SpdMatrix.identity(1), 1e-5, 1)
        rng = RngStream(2, 0)
        x = np.array([0.7])
        for _ in range(100):
            x, accepted, _, divergent, _ = hmc_step(model, x, params, rng)
            assert accepted and not divergent

    def test_divergence_flagged_and_rejected(self):
        model = QuadraticPotential()
        params = HmcParams(SpdMatrix.identity(1), 50.0, 60)
        rng = RngStream(4, 0)
        x = np.array([1.0])
        out = hmc_step(model, x, params, rng)
        assert out.divergent and not out.accepted
        assert out.state is x

    @pytest.mark.parametrize("step_size", [1e10, 1e200])
    @pytest.mark.parametrize("structure, covs", [
        ("full", [[[0.3, 0.1], [0.1, 0.5]], [[0.6, -0.1], [-0.1, 0.2]]]),
        ("tied", [[[0.3, 0.1], [0.1, 0.5]]] * 2),
        ("diagonal", [[0.3, 0.5], [0.6, 0.2]]),
    ])
    def test_overflow_is_a_divergence_for_every_storage(self, structure, covs, step_size):
        # An exploding trajectory overflows the prior's whitened deviations;
        # dense storage must read it as a divergence, as variance storage does.
        prior = GaussianMixture([0.4, 0.6], [[-1.0, 0.5], [1.5, 0.0]], np.array(covs),
                                structure=structure)
        model = PosteriorModel(prior, IdentityOperator(2), [0.2, 0.1],
                               SpdMatrix.from_diagonal([0.8, 0.8]))
        x = np.array([0.1, 0.2])
        out = hmc_step(model, x, HmcParams(SpdMatrix.identity(2), step_size, 5), RngStream(3, 0))
        assert out.divergent and not out.accepted
        assert out.state is x

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HmcParams(SpdMatrix.identity(1), -0.1, 10)
        with pytest.raises(ValueError):
            HmcParams(SpdMatrix.identity(1), 0.1, 0)


class CountingModel:
    """Delegates to a model and counts each method call by name."""

    def __init__(self, model):
        self.model = model
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.model, name)
        if not callable(method):  # attributes such as ``dim`` pass through
            return method

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args)

        return counted

    def gradient_evaluations(self):
        return self.calls.get("grad_neg_log_posterior", 0) + self.calls.get("potential_and_grad", 0)


def two_mode_model():
    prior = GaussianMixture([0.4, 0.6], [[-1.0, 0.5], [1.5, 0.0]],
                            np.array([[0.3, 0.5], [0.6, 0.2]]), structure="diagonal")
    return PosteriorModel(prior, IdentityOperator(2), [0.2, 0.1],
                          SpdMatrix.from_diagonal([0.8, 0.8]))


class TestCarriedGradient:
    def test_n_evaluations_per_step(self):
        model = CountingModel(two_mode_model())
        params = HmcParams(SpdMatrix.identity(2), 0.1, 7)
        rng = RngStream(8, 0)
        x = np.array([0.3, -0.2])
        potential, grad = model.potential_and_grad(x)
        for _ in range(5):
            model.calls.clear()
            x, _, potential, _, grad = hmc_step(model, x, params, rng, potential, grad)
            assert model.gradient_evaluations() == 7
            assert model.calls.get("potential_and_grad") == 1
            assert "neg_log_posterior" not in model.calls

    def test_chain_makes_one_more_for_its_start(self):
        model = CountingModel(two_mode_model())
        chain = ChainPlan(12, [0.3, -0.2], HmcParams(SpdMatrix.identity(2), 0.1, 7), 1)
        result = run_chain(model, chain, burn_in=3, stride=2, seed=8)
        assert result.proposals_made == 3 + 2 * 12
        assert model.gradient_evaluations() == 1 + 7 * result.proposals_made
        assert "neg_log_posterior" not in model.calls

    def test_carrying_changes_no_bit(self):
        # Each step recomputing J and its gradient at its start state gives
        # the same chain as run_chain, which carries them.
        model = two_mode_model()
        params = HmcParams(SpdMatrix.from_diagonal([2.0, 0.5]), 0.15, 9, jitter_steps=True)
        chain = ChainPlan(40, [0.3, -0.2], params, 2)
        carried = run_chain(model, chain, burn_in=0, stride=1, seed=8).samples
        rng = RngStream(8, 2)
        x = np.array([0.3, -0.2])
        fresh = []
        for _ in range(40):
            x = hmc_step(model, x, params, rng).state
            fresh.append(x)
        assert carried.tobytes() == np.array(fresh).tobytes()


class TestRunChain:
    def test_wrong_length_start_raises_before_the_first_step(self):
        model = CountingModel(gaussian_model_1d())
        for mech in (GaussianProposal(SpdMatrix.identity(2)),
                     HmcParams(SpdMatrix.identity(2), 0.1, 5)):
            with pytest.raises(DimensionMismatch):
                run_chain(model, ChainPlan(4, [0.0, 1.0], mech, 0), burn_in=0, stride=1, seed=0)
        assert model.calls == {}  # neither J nor its gradient was evaluated

    def test_zero_samples(self):
        model = gaussian_model_1d()
        chain = ChainPlan(0, [0.0], GaussianProposal(SpdMatrix.identity(1)), 0)
        result = run_chain(model, chain, burn_in=25, stride=3, seed=0)
        assert result.samples.shape == (0, 1)
        assert result.proposals_made == 25

    def test_sample_count_and_rate(self):
        model = gaussian_model_1d()
        chain = ChainPlan(40, [0.0], GaussianProposal(SpdMatrix.from_diagonal([0.5])), 0)
        result = run_chain(model, chain, burn_in=10, stride=2, seed=1)
        assert result.n_samples == 40
        assert result.proposals_made == 10 + 2 * 40
        assert 0.0 < result.acceptance_rate <= 1.0
        assert result.acceptance_rate == result.proposals_accepted / result.proposals_made

    def test_result_holds_only_what_the_chain_made(self):
        # The plan names the chain and the pool times it; the result is a
        # pure function of its inputs.
        model = gaussian_model_1d()
        chain = ChainPlan(20, [0.0], GaussianProposal(SpdMatrix.identity(1)), 17, component=3)
        runs = [run_chain(model, chain, burn_in=5, stride=2, seed=4) for _ in range(2)]
        assert [f.name for f in fields(runs[0])] == [
            "samples", "proposals_made", "proposals_accepted", "divergences"]
        assert runs[0].samples.tobytes() == runs[1].samples.tobytes()
        counts = [(r.proposals_made, r.proposals_accepted, r.divergences) for r in runs]
        assert counts[0] == counts[1]

    def test_stream_built_from_seed_and_stream_id(self):
        # A chain draws from RngStream(seed, stream_id), built afresh per call.
        model = gaussian_model_1d()
        mech = GaussianProposal(SpdMatrix.identity(1))
        rng = RngStream(4, 17)
        x = np.array([0.0])
        by_hand = []
        for _ in range(12):
            x = mh_step(model, x, mech, rng).state
            by_hand.append(x)
        result = run_chain(model, ChainPlan(12, [0.0], mech, 17), burn_in=0, stride=1, seed=4)
        assert result.samples.tobytes() == np.array(by_hand).tobytes()

    def test_invalid_budget_rejected(self):
        mech = GaussianProposal(SpdMatrix.identity(1))
        with pytest.raises(ValueError):
            ChainPlan(-1, [0.0], mech, 0)
        for burn_in, stride in ((-1, 1), (0, 0)):
            with pytest.raises(ValueError):
                run_chain(gaussian_model_1d(), ChainPlan(3, [0.0], mech, 0),
                          burn_in=burn_in, stride=stride, seed=0)

    def test_deterministic(self):
        model = gaussian_model_1d()
        mech = GaussianProposal(SpdMatrix.from_diagonal([0.7]))

        def once():
            return run_chain(model, ChainPlan(25, [1.0], mech, 2), burn_in=5, stride=2,
                             seed=7).samples

        assert np.array_equal(once(), once())

    def test_rejected_steps_duplicate_state(self):
        model = gaussian_model_1d()
        # A huge proposal forces frequent rejections.
        mech = GaussianProposal(SpdMatrix.from_diagonal([400.0]))
        result = run_chain(model, ChainPlan(200, [0.0], mech, 0), burn_in=0, stride=1, seed=3)
        repeats = np.sum(result.samples[1:] == result.samples[:-1])
        assert repeats > 0  # bitwise-equal duplicates from rejections

    def test_conjugate_mean_recovery(self):
        # n_c = 1 with linear H: chain mean must match the analytic posterior
        # mean within 3 standard errors (SE from the ESS estimate).
        rng_np = np.random.default_rng(8)
        prior_cov = SpdMatrix.from_dense([[1.0, 0.3], [0.3, 0.8]])
        prior_mean = np.array([0.5, -0.5])
        prior = GaussianMixture([1.0], [prior_mean], [prior_cov])
        h = np.array([[1.0, 0.2], [0.0, 1.0]])
        y = np.array([0.8, -0.2])
        obs_cov = SpdMatrix.from_diagonal([0.5, 0.5])
        model = PosteriorModel(prior, MatrixOperator(h), y, obs_cov)
        posterior = linear_mixture_posterior(model)
        mean_a = posterior.means[0]
        cov_a = SpdMatrix.from_dense(posterior.covariances[0])

        proposal = GaussianProposal(cov_a.scaled(2.38**2 / 2.0))
        chain = ChainPlan(5000, mean_a + 0.5, proposal, 0)
        result = run_chain(model, chain, burn_in=200, stride=2, seed=15)
        diag = chain_diagnostics(result)
        post_std = np.sqrt(np.diag(cov_a.dense()))
        se = post_std / np.sqrt(diag.ess)
        err = np.abs(result.samples.mean(axis=0) - mean_a)
        assert np.all(err <= 3.0 * se)

    def test_hmc_acceptance_near_one_for_tiny_steps(self):
        model = gaussian_model_1d()
        params = HmcParams(SpdMatrix.identity(1), 1e-4, 5)
        result = run_chain(model, ChainPlan(50, [0.0], params, 1), burn_in=10, stride=1, seed=2)
        assert result.acceptance_rate == 1.0
        assert result.divergences == 0

    def test_no_divergences_on_benchmark_with_default_tuning(self, fit_mixture_1d):
        from csample.forward_models import IdentityOperator
        from csample.mc_scheduler import tune_hmc

        model = PosteriorModel(
            fit_mixture_1d, IdentityOperator(1), [-1.0], SpdMatrix.from_diagonal([2.2])
        )
        for i, variances in enumerate(fit_mixture_1d.variances):
            params = tune_hmc(variances, n_steps=20)
            chain = ChainPlan(100, fit_mixture_1d.means[i], params, i)
            result = run_chain(model, chain, burn_in=50, stride=1, seed=5)
            assert result.divergences == 0


class TestDetailedBalance:
    def test_three_bin_flow_balance(self):
        # For a reversible chain in stationarity, transition flows between
        # coarse bins must balance within Monte-Carlo error.
        model = gaussian_model_1d()
        mech = GaussianProposal(SpdMatrix.from_diagonal([1.0]))
        chain = ChainPlan(40000, [0.0], mech, 0)
        samples = run_chain(model, chain, burn_in=500, stride=1, seed=6).samples[:, 0]
        bins = np.digitize(samples, [-0.43, 0.43])
        flows = np.zeros((3, 3))
        for a, b in zip(bins[:-1], bins[1:]):
            flows[a, b] += 1
        for i in range(3):
            for j in range(i + 1, 3):
                total = flows[i, j] + flows[j, i]
                if total == 0:
                    continue
                assert abs(flows[i, j] - flows[j, i]) <= 4.0 * np.sqrt(total)


class TestDiagnostics:
    def test_insufficient_samples(self):
        result = ChainResult(np.zeros((1, 1)), 1, 1)
        with pytest.raises(InsufficientSamples):
            chain_diagnostics(result)

    def test_constant_chain_degenerate(self):
        result = ChainResult(np.ones((50, 1)), 50, 0)
        diag = chain_diagnostics(result)
        assert diag.degenerate
        assert diag.ess_min == 0.0

    def test_iid_ess_close_to_n(self):
        rng = np.random.default_rng(11)
        n = 4000
        result = ChainResult(rng.standard_normal((n, 2)), n, n)
        diag = chain_diagnostics(result)
        assert np.all(diag.ess >= 0.8 * n)
        assert np.all(diag.ess <= n)

    def test_all_accepted_rate(self):
        result = ChainResult(np.zeros((10, 1)), 10, 10)
        assert chain_diagnostics(result).acceptance_rate == 1.0

    def test_correlated_chain_has_reduced_ess(self):
        rng = np.random.default_rng(12)
        n = 4000
        x = np.empty(n)
        x[0] = 0.0
        rho = 0.9
        noise = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + np.sqrt(1 - rho * rho) * noise[i]
        result = ChainResult(x.reshape(-1, 1), n, n)
        diag = chain_diagnostics(result)
        # AR(1) with rho = 0.9 has ESS about n * (1-rho)/(1+rho) ~ n/19.
        assert diag.ess_min < 0.15 * n
