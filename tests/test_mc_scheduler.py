from dataclasses import fields

import numpy as np
import pytest

from csample.cost_model import CostModelInput, predict_cost
from csample.errors import BudgetInfeasibleWarning, ChainFailed, OversubscribedWarning
from csample.forward_models import IdentityOperator
from csample.gmm import GaussianMixture
from csample.linalg_rng import RngStream, SpdMatrix
from csample.mc_scheduler import (
    WorkerPool,
    allocate_budgets,
    balanced_assignment,
    benchmark_speedup,
    build_plan,
    component_log_scores,
    chain_cost,
    round_robin_assignment,
    run_mc_mcmc,
    run_plans,
    tune_hmc,
)
from csample.posterior import PosteriorModel
from csample.samplers import ChainConfig, GaussianProposal, HmcParams, run_chain


def mixture_1d(weights, means, variances):
    covs = [SpdMatrix.from_diagonal([v]) for v in variances]
    return GaussianMixture(
        weights, np.asarray(means, dtype=float).reshape(-1, 1), covs, structure="diagonal"
    )


def model_from(mix, y=0.0, r=1.0):
    return PosteriorModel(mix, IdentityOperator(1), [y], SpdMatrix.from_diagonal([r]))


@pytest.fixture
def bench_model(fit_mixture_1d):
    return PosteriorModel(
        fit_mixture_1d, IdentityOperator(1), [-1.0], SpdMatrix.from_diagonal([2.2])
    )


def worker_steps(budgets, assignment, workers, burn_in, stride):
    """Sampler steps per worker: burn-in plus stride steps per sample of each
    non-empty chain."""
    steps = np.zeros(workers, dtype=int)
    for budget, worker in zip(budgets, assignment):
        if budget > 0:
            steps[worker] += burn_in + stride * budget
    return steps


class TestAllocateBudgets:
    def test_symmetric_split(self):
        mix = mixture_1d([0.25] * 4, [-3.0, -1.0, 1.0, 3.0], [0.5] * 4)
        # Observation variance so large every mean is equally likely.
        model = model_from(mix, y=0.0, r=1e8)
        budgets = allocate_budgets(component_log_scores(model), 100)
        assert np.array_equal(budgets, [25, 25, 25, 25])

    def test_weight_proportionality(self):
        mix = mixture_1d([0.9, 0.1], [1.0, -1.0], [0.3, 0.3])
        model = model_from(mix, y=0.0, r=1e8)
        assert np.array_equal(allocate_budgets(component_log_scores(model), 10), [9, 1])

    def test_conserves_total(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_c = int(rng.integers(2, 9))
            w = rng.uniform(0.05, 1.0, n_c)
            mix = mixture_1d(w / w.sum(), rng.uniform(-5, 5, n_c), rng.uniform(0.1, 1, n_c))
            model = model_from(mix, y=rng.uniform(-2, 2), r=2.0)
            n_ens = int(rng.integers(n_c, 500))
            budgets = allocate_budgets(component_log_scores(model), n_ens)
            assert budgets.sum() == n_ens
            assert np.all(budgets >= 1)

    def test_formula_oracle(self, bench_model):
        # Independent recomputation: tau_i * N(y; mu_i, R), normalized.
        prior = bench_model.prior
        y, r = -1.0, 2.2
        scores = prior.weights * np.exp(
            -0.5 * (prior.means[:, 0] - y) ** 2 / r
        ) / np.sqrt(2 * np.pi * r)
        fractions = scores / scores.sum()
        n_ens = 5000
        budgets = allocate_budgets(component_log_scores(bench_model), n_ens)
        assert budgets.sum() == n_ens
        # Largest-remainder plus the minimum-one repair move each budget by
        # at most one from the exact proportional target, in this regime.
        raw = fractions * n_ens
        assert np.all(np.abs(budgets - raw) <= 1.0 + prior.n_components)

    def test_infeasible_warns(self):
        mix = mixture_1d([0.2] * 5, [-2, -1, 0, 1, 2], [0.2] * 5)
        model = model_from(mix, y=0.0, r=1e8)
        with pytest.warns(BudgetInfeasibleWarning):
            budgets = allocate_budgets(component_log_scores(model), 3)
        assert budgets.sum() == 3


class TestAssignment:
    def test_round_robin_balance(self):
        for n_chains in (3, 7, 12):
            for workers in (1, 2, 4, 7):
                counts = np.bincount(
                    round_robin_assignment(n_chains, workers), minlength=workers
                )
                assert counts.max() - counts.min() <= 1

    def test_balanced_assignment_spreads_load(self):
        budgets = np.array([100, 90, 5, 4, 3, 2])
        assignment = balanced_assignment(budgets, 2)
        loads = np.bincount(assignment, weights=budgets, minlength=2)
        assert abs(loads[0] - loads[1]) <= 90

    def test_balanced_equals_round_robin_on_equal_budgets(self):
        for n_chains in (1, 3, 7, 12):
            for workers in (1, 2, 4, 7):
                budgets = np.full(n_chains, 25)
                assert np.array_equal(
                    balanced_assignment(budgets, workers),
                    round_robin_assignment(n_chains, workers),
                )

    def test_balanced_cuts_oned_max_load(self):
        # The shipped oned plan at seed 2024 with 1000 samples on 2 workers.
        budgets = [1, 2, 547, 84, 365, 1]
        round_robin = worker_steps(budgets, round_robin_assignment(6, 2), 2, 100, 15)
        balanced = worker_steps(budgets, balanced_assignment(budgets, 2), 2, 100, 15)
        assert round_robin.tolist() == [13995, 1605]
        assert balanced.tolist() == [8305, 7295]


class TestBuildPlan:
    def test_plan_shape(self, bench_model):
        plan = build_plan(bench_model, 200, "gaussian", seed=5)
        assert len(plan.chains) == bench_model.prior.n_components
        assert plan.n_samples == 200
        for i, chain in enumerate(plan.chains):
            assert chain.stream_id == i
            assert np.array_equal(chain.initial_state, bench_model.prior.means[i])
            assert isinstance(chain.mechanism, GaussianProposal)

    def test_uniform_budgets(self, bench_model):
        plan = build_plan(bench_model, 100, "hmc", seed=5, budgets="uniform")
        budgets = [c.budget for c in plan.chains]
        assert sum(budgets) == 100
        assert max(budgets) - min(budgets) <= 1
        assert isinstance(plan.chains[0].mechanism, HmcParams)

    def test_hmc_tuning_from_component(self):
        params = tune_hmc(np.array([0.25]), trajectory=1.0, n_steps=20)
        assert params.n_steps == 20
        assert params.step_size == pytest.approx(0.05)
        assert params.mass.diagonal() == pytest.approx([4.0])

    def test_scores_computed_once_per_plan(self, bench_model, monkeypatch):
        calls = []
        original = PosteriorModel.log_likelihood

        def counting(model, x):
            calls.append(x)
            return original(model, x)

        monkeypatch.setattr(PosteriorModel, "log_likelihood", counting)
        plan = build_plan(bench_model, 150, "gaussian", seed=9)
        # One likelihood per component: the budgets and the pooling weights
        # share one set of scores.
        assert len(calls) == bench_model.prior.n_components
        monkeypatch.undo()
        scores = component_log_scores(bench_model)
        assert [c.log_weight for c in plan.chains] == scores.tolist()
        assert [c.budget for c in plan.chains] == allocate_budgets(scores, 150).tolist()

    def test_plan_independent_of_workers(self, bench_model):
        # Placement belongs to the pool that runs the plan: a plan holds no
        # worker count and no assignment.
        plan = build_plan(bench_model, 150, "gaussian", seed=9)
        assert [f.name for f in fields(plan)] == ["chains", "burn_in", "stride", "seed"]
        with pytest.raises(TypeError):
            build_plan(bench_model, 150, "gaussian", seed=9, workers=7)


class TestRunMcMcmc:
    def test_gather_deterministic_across_pools(self, bench_model):
        results = {}
        for workers in (1, 2):
            plan = build_plan(bench_model, 120, "gaussian", seed=33, burn_in=20, stride=2)
            with WorkerPool(workers) as pool:
                results[workers] = run_mc_mcmc(bench_model, plan, pool=pool)
        base = results[1].ensemble
        other = results[2].ensemble
        assert base.members.tobytes() == other.members.tobytes()
        assert base.weights.tobytes() == other.weights.tobytes()

    def test_weights_sum_to_one(self, bench_model):
        plan = build_plan(bench_model, 75, "gaussian", seed=3, burn_in=10, stride=1)
        result = run_mc_mcmc(bench_model, plan)
        assert abs(result.ensemble.weights.sum() - 1.0) <= 1e-12
        assert result.ensemble.size == 75

    def test_weight_scheme(self, bench_model):
        # Sample weights within one chain are equal and proportional to
        # exp(log_weight) / budget.
        plan = build_plan(bench_model, 60, "gaussian", seed=4, burn_in=5, stride=1)
        result = run_mc_mcmc(bench_model, plan)
        weights = result.ensemble.weights
        offset = 0
        raw = []
        for chain in plan.chains:
            if chain.budget == 0:
                continue
            block = weights[offset : offset + chain.budget]
            assert np.all(block == block[0])
            raw.append(block[0] * chain.budget)
            offset += chain.budget
        # Per-component pooled mass proportional to exp(log_weight).
        log_w = np.array([c.log_weight for c in plan.chains if c.budget > 0])
        expected = np.exp(log_w - log_w.max())
        expected /= expected.sum()
        assert np.allclose(raw, expected, atol=1e-12)

    def test_aggregate_acceptance_arithmetic(self, bench_model):
        plan = build_plan(bench_model, 50, "gaussian", seed=6, burn_in=10, stride=1)
        result = run_mc_mcmc(bench_model, plan)
        made = sum(r.proposals_made for r in result.chain_results)
        accepted = sum(r.proposals_accepted for r in result.chain_results)
        assert result.proposals_made == made
        assert result.acceptance_rate == accepted / made

    def test_failed_chain_isolated(self, bench_model, monkeypatch):
        from csample import mc_scheduler

        plan = build_plan(bench_model, 40, "gaussian", seed=7, burn_in=5, stride=1)
        # Swap two chains' mechanisms for something that blows up in the worker.
        class Exploding:
            cov = None

        for i in (2, 4):
            object.__setattr__(plan.chains[i], "mechanism", Exploding())
        ran = []
        original = mc_scheduler.run_chain

        def recording_run_chain(model, chain_config, mechanism):
            ran.append(chain_config.rng.stream_id)
            return original(model, chain_config, mechanism)

        monkeypatch.setattr(mc_scheduler, "run_chain", recording_run_chain)
        with pytest.raises(ChainFailed) as exc:
            run_mc_mcmc(bench_model, plan)
        message = str(exc.value)
        assert "chain of component 2 failed" in message
        assert "chain of component 4 failed" in message
        assert "component 0" not in message
        # A failure does not stop its siblings: every chain ran.
        assert sorted(ran) == [c.stream_id for c in plan.chains]

    def test_zero_budget_chain_skipped(self):
        mix = mixture_1d([0.5, 0.25, 0.25], [0.0, 5.0, -5.0], [0.2, 0.2, 0.2])
        model = model_from(mix, y=0.0, r=1e6)
        plan = build_plan(model, 30, "gaussian", seed=1, burn_in=5, stride=1)
        object.__setattr__(plan.chains[1], "budget", 0)
        result = run_mc_mcmc(model, plan)
        assert result.ensemble.size == sum(c.budget for c in plan.chains)
        assert len(result.chain_results) == 2


class RecordingPool(WorkerPool):
    """A WorkerPool that keeps the batches it was handed."""

    def run_batches(self, fn, shared, batches):
        self.batches = batches
        return super().run_batches(fn, shared, batches)


def offset(shared, value):
    """A pool task: the value offset by the shared argument."""
    return shared + value


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_task_order_placed_by_cost(self, workers):
        costs = [1, 1, 5, 1, 4, 1, 1]
        with RecordingPool(workers) as pool:
            results = pool.run(offset, 100, [(v,) for v in range(7)], costs)
        assert results == [100 + v for v in range(7)]
        batch_of = {task: b for b, batch in enumerate(pool.batches) for (task,) in batch}
        assert len(pool.batches) == workers and sorted(batch_of) == list(range(7))
        if workers > 1:
            # The two costliest tasks go to different workers.
            assert batch_of[2] != batch_of[4]


def small_oned_plans(model):
    from csample.experiments import default_config, oned_plans

    cfg = default_config("oned")
    cfg.update(n_samples=150, burn_in=20, stride=2, hmc_steps=8)
    return oned_plans(model, cfg)


@pytest.fixture(scope="module")
def oned_runs():
    """A 1-D model, oned's four plans on it, and each plan run alone."""
    from conftest import FIT_1D, make_mixture_1d

    model = PosteriorModel(make_mixture_1d(FIT_1D), IdentityOperator(1), [-1.0],
                           SpdMatrix.from_diagonal([2.2]))
    plans = small_oned_plans(model)
    alone = {name: run_mc_mcmc(model, plan) for name, plan in plans.items()}
    return model, plans, alone


class TestRunPlans:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ensembles_equal_each_plan_run_alone(self, oned_runs, workers):
        model, plans, alone = oned_runs
        with WorkerPool(workers) as pool:
            results = run_plans(model, list(plans.values()), pool)
        for name, result in zip(plans, results):
            assert result.ensemble.members.tobytes() == alone[name].ensemble.members.tobytes()
            assert result.ensemble.weights.tobytes() == alone[name].ensemble.weights.tobytes()
            assert result.acceptance_rate == alone[name].acceptance_rate
            assert result.chain_seconds > 0.0

    def test_serial_plan_equals_its_chain_run_directly(self, oned_runs):
        model, plans, alone = oned_runs
        plan = plans["serial_hmc"]
        chain = plan.chains[0]
        direct = run_chain(model, ChainConfig(chain.budget, chain.initial_state,
                                              RngStream(plan.seed, chain.stream_id),
                                              burn_in=plan.burn_in, stride=plan.stride),
                           chain.mechanism)
        n = plan.n_samples
        assert alone["serial_hmc"].ensemble.members.tobytes() == direct.samples.tobytes()
        assert alone["serial_hmc"].ensemble.weights.tobytes() == np.full(n, 1.0 / n).tobytes()
        assert [c.component for c in alone["serial_hmc"].chain_results] == [-1]

    def test_serial_and_largest_hmc_chain_on_different_workers(self, oned_runs):
        model, plans, _ = oned_runs
        serial = plans["serial_hmc"].chains[0]
        largest = max(plans["parallel_hmc"].chains, key=lambda c: c.budget)
        with RecordingPool(2) as pool:
            run_plans(model, list(plans.values()), pool)
        worker_of = {id(job[0]): w for w, batch in enumerate(pool.batches) for job in batch}
        assert len(pool.batches) == 2
        assert worker_of[id(serial)] != worker_of[id(largest)]
        # The placement is balanced_assignment of the chains' predicted costs.
        jobs = [job for batch in pool.batches for job in batch]
        loads = [sum(chain_cost(model, *job[:3]) for job in batch) for batch in pool.batches]
        heaviest = max(chain_cost(model, *job[:3]) for job in jobs)
        assert max(loads) - min(loads) <= heaviest

    def test_chain_cost_follows_the_cost_model(self, oned_runs):
        model, plans, _ = oned_runs
        serial = plans["serial_hmc"]
        hmc = serial.chains[0]
        steps = serial.burn_in + serial.stride * hmc.budget
        assert chain_cost(model, hmc, serial.burn_in, serial.stride) == steps * 8
        gaussian = plans["serial_gaussian"].chains[0]
        assert chain_cost(model, gaussian, serial.burn_in, serial.stride) == steps

    def test_failed_chain_named_after_every_chain_ran(self, oned_runs, monkeypatch):
        from csample import mc_scheduler

        model, plans, _ = oned_runs
        ran = []
        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain_config, mechanism):
            ran.append(chain_config.rng.stream_id)
            # The serial HMC chain, and component 3's chain of the HMC plan.
            if chain_config.rng.stream_id in (20001, 3) and isinstance(mechanism, HmcParams):
                raise FloatingPointError("injected fault")
            return original(model, chain_config, mechanism)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        with WorkerPool(1) as pool, pytest.raises(ChainFailed) as exc:
            run_plans(model, list(plans.values()), pool)
        message = str(exc.value)
        assert "chain of stream 20001 failed: FloatingPointError('injected fault')" in message
        assert message.count("chain of component 3 failed") == 1
        assert "stream 20000" not in message
        everything = [c.stream_id for plan in plans.values() for c in plan.chains if c.budget]
        assert sorted(ran) == sorted(everything)


class TestBenchmark:
    def test_rows_and_csv(self, bench_model):
        rows = benchmark_speedup(
            bench_model,
            70,
            "gaussian",
            [1, 2],
            seed=10,
            repetitions=1,
            burn_in=10,
            stride=1,
        )
        assert rows[0].workers == 1
        assert rows[0].speedup == 1.0
        assert rows[0].efficiency == 1.0
        for row in rows:
            assert row.wall_s > 0.0
        assert [row.workers for row in rows] == [1, 2]

    def test_predicted_columns_match_cost_model(self, bench_model):
        # Predictions are the cost model's integral parallel costs,
        # normalized to the p = 1 prediction.
        rows = benchmark_speedup(
            bench_model,
            70,
            "gaussian",
            [1, 2],
            seed=11,
            repetitions=1,
            burn_in=10,
            stride=1,
        )

        def integral_cost(p):
            return predict_cost(
                CostModelInput(
                    workers=p,
                    n_components=bench_model.prior.n_components,
                    n_ens=70,
                    n_var=1,
                    burn_in=10,
                    stride=1,
                    proposal="diagonal",
                )
            ).parallel_cost_integral

        assert rows[0].pred_speedup == 1.0
        assert rows[1].pred_speedup == integral_cost(1) / integral_cost(2)
        assert rows[1].pred_efficiency == rows[1].pred_speedup / 2

    def test_no_burn_in_prediction_reaches_worker_count(self, bench_model):
        rows = benchmark_speedup(
            bench_model,
            70,
            "gaussian",
            [1, 2],
            seed=13,
            repetitions=1,
            burn_in=0,
            stride=1,
        )
        n_c = bench_model.prior.n_components
        assert rows[1].pred_speedup == n_c / np.ceil(n_c / 2)

    @pytest.mark.filterwarnings("ignore::csample.errors.OversubscribedWarning")
    def test_repetitions_interleave_worker_counts(self, bench_model, monkeypatch):
        from csample import mc_scheduler

        events = []

        class LoggedPool(WorkerPool):
            def __init__(self, size):
                super().__init__(size)
                events.append(("open", self.size))

            def close(self):
                events.append(("close", self.size))
                super().close()

        monkeypatch.setattr(mc_scheduler, "WorkerPool", LoggedPool)
        rows = benchmark_speedup(bench_model, 30, "gaussian", [3, 1, 2], seed=15,
                                 repetitions=2, burn_in=5, stride=1)
        # Each repetition times every p once, with one pool open at a time.
        cycle = [event for p in (1, 2, 3) for event in (("open", p), ("close", p))]
        assert events == cycle * 2
        assert [row.workers for row in rows] == [1, 2, 3]

    def test_oversubscription_flagged(self, bench_model):
        import os

        too_many = (os.cpu_count() or 1) + 1
        with pytest.warns(OversubscribedWarning):
            rows = benchmark_speedup(
                bench_model,
                30,
                "gaussian",
                [1, too_many],
                seed=12,
                repetitions=1,
                burn_in=5,
                stride=1,
            )
        assert rows[-1].oversubscribed

    def test_failed_chain_fails_the_benchmark(self, bench_model, monkeypatch):
        from csample import mc_scheduler

        original = mc_scheduler.run_chain

        def exploding_run_chain(model, chain_config, mechanism):
            if chain_config.rng.stream_id == 2:
                raise FloatingPointError("injected fault")
            return original(model, chain_config, mechanism)

        monkeypatch.setattr(mc_scheduler, "run_chain", exploding_run_chain)
        with pytest.raises(ChainFailed, match="chain of component 2 failed.*injected fault"):
            benchmark_speedup(
                bench_model,
                30,
                "gaussian",
                [1],
                seed=14,
                repetitions=1,
                burn_in=5,
                stride=1,
            )
