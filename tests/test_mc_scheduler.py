import math
import os
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from csample.errors import (
    BudgetInfeasibleWarning,
    ChainFailed,
    NotPositiveDefinite,
    OversubscribedWarning,
)
from csample.forward_models import IdentityOperator
from csample.gmm import GaussianMixture
from csample.linalg_rng import SpdMatrix
from csample.mc_scheduler import (
    WorkerPool,
    allocate_budgets,
    benchmark_speedup,
    build_plan,
    component_log_scores,
    chain_cost,
    round_robin_assignment,
    run_plans,
    tune_hmc,
)
from csample.posterior import PosteriorModel
from csample.samplers import GaussianProposal, HmcParams, run_chain


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
        params = tune_hmc(np.array([0.25]), n_steps=20)
        assert params.n_steps == 20
        assert params.step_size == (math.pi / 2) / 20
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
                results[workers] = run_plans(bench_model, [plan], pool)[0]
        base = results[1].ensemble
        other = results[2].ensemble
        assert base.members.tobytes() == other.members.tobytes()
        assert base.weights.tobytes() == other.weights.tobytes()

    def test_weights_sum_to_one(self, bench_model):
        plan = build_plan(bench_model, 75, "gaussian", seed=3, burn_in=10, stride=1)
        result = run_plans(bench_model, [plan], WorkerPool(1))[0]
        assert abs(result.ensemble.weights.sum() - 1.0) <= 1e-12
        assert result.ensemble.size == 75

    def test_weight_scheme(self, bench_model):
        # Sample weights within one chain are equal and proportional to
        # exp(log_weight) / budget.
        plan = build_plan(bench_model, 60, "gaussian", seed=4, burn_in=5, stride=1)
        result = run_plans(bench_model, [plan], WorkerPool(1))[0]
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
        result = run_plans(bench_model, [plan], WorkerPool(1))[0]
        made = sum(r.proposals_made for r in result.chain_results)
        accepted = sum(r.proposals_accepted for r in result.chain_results)
        assert made == sum(plan.burn_in + plan.stride * c.budget for c in plan.chains)
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

        def recording_run_chain(model, chain, **budget):
            ran.append(chain.stream_id)
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", recording_run_chain)
        with pytest.raises(ChainFailed) as exc:
            run_plans(bench_model, [plan], WorkerPool(1))
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
        result = run_plans(model, [plan], WorkerPool(1))[0]
        assert result.ensemble.size == sum(c.budget for c in plan.chains)
        assert len(result.chain_results) == 2


class RecordingPool(WorkerPool):
    """A WorkerPool that records each task it submits to its executor, in
    submission order."""

    def __init__(self, size):
        super().__init__(size)
        self.submitted = []
        if self._executor is not None:
            submit = self._executor.submit

            def recording_submit(fn, *args):
                self.submitted.append(args[-1])
                return submit(fn, *args)

            self._executor.submit = recording_submit


def offset(shared, value):
    """A pool task: the value offset by the shared argument."""
    return shared + value


def record_value(shared, value):
    """A pool task that appends its value to the shared list, in this process
    when the pool runs its tasks here."""
    shared.append(value)
    return value


def sleep_then_pid(shared, seconds):
    """A pool task: sleep, then name the process it ran in."""
    time.sleep(seconds)
    return os.getpid()


def fail_odd(shared, value):
    """A pool task that raises for odd values."""
    if value % 2:
        raise NotPositiveDefinite(value)
    return shared + value


def fail_unpicklable(shared, value):
    """A pool task that raises, for value 1, an exception no pickle can carry."""
    if value == 1:
        raise Exception(lambda: 0)
    return shared + value


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_task_order_placed_by_cost(self, workers):
        costs = [1, 1, 5, 1, 4, 1, 1]
        with RecordingPool(workers) as pool:
            results = pool.run(offset, 100, [(v,) for v in range(7)], costs)
        assert [outcome for outcome, _ in results] == [100 + v for v in range(7)]
        if workers > 1:
            # Each task is submitted once, as a future of its own.
            assert sorted(pool.submitted) == [(v,) for v in range(7)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dispatch_order_largest_cost_first(self, workers):
        # Descending cost, ties in task order; a pool of one runs the tasks
        # here in that order, a larger pool submits them in it.
        ran = []
        with RecordingPool(workers) as pool:
            results = pool.run(record_value, ran, [(v,) for v in range(7)], [1, 1, 5, 1, 4, 1, 1])
        dispatched = ran if workers == 1 else [v for (v,) in pool.submitted]
        assert dispatched == [2, 4, 0, 1, 3, 5, 6]
        assert [outcome for outcome, _ in results] == list(range(7))

    def test_long_task_holds_back_no_queued_task(self):
        # Equal costs predict seven equal tasks, but the first runs 100 times
        # longer; the other worker takes every task queued behind it.
        with WorkerPool(2) as pool:
            pool.warm_up()
            results = pool.run(sleep_then_pid, None, [(1.0,)] + [(0.01,)] * 6, [1] * 7)
        long_pid = results[0][0]
        assert long_pid not in [pid for pid, _ in results[1:]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_caught_and_timed(self, workers):
        with WorkerPool(workers) as pool:
            results = pool.run(fail_odd, 100, [(v,) for v in range(5)], [1] * 5)
        outcomes = [outcome for outcome, _ in results]
        assert outcomes[0::2] == [100, 102, 104]
        # A raising task gives back its exception, whole, and never stops its siblings.
        for v, exc in zip((1, 3), outcomes[1::2]):
            assert type(exc) is NotPositiveDefinite and exc.pivot_index == v
        assert all(seconds > 0.0 for _, seconds in results)

    def test_unpicklable_exception_keeps_its_siblings(self):
        with WorkerPool(2) as pool:
            results = pool.run(fail_unpicklable, 100, [(v,) for v in range(4)], [1] * 4)
        outcomes = [outcome for outcome, _ in results]
        assert outcomes[0::2] == [100, 102] and outcomes[3] == 103
        assert type(outcomes[1]) is RuntimeError
        assert str(outcomes[1]).startswith("Exception(<function")


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
    alone = {name: run_plans(model, [plan], WorkerPool(1))[0] for name, plan in plans.items()}
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
        direct = run_chain(model, chain, burn_in=plan.burn_in, stride=plan.stride,
                           seed=plan.seed)
        n = plan.n_samples
        assert alone["serial_hmc"].ensemble.members.tobytes() == direct.samples.tobytes()
        assert alone["serial_hmc"].ensemble.weights.tobytes() == np.full(n, 1.0 / n).tobytes()
        assert len(alone["serial_hmc"].chains) == 1 and alone["serial_hmc"].chains[0] is chain

    def test_serial_and_largest_hmc_chain_on_different_workers(self, oned_runs):
        model, plans, _ = oned_runs
        serial = plans["serial_hmc"].chains[0]
        largest = max(plans["parallel_hmc"].chains, key=lambda c: c.budget)
        with RecordingPool(2) as pool:
            run_plans(model, list(plans.values()), pool)
        # The queue runs in descending chain_cost, so these two are submitted
        # first and the two idle workers take one each.
        assert {id(job[0]) for job in pool.submitted[:2]} == {id(serial), id(largest)}
        costs = [chain_cost(model, *job[:3]) for job in pool.submitted]
        assert costs == sorted(costs, reverse=True)

    def test_chain_cost_follows_the_cost_model(self, oned_runs):
        model, plans, _ = oned_runs
        serial = plans["serial_hmc"]
        hmc = serial.chains[0]
        steps = serial.burn_in + serial.stride * hmc.budget
        # m = 8 jittered steps: a transition takes (8 + 1) / 2 on average.
        assert hmc.mechanism.n_steps == 8 and hmc.mechanism.jitter_steps
        assert chain_cost(model, hmc, serial.burn_in, serial.stride) == steps * 4.5
        fixed = replace(hmc, mechanism=replace(hmc.mechanism, jitter_steps=False))
        assert chain_cost(model, fixed, serial.burn_in, serial.stride) == steps * 8
        gaussian = plans["serial_gaussian"].chains[0]
        assert chain_cost(model, gaussian, serial.burn_in, serial.stride) == steps

    def test_failed_chain_named_after_every_chain_ran(self, oned_runs, monkeypatch):
        from csample import mc_scheduler

        model, plans, _ = oned_runs
        ran = []
        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain, **budget):
            ran.append(chain.stream_id)
            # The serial HMC chain, and component 3's chain of the HMC plan.
            if chain.stream_id in (20001, 3) and isinstance(chain.mechanism, HmcParams):
                raise FloatingPointError("injected fault")
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        with WorkerPool(1) as pool, pytest.raises(ChainFailed) as exc:
            run_plans(model, list(plans.values()), pool)
        message = str(exc.value)
        assert "chain of stream 20001 failed: FloatingPointError('injected fault')" in message
        assert message.count("chain of component 3 failed") == 1
        assert "stream 20000" not in message
        everything = [c.stream_id for plan in plans.values() for c in plan.chains if c.budget]
        assert sorted(ran) == sorted(everything)

    @pytest.mark.parametrize("error", [NotPositiveDefinite(4), FloatingPointError("injected")])
    def test_failure_text_same_in_workers_as_in_process(self, oned_runs, monkeypatch, error):
        from csample import mc_scheduler

        model, plans, _ = oned_runs
        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain, **budget):
            if chain.stream_id in (20001, 3):
                raise error
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        messages = []
        for workers in (1, 2):
            with WorkerPool(workers) as pool, pytest.raises(ChainFailed) as exc:
                run_plans(model, list(plans.values()), pool)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert f"chain of stream 20001 failed: {error!r}" in messages[0]
        assert messages[0].count(f"chain of component 3 failed: {error!r}") == 2

    def test_unpicklable_failure_named_from_a_worker(self, oned_runs, monkeypatch):
        from csample import mc_scheduler

        model, plans, _ = oned_runs
        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain, **budget):
            if chain.stream_id == 20001:
                raise Exception(lambda: 0)
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        with WorkerPool(2) as pool, pytest.raises(ChainFailed) as exc:
            run_plans(model, list(plans.values()), pool)
        message = str(exc.value)
        assert message.startswith("chain of stream 20001 failed: RuntimeError('Exception(<function")
        assert message.count("failed") == 1


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
            assert len(row.walls) == 1 and row.wall_s == row.walls[0]
        assert [row.workers for row in rows] == [1, 2]

    @pytest.mark.parametrize("burn_in", [0, 10])
    def test_prediction_is_whole_chain_speedup(self, bench_model, burn_in):
        # Equal-budget chains run whole: n / ceil(n / p), exactly, whatever
        # the burn-in.
        rows = benchmark_speedup(
            bench_model,
            70,
            "gaussian",
            [1, 2],
            seed=11,
            repetitions=1,
            burn_in=burn_in,
            stride=1,
        )
        n = bench_model.prior.n_components
        for row in rows:
            assert row.pred_speedup == n / math.ceil(n / row.workers)
            assert row.pred_efficiency == row.pred_speedup / row.workers

    def test_prediction_counts_only_chains_with_a_budget(self, bench_model):
        # Three samples leave all but three chains without a budget, and
        # three chains on two workers give 3 / 2.
        assert bench_model.prior.n_components > 3
        rows = benchmark_speedup(
            bench_model, 3, "gaussian", [1, 2], seed=13, repetitions=1, burn_in=10, stride=1
        )
        assert [row.pred_speedup for row in rows] == [1.0, 1.5]

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

        def exploding_run_chain(model, chain, **budget):
            if chain.stream_id == 2:
                raise FloatingPointError("injected fault")
            return original(model, chain, **budget)

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
