"""Multi-chain MCMC orchestration: one chain per prior mixture component.

Chains are planned deterministically from (model, seed): budgets by
component weight times the likelihood of the component mean, initial states
at the component means, proposal tuning from the local component statistics,
and one random stream per chain keyed by its component index. A serial
baseline is a plan of one chain. ``run_plans`` runs the chains of several
plans in one call on one worker pool, placed largest predicted cost first;
the placement never changes the gathered ensembles, because streams are per
chain and each plan's gather runs in chain order.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cost_model import CostModelInput, predict_cost, step_cost
from .errors import BudgetInfeasibleWarning, ChainFailed, OversubscribedWarning
from .gmm import Ensemble
from .linalg_rng import RngStream, SpdMatrix
from .pool import WorkerPool, balanced_assignment  # noqa: F401 (re-exported)
from .samplers import ChainConfig, GaussianProposal, HmcParams, run_chain

# Standard random-walk scaling; experiment configs override it where a
# target acceptance rate is being reproduced.
DEFAULT_PROPOSAL_SCALE_NUMERATOR = 2.38**2

DEFAULT_HMC_STEPS = 20
DEFAULT_HMC_TRAJECTORY = 1.0  # in local posterior-std units


@dataclass(frozen=True)
class ChainPlan:
    component: int
    budget: int
    initial_state: np.ndarray
    mechanism: object  # GaussianProposal | HmcParams
    stream_id: int
    log_weight: float  # unnormalized log pooling weight of the component


@dataclass
class SchedulerPlan:
    chains: list
    burn_in: int
    stride: int
    seed: int

    @property
    def n_samples(self):
        return sum(c.budget for c in self.chains)


@dataclass
class ChainFailure:
    """What a worker returns for a chain that raised."""

    component: int
    stream_id: int
    error: str


@dataclass
class McmcResult:
    ensemble: Ensemble
    chain_results: list  # ChainResult per non-empty chain, in chain order
    acceptance_rate: float
    proposals_made: int
    proposals_accepted: int
    divergences: int
    wall_time: float  # elapsed wall of the run that ran this plan's chains

    @property
    def chain_seconds(self):
        """Seconds this plan's chains ran, each timed where it ran."""
        return sum(r.wall_s for r in self.chain_results)


def component_log_scores(model):
    """log tau_i + log L(y | mu_i) per prior component: the unnormalized log
    share of component i in the budgets and in the pooled ensemble."""
    prior = model.prior
    return np.array(
        [np.log(w) + model.log_likelihood(mu) for w, mu in zip(prior.weights, prior.means)]
    )


def allocate_budgets(log_scores, n_ens):
    """Per-component sample budgets: n_i proportional to exp(log_scores[i]),
    the ``component_log_scores`` of the model.

    Largest-remainder rounding makes the budgets sum to n_ens exactly; when
    n_ens >= n_c every chain keeps at least one sample (taken from the
    largest budgets). With n_ens < n_c zero-budget chains are allowed and a
    BudgetInfeasibleWarning is emitted.
    """
    n_c = log_scores.size
    if n_ens < 1:
        raise ValueError("n_ens must be at least 1")
    shifted = np.exp(log_scores - np.max(log_scores))
    fractions = shifted / np.sum(shifted)
    target = fractions * n_ens
    budgets = np.floor(target).astype(int)
    remainder = n_ens - int(np.sum(budgets))
    if remainder > 0:
        order = np.argsort(-(target - budgets), kind="stable")
        budgets[order[:remainder]] += 1
    if n_ens >= n_c:
        while np.any(budgets == 0):
            budgets[int(np.argmax(budgets))] -= 1
            budgets[int(np.argmin(budgets))] += 1
    else:
        warnings.warn(
            f"ensemble size {n_ens} below chain count {n_c}; "
            "zero-budget chains allowed",
            BudgetInfeasibleWarning,
        )
    return budgets


def tune_gaussian_proposal(component_cov, scale):
    """Random walk with covariance ``scale`` times the component's, given as
    the mixture stores it: (dim,) variances or a (dim, dim) matrix."""
    return GaussianProposal(SpdMatrix(component_cov).scaled(scale))


def tune_hmc(variances, trajectory, n_steps, jitter=False):
    """HMC tuning from local component statistics: the mass matrix is the
    diagonal component precision, 1 / ``variances``, and h*m covers
    ``trajectory`` local standard-deviation units."""
    mass = SpdMatrix.from_diagonal(1.0 / variances)
    return HmcParams(mass, float(trajectory) / n_steps, int(n_steps), jitter_steps=jitter)


def round_robin_assignment(n_chains, workers):
    return np.arange(n_chains) % workers


def build_plan(
    model,
    n_ens,
    mechanism,
    seed,
    *,
    burn_in=100,
    stride=5,
    proposal_scale=None,
    hmc_trajectory=DEFAULT_HMC_TRAJECTORY,
    hmc_steps=DEFAULT_HMC_STEPS,
    hmc_jitter=False,
    budgets="likelihood",
):
    """Plan one chain per prior mixture component.

    ``mechanism`` is "gaussian" or "hmc". ``budgets`` is "likelihood"
    (component weight times likelihood of the mean) or "uniform" (equal
    split, the idealized division the cost model assumes). The plan holds
    no placement: ``run_plans`` places chains on the pool that runs them.
    """
    prior = model.prior
    n_c = prior.n_components
    if mechanism not in ("gaussian", "hmc"):
        raise ValueError("mechanism must be 'gaussian' or 'hmc'")
    log_scores = component_log_scores(model)
    if budgets == "likelihood":
        counts = allocate_budgets(log_scores, n_ens)
    elif budgets == "uniform":
        counts = np.full(n_c, n_ens // n_c, dtype=int)
        counts[: n_ens % n_c] += 1
    else:
        raise ValueError("budgets must be 'likelihood' or 'uniform'")
    if proposal_scale is None:
        proposal_scale = DEFAULT_PROPOSAL_SCALE_NUMERATOR / prior.dim

    chains = []
    for i in range(n_c):
        if mechanism == "gaussian":
            mech = tune_gaussian_proposal(prior.covariances[i], proposal_scale)
        else:
            mech = tune_hmc(prior.variances[i], hmc_trajectory, hmc_steps, jitter=hmc_jitter)
        chains.append(
            ChainPlan(
                component=i,
                budget=int(counts[i]),
                initial_state=np.array(prior.means[i], dtype=float),
                mechanism=mech,
                stream_id=i,
                log_weight=float(log_scores[i]),
            )
        )
    return SchedulerPlan(chains=chains, burn_in=int(burn_in), stride=int(stride), seed=int(seed))


def single_chain_plan(initial_state, mechanism, n_samples, stream_id, *, burn_in, stride, seed):
    """One chain of the whole budget on stream ``stream_id``, outside any
    mixture component (-1) and with log weight 0, so its samples pool to
    equal weights 1/n."""
    chain = ChainPlan(-1, int(n_samples), np.array(initial_state, dtype=float), mechanism,
                      int(stream_id), 0.0)
    return SchedulerPlan(chains=[chain], burn_in=int(burn_in), stride=int(stride), seed=int(seed))


def chain_cost(model, chain, burn_in, stride):
    """Predicted cost of one chain: its steps times ``cost_model.step_cost``
    of its mechanism on the model."""
    mechanism = chain.mechanism
    if isinstance(mechanism, HmcParams):
        unit = step_cost(model.dim, model.prior.structure, "hmc", mechanism.n_steps)
    else:
        unit = step_cost(model.dim, model.prior.structure, "diagonal")
    return (burn_in + stride * chain.budget) * unit


def _execute_chain(model, chain, burn_in, stride, seed):
    try:
        config = ChainConfig(
            n_samples=chain.budget,
            initial_state=chain.initial_state,
            rng=RngStream(seed, chain.stream_id),
            burn_in=burn_in,
            stride=stride,
        )
        start = time.perf_counter()
        result = run_chain(model, config, chain.mechanism)
        result.wall_s = time.perf_counter() - start
        result.component = chain.component
        return result
    except Exception as exc:  # a failed chain must never abort its siblings
        return ChainFailure(chain.component, chain.stream_id, repr(exc))


def _failure_text(failure):
    # A serial chain belongs to no component; its stream names it.
    if failure.component >= 0:
        return f"chain of component {failure.component} failed: {failure.error}"
    return f"chain of stream {failure.stream_id} failed: {failure.error}"


def _pool_plan(chains, results, wall):
    """One plan's McmcResult: samples pooled in chain order, each carrying an
    importance weight proportional to its component's pooling weight divided
    by the chain budget, normalized over the pool."""
    samples = []
    log_weights = []
    made = accepted = divergences = 0
    for chain, result in zip(chains, results):
        samples.append(result.samples)
        log_weights.append(np.full(result.n_samples, chain.log_weight - math.log(chain.budget)))
        made += result.proposals_made
        accepted += result.proposals_accepted
        divergences += result.divergences
    logw = np.concatenate(log_weights)
    logw -= np.max(logw)
    weights = np.exp(logw)
    weights /= np.sum(weights)
    return McmcResult(
        ensemble=Ensemble(np.concatenate(samples, axis=0), weights),
        chain_results=results,
        acceptance_rate=(accepted / made) if made else 0.0,
        proposals_made=made,
        proposals_accepted=accepted,
        divergences=divergences,
        wall_time=wall,
    )


def run_plans(model, plans, pool):
    """Execute the chains of every plan in one call on ``pool``, and gather
    one weighted ensemble per plan: a McmcResult each, in plan order.

    Zero-budget chains are skipped. The chains of all plans are placed
    together, largest predicted cost (``chain_cost``) first on the least
    loaded of the pool's workers. Every chain runs even when a sibling
    raises; afterwards any failure raises ``ChainFailed`` naming each failed
    chain and its error, because a pool missing a chain's samples is a
    biased posterior. Each ensemble is bit-identical for any pool size and
    for any other plans run alongside; each result's ``wall_time`` is the
    elapsed wall of the whole call.
    """
    owners, jobs = [], []  # plan index and (chain, burn_in, stride, seed) per chain
    for k, plan in enumerate(plans):
        for chain in plan.chains:
            if chain.budget > 0:
                owners.append(k)
                jobs.append((chain, plan.burn_in, plan.stride, plan.seed))
    costs = [chain_cost(model, *job[:3]) for job in jobs]
    start = time.perf_counter()
    results = pool.run(_execute_chain, model, jobs, costs)
    wall = time.perf_counter() - start

    failures = [r for r in results if isinstance(r, ChainFailure)]
    if failures:
        raise ChainFailed("; ".join(map(_failure_text, failures)))
    pooled = []
    for k in range(len(plans)):
        mine = [i for i, owner in enumerate(owners) if owner == k]
        pooled.append(_pool_plan([jobs[i][0] for i in mine], [results[i] for i in mine], wall))
    return pooled


def run_mc_mcmc(model, plan, pool=None):
    """Execute one plan's chains and gather its weighted posterior ensemble:
    ``run_plans`` of the one plan, on a one-worker pool when none is given."""
    if pool is not None:
        return run_plans(model, [plan], pool)[0]
    with WorkerPool(1) as own:
        return run_plans(model, [plan], own)[0]


@dataclass
class BenchmarkRow:
    workers: int
    wall_s: float
    speedup: float
    efficiency: float
    pred_speedup: float
    pred_efficiency: float
    oversubscribed: bool = False


def benchmark_speedup(
    model,
    n_ens,
    mechanism,
    p_values,
    *,
    seed,
    repetitions=3,
    burn_in=100,
    stride=5,
    **plan_kwargs,
):
    """Measure wall time of run_mc_mcmc over worker counts with fixed seeds.

    Budgets are uniform, the split the cost model assumes. Each of the
    ``repetitions`` times every worker count once, in ascending order, each
    time on a pool created and warmed before timing and closed after it, so
    at most one pool is open at a time. A count's wall time is the best of
    its ``repetitions`` timings.
    Measured speedup is wall(1) / wall(p). Predicted columns come from the
    cost model's integral-work variant for the same run (``n_ens`` samples of
    ``model.dim`` variables, ``burn_in``, ``stride``, the mechanism's
    leapfrog steps) with each p's worker count and the model's component
    count, normalized by its own p = 1 value so prediction and measurement
    share the multi-chain baseline (the
    serial-chain baseline differs by the per-chain burn-in, which the cost
    model reports as overhead). Requesting more workers than logical
    processors flags the rows and warns.
    """
    p_values = list(p_values)
    if not p_values:
        raise ValueError("p_values must be non-empty")
    available = os.cpu_count() or 1
    oversubscribed = max(p_values) > available
    if oversubscribed:
        warnings.warn(
            f"benchmark requests up to {max(p_values)} workers on "
            f"{available} logical processors",
            OversubscribedWarning,
        )

    n_c = model.prior.n_components
    hmc = mechanism == "hmc"
    prediction_input = CostModelInput(
        workers=1,
        n_components=n_c,
        n_ens=n_ens,
        n_var=model.dim,
        burn_in=burn_in,
        stride=stride,
        traj_steps=plan_kwargs.get("hmc_steps", DEFAULT_HMC_STEPS) if hmc else 1,
        proposal="hmc" if hmc else "diagonal",
    )
    plan = build_plan(model, n_ens, mechanism, seed, burn_in=burn_in, stride=stride,
                      budgets="uniform", **plan_kwargs)
    workers = sorted(set(p_values) | {1})
    best = dict.fromkeys(workers, math.inf)
    # Outside load comes and goes, so every repetition times every p.
    for _ in range(max(1, repetitions)):
        for p in workers:
            with WorkerPool(p) as pool:
                pool.warm_up()
                best[p] = min(best[p], run_mc_mcmc(model, plan, pool=pool).wall_time)
    pred_baseline = predict_cost(prediction_input).parallel_cost_integral
    rows = []
    for p in workers:
        if p not in p_values:
            continue
        pred_speedup = (pred_baseline
                        / predict_cost(replace(prediction_input, workers=p)).parallel_cost_integral)
        rows.append(
            BenchmarkRow(
                workers=p,
                wall_s=best[p],
                speedup=best[1] / best[p],
                efficiency=best[1] / best[p] / p,
                pred_speedup=pred_speedup,
                pred_efficiency=pred_speedup / p,
                oversubscribed=p > available,
            )
        )
    return rows
