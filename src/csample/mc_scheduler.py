"""Multi-chain MCMC orchestration: one chain per prior mixture component.

A plan is a list of ``samplers.ChainPlan`` records plus the burn-in, stride
and seed its chains share. Chains are planned deterministically from
(model, seed): budgets by component weight times the likelihood of the
component mean, initial states at the component means, proposal tuning from
the local component statistics, and one random stream per chain keyed by its
component index. A serial baseline is a plan of one chain. ``run_plans`` is
the one way to run chains: it runs the chains of one or more plans in one
call on one worker pool, queued largest predicted cost first; the order in
which chains run never changes the gathered ensembles, because streams are
per chain and each plan's gather runs in chain order.

The task contract: each chain is a pool task, caught and timed by the pool.
``run_plans`` reads each outcome (a ChainResult or an exception) beside the
ChainPlan that made it, so a result holds only what its chain made.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .cost_model import step_cost, whole_chain_speedup
from .errors import BudgetInfeasibleWarning, ChainFailed, OversubscribedWarning
from .gmm import Ensemble
from .linalg_rng import SpdMatrix
from .pool import WorkerPool
from .samplers import ChainPlan, GaussianProposal, HmcParams, run_chain

# Standard random-walk scaling; experiment configs override it where a
# target acceptance rate is being reproduced.
DEFAULT_PROPOSAL_SCALE_NUMERATOR = 2.38**2

DEFAULT_HMC_STEPS = 20

MECHANISMS = ("gaussian", "hmc")


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
class McmcResult:
    ensemble: Ensemble
    chains: list  # the plan's non-empty ChainPlans, in chain order
    chain_results: list  # the ChainResult of each
    acceptance_rate: float
    chain_seconds: float  # seconds the chains ran, each timed by the pool where it ran


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
    """Random walk with covariance ``scale`` (> 0) times the component's,
    given as the mixture stores it: (dim,) variances or a (dim, dim) matrix."""
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale factor must be positive")
    return GaussianProposal(SpdMatrix(scale * component_cov))


def tune_hmc(variances, n_steps, jitter=False):
    """HMC tuning from local statistics: the mass matrix is the diagonal
    precision, 1 / ``variances``, and h*m = pi/2, a quarter period of a
    Gaussian of those variances, after which its position is independent of
    the start (Neal, "MCMC using Hamiltonian dynamics", 2011, section 5.4)."""
    mass = SpdMatrix.from_diagonal(1.0 / variances)
    return HmcParams(mass, (math.pi / 2) / n_steps, int(n_steps), jitter_steps=jitter)


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
    hmc_steps=DEFAULT_HMC_STEPS,
    hmc_jitter=False,
    budgets="likelihood",
):
    """Plan one chain per prior mixture component.

    ``mechanism`` is "gaussian" or "hmc". ``budgets`` is "likelihood"
    (component weight times likelihood of the mean) or "uniform" (equal
    scores); both are split by ``allocate_budgets``, so equal budgets differ
    by at most one sample and warn alike when ``n_ens`` is below the chain
    count. The plan holds no placement: ``run_plans`` queues its chains on
    the pool that runs them.
    """
    prior = model.prior
    n_c = prior.n_components
    if mechanism not in MECHANISMS:
        raise ValueError(f"mechanism must be one of {MECHANISMS}")
    log_scores = component_log_scores(model)
    if budgets == "likelihood":
        counts = allocate_budgets(log_scores, n_ens)
    elif budgets == "uniform":
        counts = allocate_budgets(np.zeros(n_c), n_ens)
    else:
        raise ValueError("budgets must be 'likelihood' or 'uniform'")
    if proposal_scale is None:
        proposal_scale = DEFAULT_PROPOSAL_SCALE_NUMERATOR / prior.dim

    chains = []
    for i in range(n_c):
        if mechanism == "gaussian":
            mech = tune_gaussian_proposal(prior.covariances[i], proposal_scale)
        else:
            mech = tune_hmc(prior.variances[i], hmc_steps, jitter=hmc_jitter)
        chains.append(ChainPlan(int(counts[i]), prior.means[i], mech, i, component=i,
                                log_weight=float(log_scores[i])))
    return SchedulerPlan(chains=chains, burn_in=int(burn_in), stride=int(stride), seed=int(seed))


def single_chain_plan(initial_state, mechanism, n_samples, stream_id, *, burn_in, stride, seed):
    """One chain of the whole budget on stream ``stream_id``, outside any
    mixture component (-1) and with log weight 0, so its samples pool to
    equal weights 1/n."""
    return SchedulerPlan([ChainPlan(int(n_samples), initial_state, mechanism, int(stream_id))],
                         int(burn_in), int(stride), int(seed))


def chain_cost(model, chain, burn_in, stride):
    """Predicted cost of one chain: its steps times ``cost_model.step_cost``
    of its mechanism on the model. A jittered HMC transition draws its
    leapfrog step count uniformly from 1..m and is charged the mean,
    (m + 1) / 2."""
    mechanism = chain.mechanism
    if isinstance(mechanism, HmcParams):
        m = mechanism.n_steps
        traj_steps = (m + 1) / 2 if mechanism.jitter_steps else m
        unit = step_cost(model.dim, model.prior.structure, "hmc", traj_steps)
    else:
        unit = step_cost(model.dim, model.prior.structure, "diagonal")
    return (burn_in + stride * chain.budget) * unit


# A pool task; it looks up run_chain when it runs, so a patched one runs in workers too.
def _execute_chain(model, chain, burn_in, stride, seed):
    return run_chain(model, chain, burn_in=burn_in, stride=stride, seed=seed)


def _failure_text(chain, exc):
    # A serial chain belongs to no component; its stream names it.
    owner = f"component {chain.component}" if chain.component >= 0 else f"stream {chain.stream_id}"
    return f"chain of {owner} failed: {exc!r}"


def _pool_plan(chains, outcomes):
    """One plan's McmcResult: samples pooled in chain order, each carrying an
    importance weight proportional to its component's pooling weight divided
    by the chain budget, normalized over the pool."""
    results = [result for result, _ in outcomes]
    samples = []
    log_weights = []
    for chain, result in zip(chains, results):
        samples.append(result.samples)
        log_weights.append(np.full(result.n_samples, chain.log_weight - math.log(chain.budget)))
    logw = np.concatenate(log_weights)
    logw -= np.max(logw)
    weights = np.exp(logw)
    weights /= np.sum(weights)
    made = sum(r.proposals_made for r in results)
    accepted = sum(r.proposals_accepted for r in results)
    return McmcResult(Ensemble(np.concatenate(samples, axis=0), weights), chains, results,
                      (accepted / made) if made else 0.0, sum(s for _, s in outcomes))


def run_plans(model, plans, pool):
    """Execute the chains of every plan in one call on ``pool``, and gather
    one weighted ensemble per plan: a McmcResult each, in plan order.

    Zero-budget chains are skipped. The chains of all plans share one queue,
    largest predicted cost (``chain_cost``) first, and a free worker takes
    the next chain; the costs only order the queue. Every chain runs even
    when a sibling raises; afterwards any failure raises ``ChainFailed``
    naming each failed chain from its ChainPlan, with the ``repr`` of its
    exception, because a pool missing a chain's samples is a biased
    posterior. Each ensemble is bit-identical for any pool size and for any
    other plans run alongside; each result's ``chain_seconds`` sums the
    pool's seconds of its chains.
    """
    owners, jobs = [], []  # plan index and (chain, burn_in, stride, seed) per chain
    for k, plan in enumerate(plans):
        for chain in plan.chains:
            if chain.budget > 0:
                owners.append(k)
                jobs.append((chain, plan.burn_in, plan.stride, plan.seed))
    outcomes = pool.run(_execute_chain, model, jobs, [chain_cost(model, *job[:3]) for job in jobs])
    failures = [_failure_text(job[0], outcome) for job, (outcome, _) in zip(jobs, outcomes)
                if isinstance(outcome, Exception)]
    if failures:
        raise ChainFailed("; ".join(failures))
    pooled = []
    for k in range(len(plans)):
        mine = [i for i, owner in enumerate(owners) if owner == k]
        pooled.append(_pool_plan([jobs[i][0] for i in mine], [outcomes[i] for i in mine]))
    return pooled


@dataclass
class BenchmarkRow:
    workers: int
    wall_s: float
    speedup: float
    efficiency: float
    pred_speedup: float
    pred_efficiency: float
    oversubscribed: bool = False
    walls: tuple = ()  # each repetition's wall time, in order; wall_s is their minimum


def benchmark_speedup(model, plan, p_values, *, repetitions=3):
    """Measure the wall time of ``run_plans(model, [plan], pool)`` over
    worker counts.

    Each of the ``repetitions`` times every worker count once, in ascending
    order, each time on a pool created and warmed before timing and closed
    after it, so at most one pool is open at a time. A count's wall time is
    the best of its ``repetitions`` timings; its speedup is the median of
    wall(1) / wall(p) within each repetition, so load that comes and goes
    between repetitions cancels. The predicted speedup is
    ``cost_model.whole_chain_speedup`` of the plan's chains that have a
    budget, n / ceil(n / p): the chains run whole, so the busiest of p
    workers runs ceil(n / p) of them where one worker runs all n, which
    holds when their budgets are equal. Prediction and measurement share
    this multi-chain baseline at p = 1, not the serial chain, which differs
    by the per-chain burn-in. Requesting more workers than logical
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

    workers = sorted(set(p_values) | {1})
    walls = {p: [] for p in workers}
    for _ in range(max(1, repetitions)):
        for p in workers:
            with WorkerPool(p) as pool:
                pool.warm_up()
                start = time.perf_counter()
                run_plans(model, [plan], pool)
                walls[p].append(time.perf_counter() - start)
    n_run = sum(chain.budget > 0 for chain in plan.chains)
    rows = []
    for p in workers:
        if p not in p_values:
            continue
        pred_speedup = whole_chain_speedup(n_run, p)
        speedup = float(np.median(np.divide(walls[1], walls[p])))
        rows.append(
            BenchmarkRow(
                workers=p,
                wall_s=min(walls[p]),
                speedup=speedup,
                efficiency=speedup / p,
                pred_speedup=pred_speedup,
                pred_efficiency=pred_speedup / p,
                oversubscribed=p > available,
                walls=tuple(walls[p]),
            )
        )
    return rows
