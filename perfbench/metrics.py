"""The benchmark's metrics: names, units and directions, and how each is
computed from the runs of one invocation.

End-to-end metrics come from the timed runs (tracing off). Per-layer
metrics come from the traced in-process run, except those taken from the
timed runs' artifacts (phase timings, the HMC speedup, ESS and the output
quality numbers). A layer a workload does not use reports 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

# BENCHMARK.json declares every metric's name, unit, direction and bound.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# Modules whose public calls are wrapped; "<module>.self_s" is the time spent
# in a module's spans outside the spans of the calls they make.
TRACED_MODULES = (
    "cli", "experiments", "gmm", "linalg_rng", "forward_models", "posterior",
    "samplers", "mc_scheduler", "tikhonov",
)

# Phase timings an experiment writes to summary.json.
PHASES = (
    "em_fit_s", "serial_gaussian_s", "serial_hmc_s", "parallel_gaussian_s",
    "parallel_hmc_s", "sampling_hmc_s", "sampling_gaussian_s", "tikhonov_s",
)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(timed, import_times, attempted, failed):
    """``timed``: child reports of the timed runs of this invocation."""
    return {
        "wall_s": median([r["wall_s"] for r in timed]),
        "setup_s": median(import_times + [r["setup_s"] for r in timed]),
        "peak_rss_mb": median([max(r["rss_kb"], r["worker_rss_kb"]) / 1024.0 for r in timed]),
        "success_rate": (attempted - failed) / attempted,
    }


def _per_unit(total_s, count):
    return 1e6 * total_s / count if count else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# Chains with fewer samples are left out of samplers.ess_min: their ESS says
# more about the budget plan than about how well the sampler mixes.
ESS_MIN_SAMPLES = 20


def chain_ess(samples, budgets):
    """Min-coordinate ESS of each chain of a pooled sample table, split in
    chain order by the chains' sample budgets. A chain with fewer than two
    samples has no autocorrelation estimate and is returned as None."""
    from csample.samplers import ChainResult, chain_diagnostics

    ess, start = [], 0
    for budget in budgets:
        block = samples[start:start + budget]
        start += budget
        ess.append(chain_diagnostics(ChainResult(block, budget, budget)).ess_min
                   if budget >= 2 else None)
    return ess


def per_layer(trace, artifacts, w1_wall_s, traced_wall_s, cost_inputs):
    """Per-layer metrics.

    ``trace``: the traced run's tracer JSON. ``artifacts``: numbers read
    from the timed runs (see run.py). ``cost_inputs``: (n_var, structure,
    hmc_steps) of the workload's model, or None without a posterior.
    """
    from csample.cost_model import step_cost

    agg = trace["aggregates"]
    counters = trace["counters"]

    def count(name):
        return agg.get(name, {}).get("count", 0)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    em_iters = counters.get("gmm.em_iters", 0)
    mh_steps, hmc_steps = count("samplers.mh_step"), count("samplers.hmc_step")
    solves, cg_iters = count("tikhonov.solve"), counters.get("tikhonov.cg_iters", 0)
    m = {
        "gmm.em_fits": count("gmm.em_single"),
        "gmm.em_iters": em_iters,
        "gmm.em_iter_us": _per_unit(total("gmm.em_single"), em_iters),
        "gmm.em_unconverged": counters.get("gmm.em_unconverged", 0),
        "linalg_rng.spd_builds": count("linalg_rng.spd_build"),
        "linalg_rng.cholesky_calls": count("linalg_rng.cholesky"),
        "linalg_rng.cholesky_us": _per_unit(total("linalg_rng.cholesky"), count("linalg_rng.cholesky")),
        "forward_models.apply_calls": count("forward_models.apply"),
        "forward_models.apply_us": _per_unit(total("forward_models.apply"), count("forward_models.apply")),
        "forward_models.adjoint_calls": count("forward_models.adjoint"),
        "forward_models.adjoint_us": _per_unit(total("forward_models.adjoint"), count("forward_models.adjoint")),
        "posterior.potential_calls": count("posterior.potential"),
        "posterior.potential_us": _per_unit(total("posterior.potential"), count("posterior.potential")),
        "posterior.grad_calls": count("posterior.grad"),
        "posterior.grad_us": _per_unit(total("posterior.grad"), count("posterior.grad")),
        # HMC is the only caller of the gradient in these workloads.
        "posterior.grads_per_hmc_step": _ratio(count("posterior.grad"), hmc_steps),
        "samplers.mh_steps": mh_steps,
        "samplers.mh_step_us": _per_unit(total("samplers.mh_step"), mh_steps),
        "samplers.hmc_steps": hmc_steps,
        "samplers.hmc_step_us": _per_unit(total("samplers.hmc_step"), hmc_steps),
        "samplers.accept_mh": _ratio(counters.get("samplers.mh_accepted", 0), mh_steps),
        "samplers.accept_hmc": _ratio(counters.get("samplers.hmc_accepted", 0), hmc_steps),
        "samplers.divergences": counters.get("samplers.divergences", 0),
        "mc_scheduler.chains": counters.get("mc_scheduler.chains", 0),
        "mc_scheduler.chain_failures": counters.get("mc_scheduler.chain_failures", 0),
        "mc_scheduler.step_imbalance": step_imbalance(trace),
        "tikhonov.solves": solves,
        "tikhonov.cg_iters": cg_iters,
        "tikhonov.unconverged": counters.get("tikhonov.unconverged", 0),
        "tikhonov.cg_iter_us": _per_unit(total("tikhonov.solve"), cg_iters),
        "tikhonov.lcurve_s": total("tikhonov.lcurve"),
        "trace.overhead": _ratio(traced_wall_s, w1_wall_s),
    }
    m["cost_model.mh_us_per_unit"] = m["cost_model.hmc_us_per_unit"] = 0.0
    if cost_inputs is not None:
        n_var, structure, traj_steps = cost_inputs
        proposal = "diagonal" if structure in ("diagonal", "spherical") else "full"
        m["cost_model.mh_us_per_unit"] = m["samplers.mh_step_us"] / step_cost(n_var, structure, proposal)
        m["cost_model.hmc_us_per_unit"] = m["samplers.hmc_step_us"] / step_cost(
            n_var, structure, "hmc", traj_steps
        )
    for module in TRACED_MODULES:
        m[f"{module}.self_s"] = sum(
            (a["self_s"] for name, a in agg.items() if name.split(".", 1)[0] == module), 0.0
        )
    m.update(artifacts)
    return m


def step_imbalance(trace):
    """Largest per-worker step count over the mean, for the HMC plan at the
    timed worker count; 0 when the workload plans no chains."""
    plans = [o for o in trace["observations"].get("mc_scheduler.worker_steps", [])
             if o["mechanism"] == "hmc"]
    if not plans:
        return 0.0
    steps = np.asarray(plans[-1]["steps"], dtype=float)
    return float(steps.max() / steps.mean())
