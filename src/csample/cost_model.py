"""Analytical cost model for multi-chain sampling: serial/parallel cost,
speedup, efficiency and overhead.

Costs are leading-term operation counts with unit constants, and charge
computation only: the worker pool pickles the shared model and each task
into every submission and the gather concatenates in process, so there is
no broadcast/gather tree to charge. Two speedups are modelled:
``predict_cost``'s idealized closed form, which divides the chains
continuously over workers (and therefore gives S = p for p <= n_c when
burn-in is dropped), and ``whole_chain_speedup``, which places n
equal-budget chains whole on p workers, so the busiest worker runs
ceil(n / p) of them; every per-chain cost cancels from that ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GMM_REGIMES = ("diagonal", "spherical", "tied", "full")
PROPOSAL_REGIMES = ("diagonal", "full", "hmc")


@dataclass(frozen=True)
class CostModelInput:
    workers: int
    n_components: int
    n_ens: int
    n_var: int
    burn_in: int = 0
    stride: int = 1
    traj_steps: int = 1  # leapfrog steps per HMC proposal
    gmm_structure: str = "diagonal"
    proposal: str = "diagonal"

    def __post_init__(self):
        if self.workers < 1 or self.n_components < 1:
            raise ValueError("workers and n_components must be at least 1")
        if self.n_ens < 1 or self.n_var < 1:
            raise ValueError("n_ens and n_var must be at least 1")
        if self.burn_in < 0 or self.stride < 1 or self.traj_steps < 1:
            raise ValueError("invalid chain-step parameters")
        if self.gmm_structure not in GMM_REGIMES:
            raise ValueError(f"gmm_structure must be one of {GMM_REGIMES}")
        if self.proposal not in PROPOSAL_REGIMES:
            raise ValueError(f"proposal must be one of {PROPOSAL_REGIMES}")


@dataclass(frozen=True)
class CostReport:
    serial_cost: float  # T_s, operation units
    parallel_cost: float  # T_p, idealized, operation units
    speedup: float  # S = T_s / T_p
    efficiency: float  # E = S / p
    overhead: float  # T_o = p * T_p - T_s, operation units


def step_cost(n_var, gmm_structure, proposal, traj_steps=1):
    """Leading-term cost of one chain step for the given regime."""
    if proposal == "hmc":
        return float(traj_steps) * n_var * n_var
    if proposal == "diagonal" and gmm_structure in ("diagonal", "spherical"):
        return float(n_var)
    return float(n_var) * n_var


def predict_cost(inp):
    """Evaluate the closed-form cost model for one (p, regime) point.

    The identities E * p = S and T_o = p * T_p - T_s hold exactly as
    computed. With burn_in = 0 the idealized speedup reduces exactly to
    S = p for p <= n_c and S = n_c (with E = n_c / p) beyond, independent
    of the state dimension.
    """
    p = inp.workers
    n_c = inp.n_components
    unit = step_cost(inp.n_var, inp.gmm_structure, inp.proposal, inp.traj_steps)
    serial_steps = inp.burn_in + inp.stride * inp.n_ens
    per_chain_steps = inp.burn_in + inp.stride * inp.n_ens / n_c
    serial_cost = serial_steps * unit

    if inp.burn_in == 0:
        # Exact simplification: the chain-step unit cancels.
        speedup = float(min(p, n_c))
    else:
        chains_per_worker = max(n_c / p, 1.0)
        speedup = serial_steps / (chains_per_worker * per_chain_steps)
    parallel_cost = serial_cost / speedup
    efficiency = speedup / p

    return CostReport(
        serial_cost=serial_cost,
        parallel_cost=parallel_cost,
        speedup=speedup,
        efficiency=efficiency,
        overhead=p * parallel_cost - serial_cost,
    )


def whole_chain_speedup(n_chains, workers):
    """Speedup of ``n_chains`` equal-budget chains placed whole on ``workers``
    workers over the same chains on one: n / ceil(n / p), exactly."""
    if n_chains < 1 or workers < 1:
        raise ValueError("n_chains and workers must be at least 1")
    return n_chains / math.ceil(n_chains / workers)
