"""Analytical cost model for multi-chain sampling: serial/parallel cost,
speedup, efficiency, communication overhead, and isoefficiency.

Costs are leading-term operation counts with unit constants; communication
terms are in seconds, driven by a linear model with startup time t_startup
and per-word time t_word over a log2(p)-depth broadcast/gather tree. Two
speedup flavors are reported: the idealized closed form, which divides the
chains continuously over workers (and therefore gives S = p for p <= n_c
when burn-in is dropped), and an integral-work variant that charges each
worker for ceil(n_c / p) whole chains, which is what placing equal-budget
chains on workers costs when p does not divide n_c.
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
    t_startup: float = 0.0
    t_word: float = 0.0
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
    parallel_cost_integral: float  # T_p charging ceil(n_c/p) chains per worker
    speedup_integral: float
    efficiency_integral: float
    broadcast_cost: float  # seconds
    gather_cost: float  # seconds
    comm_cost: float  # seconds, broadcast + gather
    total_parallel_cost: float  # p * T_p + p * comm_cost
    overhead: float  # T_o = p * T_p - T_s, operation units (no comm)
    overhead_with_comm: float
    isoefficiency: float  # W(p) = E/(1-E) * dominant comm term


def step_cost(n_var, gmm_structure, proposal, traj_steps=1):
    """Leading-term cost of one chain step for the given regime."""
    if proposal == "hmc":
        return float(traj_steps) * n_var * n_var
    if proposal == "diagonal" and gmm_structure in ("diagonal", "spherical"):
        return float(n_var)
    return float(n_var) * n_var


def _broadcast_words(inp):
    n_c, n_var = inp.n_components, inp.n_var
    if inp.gmm_structure in ("diagonal", "spherical"):
        return (2 * n_var + 1) * n_c
    if inp.gmm_structure == "tied":
        return (n_var * n_var / n_c + n_var + 1) * n_c
    return (n_var * n_var + n_var + 1) * n_c


def _isoefficiency_factor(inp):
    if inp.gmm_structure in ("diagonal", "spherical"):
        return inp.n_ens * inp.n_var
    if inp.gmm_structure == "tied":
        return (inp.n_ens + inp.n_var) * inp.n_var
    return (inp.n_ens + inp.n_var * inp.n_components) * inp.n_var


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

    chains_integral = math.ceil(n_c / p)
    parallel_integral = chains_integral * per_chain_steps * unit
    speedup_integral = serial_cost / parallel_integral
    efficiency_integral = speedup_integral / p

    log_p = math.log2(p) if p > 1 else 0.0
    broadcast = (inp.t_startup + inp.t_word * _broadcast_words(inp)) * log_p
    gather = (inp.t_startup + inp.t_word * inp.n_ens * inp.n_var) * log_p
    comm = broadcast + gather

    total_parallel = p * parallel_cost + p * comm
    overhead = p * parallel_cost - serial_cost
    if efficiency < 1.0:
        k = efficiency / (1.0 - efficiency)
        iso = k * inp.t_word * _isoefficiency_factor(inp) * p * log_p
    else:
        iso = math.inf

    return CostReport(
        serial_cost=serial_cost,
        parallel_cost=parallel_cost,
        speedup=speedup,
        efficiency=efficiency,
        parallel_cost_integral=parallel_integral,
        speedup_integral=speedup_integral,
        efficiency_integral=efficiency_integral,
        broadcast_cost=broadcast,
        gather_cost=gather,
        comm_cost=comm,
        total_parallel_cost=total_parallel,
        overhead=overhead,
        overhead_with_comm=total_parallel - serial_cost,
        isoefficiency=iso,
    )
