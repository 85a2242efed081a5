"""Single-chain samplers over a posterior model: random-walk MH and HMC.

``ChainPlan`` is the one description of a chain, from plan to worker.
``run_chain`` runs one on a stream built afresh from (seed, stream id), so
a rerun replays it bit for bit. HMC trajectories whose energy error exceeds
DIVERGENCE_THRESHOLD are counted as divergent and treated as rejections;
they never abort the chain.

The transition contract: ``mh_step`` and ``hmc_step`` are pure functions
of (model, state, mechanism, stream, carried J and gradient) that return
one record, a ``Transition``; MH carries no gradient. Both accept by one
Metropolis test, which rejects a NaN log ratio, and a rejected transition
returns the previous state object untouched.

The per-step contract: ``run_chain`` checks the chain's start against the
model's dimension once, before its first step, and raises
DimensionMismatch there. From then on every state is a float (dim,)
vector, and ``mh_step``, ``hmc_step`` and ``leapfrog`` pass it unchecked
to the model's J and gradient calls and to the mechanism's SpdMatrix.

The task contract: ``run_chain`` is a pool task. It returns only what the
chain made, its samples and counts, and lets any error propagate to the
pool, which catches and times it; the caller keeps the ChainPlan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples
from .linalg_rng import RngStream, SpdMatrix, sample_mvn

DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class GaussianProposal:
    """Symmetric random-walk kernel: x' = x + N(0, cov)."""

    cov: SpdMatrix


@dataclass(frozen=True)
class HmcParams:
    """Leapfrog settings: mass matrix, step size h, trajectory steps m.

    With ``jitter_steps`` the per-transition step count is drawn uniformly
    from 1..m (from the chain's own stream, so replays stay identical);
    this breaks the resonances a fixed trajectory length can lock into on
    near-harmonic targets.
    """

    mass: SpdMatrix
    step_size: float
    n_steps: int
    jitter_steps: bool = False

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size <= 0.0:
            raise ValueError("step size must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("at least one leapfrog step required")


@dataclass(frozen=True)
class ChainPlan:
    """One chain: ``budget`` samples from ``initial_state`` under
    ``mechanism`` (a GaussianProposal or HmcParams) on stream ``stream_id``.
    ``component`` is its prior mixture component (-1 outside any) and
    ``log_weight`` the unnormalized log pooling weight of its samples."""

    budget: int
    initial_state: np.ndarray
    mechanism: object
    stream_id: int
    component: int = -1
    log_weight: float = 0.0

    def __post_init__(self):
        state = np.array(self.initial_state, dtype=float).reshape(-1)
        object.__setattr__(self, "initial_state", state)
        if self.budget < 0:
            raise ValueError("chain budget must be non-negative")


@dataclass
class ChainResult:
    samples: np.ndarray
    proposals_made: int
    proposals_accepted: int
    divergences: int = 0

    @property
    def acceptance_rate(self):
        if self.proposals_made == 0:
            return 0.0
        return self.proposals_accepted / self.proposals_made

    @property
    def n_samples(self):
        return self.samples.shape[0]


class Transition(NamedTuple):
    state: np.ndarray
    accepted: bool
    potential: float  # J at ``state``
    divergent: bool
    grad: np.ndarray  # gradient of J at ``state``; None after an MH step


def _metropolis(log_ratio, rng):
    """Accept with probability min(1, exp(log_ratio)), against one uniform
    draw. min(nan, 0.0) is nan, where min(0.0, nan) would be 0.0 and accept,
    so a NaN log ratio rejects."""
    return np.exp(min(log_ratio, 0.0)) > rng.uniform()


def mh_step(model, x, mechanism, rng, potential=None, grad=None):
    """One Metropolis step with a symmetric Gaussian proposal, ``mechanism``.

    The proposal kernel is symmetric, so the acceptance ratio reduces to the
    target ratio: a = min(1, exp(J(x) - J(x'))). A candidate whose J is NaN
    is rejected. ``potential`` carries the current state's J to avoid a
    second evaluation per step; it is computed when omitted. ``grad`` is
    accepted for the shared signature and not read.
    """
    if potential is None:
        potential = model.neg_log_posterior(x)
    step = sample_mvn(rng, np.zeros(x.shape[0]), mechanism.cov)
    candidate = x + step
    potential_new = model.neg_log_posterior(candidate)
    if _metropolis(potential - potential_new, rng):
        return Transition(candidate, True, potential_new, False, None)
    return Transition(x, False, potential, False, None)


def leapfrog(model, x, p, mass, step_size, n_steps, grad):
    """Leapfrog integration of (x, p) under H = 0.5 p^T M^-1 p + J(x).

    ``grad`` is the gradient of J at x, carried from the step that reached
    x. The flight evaluates the gradient n_steps - 1 times and ends with
    one fused ``potential_and_grad``. Returns the end state and momentum,
    and J and its gradient there.
    """
    x = np.array(x, dtype=float)
    p = np.array(p, dtype=float)
    p -= 0.5 * step_size * grad
    for i in range(n_steps):
        x += step_size * mass.solve(p)
        if i < n_steps - 1:
            p -= step_size * model.grad_neg_log_posterior(x)
    potential, grad = model.potential_and_grad(x)
    p -= 0.5 * step_size * grad
    return x, p, potential, grad


def hmc_step(model, x, mechanism, rng, potential=None, grad=None):
    """One HMC transition under ``mechanism`` (HmcParams): momentum refresh,
    leapfrog flight, accept test.

    Accepts with probability min(1, exp(-dH)). A non-finite or huge |dH|
    marks the trajectory divergent: the step is rejected and flagged.
    ``potential`` and ``grad`` carry J and its gradient at x from the last
    step, which returns both for its own state; they are computed when
    omitted.
    """
    if potential is None or grad is None:
        potential, grad = model.potential_and_grad(x)
    n_steps = mechanism.n_steps
    if mechanism.jitter_steps:
        n_steps = 1 + int(rng.uniform() * mechanism.n_steps)
        n_steps = min(n_steps, mechanism.n_steps)
    p0 = sample_mvn(rng, np.zeros(x.shape[0]), mechanism.mass)
    h0 = potential + 0.5 * mechanism.mass.maha_sq(p0)
    # Overflow in an exploding trajectory is handled by the divergence guard.
    with np.errstate(over="ignore", invalid="ignore"):
        x_new, p_new, potential_new, grad_new = leapfrog(
            model, x, p0, mechanism.mass, mechanism.step_size, n_steps, grad
        )
        h1 = potential_new + 0.5 * mechanism.mass.maha_sq(p_new)
    delta = h1 - h0
    if not np.isfinite(delta) or abs(delta) > DIVERGENCE_THRESHOLD:
        return Transition(x, False, potential, True, grad)
    if _metropolis(-delta, rng):
        return Transition(x_new, True, potential_new, False, grad_new)
    return Transition(x, False, potential, False, grad)


def run_chain(model, chain, *, burn_in, stride, seed):
    """Run ``chain`` (a ChainPlan) for burn_in + stride * budget steps on the
    stream ``RngStream(seed, chain.stream_id)``, recording every stride-th
    state after the burn-in.

    The transition, ``mh_step`` or ``hmc_step``, is picked once, when the
    chain starts; J and its gradient at the start come from one
    ``potential_and_grad`` call. Divergent HMC steps are counted, never
    raised. The result is a pure
    function of (model, chain, burn_in, stride, seed). A start whose length
    is not the model's dimension raises DimensionMismatch before the first
    step: this is the chain's one state check.
    """
    if burn_in < 0 or stride < 1:
        raise ValueError("burn_in must be at least 0 and stride at least 1")
    if chain.initial_state.size != model.dim:
        raise DimensionMismatch(f"initial state length {chain.initial_state.size} "
                                f"!= model dimension {model.dim}")
    rng = RngStream(seed, chain.stream_id)
    mechanism = chain.mechanism
    transition = mh_step if isinstance(mechanism, GaussianProposal) else hmc_step
    x = chain.initial_state.copy()
    potential, grad = model.potential_and_grad(x)
    total_steps = burn_in + stride * chain.budget
    samples = np.empty((chain.budget, x.size))
    accepted = 0
    divergences = 0
    recorded = 0
    for step in range(1, total_steps + 1):
        x, ok, potential, divergent, grad = transition(model, x, mechanism, rng, potential, grad)
        accepted += ok
        divergences += divergent
        if step > burn_in and (step - burn_in) % stride == 0:
            samples[recorded] = x
            recorded += 1
    return ChainResult(samples, total_steps, accepted, divergences)


@dataclass
class ChainDiagnostics:
    acceptance_rate: float
    autocorrelation: np.ndarray  # (n_lags, dim)
    ess: np.ndarray  # per coordinate
    degenerate: bool = False

    @property
    def ess_min(self):
        return float(np.min(self.ess))


def _autocorrelation(series, max_lag):
    n = series.size
    centered = series - series.mean()
    var = float(centered @ centered) / n
    if var == 0.0:
        return None
    acf = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        acf[lag] = float(centered[: n - lag] @ centered[lag:]) / (n * var)
    return acf

def _ess_initial_positive(acf, n):
    # Sum paired autocorrelations while the pairs stay positive.
    tau = 1.0
    m = 1
    while m + 1 < acf.size:
        pair = acf[m] + acf[m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 2
    return n / tau


def chain_diagnostics(result, max_lag=None):
    """Acceptance rate, lag autocorrelations, and an initial-positive-sequence
    effective-sample-size estimate per coordinate.

    A coordinate with zero variance (a constant chain) is flagged degenerate
    and reported with ESS zero.
    """
    samples = result.samples
    n = samples.shape[0]
    if n < 2:
        raise InsufficientSamples("autocorrelation needs at least two samples")
    if max_lag is None:
        max_lag = min(n - 1, max(50, n // 5))
    dim = samples.shape[1]
    acfs = np.zeros((max_lag + 1, dim))
    ess = np.zeros(dim)
    degenerate = False
    for d in range(dim):
        acf = _autocorrelation(samples[:, d], max_lag)
        if acf is None:
            degenerate = True
            acfs[:, d] = np.nan
            ess[d] = 0.0
            continue
        acfs[:, d] = acf
        ess[d] = min(_ess_initial_positive(acf, n), float(n))
    return ChainDiagnostics(result.acceptance_rate, acfs, ess, degenerate)
