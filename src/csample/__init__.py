"""Parallel cluster sampling for Bayesian inverse problems with GMM priors.

The pipeline: fit a Gaussian mixture to a prior ensemble by EM with AIC
model selection, build the posterior of a Gaussian-noise observation under
a forward operator, and sample it with one Markov chain per mixture
component, run in parallel and gathered deterministically. A Tikhonov
baseline with L-curve tuning and an analytical parallel-cost model round
out the toolkit.
"""

from .cost_model import CostModelInput, CostReport, predict_cost, step_cost, whole_chain_speedup
from .errors import (
    ConfigError,
    DegenerateComponent,
    DimensionMismatch,
    ImageIoError,
    InsufficientSamples,
    NotPositiveDefinite,
    ZeroReference,
)
from .forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    ImageGrid,
    MatrixOperator,
    SaturationWrapper,
    blur_jacobian_structure_check,
    gaussian_kernel1d,
    read_pgm,
    write_pgm,
)
from .gmm import Ensemble, GaussianMixture, select_model_aic
from .linalg_rng import RngStream, SpdMatrix, sample_mvn
from .mc_scheduler import (
    SchedulerPlan,
    WorkerPool,
    allocate_budgets,
    benchmark_speedup,
    build_plan,
    run_plans,
    single_chain_plan,
)
from .posterior import PosteriorModel, linear_mixture_posterior
from .samplers import (
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
from .tikhonov import (
    TikhonovProblem,
    discrete_laplacian,
    lcurve_select_alpha,
    solve_tikhonov,
    tikhonov_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ChainPlan",
    "ChainResult",
    "ConfigError",
    "CostModelInput",
    "CostReport",
    "DegenerateComponent",
    "DimensionMismatch",
    "Ensemble",
    "GaussianBlurOperator",
    "GaussianMixture",
    "GaussianProposal",
    "HmcParams",
    "IdentityOperator",
    "ImageGrid",
    "ImageIoError",
    "InsufficientSamples",
    "MatrixOperator",
    "NotPositiveDefinite",
    "PosteriorModel",
    "RngStream",
    "SaturationWrapper",
    "SchedulerPlan",
    "SpdMatrix",
    "TikhonovProblem",
    "WorkerPool",
    "ZeroReference",
    "allocate_budgets",
    "benchmark_speedup",
    "blur_jacobian_structure_check",
    "build_plan",
    "chain_diagnostics",
    "discrete_laplacian",
    "gaussian_kernel1d",
    "hmc_step",
    "lcurve_select_alpha",
    "leapfrog",
    "linear_mixture_posterior",
    "mh_step",
    "predict_cost",
    "read_pgm",
    "run_chain",
    "run_plans",
    "sample_mvn",
    "select_model_aic",
    "single_chain_plan",
    "solve_tikhonov",
    "step_cost",
    "tikhonov_objective",
    "whole_chain_speedup",
    "write_pgm",
]
