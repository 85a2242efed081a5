"""End-to-end experiments: the 1-D multimodal benchmark, the 2-D image
retrieval comparison against a Tikhonov baseline, and the scaling benchmark.

Every run is a pure function of (config, seed): stream ids are fixed per
pipeline stage and per chain, and all artifacts (CSV, JSON, PGM) are written
with deterministic formatting, so identical configs produce byte-identical
outputs. Summary numbers are recomputable from the emitted files.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
# deblur's np.median loads numpy.ma on its first call; loaded here it counts
# in the import, not in the run.
import numpy.ma  # noqa: F401

from .errors import ConfigError, ZeroReference
from .forward_models import (
    BOUNDARY_RULES,
    GaussianBlurOperator,
    IdentityOperator,
    ImageGrid,
    SaturationWrapper,
    read_pgm,
    write_pgm,
)
from .gmm import GMM_STRUCTURES, GaussianMixture, select_model_aic
from .linalg_rng import RngStream, SpdMatrix
from .mc_scheduler import (
    MECHANISMS,
    WorkerPool,
    benchmark_speedup,
    build_plan,
    run_plans,
    single_chain_plan,
    tune_gaussian_proposal,
    tune_hmc,
)
from .posterior import PosteriorModel, linear_mixture_posterior
from .tikhonov import TikhonovProblem, discrete_laplacian, lcurve_select_alpha

# The synthetic prior generator of the 1-D benchmark: weights, means,
# variances of the mixture the prior ensemble is drawn from.
BENCHMARK_GENERATOR_1D = (
    (0.09, -6.0, 0.20),
    (0.19, -2.5, 0.28),
    (0.09, 0.0, 0.08),
    (0.28, 2.5, 0.24),
    (0.15, 6.0, 0.28),
    (0.15, 6.5, 0.08),
    (0.03, 7.5, 0.12),
    (0.02, 8.0, 0.04),
)

# Stream ids per pipeline stage; chain streams use the component index.
STREAM_PRIOR_ENSEMBLE = 10000
STREAM_EM = 10001
STREAM_NOISE = 10002
STREAM_SUBSAMPLE = 10003
STREAM_SERIAL_GAUSSIAN = 20000
STREAM_SERIAL_HMC = 20001

# The 1-D model (prior generator draw, EM + AIC fit, observation) that
# ``prepare_oned_model`` reads; ``oned`` and ``bench`` share it.
_ONED_MODEL_DEFAULTS = {
    "seed": 2024,
    "n_ens_prior": 1000,
    "observation": -1.0,
    "observation_variance": 2.2,
    "gmm_structure": "full",
    "candidate_components": [1, 10],
}

_ONED_DEFAULTS = {
    "kind": "oned",
    **_ONED_MODEL_DEFAULTS,
    "n_samples": 5000,
    "burn_in": 100,
    "stride": 15,
    "serial_proposal_variance": 2.0,
    "parallel_proposal_scale": 0.3,
    "hmc_steps": 20,
    "hmc_jitter": True,
    "workers": 2,
    "histogram_bins": 50,
    "histogram_range": [-10.0, 10.0],
}

_BENCH_DEFAULTS = {
    "kind": "bench",
    **_ONED_MODEL_DEFAULTS,
    "n_samples": 3500,
    "burn_in": 0,
    "stride": 5,
    "mechanism": "gaussian",
    "parallel_proposal_scale": 0.3,
    "hmc_steps": 20,
    "p_values": [1, 2, 4, 7, 8, 12],
    "repetitions": 3,
}

# The deblurring problem (image, blur, noise) and its L-curve Tikhonov
# baseline; ``deblur`` and ``tikhonov`` share it, so the Tikhonov-only run
# solves the same problem.
_DEBLUR_PROBLEM_DEFAULTS = {
    "seed": 7,
    "image": None,
    "blur_width": 5,
    "blur_sigma": 1.5,
    "boundary": "reflect",
    "saturation": False,
    "noise_level": 0.09,
    "alpha_grid": [1e-6, 1e2, 30],
    "reg_matrix": "laplacian",
    "reg_epsilon": 1e-3,
}

_DEBLUR_DEFAULTS = {
    "kind": "deblur",
    **_DEBLUR_PROBLEM_DEFAULTS,
    "prior_spread": 0.08,
    "prior_pool": 50,
    "n_ens": 30,
    "gmm_structure": "diagonal",
    "candidate_components": [1, 3],
    "burn_in": 100,
    "stride": 5,
    "hmc_steps": 20,
    "hmc_jitter": False,
    "parallel_proposal_scale": 0.002,
    "workers": 2,
}

_TIKHONOV_DEFAULTS = {"kind": "tikhonov", **_DEBLUR_PROBLEM_DEFAULTS}

_EMFIT_DEFAULTS = {
    "kind": "em-fit",
    "seed": 0,
    "data": None,
    "gmm_structure": "full",
    "candidate_components": [1, 10],
    "workers": 2,
}

_DEFAULTS = {
    "oned": _ONED_DEFAULTS,
    "deblur": _DEBLUR_DEFAULTS,
    "bench": _BENCH_DEFAULTS,
    "tikhonov": _TIKHONOV_DEFAULTS,
    "em-fit": _EMFIT_DEFAULTS,
}

EXPERIMENT_KINDS = tuple(_DEFAULTS)

def _integer(v):
    # JSON's true and false are Python ints too; no count or seed is a bool.
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(value, length, valid):
    """A list of ``length`` (any length when None) values that pass ``valid``."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(map(valid, value)))


# The rule of every config key: a test of the value, and the rule in words.
_RULES = {
    **{key: (lambda v, least=least: _integer(v) and v >= least,
             f"an integer of at least {least}")
       for key, least in (("n_samples", 1), ("n_ens", 1), ("n_ens_prior", 1), ("stride", 1),
                          ("hmc_steps", 1), ("workers", 1), ("burn_in", 0),
                          ("repetitions", 1), ("histogram_bins", 1), ("prior_pool", 1))},
    # Keys that pick a code path.
    **{key: (lambda v, allowed=allowed: v in allowed, f"one of {allowed}")
       for key, allowed in (("gmm_structure", GMM_STRUCTURES), ("boundary", BOUNDARY_RULES),
                            ("mechanism", MECHANISMS),
                            ("reg_matrix", ("identity", "laplacian")))},
    **{key: (lambda v: _number(v) and 0 < v < math.inf, "a positive finite number")
       for key in ("serial_proposal_variance", "parallel_proposal_scale",
                   "observation_variance", "blur_sigma", "noise_level", "reg_epsilon",
                   "prior_spread")},
    **{key: (lambda v: isinstance(v, bool), "true or false")
       for key in ("saturation", "hmc_jitter")},
    **{key: (lambda v: v is None or isinstance(v, str), "null or a string")
       for key in ("image", "data")},
    "seed": (_integer, "an integer"),
    "observation": (lambda v: _number(v) and math.isfinite(v), "a finite number"),
    "blur_width": (lambda v: _integer(v) and v >= 1 and v % 2 == 1,
                   "an odd integer of at least 1"),
    "p_values": (lambda v: _is_list_of(v, None, _integer) and v and min(v) >= 1,
                 "a non-empty list of integers of at least 1"),
    "candidate_components": (lambda v: _is_list_of(v, 2, _integer) and 1 <= v[0] <= v[1],
                             "two integers [lo, hi] with 1 <= lo <= hi"),
    "histogram_range": (lambda v: _is_list_of(v, 2, _number) and v[0] < v[1],
                        "[lo, hi] with lo < hi"),
    "alpha_grid": (lambda v: (_is_list_of(v, 3, _number) and 0 < v[0] < v[1]
                              and _integer(v[2]) and v[2] >= 2),
                   "[lo, hi, count] with 0 < lo < hi and an integer count of at least 2"),
}


def default_config(kind):
    if kind not in _DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    return dict(_DEFAULTS[kind])


def load_config(kind, path=None, overrides=None):
    """Merge defaults, an optional JSON config file, and CLI overrides.

    Unknown keys are rejected; a "kind" key in the file must match. A value
    that breaks its key's rule in ``_RULES`` raises ConfigError naming the
    key.
    """
    config = default_config(kind)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ConfigError(f"unknown config keys for {kind!r}: {sorted(unknown)}")
        if "kind" in loaded and loaded["kind"] != kind:
            raise ConfigError(f"config kind {loaded['kind']!r} does not match {kind!r}")
        config.update(loaded)
    if overrides:
        unknown = set(overrides) - set(config)
        if unknown:
            raise ConfigError(f"unknown override keys for {kind!r}: {sorted(unknown)}")
        config.update({k: v for k, v in overrides.items() if v is not None})
    for key, (valid, rule) in _RULES.items():
        if key in config and not valid(config[key]):
            raise ConfigError(f"{key} must be {rule}, got {config[key]!r}")
    if "prior_pool" in config and config["n_ens"] > config["prior_pool"]:
        raise ConfigError(f"n_ens ({config['n_ens']}) must not exceed prior_pool "
                          f"({config['prior_pool']})")
    # The prior is fitted to this many members; no fit has more components.
    for key in ("n_ens_prior", "n_ens"):
        if key in config and config[key] < config["candidate_components"][0]:
            raise ConfigError(f"{key} ({config[key]}) must be at least candidate_components[0] "
                              f"({config['candidate_components'][0]})")
    return config


def _csv_cell(value):
    """Strings verbatim, floats by repr (read back exactly by float()),
    everything else (ints, bools, numpy bools) as an integer."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    return str(int(value))


@dataclass
class RunSummary:
    """The record of one run: it writes every artifact into ``out``, lists
    each in the manifest, times the run's phases, and ends as summary.json."""

    kind: str
    seed: int
    out: Path  # never written into summary.json
    acceptance: dict = field(default_factory=dict)
    relative_errors: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    n_c_selected: int | None = None
    aic: list | None = None  # AicSelection.table of the prior fit
    em: dict | None = None  # AicSelection.em_totals of the prior fit
    alpha_star: float | None = None
    manifest: list = field(default_factory=list)

    def __post_init__(self):
        self.out = Path(self.out)

    def to_json(self):
        doc = {
            "kind": self.kind,
            "seed": self.seed,
            "acceptance": self.acceptance,
            "relative_errors": self.relative_errors,
            "timings": self.timings,
            "n_c_selected": self.n_c_selected,
            "aic": self.aic,
            "em": self.em,
            "alpha_star": self.alpha_star,
            "manifest": self.manifest,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write(self, name, text):
        """Write one text artifact and list it in the manifest."""
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / name, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.manifest.append(name)

    def write_csv(self, name, header, rows):
        lines = [",".join(header)]
        lines.extend(",".join(map(_csv_cell, row)) for row in rows)
        self.write(name, "\n".join(lines) + "\n")

    def write_image(self, name, rows, cols, values):
        """A rows-by-cols image as a plain PGM, clamped to [0, 1]."""
        write_pgm(ImageGrid(rows, cols, values), self.out / name)
        self.manifest.append(name)

    @contextmanager
    def timed(self, phase):
        """Record the wall time of the enclosed block as ``timings[phase]``."""
        start = time.perf_counter()
        yield
        self.timings[phase] = time.perf_counter() - start

    def finish(self):
        """Write summary.json; its manifest lists every earlier artifact."""
        self.write("summary.json", self.to_json())
        return self


def relative_error(x, x_true):
    """Euclidean relative error ||x - x_true|| / ||x_true||."""
    x = np.asarray(x, dtype=float).reshape(-1)
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    ref = float(np.linalg.norm(x_true))
    if ref == 0.0:
        raise ZeroReference("reference vector has zero norm")
    return float(np.linalg.norm(x - x_true)) / ref


def benchmark_prior_mixture():
    """The 1-D benchmark's true prior as a GaussianMixture."""
    generator = np.array(BENCHMARK_GENERATOR_1D)
    return GaussianMixture(
        generator[:, 0], generator[:, 1:2], generator[:, 2:3], structure="diagonal"
    )


def fit_prior_mixture(members, config, pool=None):
    """EM + AIC over the config's candidate component counts and covariance
    structure, on the EM stream of the config's seed; the fits run on
    ``pool``, in this process when None."""
    lo, hi = config["candidate_components"]
    return select_model_aic(
        members,
        range(int(lo), int(hi) + 1),
        structure=config["gmm_structure"],
        rng=RngStream(config["seed"], STREAM_EM),
        pool=pool,
    )


def _record_selection(summary, selection, write_mixture=True):
    """Selected count, AIC table, EM totals over every fit and the fits' own
    seconds (``em_fit_work_s``) into the summary, and the mixture as gmm.json
    when ``write_mixture``."""
    summary.n_c_selected = selection.n_components
    summary.aic = selection.table
    summary.em = selection.em_totals
    summary.timings["em_fit_work_s"] = selection.work_s
    if write_mixture:
        doc = selection.mixture.to_json_dict()
        summary.write("gmm.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def prepare_oned_model(config, pool=None):
    """Generate the prior ensemble, fit the GMM by EM + AIC on ``pool`` (in
    this process when None), and assemble the posterior model of the 1-D
    benchmark."""
    stream = RngStream(config["seed"], STREAM_PRIOR_ENSEMBLE)
    ensemble = benchmark_prior_mixture().sample_n(stream, config["n_ens_prior"])
    selection = fit_prior_mixture(ensemble, config, pool)
    mixture = selection.mixture
    model = PosteriorModel(
        mixture,
        IdentityOperator(1),
        [config["observation"]],
        SpdMatrix.from_diagonal([config["observation_variance"]]),
    )
    return model, selection, ensemble


def mixture_moments(mixture):
    """Mean vector and total covariance diagonal of a mixture."""
    mean = mixture.weights @ mixture.means
    second = np.zeros(mixture.dim)
    for w, mu, var in zip(mixture.weights, mixture.means, mixture.variances):
        second += w * (var + (mu - mean) ** 2)
    return mean, second


def serial_gaussian_mechanism(config):
    return tune_gaussian_proposal(np.array([config["serial_proposal_variance"]]), 1.0)


def mixture_bin_masses(mixture, edges):
    """Mass of a 1-D mixture in each histogram bin [a, b): sum_k w_k
    [Phi((b - m_k) / s_k) - Phi((a - m_k) / s_k)]. Phi comes from math.erfc:
    importing scipy.special would add to every run's start-up and memory."""
    z = (edges[:, None] - mixture.means[:, 0]) / np.sqrt(2.0 * mixture.variances[:, 0])
    return np.diff(0.5 * np.vectorize(math.erfc)(-z), axis=0) @ mixture.weights


def weighted_histogram(samples, weights, edges):
    masses, _ = np.histogram(samples, bins=edges, weights=weights)
    return masses


def total_variation(sample_masses, reference_masses):
    return 0.5 * float(np.sum(np.abs(sample_masses - reference_masses)))


ACCEPTANCE_HEADER = ("variant", "chain", "component", "proposals_made",
                     "proposals_accepted", "acceptance_rate", "divergences")


def multichain_plan(model, n_ens, mechanism, config):
    """One chain per prior component with ``mechanism``, tuned by the
    config's keys; ``build_plan`` reads those of its mechanism."""
    return build_plan(
        model, n_ens, mechanism, config["seed"],
        burn_in=config["burn_in"], stride=config["stride"],
        proposal_scale=config["parallel_proposal_scale"],
        hmc_steps=config["hmc_steps"], hmc_jitter=config["hmc_jitter"],
    )


def oned_plans(model, config):
    """The 1-D benchmark's four sampling variants by name. The serial chains
    sample the full posterior from the prior mean; the multi-chain variants
    run one chain per prior component."""
    prior_mean, total_var = mixture_moments(model.prior)
    n = config["n_samples"]

    def serial(mechanism, stream):
        return single_chain_plan(prior_mean, mechanism, n, stream, burn_in=config["burn_in"],
                                 stride=config["stride"], seed=config["seed"])

    return {
        "serial_gaussian": serial(serial_gaussian_mechanism(config), STREAM_SERIAL_GAUSSIAN),
        "serial_hmc": serial(tune_hmc(total_var, config["hmc_steps"], jitter=config["hmc_jitter"]),
                             STREAM_SERIAL_HMC),
        "parallel_gaussian": multichain_plan(model, n, "gaussian", config),
        "parallel_hmc": multichain_plan(model, n, "hmc", config),
    }


def _run_sampling(summary, model, variants, pool):
    """Run every sampling variant's plan in one ``run_plans`` call on
    ``pool``, its elapsed wall timed as ``sampling_s``.

    ``variants`` maps each variant's name to its phase key and plan. Each
    variant goes into the run record: the seconds its chains ran as its
    phase key, its acceptance rate (accepted over made, summed over its
    chains) and samples_{name}.csv. Returns the McmcResult of each variant
    by name, and the rows of acceptance.csv.
    """
    with summary.timed("sampling_s"):
        results = run_plans(model, [plan for _, plan in variants.values()], pool)
    rows = []
    for (name, (phase, _)), result in zip(variants.items(), results):
        ensemble = result.ensemble
        summary.timings[phase] = result.chain_seconds
        summary.acceptance[name] = result.acceptance_rate
        header = [f"x{i}" for i in range(ensemble.dim)] + ["weight"]
        summary.write_csv(f"samples_{name}.csv", header,
                          ([*row, w] for row, w in zip(ensemble.members.tolist(),
                                                       ensemble.weights.tolist())))
        rows.extend(
            (name, chain.stream_id, chain.component, r.proposals_made, r.proposals_accepted,
             r.acceptance_rate, r.divergences)
            for chain, r in zip(result.chains, result.chain_results)
        )
    return dict(zip(variants, results)), rows


def run_oned_benchmark(config, out_dir):
    """The 1-D benchmark end to end: serial and multi-chain sampling with
    both mechanisms, and the histogram against the exact posterior."""
    summary = RunSummary("oned", config["seed"], out_dir)
    # One pool serves the EM fits and every chain.
    with WorkerPool(config["workers"]) as pool:
        with summary.timed("em_fit_s"):
            model, selection, _ = prepare_oned_model(config, pool)
        variants = {name: (f"{name}_s", plan)
                    for name, plan in oned_plans(model, config).items()}
        results, acceptance_rows = _run_sampling(summary, model, variants, pool)

    # The exact posterior's density and bin masses against the pooled samples.
    posterior = linear_mixture_posterior(model)
    grid = np.linspace(-15.0, 15.0, 12001)
    blocks = np.array_split(grid[:, None], 4)  # keeps logpdf's (n, k) temporaries small
    density = np.exp(np.concatenate([posterior.logpdf(b) for b in blocks]))
    summary.write_csv("reference_density.csv", ("x", "density"),
                      zip(grid.tolist(), density.tolist()))

    lo, hi = config["histogram_range"]
    edges = np.linspace(lo, hi, config["histogram_bins"] + 1)
    ref_masses = mixture_bin_masses(posterior, edges)
    ensemble = results["parallel_hmc"].ensemble
    sample_masses = weighted_histogram(ensemble.members[:, 0], ensemble.weights, edges)
    summary.write_csv("histogram_parallel_hmc.csv",
                      ("bin_left", "bin_right", "mass_sampled", "mass_reference"),
                      zip(edges[:-1], edges[1:], sample_masses, ref_masses))
    summary.relative_errors["tv_parallel_hmc_vs_reference"] = total_variation(
        sample_masses, ref_masses
    )

    summary.write_csv("acceptance.csv", ACCEPTANCE_HEADER, acceptance_rows)
    _record_selection(summary, selection)
    return summary.finish()


def bundled_phantom_path():
    return resources.files("csample").joinpath("data/phantom_disk_32.pgm")


def load_experiment_image(config):
    """The true image: ``image``, or the bundled phantom when it is empty.
    ``noise_level`` and ``prior_spread`` scale with its mean intensity, so an
    all-black image is refused."""
    if not config["image"]:
        with resources.as_file(bundled_phantom_path()) as path:
            return read_pgm(path)
    truth = read_pgm(config["image"])
    if truth.mean_intensity() == 0.0:
        raise ConfigError(f"image {config['image']} is all black: noise_level and "
                          "prior_spread are relative to its mean intensity, which is 0")
    return truth


def _blur_operator(config, rows, cols):
    op = GaussianBlurOperator(
        rows, cols, width=config["blur_width"], sigma=config["blur_sigma"],
        boundary=config["boundary"],
    )
    if config["saturation"]:
        op = SaturationWrapper(op)
    return op


def _regularization_matrix(config, rows, cols):
    if config["reg_matrix"] == "identity":
        return SpdMatrix.identity(rows * cols)
    return discrete_laplacian(rows, cols, epsilon=config["reg_epsilon"])


def observe_deblur_problem(config):
    """Blur the truth and add observation noise with standard deviation
    ``noise_level`` times the mean intensity; ``obs_cov`` is that noise's
    covariance, shared by the posterior and the Tikhonov baseline."""
    truth = load_experiment_image(config)
    rows, cols = truth.rows, truth.cols
    op = _blur_operator(config, rows, cols)
    blurred = op.apply(truth.intensities)
    mean_intensity = truth.mean_intensity()
    noise_std = config["noise_level"] * mean_intensity
    noise = RngStream(config["seed"], STREAM_NOISE).standard_normal(rows * cols) * noise_std
    return {
        "truth": truth,
        "operator": op,
        "blurred": blurred,
        "observed": blurred + noise,
        "noise_std": noise_std,
        "obs_cov": SpdMatrix.spherical(rows * cols, noise_std ** 2),
        "mean_intensity": mean_intensity,
    }


def prepare_deblur_problem(config):
    """The observed deblurring problem plus the synthetic prior ensemble:
    the blurred image, before any saturation, perturbed with standard
    deviation ``prior_spread`` times the mean intensity."""
    setup = observe_deblur_problem(config)
    op = setup["operator"]
    blurred = (op.inner if config["saturation"] else op).apply(setup["truth"].intensities)
    dim = blurred.size
    seed = config["seed"]
    spread_std = config["prior_spread"] * setup["mean_intensity"]
    pool_stream = RngStream(seed, STREAM_PRIOR_ENSEMBLE)
    pool = blurred[None, :] + spread_std * pool_stream.standard_normal(
        config["prior_pool"] * dim
    ).reshape(config["prior_pool"], dim)
    pick_stream = RngStream(seed, STREAM_SUBSAMPLE)
    order = np.argsort(pick_stream.uniform(config["prior_pool"]), kind="stable")
    setup["prior_members"] = pool[np.sort(order[: config["n_ens"]])]
    return setup


def _write_input_images(setup, summary):
    """The true, blurred and noisy images of a deblurring problem as PGMs."""
    truth = setup["truth"]
    for name, values in (
        ("true", truth.intensities),
        ("blurred", setup["blurred"]),
        ("noisy", setup["observed"]),
    ):
        summary.write_image(f"{name}.pgm", truth.rows, truth.cols, values)


def _run_tikhonov_baseline(config, setup, summary):
    """The L-curve-tuned Tikhonov reconstruction of the observed image.

    Writes lcurve.csv and tikhonov.pgm, records alpha* and ``tikhonov_s`` in
    the summary, and returns the reconstruction.
    """
    rows, cols = setup["truth"].rows, setup["truth"].cols
    with summary.timed("tikhonov_s"):
        lo_a, hi_a, n_a = config["alpha_grid"]
        alphas = np.logspace(np.log10(lo_a), np.log10(hi_a), int(n_a))
        problem = TikhonovProblem(
            setup["operator"],
            setup["observed"],
            setup["obs_cov"],
            _regularization_matrix(config, rows, cols),
            alphas[0],
        )
        lcurve = lcurve_select_alpha(problem, alphas)
        solution = lcurve.solution.x
    summary.alpha_star = lcurve.alpha
    summary.write_csv(
        "lcurve.csv",
        ("alpha", "residual_norm", "solution_norm", "curvature", "iterations", "converged"),
        ((p.alpha, p.residual_norm, p.solution_norm, p.curvature, p.iterations, p.converged)
         for p in lcurve.points),
    )
    summary.write_image("tikhonov.pgm", rows, cols, solution)
    return solution


def run_deblur_experiment(config, out_dir):
    """Image retrieval: multi-chain sampling of the deblurring posterior and
    the L-curve-tuned Tikhonov baseline, with relative-error comparison."""
    summary = RunSummary("deblur", config["seed"], out_dir)
    setup = prepare_deblur_problem(config)
    truth = setup["truth"]
    rows, cols = truth.rows, truth.cols
    _write_input_images(setup, summary)

    # Its few small fits take milliseconds in process, less than the pool's
    # workers would add.
    with summary.timed("em_fit_s"):
        selection = fit_prior_mixture(setup["prior_members"], config)
    _record_selection(summary, selection)

    model = PosteriorModel(selection.mixture, setup["operator"], setup["observed"],
                           setup["obs_cov"])
    variants = {
        f"parallel_{mechanism}": (f"sampling_{mechanism}_s",
                                  multichain_plan(model, config["n_ens"], mechanism, config))
        for mechanism in ("hmc", "gaussian")
    }
    with WorkerPool(config["workers"]) as pool:
        results, acceptance_rows = _run_sampling(summary, model, variants, pool)
    summary.write_csv("acceptance.csv", ACCEPTANCE_HEADER, acceptance_rows)

    ensemble = results["parallel_hmc"].ensemble
    posterior_mean = ensemble.mean()
    posterior_median = np.median(ensemble.members, axis=0)
    summary.write_image("posterior_mean.pgm", rows, cols, posterior_mean)
    summary.write_image("posterior_median.pgm", rows, cols, posterior_median)

    tikhonov_solution = _run_tikhonov_baseline(config, setup, summary)

    x_true = truth.intensities
    summary.relative_errors = {
        "noisy_input": relative_error(setup["observed"], x_true),
        "blurred": relative_error(setup["blurred"], x_true),
        "posterior_mean": relative_error(posterior_mean, x_true),
        "posterior_median": relative_error(posterior_median, x_true),
        "tikhonov": relative_error(tikhonov_solution, x_true),
        "gaussian_posterior_mean": relative_error(
            results["parallel_gaussian"].ensemble.mean(), x_true
        ),
    }
    return summary.finish()


def run_speedup_benchmark(config, out_dir):
    """Measured-versus-predicted scaling of the multi-chain sampler."""
    summary = RunSummary("bench", config["seed"], out_dir)
    with summary.timed("em_fit_s"):
        model, selection, _ = prepare_oned_model(config)
    _record_selection(summary, selection, write_mixture=False)

    with summary.timed("benchmark_s"):
        # Equal budgets, the split whole_chain_speedup's prediction assumes.
        plan = build_plan(model, config["n_samples"], config["mechanism"], config["seed"],
                          burn_in=config["burn_in"], stride=config["stride"],
                          proposal_scale=config["parallel_proposal_scale"],
                          hmc_steps=config["hmc_steps"], budgets="uniform")
        rows = benchmark_speedup(model, plan, config["p_values"],
                                 repetitions=config["repetitions"])
    summary.write_csv(
        "bench.csv",
        ("p", "wall_s", "speedup", "efficiency", "pred_speedup", "pred_efficiency"),
        ((r.workers, r.wall_s, r.speedup, r.efficiency, r.pred_speedup, r.pred_efficiency)
         for r in rows),
    )
    summary.timings["wall_by_p"] = {str(r.workers): r.wall_s for r in rows}
    summary.acceptance["oversubscribed"] = any(r.oversubscribed for r in rows)
    return summary.finish()


def run_tikhonov_experiment(config, out_dir):
    """The Tikhonov baseline alone on the deblurring problem."""
    summary = RunSummary("tikhonov", config["seed"], out_dir)
    setup = observe_deblur_problem(config)
    truth = setup["truth"]
    _write_input_images(setup, summary)
    solution = _run_tikhonov_baseline(config, setup, summary)
    summary.relative_errors = {
        "noisy_input": relative_error(setup["observed"], truth.intensities),
        "tikhonov": relative_error(solution, truth.intensities),
    }
    return summary.finish()


def run_em_fit(config, out_dir):
    """Fit a mixture to an ensemble stored as CSV (one sample per row)."""
    path = config["data"]
    if not path:
        raise ConfigError("em-fit requires a 'data' CSV path")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file, rejected below
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise ConfigError(f"data file {path} is not a table of numbers: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"data file {path} holds no samples")
    if not np.isfinite(data).all():
        raise ConfigError(f"data file {path} holds a non-finite value")
    lo = config["candidate_components"][0]
    if data.shape[0] < lo:
        raise ConfigError(f"data file {path} holds {data.shape[0]} samples, fewer than "
                          f"candidate_components[0] ({lo})")
    summary = RunSummary("em-fit", config["seed"], out_dir)
    # The data is checked above, before the pool forks its workers.
    with WorkerPool(config["workers"]) as pool, summary.timed("em_fit_s"):
        selection = fit_prior_mixture(data, config, pool)
    _record_selection(summary, selection)
    return summary.finish()


RUNNERS = {
    "oned": run_oned_benchmark,
    "deblur": run_deblur_experiment,
    "bench": run_speedup_benchmark,
    "tikhonov": run_tikhonov_experiment,
    "em-fit": run_em_fit,
}
