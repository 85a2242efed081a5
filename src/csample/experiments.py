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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, ZeroReference
from .forward_models import (
    GaussianBlurOperator,
    IdentityOperator,
    ImageGrid,
    SaturationWrapper,
    read_pgm,
    write_pgm,
)
from .gmm import GaussianMixture, select_model_aic
from .linalg_rng import RngStream, SpdMatrix
from .mc_scheduler import (
    WorkerPool,
    benchmark_rows_to_csv,
    benchmark_speedup,
    build_plan,
    run_mc_mcmc,
)
from .posterior import PosteriorModel, linear_mixture_posterior
from .samplers import ChainConfig, GaussianProposal, HmcParams, run_chain
from .tikhonov import (
    TikhonovProblem,
    discrete_laplacian,
    lcurve_points_to_csv,
    lcurve_select_alpha,
)

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

_ONED_DEFAULTS = {
    "kind": "oned",
    "seed": 2024,
    "n_ens_prior": 1000,
    "n_samples": 5000,
    "burn_in": 100,
    "stride": 15,
    "observation": -1.0,
    "observation_variance": 2.2,
    "gmm_structure": "full",
    "candidate_components": [1, 10],
    "serial_proposal_variance": 2.0,
    "parallel_proposal_scale": 0.3,
    "serial_hmc_trajectory": 1.0,
    "hmc_trajectory": 1.5,
    "hmc_steps": 20,
    "hmc_jitter": True,
    "workers": 2,
    "histogram_bins": 50,
    "histogram_range": [-10.0, 10.0],
}

_DEBLUR_DEFAULTS = {
    "kind": "deblur",
    "seed": 7,
    "image": None,
    "blur_width": 5,
    "blur_sigma": 1.5,
    "boundary": "reflect",
    "saturation": False,
    "noise_level": 0.09,
    "prior_spread": 0.08,
    "prior_pool": 50,
    "n_ens": 30,
    "gmm_structure": "diagonal",
    "candidate_components": [1, 3],
    "burn_in": 100,
    "stride": 5,
    "hmc_trajectory": 0.25,
    "hmc_steps": 20,
    "hmc_jitter": False,
    "parallel_proposal_scale": 0.002,
    "workers": 2,
    "alpha_grid": [1e-6, 1e2, 30],
    "reg_matrix": "laplacian",
    "reg_epsilon": 1e-3,
}

_BENCH_DEFAULTS = {
    "kind": "bench",
    "seed": 2024,
    "n_ens_prior": 1000,
    "n_samples": 3500,
    "burn_in": 0,
    "stride": 5,
    "observation": -1.0,
    "observation_variance": 2.2,
    "gmm_structure": "full",
    "candidate_components": [1, 10],
    "mechanism": "gaussian",
    "parallel_proposal_scale": 0.3,
    "hmc_trajectory": 1.0,
    "hmc_steps": 20,
    "p_values": [1, 2, 4, 7, 8, 12],
    "repetitions": 3,
}

_TIKHONOV_DEFAULTS = {
    "kind": "tikhonov",
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

_EMFIT_DEFAULTS = {
    "kind": "em-fit",
    "seed": 0,
    "data": None,
    "gmm_structure": "full",
    "candidate_components": [1, 10],
}

_DEFAULTS = {
    "oned": _ONED_DEFAULTS,
    "deblur": _DEBLUR_DEFAULTS,
    "bench": _BENCH_DEFAULTS,
    "tikhonov": _TIKHONOV_DEFAULTS,
    "em-fit": _EMFIT_DEFAULTS,
}

EXPERIMENT_KINDS = tuple(_DEFAULTS)


def default_config(kind):
    if kind not in _DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    return dict(_DEFAULTS[kind])


def load_config(kind, path=None, overrides=None):
    """Merge defaults, an optional JSON config file, and CLI overrides.

    Unknown keys are rejected; a "kind" key in the file must match.
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
    return config


@dataclass
class RunSummary:
    kind: str
    seed: int
    acceptance: dict = field(default_factory=dict)
    relative_errors: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    n_c_selected: int | None = None
    aic: list | None = None  # AicSelection.table of the prior fit
    alpha_star: float | None = None
    manifest: list = field(default_factory=list)

    def to_json(self):
        doc = {
            "kind": self.kind,
            "seed": self.seed,
            "acceptance": self.acceptance,
            "relative_errors": self.relative_errors,
            "timings": self.timings,
            "n_c_selected": self.n_c_selected,
            "aic": self.aic,
            "alpha_star": self.alpha_star,
            "manifest": self.manifest,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write(self, out, name, text):
        """Write one text artifact and list it in the manifest."""
        out.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.manifest.append(name)
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


def fit_prior_mixture(members, config):
    """EM + AIC over the config's candidate component counts and covariance
    structure, on the EM stream of the config's seed."""
    lo, hi = config["candidate_components"]
    return select_model_aic(
        members,
        range(int(lo), int(hi) + 1),
        structure=config["gmm_structure"],
        rng=RngStream(config["seed"], STREAM_EM),
    )


def _record_selection(summary, selection, out=None):
    """Selected count and AIC table into the summary; with ``out``, gmm.json too."""
    summary.n_c_selected = selection.n_components
    summary.aic = selection.table
    if out is not None:
        doc = selection.mixture.to_json_dict()
        summary.write(out, "gmm.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def prepare_oned_model(config):
    """Generate the prior ensemble, fit the GMM by EM + AIC, and assemble
    the posterior model of the 1-D benchmark."""
    stream = RngStream(config["seed"], STREAM_PRIOR_ENSEMBLE)
    ensemble = benchmark_prior_mixture().sample_n(stream, config["n_ens_prior"])
    selection = fit_prior_mixture(ensemble, config)
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
    return GaussianProposal(SpdMatrix.from_diagonal([config["serial_proposal_variance"]]))


def serial_hmc_mechanism(model, config):
    _, total_var = mixture_moments(model.prior)
    mass = SpdMatrix.from_diagonal(1.0 / total_var)
    return HmcParams(
        mass,
        config["serial_hmc_trajectory"] / config["hmc_steps"],
        config["hmc_steps"],
        jitter_steps=config["hmc_jitter"],
    )


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


def samples_to_csv(samples, weights):
    dim = samples.shape[1]
    header = ",".join(f"x{i}" for i in range(dim)) + ",weight"
    lines = [header]
    for row, w in zip(samples, weights):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(w)!r}")
    return "\n".join(lines) + "\n"


def acceptance_table_csv(rows):
    lines = ["variant,chain,component,proposals_made,proposals_accepted,acceptance_rate,divergences"]
    for variant, results in rows:
        for r in results:
            lines.append(
                f"{variant},{r.stream_id},{r.component},{r.proposals_made},"
                f"{r.proposals_accepted},{r.acceptance_rate!r},{r.divergences}"
            )
    return "\n".join(lines) + "\n"


def run_oned_benchmark(config, out_dir):
    """The 1-D benchmark end to end: serial and multi-chain sampling with
    both mechanisms, and the histogram against the exact posterior."""
    out = Path(out_dir)
    summary = RunSummary(kind="oned", seed=config["seed"])
    t0 = time.perf_counter()
    model, selection, _ = prepare_oned_model(config)
    summary.timings["em_fit_s"] = time.perf_counter() - t0

    prior_mean, _ = mixture_moments(model.prior)
    n = config["n_samples"]
    seed = config["seed"]
    acceptance_rows = []

    def record(name, results, pooled=None, weights=None):
        acceptance_rows.append((name, results))
        made = sum(r.proposals_made for r in results)
        accepted = sum(r.proposals_accepted for r in results)
        summary.acceptance[name] = accepted / made
        if pooled is not None:
            summary.write(out, f"samples_{name}.csv", samples_to_csv(pooled, weights))

    # Serial chains sample the full posterior from the prior mean.
    for name, stream, mechanism in (
        ("serial_gaussian", STREAM_SERIAL_GAUSSIAN, serial_gaussian_mechanism(config)),
        ("serial_hmc", STREAM_SERIAL_HMC, serial_hmc_mechanism(model, config)),
    ):
        t0 = time.perf_counter()
        cfg = ChainConfig(n, prior_mean, RngStream(seed, stream),
                          burn_in=config["burn_in"], stride=config["stride"])
        chain = run_chain(model, cfg, mechanism)
        summary.timings[f"{name}_s"] = time.perf_counter() - t0
        record(name, [chain], chain.samples, np.full(n, 1.0 / n))

    pool = WorkerPool(config["workers"])
    try:
        t0 = time.perf_counter()
        plan_g = build_plan(
            model, n, "gaussian", seed, workers=config["workers"],
            burn_in=config["burn_in"], stride=config["stride"],
            proposal_scale=config["parallel_proposal_scale"],
        )
        par_g = run_mc_mcmc(model, plan_g, pool=pool)
        summary.timings["parallel_gaussian_s"] = time.perf_counter() - t0
        record("parallel_gaussian", par_g.chain_results,
               par_g.ensemble.members, par_g.ensemble.weights)

        t0 = time.perf_counter()
        plan_h = build_plan(
            model, n, "hmc", seed, workers=config["workers"],
            burn_in=config["burn_in"], stride=config["stride"],
            hmc_trajectory=config["hmc_trajectory"], hmc_steps=config["hmc_steps"],
            hmc_jitter=config["hmc_jitter"],
        )
        par_h = run_mc_mcmc(model, plan_h, pool=pool)
        summary.timings["parallel_hmc_s"] = time.perf_counter() - t0
        record("parallel_hmc", par_h.chain_results,
               par_h.ensemble.members, par_h.ensemble.weights)
    finally:
        pool.close()

    # The exact posterior's density and bin masses against the pooled samples.
    posterior = linear_mixture_posterior(model)
    grid = np.linspace(-15.0, 15.0, 12001)
    blocks = np.array_split(grid[:, None], 4)  # keeps logpdf's (n, k) temporaries small
    density = np.exp(np.concatenate([posterior.logpdf(b) for b in blocks]))
    ref_csv = "x,density\n" + "\n".join(
        f"{float(x)!r},{float(d)!r}" for x, d in zip(grid, density)
    ) + "\n"
    summary.write(out, "reference_density.csv", ref_csv)

    lo, hi = config["histogram_range"]
    edges = np.linspace(lo, hi, config["histogram_bins"] + 1)
    ref_masses = mixture_bin_masses(posterior, edges)
    sample_masses = weighted_histogram(
        par_h.ensemble.members[:, 0], par_h.ensemble.weights, edges
    )
    hist_csv = "bin_left,bin_right,mass_sampled,mass_reference\n" + "\n".join(
        f"{float(edges[b])!r},{float(edges[b + 1])!r},"
        f"{float(sample_masses[b])!r},{float(ref_masses[b])!r}"
        for b in range(edges.size - 1)
    ) + "\n"
    summary.write(out, "histogram_parallel_hmc.csv", hist_csv)
    summary.relative_errors["tv_parallel_hmc_vs_reference"] = total_variation(
        sample_masses, ref_masses
    )

    summary.write(out, "acceptance.csv", acceptance_table_csv(acceptance_rows))
    _record_selection(summary, selection, out)
    return summary.write(out, "summary.json", summary.to_json())


def bundled_phantom_path():
    return resources.files("csample").joinpath("data/phantom_disk_32.pgm")


def load_experiment_image(config):
    if config["image"]:
        return read_pgm(config["image"])
    with resources.as_file(bundled_phantom_path()) as path:
        return read_pgm(path)


def _blur_operator(config, rows, cols):
    op = GaussianBlurOperator(
        rows, cols, width=config["blur_width"], sigma=config["blur_sigma"],
        boundary=config["boundary"],
    )
    if config["saturation"]:
        op = SaturationWrapper(op)
    return op


def _regularization_matrix(config, rows, cols):
    kind = config["reg_matrix"]
    if kind == "identity":
        return SpdMatrix.identity(rows * cols)
    if kind == "laplacian":
        return discrete_laplacian(rows, cols, epsilon=config["reg_epsilon"])
    raise ConfigError(f"unknown reg_matrix {kind!r}; expected identity or laplacian")


def observe_deblur_problem(config):
    """Blur the truth and add observation noise with standard deviation
    ``noise_level`` times the mean intensity."""
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
        "mean_intensity": mean_intensity,
    }


def prepare_deblur_problem(config):
    """The observed deblurring problem plus the synthetic prior ensemble:
    the blurred image perturbed with standard deviation ``prior_spread``
    times the mean intensity."""
    setup = observe_deblur_problem(config)
    blurred = setup["blurred"]
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


def _write_input_images(setup, out, summary):
    """The true, blurred and noisy images of a deblurring problem as PGMs."""
    truth = setup["truth"]
    for name, values in (
        ("true", truth.intensities),
        ("blurred", setup["blurred"]),
        ("noisy", setup["observed"]),
    ):
        write_pgm(ImageGrid(truth.rows, truth.cols, values), out / f"{name}.pgm")
        summary.manifest.append(f"{name}.pgm")


def _run_tikhonov_baseline(config, setup, out, summary):
    """The L-curve-tuned Tikhonov reconstruction of the observed image.

    Writes lcurve.csv and tikhonov.pgm, records alpha* and ``tikhonov_s`` in
    the summary, and returns the reconstruction.
    """
    rows, cols = setup["truth"].rows, setup["truth"].cols
    t0 = time.perf_counter()
    lo_a, hi_a, n_a = config["alpha_grid"]
    alphas = np.logspace(np.log10(lo_a), np.log10(hi_a), int(n_a))
    problem = TikhonovProblem(
        setup["operator"],
        setup["observed"],
        SpdMatrix.spherical(rows * cols, setup["noise_std"] ** 2),
        _regularization_matrix(config, rows, cols),
        alphas[0],
    )
    lcurve = lcurve_select_alpha(problem, alphas)
    solution = lcurve.solutions[lcurve.alpha].x
    summary.timings["tikhonov_s"] = time.perf_counter() - t0
    summary.alpha_star = lcurve.alpha
    summary.write(out, "lcurve.csv", lcurve_points_to_csv(lcurve.points))
    write_pgm(ImageGrid(rows, cols, solution), out / "tikhonov.pgm")
    summary.manifest.append("tikhonov.pgm")
    return solution


def run_deblur_experiment(config, out_dir):
    """Image retrieval: multi-chain sampling of the deblurring posterior and
    the L-curve-tuned Tikhonov baseline, with relative-error comparison."""
    out = Path(out_dir)
    summary = RunSummary(kind="deblur", seed=config["seed"])
    setup = prepare_deblur_problem(config)
    truth = setup["truth"]
    rows, cols = truth.rows, truth.cols
    _write_input_images(setup, out, summary)

    t0 = time.perf_counter()
    selection = fit_prior_mixture(setup["prior_members"], config)
    summary.timings["em_fit_s"] = time.perf_counter() - t0
    _record_selection(summary, selection, out)

    model = PosteriorModel(
        selection.mixture,
        setup["operator"],
        setup["observed"],
        SpdMatrix.spherical(rows * cols, setup["noise_std"] ** 2),
    )

    pool = WorkerPool(config["workers"])
    results = {}
    try:
        for mechanism in ("hmc", "gaussian"):
            t0 = time.perf_counter()
            plan = build_plan(
                model,
                config["n_ens"],
                mechanism,
                config["seed"],
                workers=config["workers"],
                burn_in=config["burn_in"],
                stride=config["stride"],
                proposal_scale=config["parallel_proposal_scale"],
                hmc_trajectory=config["hmc_trajectory"],
                hmc_steps=config["hmc_steps"],
                hmc_jitter=config["hmc_jitter"],
            )
            results[mechanism] = run_mc_mcmc(model, plan, pool=pool)
            summary.timings[f"sampling_{mechanism}_s"] = time.perf_counter() - t0
            summary.acceptance[f"parallel_{mechanism}"] = results[mechanism].acceptance_rate
    finally:
        pool.close()

    ensemble = results["hmc"].ensemble
    posterior_mean = ensemble.mean()
    posterior_median = np.median(ensemble.members, axis=0)
    gauss_ens = results["gaussian"].ensemble
    for name, ens in (("hmc", ensemble), ("gaussian", gauss_ens)):
        summary.write(out, f"samples_parallel_{name}.csv", samples_to_csv(ens.members, ens.weights))
    summary.write(out, "acceptance.csv", acceptance_table_csv(
        [(f"parallel_{name}", results[name].chain_results) for name in ("hmc", "gaussian")]
    ))

    write_pgm(ImageGrid(rows, cols, posterior_mean), out / "posterior_mean.pgm")
    write_pgm(ImageGrid(rows, cols, posterior_median), out / "posterior_median.pgm")
    summary.manifest.extend(["posterior_mean.pgm", "posterior_median.pgm"])

    tikhonov_solution = _run_tikhonov_baseline(config, setup, out, summary)

    x_true = truth.intensities
    summary.relative_errors = {
        "noisy_input": relative_error(setup["observed"], x_true),
        "blurred": relative_error(setup["blurred"], x_true),
        "posterior_mean": relative_error(posterior_mean, x_true),
        "posterior_median": relative_error(posterior_median, x_true),
        "tikhonov": relative_error(tikhonov_solution, x_true),
        "gaussian_posterior_mean": relative_error(gauss_ens.mean(), x_true),
    }
    return summary.write(out, "summary.json", summary.to_json())


def run_speedup_benchmark(config, out_dir):
    """Measured-versus-predicted scaling of the multi-chain sampler."""
    out = Path(out_dir)
    summary = RunSummary(kind="bench", seed=config["seed"])
    t0 = time.perf_counter()
    model, selection, _ = prepare_oned_model(config)
    summary.timings["em_fit_s"] = time.perf_counter() - t0
    _record_selection(summary, selection)

    t0 = time.perf_counter()
    rows = benchmark_speedup(
        model,
        config["n_samples"],
        config["mechanism"],
        config["p_values"],
        seed=config["seed"],
        repetitions=config["repetitions"],
        burn_in=config["burn_in"],
        stride=config["stride"],
        proposal_scale=config["parallel_proposal_scale"],
        hmc_trajectory=config["hmc_trajectory"],
        hmc_steps=config["hmc_steps"],
    )
    summary.timings["benchmark_s"] = time.perf_counter() - t0
    summary.write(out, "bench.csv", benchmark_rows_to_csv(rows))
    summary.timings["wall_by_p"] = {str(r.workers): r.wall_s for r in rows}
    summary.acceptance["oversubscribed"] = any(r.oversubscribed for r in rows)
    return summary.write(out, "summary.json", summary.to_json())


def run_tikhonov_experiment(config, out_dir):
    """The Tikhonov baseline alone on the deblurring problem."""
    out = Path(out_dir)
    summary = RunSummary(kind="tikhonov", seed=config["seed"])
    setup = observe_deblur_problem(config)
    truth = setup["truth"]
    _write_input_images(setup, out, summary)
    solution = _run_tikhonov_baseline(config, setup, out, summary)
    summary.relative_errors = {
        "noisy_input": relative_error(setup["observed"], truth.intensities),
        "tikhonov": relative_error(solution, truth.intensities),
    }
    return summary.write(out, "summary.json", summary.to_json())


def run_em_fit(config, out_dir):
    """Fit a mixture to an ensemble stored as CSV (one sample per row)."""
    out = Path(out_dir)
    if not config["data"]:
        raise ConfigError("em-fit requires a 'data' CSV path")
    try:
        data = np.loadtxt(config["data"], delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {config['data']}: {exc}") from exc
    summary = RunSummary(kind="em-fit", seed=config["seed"])
    t0 = time.perf_counter()
    selection = fit_prior_mixture(data, config)
    summary.timings["em_fit_s"] = time.perf_counter() - t0
    _record_selection(summary, selection, out)
    return summary.write(out, "summary.json", summary.to_json())


RUNNERS = {
    "oned": run_oned_benchmark,
    "deblur": run_deblur_experiment,
    "bench": run_speedup_benchmark,
    "tikhonov": run_tikhonov_experiment,
    "em-fit": run_em_fit,
}
