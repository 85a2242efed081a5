"""Output checks for one finished run. Each check returns a list of problems;
an empty list means the run's outputs are correct.

The checks read only the run's artifacts and the CLI's own report, except
the emfit round trip, which goes through ``GaussianMixture.from_json_dict``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Criterion-4 acceptance bands of the 1-D benchmark that hold on every seed.
# Criterion 4 also puts serial HMC at >= 0.90, but only at the shipped seed:
# serial HMC's rate follows the fitted prior, and a rough fit (AIC at the top
# candidate, n_c = 10) drops it to 0.87-0.90 on some seeds. On every seed
# serial HMC must still accept more than the serial Gaussian chain.
ONED_BANDS = (
    ("serial_gaussian", 0.30, 0.60),
    ("parallel_gaussian", 0.70, 1.0),
    ("parallel_hmc", 0.90, 1.0),
)
ONED_VARIANTS = ("serial_gaussian", "parallel_gaussian", "serial_hmc", "parallel_hmc")
ONED_MIN_GAUSSIAN_GAP = 0.20  # parallel minus serial Gaussian acceptance
WEIGHT_SUM_TOL = 1e-9


def read_summary(out):
    with open(Path(out) / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def manifest_problems(out, cli_stdout):
    """Every file the CLI reports in its manifest must exist."""
    try:
        manifest = json.loads(cli_stdout)["manifest"]
    except (ValueError, KeyError, TypeError):
        return ["CLI did not report a manifest"]
    return [f"manifest file {name} missing" for name in manifest if not (Path(out) / name).is_file()]


def samples_problems(path):
    """Samples must be finite and their weights must sum to 1."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{Path(path).name}: unreadable ({exc})"]
    if table.shape[0] == 0:
        return [f"{Path(path).name}: no samples"]
    problems = []
    if not np.all(np.isfinite(table)):
        problems.append(f"{Path(path).name}: non-finite values")
    total = float(np.sum(table[:, -1]))
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        problems.append(f"{Path(path).name}: weights sum to {total!r}")
    return problems


def check_oned(out, cli_stdout):
    problems = manifest_problems(out, cli_stdout)
    try:
        acceptance = read_summary(out)["acceptance"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"summary.json unreadable ({exc})"]
    for variant, lo, hi in ONED_BANDS:
        rate = acceptance.get(variant)
        if rate is None or not lo <= rate <= hi:
            problems.append(f"acceptance {variant} = {rate} outside [{lo}, {hi}]")
    gap = acceptance.get("parallel_gaussian", 0.0) - acceptance.get("serial_gaussian", 1.0)
    if not gap >= ONED_MIN_GAUSSIAN_GAP:
        problems.append(f"parallel minus serial Gaussian acceptance {gap:.3f} < {ONED_MIN_GAUSSIAN_GAP}")
    serial_hmc, serial_gaussian = acceptance.get("serial_hmc"), acceptance.get("serial_gaussian", 1.0)
    if serial_hmc is None or not serial_gaussian < serial_hmc <= 1.0:
        problems.append(f"acceptance serial_hmc = {serial_hmc} not above serial_gaussian "
                        f"{serial_gaussian} or above 1")
    for variant in ONED_VARIANTS:
        problems += samples_problems(Path(out) / f"samples_{variant}.csv")
    return problems


def check_deblur(out, cli_stdout):
    problems = manifest_problems(out, cli_stdout)
    try:
        errors = read_summary(out)["relative_errors"]
        noisy = errors["noisy_input"]
        for key in ("posterior_mean", "tikhonov"):
            if not errors[key] < noisy:
                problems.append(f"relative error {key} {errors[key]:.4f} not below noisy input {noisy:.4f}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary.json relative errors unreadable ({exc})")
    for variant in ("hmc", "gaussian"):
        problems += samples_problems(Path(out) / f"samples_parallel_{variant}.csv")
    return problems


def load_mixture(out):
    """The fitted mixture of gmm.json, checked to round-trip exactly."""
    from csample.gmm import GaussianMixture

    with open(Path(out) / "gmm.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    mixture = GaussianMixture.from_json_dict(doc)
    if mixture.to_json_dict() != doc:
        raise ValueError("gmm.json does not round-trip through GaussianMixture")
    return mixture


def check_emfit(out, cli_stdout):
    problems = manifest_problems(out, cli_stdout)
    try:
        load_mixture(out)
    except Exception as exc:  # any failure to rebuild the mixture fails the run
        problems.append(f"gmm.json: {type(exc).__name__}: {exc}")
    return problems


CHECKS = {"oned": check_oned, "deblur": check_deblur, "emfit": check_emfit}


def per_point_loglik(mixture, data):
    """Mean log-density of the rows of ``data`` under ``mixture``."""
    logs = np.log(mixture.weights) + mixture.component_log_densities(data)
    peak = logs.max(axis=1, keepdims=True)
    point = peak[:, 0] + np.log(np.exp(logs - peak).sum(axis=1))
    return float(np.mean(point))


def determinism_problems(reference_out, other_out, names):
    """Artifacts ``names`` must be byte-identical between two runs."""
    problems = []
    for name in names:
        a, b = Path(reference_out) / name, Path(other_out) / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between runs {Path(reference_out).parent.name} "
                            f"and {Path(other_out).parent.name}")
    return problems
