"""Run the shipped ``oned`` config at ten seeds on csample source trees, and
report per seed what the run selected and how its chains sampled.

    python scripts/seed_sweep.py TREE [TREE ...]

For each tree and each seed of ``SEEDS`` (2024-2033), one fresh interpreter
runs ``python -m csample.cli oned`` on the tree's ``configs/oned.json`` with
only ``--seed`` changed, BLAS on one thread and the tree's own ``src/`` on
the path. The runs go one at a time. Per seed the JSON printed at the end
gives, read from the run's artifacts:

- ``n_c`` (the AIC pick) and ``em``, the totals over every EM fit
  (``{fits, iterations, unconverged}``);
- ``tv``: criterion 3's total variation between the pooled multi-chain HMC
  histogram and the exact posterior, and ``criterion_3`` (TV <= 0.08);
- ``acceptance``: criterion 4's four acceptance rates, and ``criterion_4``
  (its bands, as ``tests/test_acceptance.py`` states them);
- ``serial_hmc_divergences``: the serial HMC chain's divergent trajectories;
- ``h_sigma_ratio``: h * sigma_total / sigma_min of the serial HMC chain,
  with h = (pi/2) / hmc_steps, sigma_total^2 the fitted mixture's total
  variance (the chain's mass) and sigma_min^2 its narrowest component's
  variance. Leapfrog is stable below 2;
- ``timings``: the run's ``em_fit_s``, ``em_fit_work_s`` and ``sampling_s``.

Per tree it also counts the seeds that pass each criterion. It gates
nothing: the exit status is 0 when every run finishes, 1 when one fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEEDS = range(2024, 2034)
TV_BOUND = 0.08  # criterion 3
TIMING_KEYS = ("em_fit_s", "em_fit_work_s", "sampling_s")


def criterion_4(rates):
    """Criterion 4's bands on the four acceptance rates."""
    serial_g, par_g = rates["serial_gaussian"], rates["parallel_gaussian"]
    return (0.30 <= serial_g <= 0.60 and par_g >= 0.70 and par_g - serial_g >= 0.20
            and rates["serial_hmc"] >= 0.90 and rates["parallel_hmc"] >= 0.90)


def h_sigma_ratio(mixture_doc, hmc_steps):
    """h * sigma_total / sigma_min of the serial HMC chain on a 1-D mixture."""
    weights = np.asarray(mixture_doc["weights"], dtype=float)
    means = np.asarray(mixture_doc["means"], dtype=float).reshape(weights.size)
    variances = np.asarray(mixture_doc["covariances"], dtype=float).reshape(weights.size)
    mean = weights @ means
    total = weights @ (variances + (means - mean) ** 2)
    return (math.pi / 2) / hmc_steps * math.sqrt(total / variances.min())


def run_seed(tree, seed, out):
    """One ``oned`` run of the tree at ``seed``; its row of the report."""
    config = tree / "configs" / "oned.json"
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "csample.cli", "oned", "--config", str(config),
            "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"seed": seed, "error": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    mixture = json.loads((out / "gmm.json").read_text(encoding="utf-8"))
    with open(out / "acceptance.csv", encoding="utf-8", newline="") as fh:
        chains = list(csv.DictReader(fh))
    rates = {name: summary["acceptance"][name] for name in
             ("serial_gaussian", "parallel_gaussian", "serial_hmc", "parallel_hmc")}
    tv = summary["relative_errors"]["tv_parallel_hmc_vs_reference"]
    hmc_steps = json.loads(config.read_text(encoding="utf-8"))["hmc_steps"]
    return {
        "seed": seed,
        "n_c": summary["n_c_selected"],
        "em": summary["em"],
        "tv": tv,
        "criterion_3": tv <= TV_BOUND,
        "acceptance": rates,
        "criterion_4": criterion_4(rates),
        "serial_hmc_divergences": sum(int(row["divergences"]) for row in chains
                                      if row["variant"] == "serial_hmc"),
        "h_sigma_ratio": h_sigma_ratio(mixture, hmc_steps),
        "timings": {key: summary["timings"][key] for key in TIMING_KEYS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", metavar="TREE", nargs="+")
    args = parser.parse_args(argv)
    report = {"harness": "python scripts/seed_sweep.py TREE [TREE ...]",
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "blas_threads": 1, "seeds": list(SEEDS), "trees": {}}
    failed = False
    for tree in (Path(t).resolve() for t in args.trees):
        with tempfile.TemporaryDirectory() as work:
            rows = [run_seed(tree, seed, Path(work) / f"oned_{seed}") for seed in SEEDS]
        done = [row for row in rows if "error" not in row]
        failed |= len(done) < len(rows)
        report["trees"][str(tree)] = {
            "criterion_3_passes": sum(row["criterion_3"] for row in done),
            "criterion_4_passes": sum(row["criterion_4"] for row in done),
            "em_unconverged": sum(row["em"]["unconverged"] for row in done),
            "seeds": rows,
        }
    print(json.dumps(report, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
