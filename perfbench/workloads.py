"""Workload definitions: the config and input files each workload hands the
program, generated from the benchmark seed alone.

Configs list only the keys a workload changes; every other key keeps the
program's shipped default, so the workloads follow the shipped configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workers of the timed runs; the traced run always uses one worker, because
# spans recorded in forked workers are lost.
TIMED_WORKERS = 2

# emfit generator: a fixed 8-D full-covariance mixture (its means and
# rotations come from EMFIT_GENERATOR_SEED); the benchmark seed draws the
# points. A fixed generator keeps the fitting work alike across seeds, as the
# fixed 1-D generator does for oned.
EMFIT_DIM = 8
# 1000 points keep one run near 2-3 s. EM work varies by ~25% between inputs,
# so a round of timed runs holds several inputs (Workload.inputs).
EMFIT_POINTS = 1000
EMFIT_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
EMFIT_EIGENVALUES = np.geomspace(1e-2, 1e-3, EMFIT_DIM)
EMFIT_CANDIDATES = [1, 6]
EMFIT_GENERATOR_SEED = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # csample subcommand
    # Inputs in one round of timed runs: enough that the median over a round
    # does not hang on how much work one seed's input happens to make.
    inputs: int

    def config(self, seed, inputs, workers):
        """The config document for one run of this workload."""
        doc = {"kind": self.command, "seed": int(seed)}
        if self.name == "oned":
            doc.update({"n_samples": 1000, "workers": workers})
        elif self.name == "deblur":
            doc.update({"image": str(inputs["image"]), "workers": workers})
        else:
            doc.update({"data": str(inputs["data"]), "candidate_components": EMFIT_CANDIDATES})
        return doc


WORKLOADS = {
    "oned": Workload("oned", "oned", 2),
    "deblur": Workload("deblur", "deblur", 2),
    "emfit": Workload("emfit", "em-fit", 8),
}


def read_plain_pgm(path):
    """(rows, cols, maxval, pixels) of a plain P2 PGM file."""
    tokens = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain PGM file")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64).reshape(rows, cols)
    return rows, cols, maxval, pixels


def downsample_phantom(src, dst):
    """Average 2x2 pixel blocks of the bundled phantom into a half-size PGM."""
    rows, cols, maxval, pixels = read_plain_pgm(src)
    blocks = pixels.reshape(rows // 2, 2, cols // 2, 2).sum(axis=(1, 3))
    small = (blocks + 2) // 4
    lines = ["P2", f"{cols // 2} {rows // 2}", str(maxval)]
    lines.extend(" ".join(str(v) for v in row) for row in small)
    Path(dst).write_text("\n".join(lines) + "\n", encoding="ascii")


def emfit_data(seed):
    """EMFIT_POINTS seeded draws from the emfit generator mixture."""
    gen = np.random.default_rng(EMFIT_GENERATOR_SEED)
    k = len(EMFIT_WEIGHTS)
    means = gen.normal(0.0, 1.0, (k, EMFIT_DIM))
    factors = []
    for _ in range(k):
        q, _ = np.linalg.qr(gen.normal(size=(EMFIT_DIM, EMFIT_DIM)))
        factors.append(q * np.sqrt(EMFIT_EIGENVALUES))
    rng = np.random.default_rng(seed)
    labels = rng.choice(k, size=EMFIT_POINTS, p=EMFIT_WEIGHTS)
    z = rng.normal(size=(EMFIT_POINTS, EMFIT_DIM))
    return np.array([means[c] + factors[c] @ zi for c, zi in zip(labels, z)])


def write_inputs(name, seed, root, work):
    """Generate the workload's input files under ``work``; return their paths."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "deblur":
        image = work / "phantom_16.pgm"
        downsample_phantom(root / "src" / "csample" / "data" / "phantom_disk_32.pgm", image)
        return {"image": image}
    if name == "emfit":
        data = work / "ensemble.csv"
        rows = emfit_data(seed)
        data.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")
        return {"data": data}
    return {}


def write_config(workload, seed, inputs, workers, path):
    doc = workload.config(seed, inputs, workers)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
