"""Run the csample CLI from two source trees on the same inputs and list
every artifact that differs between them.

    python scripts/compare_artifacts.py PARENT_TREE CHANGE_TREE

Each tree runs eight experiments, each in a fresh interpreter with BLAS on
one thread and the tree's own ``src/`` on the path:

- ``oned``, ``deblur`` and ``em-fit`` on the benchmark's seed-2024 configs
  (``perfbench.workloads.write_config``, two workers);
- ``deblur`` again with ``saturation: true``, which takes the saturated
  sampler and the Gauss-Newton Tikhonov solver;
- ``deblur`` again with ``gmm_structure: "full"``, the one run whose
  Gaussian proposal is a dense SpdMatrix (every other run stores
  variances);
- ``tikhonov`` on PARENT_TREE's shipped ``configs/tikhonov.json``, and
  again with ``boundary: "periodic"``, which takes the Gauss-Newton solver
  instead of the closed form;
- ``bench`` on a small seed-2024 config (``BENCH_CONFIG``) that sets only
  keys every tree accepts.

The configs and input files are written once, by this checkout's
``perfbench`` (imported, never modified), and both trees read the same
copies. For ``summary.json`` the top-level keys that differ are named.
Each differing JSON or CSV artifact also gets the largest relative
difference over the numbers the two copies hold at the same place (outside
``timings`` and the wall-clock columns), so a round-off change reads as one.
A number's difference is taken relative to the largest magnitude among its
siblings, the entries of its JSON list or object or of its CSV column, in
either copy: an entry made small by cancellation, such as an off-diagonal
covariance, carries the round-off of the scale it was computed at.

The exit status is 0 when every artifact is byte-identical, except that
``summary.json`` may differ in ``timings`` and ``bench.csv`` in its
wall-clock columns (readings that differ between any two runs); 1 when
anything else differs or a run fails.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, write_config, write_inputs  # noqa: E402

SEED = 2024
WORKERS = 2
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# summary.json keys that differ between any two runs of the same program.
VOLATILE_KEYS = {"timings"}
BENCH_CONFIG = {"kind": "bench", "seed": SEED, "n_samples": 700, "p_values": [1, 2],
                "repetitions": 1}
# Columns of a CSV artifact that hold no wall-clock reading; only these are compared.
STABLE_COLUMNS = {"bench.csv": ("p", "pred_speedup", "pred_efficiency")}


def write_runs(work, parent):
    """(label, subcommand, config path) of every run, inputs written under work."""
    runs = []
    for label in ("oned", "deblur", "emfit"):
        workload = WORKLOADS[label]
        inputs = write_inputs(label, SEED, ROOT, work / "inputs" / label)
        config = write_config(workload, SEED, inputs, WORKERS, work / f"{label}.json")
        runs.append((label, workload.command, config))
    deblur = json.loads((work / "deblur.json").read_text(encoding="utf-8"))
    for label, change in (("deblur_saturated", {"saturation": True}),
                          ("deblur_full", {"gmm_structure": "full"})):
        path = work / f"{label}.json"
        path.write_text(json.dumps({**deblur, **change}), encoding="utf-8")
        runs.append((label, "deblur", path))
    tikhonov = Path(parent).resolve() / "configs" / "tikhonov.json"
    runs.append(("tikhonov", "tikhonov", tikhonov))
    periodic = work / "tikhonov_periodic.json"
    doc = {**json.loads(tikhonov.read_text(encoding="utf-8")), "boundary": "periodic"}
    periodic.write_text(json.dumps(doc), encoding="utf-8")
    runs.append(("tikhonov_periodic", "tikhonov", periodic))
    bench = work / "bench.json"
    bench.write_text(json.dumps(BENCH_CONFIG), encoding="utf-8")
    runs.append(("bench", "bench", bench))
    return runs


def run_tree(tree, command, config, out):
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    argv = [sys.executable, "-m", "csample.cli", command, "--config", str(config)]
    proc = subprocess.run(argv + ["--out", str(out)], env=env, cwd=out.parent,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def summary_keys_differing(a, b):
    doc_a = json.loads(a.read_text(encoding="utf-8"))
    doc_b = json.loads(b.read_text(encoding="utf-8"))
    return sorted(k for k in set(doc_a) | set(doc_b) if doc_a.get(k) != doc_b.get(k))


def stable_columns(path, names):
    """The named columns of a CSV artifact, one tuple of cells per column."""
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    columns = dict(zip(rows[0], zip(*rows[1:])))
    return [columns.get(name) for name in names]


def numbers(path):
    """{place: number} of a JSON or CSV artifact: a JSON leaf by its key
    path, a CSV cell by (column, row); volatile keys and columns left out.
    A place's siblings share all of it but its last element."""
    found = {}
    if path.suffix == ".json":
        def walk(node, place):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, place + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, place + (i,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found[place] = float(node)

        doc = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "summary.json":
            doc = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
        walk(doc, ())
    else:
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        keep = STABLE_COLUMNS.get(path.name, rows[0])
        for r, row in enumerate(rows[1:]):
            for name, cell in zip(rows[0], row):
                if name in keep:
                    try:
                        found[(name, r)] = float(cell)
                    except ValueError:
                        pass
    return found


def largest_relative_difference(a, b):
    """The largest relative difference over the numbers of two JSON or CSV
    artifacts, as text, or None for any other kind of file."""
    if a.suffix not in (".json", ".csv"):
        return None
    nums_a, nums_b = numbers(a), numbers(b)
    scale = {}
    for nums in (nums_a, nums_b):
        for place, value in nums.items():
            scale[place[:-1]] = max(scale.get(place[:-1], 0.0), abs(value))
    worst = 0.0
    for place in nums_a.keys() & nums_b.keys():
        x, y = nums_a[place], nums_b[place]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y) / scale[place[:-1]]
        worst = max(worst, diff if math.isfinite(diff) else math.inf)
    text = f"largest relative difference {worst:.3g}"
    unmatched = len(nums_a.keys() ^ nums_b.keys())
    return text + (f", {unmatched} numbers in one copy only" if unmatched else "")


def compare(out_a, out_b):
    """(lines describing every difference, whether any counts as a change)."""
    lines, changed = [], False
    names_a = {p.name for p in out_a.iterdir()}
    names_b = {p.name for p in out_b.iterdir()}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"  {name}: only in {'change' if name in names_b else 'parent'}")
            changed = True
            continue
        a, b = out_a / name, out_b / name
        if a.read_bytes() == b.read_bytes():
            continue
        if name == "summary.json":
            keys = summary_keys_differing(a, b)
            line = f"  {name}: differs in keys {', '.join(keys) or '(formatting only)'}"
            changed |= not set(keys) <= VOLATILE_KEYS
        elif name in STABLE_COLUMNS:
            names = STABLE_COLUMNS[name]
            same = stable_columns(a, names) == stable_columns(b, names)
            line = f"  {name}: {', '.join(names)} {'identical' if same else 'differ'}"
            changed |= not same
        else:
            line = f"  {name}: differs"
            changed = True
        extent = largest_relative_difference(a, b)
        lines.append(line + (f"; {extent}" if extent else ""))
    return lines, changed, len(names_a | names_b)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = argv
    any_change = False
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        work = Path(tmp)
        for label, command, config in write_runs(work, parent):
            outs = []
            failures = []
            for tag, tree in (("parent", parent), ("change", change)):
                out = work / tag / label
                out.parent.mkdir(parents=True, exist_ok=True)
                error = run_tree(tree, command, config, out)
                if error:
                    failures.append(f"  {tag} run failed, {error}")
                outs.append(out)
            if failures:
                print(f"{label}: run failed")
                print("\n".join(failures))
                any_change = True
                continue
            lines, changed, count = compare(*outs)
            identical = count - len(lines)
            print(f"{label}: {count} artifacts, {identical} byte-identical")
            if lines:
                print("\n".join(lines))
            any_change |= changed
    return 1 if any_change else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
