"""Measure a result set: run.py on ten seeds per workload, plus one traced
run per workload, with the spread of every end-to-end metric.

    python3 perfbench/baseline.py --out perfbench/results/NAME.json

Every workload of BENCHMARK.json is run at seeds ``SEEDS``, and traced once
at seed ``TRACE_SEED``. The spread of a metric is (Q3 - Q1) / median over the
seeds, with the quartiles of ``statistics.quantiles(values, n=4)``. The set
records the environment and the load average before and after it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import environment  # noqa: E402
from perfbench.metrics import BENCHMARK  # noqa: E402
from perfbench.run import BLAS_PIN  # noqa: E402

SEEDS = list(range(1, 11))
TRACE_SEED = 2024


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["invocation_s"] = elapsed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    doc = {"environment": environment.describe(ROOT, BLAS_PIN), "run_seconds": BENCHMARK["run_seconds"],
           "seeds": SEEDS, "load_before": os.getloadavg(), "workloads": {}}
    for name in names:
        runs = {}
        for seed in SEEDS:
            runs[seed] = invoke(name, seed, BENCHMARK["run_seconds"], 0)
            values = {k: round(v["value"], 6) for k, v in runs[seed]["metrics"].items()}
            print(name, seed, values, f"{runs[seed]['invocation_s']:.1f}s", flush=True)
        entry = {"runs": {str(s): r for s, r in runs.items()}, "spread": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs.values()]
            entry["spread"][metric] = {**spread(values), "bound": bounds[metric]}
            print(f"  {metric:14s} median {entry['spread'][metric]['median']:.6g} "
                  f"spread {entry['spread'][metric]['spread']:.4f} bound {bounds[metric]}", flush=True)
        entry["traced"] = invoke(name, TRACE_SEED, BENCHMARK["run_seconds"], 1)
        entry["traced"]["seed"] = TRACE_SEED
        doc["workloads"][name] = entry
    doc["load_after"] = os.getloadavg()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
