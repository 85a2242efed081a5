"""Run one workload of the csample benchmark and print its metrics.

    python3 perfbench/run.py --workload {oned,deblur,emfit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Each run of the workload is a fresh interpreter executing
``csample.cli.main`` on a generated config (closed loop, one run at a time).

``--trace 0`` first times ``IMPORT_SAMPLES`` import-only interpreters, then
makes rounds of timed runs (two workers) while one more round of average
length still ends within ``--seconds``; there is always one. A round runs
each of the workload's fixed list of inputs once, made from ``--seed``: run
i of the invocation uses input i mod ``Workload.inputs``. So the number of
rounds, which follows the host's and the program's speed, changes only the
precision of the medians, never which inputs they measure. ``--trace 1``
makes one timed run, one untraced one-worker run and one traced one-worker
run, all on the first input, and reports the per-layer metrics.

Every run's outputs are checked; a failed check is counted, never fatal.
The last line of standard output is the JSON result. Raw figures and the
environment are written to ``.perfbench_work/<workload>-<seed>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, environment, metrics  # noqa: E402
from perfbench.workloads import TIMED_WORKERS, WORKLOADS, write_config, write_inputs  # noqa: E402

# Every child runs BLAS on one thread, so two workers use no more than two.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = ".perfbench_work"
IMPORT_SAMPLES = 15  # import-only interpreters per invocation, after one warm-up
DEADLINE_S = 170.0  # every child is stopped before the invocation's 180 s limit
EXIT_NO_PROGRAM = 2
# Run fields left out of record.json: CLI output and checkout paths.
RECORD_OMITS = ("stdout", "stderr", "out", "config", "inputs")

# Artifacts that must be byte-identical between the traced one-worker run
# and the timed run of the same seed (criterion 7, checked from outside).
DETERMINISTIC_ARTIFACTS = {
    "oned": ["samples_serial_gaussian.csv", "samples_serial_hmc.csv",
             "samples_parallel_gaussian.csv", "samples_parallel_hmc.csv"],
    "deblur": ["samples_parallel_hmc.csv", "samples_parallel_gaussian.csv"],
    "emfit": ["gmm.json"],
}


def input_seed(seed, j):
    """Config seed of input j of an invocation with ``--seed`` seed."""
    return seed if j == 0 else seed * 1000 + j


class ChildRunner:
    """Starts benchmark children one at a time and stops each one, with any
    workers it forked, by the invocation's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(BLAS_PIN)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

    def __call__(self, args):
        """The child's JSON report, or None with an error message."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", *args],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "child stopped at the invocation deadline"
        finally:
            try:  # forked workers left behind by a crashed child
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = out.strip().splitlines()
        try:
            return json.loads(lines[-1]), None
        except (IndexError, ValueError):
            return None, f"child exited {proc.returncode}: {err.strip()[-500:]}"


class Invocation:
    def __init__(self, workload, seed, seconds, trace, work_root=ROOT / WORK_DIR):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = Path(work_root) / f"{workload}-{seed}"
        self.child = ChildRunner(time.monotonic() + DEADLINE_S)
        self.runs = []
        self.missing_hooks = []  # traced calls the program no longer has

    def run_once(self, tag, seed, workers, trace_path=None):
        """One run of the workload; returns its record, problems included."""
        inputs = write_inputs(self.workload.name, seed, ROOT, self.work / f"inputs-{seed}")
        run_dir = self.work / tag
        run_dir.mkdir(parents=True)
        config = write_config(self.workload, seed, inputs, workers, run_dir / "config.json")
        out = run_dir / "out"
        argv = [self.workload.command, "--config", str(config), "--out", str(out)]
        args = ["run", json.dumps(argv)]
        if trace_path is not None:
            args += ["--trace", str(trace_path), "--timed-workers", str(TIMED_WORKERS)]
        report, error = self.child(args)
        record = {"tag": tag, "seed": seed, "workers": workers, "out": str(out),
                  "config": str(config), "inputs": {k: str(v) for k, v in inputs.items()}}
        if report is None:
            record["problems"] = [error]
        else:
            record.update(report)
            if report["rc"] != 0:
                record["problems"] = [f"exit code {report['rc']}: {report['stderr'].strip()[-300:]}"]
            else:
                record["problems"] = checks.CHECKS[self.workload.name](out, report["stdout"])
        self.runs.append(record)
        return record

    def import_times(self):
        self.child(["import"])  # warm-up: byte-compiles the sources
        times = []
        for _ in range(IMPORT_SAMPLES):
            report, _ = self.child(["import"])
            if report is not None:
                times.append(report["setup_s"])
        return times

    def execute(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        load_before = os.getloadavg()
        imports = [] if self.trace else self.import_times()
        timed = []
        per_round = self.workload.inputs
        start = time.monotonic()
        while True:
            i = len(timed)
            seed = input_seed(self.seed, i % per_round)
            timed.append(self.run_once(f"timed-{i}", seed, TIMED_WORKERS))
            if self.trace:
                break
            rounds, rest = divmod(i + 1, per_round)
            # Stop after a whole round when one more round of average length
            # would end past the window.
            if not rest and (time.monotonic() - start) * (rounds + 1) / rounds > self.seconds:
                break
        if self.trace:  # before counting failures: it adds the determinism checks
            result = self.traced_metrics(timed[0])
        attempted = len(self.runs)
        failed = sum(bool(r["problems"]) for r in self.runs)
        if not self.trace:
            reported = [r for r in timed if "wall_s" in r]
            result = metrics.end_to_end(reported, imports, attempted, failed)
        record = {
            "workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment.describe(ROOT, BLAS_PIN),
            "load_before": load_before, "load_after": os.getloadavg(),
            "import_times_s": imports,
            "missing_trace_hooks": self.missing_hooks,
            "runs": [{k: v for k, v in r.items() if k not in RECORD_OMITS} for r in self.runs],
            "metrics": result,
        }
        (self.work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
        problems = [(r["tag"], p) for r in self.runs for p in r["problems"]]
        return result, attempted, failed, problems, self.missing_hooks

    def traced_metrics(self, timed):
        name = self.workload.name
        serial = self.run_once("serial", timed["seed"], 1)
        trace_path = self.work / "trace.json"
        traced = self.run_once("traced", timed["seed"], 1, trace_path)
        for other in (serial, traced):
            if not other["problems"] and not timed["problems"]:
                other["problems"] += checks.determinism_problems(
                    timed["out"], other["out"], DETERMINISTIC_ARTIFACTS[name])
        if traced.get("rc") != 0 or not trace_path.is_file():
            trace = {"aggregates": {}, "counters": {}, "observations": {}}
        else:
            trace = json.loads(trace_path.read_text())
        self.missing_hooks = trace["observations"].get("trace.missing_hooks", [])
        try:
            artifacts, cost_inputs = artifact_metrics(name, timed)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            timed["problems"].append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
            artifacts, cost_inputs = artifact_metrics(name, timed)
        return metrics.per_layer(trace, artifacts, serial.get("wall_s", 0.0),
                                 traced.get("wall_s", 0.0), cost_inputs)


# Per-layer metrics read from a timed run's artifacts, besides the phases.
ARTIFACT_METRICS = (
    "experiments.tv_hmc", "experiments.rel_err_mean", "gmm.em_loglik",
    "mc_scheduler.hmc_speedup", "samplers.ess_min", "samplers.ess_per_s",
    "tikhonov.alpha_star", "tikhonov.rel_err",
)


def artifact_metrics(name, run):
    """Per-layer figures read from a timed run's artifacts, and the cost-model
    inputs (n_var, structure, hmc_steps) of its posterior."""
    found = {f"experiments.{phase}": 0.0 for phase in metrics.PHASES}
    found.update({metric: 0.0 for metric in ARTIFACT_METRICS})
    if run["problems"]:
        return found, None
    import numpy as np

    from csample.experiments import load_config

    out = Path(run["out"])
    summary = checks.read_summary(out)
    for phase, seconds in summary["timings"].items():
        if f"experiments.{phase}" in found:
            found[f"experiments.{phase}"] = seconds
    mixture = checks.load_mixture(out)
    if name == "emfit":
        data = np.loadtxt(run["inputs"]["data"], delimiter=",", ndmin=2)
        found["gmm.em_loglik"] = checks.per_point_loglik(mixture, data)
        return found, None
    config = load_config(WORKLOADS[name].command, run["config"])
    steps = acceptance_steps(out / "acceptance.csv")
    budgets = [(made - config["burn_in"]) // config["stride"] for made in steps["parallel_hmc"]]
    samples = np.loadtxt(out / "samples_parallel_hmc.csv", delimiter=",", skiprows=1, ndmin=2)[:, :-1]
    ess = metrics.chain_ess(samples, budgets)
    hmc_phase = "parallel_hmc_s" if name == "oned" else "sampling_hmc_s"
    # Per sample, over chains long enough to show how well the sampler mixes.
    found["samplers.ess_min"] = min((e / b for e, b in zip(ess, budgets)
                                     if b >= metrics.ESS_MIN_SAMPLES), default=0.0)
    # A chain too short to estimate counts its samples as effective.
    effective = sum(e if e is not None else b for e, b in zip(ess, budgets))
    found["samplers.ess_per_s"] = effective / summary["timings"][hmc_phase]
    if name == "oned":
        timings = summary["timings"]
        parallel = sum(steps["parallel_hmc"]) / timings["parallel_hmc_s"]
        serial = sum(steps["serial_hmc"]) / timings["serial_hmc_s"]
        found["mc_scheduler.hmc_speedup"] = parallel / serial
        found["experiments.tv_hmc"] = summary["relative_errors"]["tv_parallel_hmc_vs_reference"]
    else:
        found["experiments.rel_err_mean"] = summary["relative_errors"]["posterior_mean"]
        found["tikhonov.rel_err"] = summary["relative_errors"]["tikhonov"]
        found["tikhonov.alpha_star"] = summary["alpha_star"]
    return found, (mixture.dim, config["gmm_structure"], config["hmc_steps"])


def acceptance_steps(path):
    """Steps made per chain, in chain order, for each variant of acceptance.csv."""
    steps = {}
    for line in Path(path).read_text().splitlines()[1:]:
        variant, _, _, made = line.split(",")[:4]
        steps.setdefault(variant, []).append(int(made))
    return steps


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through ChildRunner, which stops the child


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "csample" / "cli.py").is_file():
        print(f"no csample sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    result, attempted, failed, problems, missing_hooks = Invocation(
        args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    for tag, problem in problems:
        print(f"FAILED {tag}: {problem}")
    for hook in missing_hooks:
        print(f"NOTE traced call {hook} not found; its metrics read 0")
    for name in sorted(result):
        print(f"{name:34s} {result[name]:>16.6g} {metrics.UNITS[name]}")
    print(f"runs attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in sorted(result.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
