"""Time one unit of each hot layer of two csample source trees, side by side.

    python scripts/layer_costs.py PARENT_TREE CHANGE_TREE

Each of ``ROUNDS`` rounds runs one fresh interpreter per tree, with BLAS
on one thread and the tree's own ``src/`` on the path; the order of the two
trees alternates from round to round. Every interpreter builds the same
inputs and times:

- ``oned.*``: the fused ``potential_and_grad``, the gradient, the
  potential J and the prior's ``log_kernel`` of the shipped ``oned`` model
  (seed 2024, its EM + AIC fit made on a pool of two), per call, over 32
  states;
- ``deblur16.*``: the same four calls on the 16x16 ``deblur`` model
  (perfbench's downsampled phantom, the shipped config), per call, over 32
  states at a chain's scale: each a component mean plus the component's
  standard deviations times standard normals, so its Mahalanobis terms are
  of the order of the dimension, where a sum taken in another order rounds
  differently;
- ``oned.leapfrog_step``: one leapfrog step of the serial HMC chain's
  mechanism, per step, over trajectories of its m steps from the 32
  ``oned`` states;
- ``oned.hmc_step`` and ``oned.mh_step``: one transition of the serial HMC
  and serial Gaussian baselines of ``oned``, per step over 2000 steps;
- ``oned.serial_hmc_chain``: the whole serial HMC chain of ``oned`` at
  1000 samples (15,100 transitions), per chain. Its row also carries the
  leapfrog steps the chain takes (``leapfrog_steps``, counted in a second,
  untimed run of the chain) and, per tree, that count times the median
  ``oned.leapfrog_step`` as a share of the median chain time
  (``{tree}_leapfrog_share``): the part of the chain the step unit
  accounts for. The unit is the fastest of its repetitions and the chain
  one run, so on a busy machine the share reads low;
- ``oned.em_iter``, ``emfit.em_iter`` and ``emfit.em_iter_k6``: one EM
  map (``_em_single`` from quantile seeds, at most 60 maps, divided by the
  maps made) on ``oned``'s 1000-point prior ensemble at 8 components, and on
  perfbench's seed-1 ``emfit`` data (1000 8-D points) at 4 and at 6
  components. The 5- and 6-component candidates make most of an ``em-fit``
  run's maps. Under SQUAREM a map's share also carries the E-steps of the
  extrapolated points, so these figures rise while the maps per fit fall;
- ``oned.em_select`` and ``emfit.em_select``: one whole EM + AIC selection
  (``select_model_aic`` in this process, on the EM stream of seed 2024),
  per selection: over ``oned``'s shipped candidates (1-10) on its prior
  ensemble, and over perfbench's ``emfit`` candidates (1-6) on the seed-1
  ``emfit`` data. Their digests include the selected n_c and the EM maps of
  every fit, so a change in the work a selection makes shows there;
- ``mixture.build_k6_d8``: one ``GaussianMixture`` built from the first
  M-step's covariances of that ``emfit`` data at 6 components (k = 6,
  d = 8), per build: the factorization and inversion every EM iteration
  pays;
- ``import.cli``: ``import csample.cli`` in a fresh interpreter of its own,
  started once per tree each round beside the timing interpreter. Its
  digest is the sorted set of top-level packages the import loaded.

Within one interpreter the repetitions of the timed units are interleaved,
so a slow spell of a shared machine reaches every unit alike, and each
unit's fastest repetition counts; the serial chain runs once, each
selection three times. The JSON
printed at the end gives, per layer and tree, every round's figure in
microseconds, their median and minimum, the change's median relative to
the parent's, and the median over rounds of the change-to-parent ratio
within a round. Every layer also carries a digest of what it
computed, so the two trees are seen to do the same work (``same_digest``).
The digest compares bits, so it reads false wherever the trees round
differently. Between a tree whose dense EM whitens by triangular solves and
one that whitens by products with inverse Cholesky factors, the ``emfit``
layers are expected to read false; the ``oned`` and ``deblur16`` layers,
whose mixtures store variances, read true. ``import.cli`` reads false
between trees whose imports load different packages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 2024
N_SAMPLES = 1000
STEPS = 2000
EM_ITERS = 60
ROUNDS = 12


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _fastest_us(units, repeat):
    """Microseconds per unit of work of each timed unit, interleaved.

    ``units`` maps a name to (run, count): run() does count units of work.
    Each of ``repeat`` rounds times every unit once, so a slow spell of a
    shared machine reaches all of them alike; the fastest round counts.
    """
    best = dict.fromkeys(units, float("inf"))
    for _ in range(repeat):
        for name, (run, count) in units.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], (time.perf_counter() - start) / count)
    return {name: t * 1e6 for name, t in best.items()}


def _call_unit(fn, items, window_s=0.01):
    """(run, count) for a run of ``fn`` over ``items`` repeated to fill
    about ``window_s`` seconds."""
    start = time.perf_counter()
    for item in items:
        fn(item)
    loops = max(1, round(window_s / max(time.perf_counter() - start, 1e-9)))

    def run():
        for _ in range(loops):
            for item in items:
                fn(item)

    return run, loops * len(items)


def _steps(step, model, x, mechanism, rng, carried):
    """STEPS transitions of ``step`` from x; the states visited."""
    visited = []
    state = carried(x)
    for _ in range(STEPS):
        out = step(model, state[0], mechanism, rng, *state[1:])
        state = (out.state, out.potential) + ((out.grad,) if len(out) > 3 else ())
        visited.append(out.state)
    return visited


def child(tree):
    """Time every layer of the tree on the path; print one JSON line of
    {layer: [microseconds per unit, digest of the unit's results]}."""
    from csample import gmm, samplers
    from csample.experiments import (
        STREAM_EM,
        fit_prior_mixture,
        load_config,
        oned_plans,
        prepare_deblur_problem,
        prepare_oned_model,
        serial_gaussian_mechanism,
    )
    from csample.linalg_rng import RngStream, SpdMatrix
    from csample.pool import WorkerPool
    from csample.posterior import PosteriorModel
    from perfbench.workloads import EMFIT_CANDIDATES, downsample_phantom, emfit_data

    config = load_config("oned", Path(tree) / "configs" / "oned.json",
                         {"n_samples": N_SAMPLES, "seed": SEED})
    with WorkerPool(2) as pool:
        model, _, ensemble = prepare_oned_model(config, pool)
    states = [np.array([v]) for v in np.linspace(-6.0, 4.0, 32)]

    with tempfile.TemporaryDirectory() as work:
        image = Path(work) / "phantom_16.pgm"
        downsample_phantom(Path(tree) / "src" / "csample" / "data" / "phantom_disk_32.pgm", image)
        dconfig = load_config("deblur", Path(tree) / "configs" / "deblur.json",
                              {"image": str(image)})
        setup = prepare_deblur_problem(dconfig)
    mixture = fit_prior_mixture(setup["prior_members"], dconfig).mixture
    n_pix = setup["truth"].rows * setup["truth"].cols
    deblur = PosteriorModel(mixture, setup["operator"], setup["observed"],
                            SpdMatrix.spherical(n_pix, setup["noise_std"] ** 2))
    normals = RngStream(SEED, 99).standard_normal(32 * n_pix).reshape(32, n_pix)
    picks = np.arange(32) % mixture.n_components
    dstates = list(mixture.means[picks] + np.sqrt(mixture.variances[picks]) * normals)

    emfit = emfit_data(1)
    points = gmm._sorted_members(emfit)
    resp = gmm._nearest_center_assignment(
        points, gmm._seed_centers(points, 6, RngStream(SEED, 0), "quantile"))
    weights, means, covs = gmm._m_step(points, resp, resp.sum(axis=0), "full",
                                       gmm._data_floor(points))

    def build(covs):
        return gmm.GaussianMixture(weights, means, covs, structure="full")

    built = build(covs)
    digests = {"mixture.build_k6_d8": _digest(built._factors, built._inv_t, built._logdets)}
    calls = {"mixture.build_k6_d8": _call_unit(build, [covs])}
    for prefix, m, xs in (("oned", model, states), ("deblur16", deblur, dstates)):
        fused = [m.potential_and_grad(x) for x in xs]
        digests[f"{prefix}.potential_and_grad"] = _digest([f[0] for f in fused],
                                                          *[f[1] for f in fused])
        digests[f"{prefix}.grad"] = _digest(*[m.grad_neg_log_posterior(x) for x in xs])
        digests[f"{prefix}.potential"] = _digest([m.neg_log_posterior(x) for x in xs])
        digests[f"{prefix}.log_kernel"] = _digest([m.prior.log_kernel(x) for x in xs])
        calls[f"{prefix}.potential_and_grad"] = _call_unit(m.potential_and_grad, xs)
        calls[f"{prefix}.grad"] = _call_unit(m.grad_neg_log_posterior, xs)
        calls[f"{prefix}.potential"] = _call_unit(m.neg_log_posterior, xs)
        calls[f"{prefix}.log_kernel"] = _call_unit(m.prior.log_kernel, xs)

    plans = oned_plans(model, config)
    serial = plans["serial_hmc"].chains[0].mechanism
    flights = [(x, np.ones(1), model.grad_neg_log_posterior(x)) for x in states]

    def flight(item):
        x, p, grad = item
        return samplers.leapfrog(model, x, p, serial.mass, serial.step_size, serial.n_steps, grad)

    digests["oned.leapfrog_step"] = _digest(*[np.concatenate(flight(f)[:2]) for f in flights])
    run, count = _call_unit(flight, flights)
    calls["oned.leapfrog_step"] = (run, count * serial.n_steps)
    layers = _fastest_us(calls, repeat=40)

    start = plans["serial_hmc"].chains[0].initial_state
    steps = {}
    for name, step, mechanism, carried in (
        ("oned.hmc_step", samplers.hmc_step, plans["serial_hmc"].chains[0].mechanism,
         lambda x: (x,) + tuple(model.potential_and_grad(x))),
        ("oned.mh_step", samplers.mh_step, serial_gaussian_mechanism(config),
         lambda x: (x, model.neg_log_posterior(x))),
    ):
        def run(step=step, mechanism=mechanism, carried=carried):
            return _steps(step, model, start, mechanism, RngStream(SEED, 7), carried)

        digests[name] = _digest(*run())
        steps[name] = (run, STEPS)

    fits = {}
    em_layers = (("oned.em_iter", ensemble, 8), ("emfit.em_iter", emfit, 4),
                 ("emfit.em_iter_k6", emfit, 6))
    for name, data, k in em_layers:
        points = gmm._sorted_members(data)
        centers = gmm._seed_centers(points, k, RngStream(SEED, 0), "quantile")

        def run(points=points, centers=centers):
            return gmm._em_single(points, centers, "full", RngStream(SEED, 1), EM_ITERS, 0.0)

        fit = run()
        digests[name] = _digest(fit.loglik_trace, fit.mixture.means, fit.mixture.covariances)
        fits[name] = (run, fit.n_iter)
    selections = {}
    for name, data, (lo, hi) in (("oned.em_select", ensemble, config["candidate_components"]),
                                 ("emfit.em_select", emfit, EMFIT_CANDIDATES)):
        def run(data=data, candidates=range(lo, hi + 1)):
            return gmm.select_model_aic(data, candidates, structure="full",
                                        rng=RngStream(SEED, STREAM_EM))

        selection = run()
        digests[name] = _digest([selection.n_components, selection.iterations],
                                [row["log_likelihood"] for row in selection.table])
        selections[name] = (run, 1)
    layers.update(_fastest_us(steps, repeat=5))
    layers.update(_fastest_us(fits, repeat=7))
    layers.update(_fastest_us(selections, repeat=3))

    plan = plans["serial_hmc"]

    def chain():
        return samplers.run_chain(model, plan.chains[0], burn_in=plan.burn_in,
                                  stride=plan.stride, seed=plan.seed)

    t0 = time.perf_counter()
    result = chain()
    layers["oned.serial_hmc_chain"] = (time.perf_counter() - t0) * 1e6
    digests["oned.serial_hmc_chain"] = _digest(result.samples)
    # The same chain again, untimed, counting its leapfrog steps.
    leapfrog, steps_taken = samplers.leapfrog, []

    def counted(*args):
        steps_taken.append(args[5])
        return leapfrog(*args)

    samplers.leapfrog = counted
    try:
        assert _digest(chain().samples) == digests["oned.serial_hmc_chain"]
    finally:
        samplers.leapfrog = leapfrog
    counts = {"oned.serial_hmc_chain": sum(steps_taken)}
    print(json.dumps({name: [layers[name], digests[name], counts.get(name)] for name in layers}))


# Run with ``python -c`` in a fresh interpreter: the import's microseconds
# and the sorted top-level packages loaded, as JSON.
IMPORT_PROBE = """
import json, sys, time
start = time.perf_counter()
import csample.cli
elapsed = time.perf_counter() - start
print(json.dumps([elapsed * 1e6, sorted({name.split(".")[0] for name in sys.modules})]))
"""


def _run(tree, args):
    """The last line of standard output of the interpreter run with ``args``
    on the tree, decoded as JSON."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tree) / "src"), str(tree)])
    out = subprocess.run([sys.executable, *args], env=env, cwd=tree, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_child(tree):
    """One round of one tree: the timing interpreter's layers and the import's."""
    layers = _run(tree, [str(Path(__file__).resolve()), "--child", str(tree)])
    import_us, packages = _run(tree, ["-c", IMPORT_PROBE])
    packages_digest = hashlib.sha256("\n".join(packages).encode()).hexdigest()[:16]
    layers["import.cli"] = [import_us, packages_digest]
    return layers


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:  # one timed interpreter, started by _run_child
        child(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_TREE")
    parser.add_argument("change", metavar="CHANGE_TREE")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    runs = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_child(trees[side]))
    layers = {}
    for name in runs["parent"][0]:
        row = {}
        for side in ("parent", "change"):
            values = [run[name][0] for run in runs[side]]
            row[f"{side}_us"] = values
            row[f"{side}_median_us"] = statistics.median(values)
            row[f"{side}_min_us"] = min(values)
        row["relative_change"] = row["change_median_us"] / row["parent_median_us"] - 1.0
        # The two interpreters of a round run back to back, so their ratio
        # shares most of the machine's slow spells.
        row["round_ratio_median"] = statistics.median(
            c / p for c, p in zip(row["change_us"], row["parent_us"]))
        row["same_digest"] = len({run[name][1] for side in runs for run in runs[side]}) == 1
        if name == "oned.serial_hmc_chain":
            row["leapfrog_steps"] = runs["parent"][0][name][2]
            for side in ("parent", "change"):
                row[f"{side}_leapfrog_share"] = (
                    layers["oned.leapfrog_step"][f"{side}_median_us"] * row["leapfrog_steps"]
                    / row[f"{side}_median_us"])
        layers[name] = row
    report = {
        "harness": "python scripts/layer_costs.py PARENT_TREE CHANGE_TREE",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": 1,
        "rounds": ROUNDS,
        "parent": str(trees["parent"]),
        "change": str(trees["change"]),
        "layers": layers,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
