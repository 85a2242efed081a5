"""One benchmark run in a fresh interpreter.

    python3 -m perfbench.child import
    python3 -m perfbench.child run ARGV_JSON [--trace FILE --timed-workers P]

``import`` times ``import csample.cli`` alone. ``run`` times the import,
then ``csample.cli.main(ARGV)``, and reports the exit code, the CLI's output
and the peak resident memory of this process and of its reaped (forked)
workers. With ``--trace`` the public functions of every csample layer are
wrapped in spans before ``main`` runs, and the trace is written to FILE.
The last line of standard output is a JSON object.

Only the standard library is imported before csample, so the import time
is csample's own (numpy and scipy included).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from perfbench.tracer import Tracer, patch_everywhere

def _observe_em(tracer, args, kwargs, fit):
    tracer.count("gmm.em_iters", fit.n_iter)
    tracer.count("gmm.em_unconverged", int(not fit.converged))


def _observe_mh(tracer, args, kwargs, step):
    tracer.count("samplers.mh_accepted", int(step.accepted))


def _observe_hmc(tracer, args, kwargs, step):
    tracer.count("samplers.hmc_accepted", int(step.accepted))
    tracer.count("samplers.divergences", int(step.divergent))


def _observe_mcmc(tracer, args, kwargs, result):
    from csample.mc_scheduler import ChainFailure

    tracer.count("mc_scheduler.chains", len(result.chain_results))
    tracer.count(
        "mc_scheduler.chain_failures",
        sum(isinstance(r, ChainFailure) for r in result.chain_results),
    )


def _observe_solve(tracer, args, kwargs, solution):
    tracer.count("tikhonov.cg_iters", solution.iterations)
    tracer.count("tikhonov.unconverged", int(not solution.converged))


def _plan_observer(timed_workers):
    def observe(tracer, args, kwargs, plan):
        # The traced run uses one worker; rebuild the chain-to-worker
        # assignment the timed runs get, with the scheduler's own policies.
        from csample import mc_scheduler

        budgets = [c.budget for c in plan.chains]
        if kwargs.get("balance"):
            assignment = mc_scheduler.balanced_assignment(budgets, timed_workers)
        else:
            assignment = mc_scheduler.round_robin_assignment(len(budgets), timed_workers)
        steps = [0] * timed_workers
        for chain, worker in zip(plan.chains, assignment):
            if chain.budget > 0:
                steps[int(worker)] += plan.burn_in + plan.stride * chain.budget
        mechanism = args[2] if len(args) > 2 else kwargs.get("mechanism")
        tracer.observe("mc_scheduler.worker_steps", {"mechanism": mechanism, "steps": steps})

    return observe


def instrument(tracer, timed_workers):
    """Wrap the public calls of each csample layer in spans."""
    from csample import (
        experiments,
        forward_models,
        gmm,
        linalg_rng,
        mc_scheduler,
        posterior,
        samplers,
        tikhonov,
    )

    modules = [m for name, m in sys.modules.items() if name.startswith("csample") and m]

    def patch(owner, attr, name, observer=None):
        original = getattr(owner, attr, None)
        if original is None:  # renamed or removed in the program: its metrics read 0
            tracer.observe("trace.missing_hooks", f"{owner.__name__}.{attr}")
            return
        patch_everywhere(modules, owner, attr, tracer.wrap(name, original, observer))

    for kind, runner in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[kind] = tracer.wrap("experiments.run", runner)
    patch(experiments, "prepare_oned_model", "experiments.prepare_oned_model")
    patch(experiments, "prepare_deblur_problem", "experiments.prepare_deblur_problem")
    patch(experiments, "quadrature_reference", "experiments.quadrature_reference")

    patch(gmm, "select_model_aic", "gmm.select_model_aic")
    patch(gmm, "em_fit", "gmm.em_fit")
    # em_fit returns only its best restart; every single EM run shows here.
    patch(gmm, "_em_single", "gmm.em_single", _observe_em)

    patch(linalg_rng, "cholesky", "linalg_rng.cholesky")
    patch(linalg_rng.SpdMatrix, "__init__", "linalg_rng.spd_build")
    patch(linalg_rng, "sample_mvn", "linalg_rng.sample_mvn")

    for cls in (
        forward_models.IdentityOperator,
        forward_models.MatrixOperator,
        forward_models.GaussianBlurOperator,
        forward_models.SaturationWrapper,
    ):
        patch(cls, "apply", "forward_models.apply")
        patch(cls, "adjoint_jacobian_apply", "forward_models.adjoint")

    patch(posterior.PosteriorModel, "neg_log_posterior", "posterior.potential")
    patch(posterior.PosteriorModel, "grad_neg_log_posterior", "posterior.grad")
    patch(posterior.PosteriorModel, "log_likelihood", "posterior.log_likelihood")

    patch(samplers, "mh_step", "samplers.mh_step", _observe_mh)
    patch(samplers, "hmc_step", "samplers.hmc_step", _observe_hmc)
    patch(samplers, "leapfrog", "samplers.leapfrog")
    patch(samplers, "run_chain", "samplers.run_chain")

    patch(mc_scheduler, "build_plan", "mc_scheduler.build_plan", _plan_observer(timed_workers))
    patch(mc_scheduler, "run_mc_mcmc", "mc_scheduler.run_mc_mcmc", _observe_mcmc)

    patch(tikhonov, "lcurve_select_alpha", "tikhonov.lcurve")
    patch(tikhonov, "solve_tikhonov", "tikhonov.solve", _observe_solve)
    patch(tikhonov, "tikhonov_objective", "tikhonov.objective")
    patch(tikhonov, "discrete_laplacian", "tikhonov.discrete_laplacian")


def _peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, workers


def run(argv, trace_path=None, timed_workers=1):
    t0 = time.perf_counter()
    import csample.cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        instrument(tracer, timed_workers)
    out, err = io.StringIO(), io.StringIO()
    error = None
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enter("cli.main")
        try:
            rc = csample.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what an uncaught error would end the CLI with
            rc = 1
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.exit()
    wall_s = time.perf_counter() - t1
    own_kb, workers_kb = _peak_rss_kb()
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_kb": own_kb,
        "worker_rss_kb": workers_kb,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
    }


def main(args):
    if args[:1] == ["import"]:
        t0 = time.perf_counter()
        import csample.cli  # noqa: F401

        result = {"setup_s": time.perf_counter() - t0}
    elif args[:1] == ["run"] and len(args) in (2, 6):
        trace_path = timed_workers = None
        if len(args) == 6:
            trace_path, timed_workers = args[3], int(args[5])
        result = run(json.loads(args[1]), trace_path, timed_workers or 1)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
