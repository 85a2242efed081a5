"""Per-chain random streams make the gathered ensemble independent of the
worker count: one, three, or seven workers produce the same bytes."""

from csample.experiments import default_config, prepare_oned_model
from csample.mc_scheduler import WorkerPool, build_plan, run_plans

cfg = default_config("oned")
cfg.update(n_ens_prior=400, candidate_components=[1, 8])
model, selection, _ = prepare_oned_model(cfg)
print(f"posterior over {selection.n_components} prior components")

digests = {}
for workers in (1, 3, 7):
    plan = build_plan(model, 300, "gaussian", seed=11, burn_in=50, stride=2,
                      proposal_scale=0.3)
    with WorkerPool(workers) as pool:
        result = run_plans(model, [plan], pool)[0]
    digests[workers] = hash(result.ensemble.members.tobytes())
    print(f"p={workers}: ensemble hash {digests[workers]:x} "
          f"(acceptance {result.acceptance_rate:.1%})")

assert len(set(digests.values())) == 1
print("identical pooled ensembles for every worker count")
