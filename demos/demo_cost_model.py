"""Predicted scaling of the multi-chain sampler across worker counts.

With the burn-in dropped, speedup is exactly p up to the component count and
saturates there, independent of the state dimension. The last column places
the chains whole on the workers, n_c / ceil(n_c / p), as ``csample bench``
predicts.
"""

from csample.cost_model import CostModelInput, predict_cost, whole_chain_speedup

N_COMPONENTS = 7

print(f"{'p':>3} {'speedup':>8} {'eff':>6} {'speedup_int':>12}")
for p in (1, 2, 4, 7, 8, 12, 16, 32):
    report = predict_cost(
        CostModelInput(
            workers=p,
            n_components=N_COMPONENTS,
            n_ens=1000,
            n_var=4096,
            burn_in=0,
            stride=5,
            gmm_structure="diagonal",
            proposal="diagonal",
        )
    )
    print(f"{p:3d} {report.speedup:8.2f} {report.efficiency:6.2f} "
          f"{whole_chain_speedup(N_COMPONENTS, p):12.2f}")

print("\nper-step cost units by regime (n_var=4096, 20 leapfrog steps):")
from csample.cost_model import step_cost

for gmm, proposal in (
    ("diagonal", "diagonal"),
    ("diagonal", "full"),
    ("full", "diagonal"),
    ("full", "full"),
    ("diagonal", "hmc"),
):
    units = step_cost(4096, gmm, proposal, traj_steps=20)
    print(f"  gmm={gmm:8s} proposal={proposal:8s} -> {units:.3g}")
