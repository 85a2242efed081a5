"""Predicted scaling of the multi-chain sampler across worker counts.

With the burn-in dropped, speedup is exactly p up to the component count and
saturates there, independent of the state dimension.
"""

from csample.cost_model import CostModelInput, predict_cost

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
          f"{report.speedup_integral:12.2f}")

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
