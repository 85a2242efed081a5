import numpy as np
import pytest

from csample.cost_model import CostModelInput, predict_cost, step_cost, whole_chain_speedup


def rand_input(rng, **overrides):
    params = dict(
        workers=int(rng.integers(1, 33)),
        n_components=int(rng.integers(1, 17)),
        n_ens=int(rng.integers(8, 5000)),
        n_var=int(rng.integers(1, 2000)),
        burn_in=int(rng.integers(0, 500)),
        stride=int(rng.integers(1, 10)),
        traj_steps=int(rng.integers(1, 40)),
        gmm_structure=str(rng.choice(["diagonal", "spherical", "tied", "full"])),
        proposal=str(rng.choice(["diagonal", "full", "hmc"])),
    )
    params.update(overrides)
    return CostModelInput(**params)


class TestStepCost:
    def test_regimes(self):
        assert step_cost(10, "diagonal", "diagonal") == 10.0
        assert step_cost(10, "spherical", "diagonal") == 10.0
        assert step_cost(10, "diagonal", "full") == 100.0
        assert step_cost(10, "full", "diagonal") == 100.0
        assert step_cost(10, "full", "full") == 100.0
        assert step_cost(10, "diagonal", "hmc", traj_steps=20) == 2000.0


class TestClosedForms:
    def test_no_burn_in_speedup_exact(self):
        # With burn-in dropped, S = p for p <= n_c and S = n_c beyond,
        # exactly, for any regime and problem size.
        rng = np.random.default_rng(1)
        for _ in range(20):
            inp = rand_input(rng, burn_in=0)
            report = predict_cost(inp)
            if inp.workers <= inp.n_components:
                assert report.speedup == float(inp.workers)
                assert report.efficiency == 1.0
            else:
                assert report.speedup == float(inp.n_components)
                assert report.efficiency == inp.n_components / inp.workers

    def test_case_table_examples(self):
        a = predict_cost(CostModelInput(workers=4, n_components=7, n_ens=700, n_var=5))
        assert a.speedup == 4.0 and a.efficiency == 1.0
        b = predict_cost(CostModelInput(workers=16, n_components=7, n_ens=700, n_var=5))
        assert b.speedup == 7.0 and b.efficiency == 7.0 / 16.0

    def test_serial_cost_plugin(self):
        # Diagonal-everything Gaussian regime, b_s=100, m_s=5, N_ens=1000,
        # N_var=10: (100 + 5*1000) * 10 = 51000 units.
        inp = CostModelInput(
            workers=1, n_components=7, n_ens=1000, n_var=10, burn_in=100, stride=5
        )
        assert predict_cost(inp).serial_cost == 51000.0

    def test_burn_in_formula(self):
        inp = CostModelInput(
            workers=3,
            n_components=6,
            n_ens=600,
            n_var=4,
            burn_in=50,
            stride=2,
            gmm_structure="full",
            proposal="full",
        )
        report = predict_cost(inp)
        expected = (3 * (50 + 2 * 600)) / (6 * (50 + 2 * 100))
        assert report.speedup == pytest.approx(expected, rel=1e-15)


class TestIdentities:
    def test_exact_identities(self):
        # The report fields are defined by E = S/p and T_o = p*T_p - T_s;
        # those directions hold bitwise, the inverses to round-off.
        rng = np.random.default_rng(2)
        for _ in range(50):
            inp = rand_input(rng)
            report = predict_cost(inp)
            assert report.efficiency == report.speedup / inp.workers
            assert report.overhead == inp.workers * report.parallel_cost - report.serial_cost
            assert report.speedup == pytest.approx(
                report.serial_cost / report.parallel_cost, rel=1e-12
            )

    def test_burn_in_overhead_positive(self):
        inp = CostModelInput(workers=4, n_components=4, n_ens=400, n_var=3, burn_in=100)
        report = predict_cost(inp)
        # p * T_p - T_s = (n_c - 1) * b_s * unit for p = n_c.
        assert report.overhead == pytest.approx(3 * 100 * 3.0)

    def test_whole_chain_speedup_bounds_ideal(self):
        # Placing chains whole never beats dividing them continuously.
        rng = np.random.default_rng(3)
        for _ in range(30):
            inp = rand_input(rng, burn_in=0)
            ideal = predict_cost(inp).speedup
            assert whole_chain_speedup(inp.n_components, inp.workers) <= ideal


class TestIsoefficiency:
    def test_efficiency_nonincreasing_in_p(self):
        effs = [
            predict_cost(
                CostModelInput(workers=p, n_components=7, n_ens=700, n_var=3, burn_in=30)
            ).efficiency
            for p in range(1, 25)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(effs[:-1], effs[1:]))


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            CostModelInput(workers=0, n_components=1, n_ens=10, n_var=2)
        with pytest.raises(ValueError):
            CostModelInput(workers=1, n_components=1, n_ens=10, n_var=2, proposal="x")
        with pytest.raises(ValueError):
            CostModelInput(workers=1, n_components=1, n_ens=10, n_var=2, gmm_structure="x")
        with pytest.raises(ValueError):
            whole_chain_speedup(0, 2)
