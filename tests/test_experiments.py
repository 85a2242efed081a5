import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import csample
from csample.cli import main as cli_main
from csample.errors import (
    ConfigError,
    DegenerateCurveWarning,
    NotPositiveDefinite,
    SolverConvergenceWarning,
    ZeroReference,
)
from csample.experiments import (
    RunSummary,
    benchmark_prior_mixture,
    default_config,
    fit_prior_mixture,
    load_config,
    mixture_bin_masses,
    mixture_moments,
    multichain_plan,
    oned_plans,
    prepare_deblur_problem,
    relative_error,
    run_deblur_experiment,
    run_em_fit,
    run_oned_benchmark,
    run_speedup_benchmark,
    run_tikhonov_experiment,
    total_variation,
    weighted_histogram,
)
from csample.forward_models import IdentityOperator, read_pgm
from csample.gmm import GaussianMixture
from csample.linalg_rng import SpdMatrix
from csample.posterior import PosteriorModel
from csample.samplers import HmcParams


def small_oned_config(**overrides):
    cfg = default_config("oned")
    cfg.update(
        n_ens_prior=300,
        n_samples=300,
        burn_in=30,
        stride=2,
        candidate_components=[1, 6],
        workers=2,
    )
    cfg.update(overrides)
    return cfg


def small_deblur_config(**overrides):
    cfg = default_config("deblur")
    cfg.update(
        burn_in=20,
        stride=2,
        n_ens=12,
        prior_pool=20,
        alpha_grid=[1e-4, 1e2, 8],
        workers=2,
    )
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_defaults_complete(self):
        for kind in ("oned", "deblur", "bench", "tikhonov", "em-fit"):
            cfg = default_config(kind)
            assert cfg["kind"] == kind

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_option": 1}))
        with pytest.raises(ConfigError, match="no_such_option"):
            load_config("oned", path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "deblur"}))
        with pytest.raises(ConfigError):
            load_config("oned", path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config("oned", path)

    def test_override_merge(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"seed": 11}))
        cfg = load_config("oned", path, {"workers": 5})
        assert cfg["seed"] == 11
        assert cfg["workers"] == 5

    @pytest.mark.parametrize("kind", ["oned", "deblur", "bench", "tikhonov", "em-fit"])
    def test_every_key_has_a_rule_its_default_passes(self, kind):
        from csample.experiments import _RULES

        # "kind" has its own check: it must match the subcommand.
        for key, value in default_config(kind).items():
            if key != "kind":
                valid, rule = _RULES[key]
                assert valid(value), f"default {key}={value!r} breaks its rule: {rule}"

    def test_shipped_configs_load(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        mapping = {
            "oned": "oned.json",
            "deblur": "deblur.json",
            "bench": "bench.json",
            "tikhonov": "tikhonov.json",
            "em-fit": "em_fit.json",
        }
        for kind, name in mapping.items():
            cfg = load_config(kind, repo / "configs" / name)
            assert cfg["kind"] == kind
            # Each shipped file lists every key at its default.
            shipped = json.loads((repo / "configs" / name).read_text(encoding="utf-8"))
            assert shipped == default_config(kind)


class TestRelativeError:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        assert relative_error(x, x) == 0.0

    def test_double(self):
        x = np.array([3.0, -4.0])
        assert relative_error(2 * x, x) == pytest.approx(1.0)

    def test_hand_case(self):
        assert relative_error([3.0, 0.0], [3.0, 4.0]) == pytest.approx(0.8)

    def test_zero_reference(self):
        with pytest.raises(ZeroReference):
            relative_error([1.0], [0.0])


class TestBenchmarkGenerator:
    def test_weights_normalized(self):
        mix = benchmark_prior_mixture()
        assert mix.n_components == 8
        assert np.sum(mix.weights) == pytest.approx(1.0, abs=1e-12)

    def test_histogram_tools(self):
        # Two unit-variance components at -1 and +1 with weights 1/4, 3/4,
        # and bins split at the means and midway: every component's share
        # of a bin is a sum of 1/2, Phi(1) - 1/2 and Phi(2) - 1/2 terms.
        mixture = GaussianMixture([0.25, 0.75], [[-1.0], [1.0]], np.ones((2, 1)))
        edges = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf])
        masses = mixture_bin_masses(mixture, edges)
        half_sd = 0.3413447460685429  # Phi(1) - 1/2
        two_sd = 0.4772498680518208  # Phi(2) - 1/2
        expected = [
            0.25 * 0.5 + 0.75 * (0.5 - two_sd),
            0.25 * half_sd + 0.75 * (two_sd - half_sd),
            0.25 * (two_sd - half_sd) + 0.75 * half_sd,
            0.25 * (0.5 - two_sd) + 0.75 * 0.5,
        ]
        assert np.allclose(masses, expected, rtol=0.0, atol=1e-15)
        assert np.sum(masses) == pytest.approx(1.0, abs=1e-15)
        samples = np.array([-1.5, -0.5, 0.5, 1.5])
        observed = weighted_histogram(samples, masses, edges)
        assert np.allclose(observed, masses)
        assert total_variation(observed, masses) == pytest.approx(0.0, abs=1e-12)


class TestRunSummary:
    def test_write_csv_cells(self, tmp_path):
        summary = RunSummary("oned", 1, tmp_path)
        x, y = 0.1 + 0.2, np.float64(1.0) / 3.0
        summary.write_csv("cells.csv", ("a", "b", "c", "d", "e", "f"),
                          [(x, y, np.bool_(True), False, np.int64(7), "parallel_hmc")])
        summary.write_csv("empty.csv", ("a", "b"), [])
        header, row = (tmp_path / "cells.csv").read_text().split("\n")[:2]
        assert header == "a,b,c,d,e,f"
        cells = row.split(",")
        # Floats read back bit for bit; a numpy bool is an integer, not 1.0.
        assert float(cells[0]).hex() == x.hex()
        assert float(cells[1]).hex() == float(y).hex()
        assert cells[2:] == ["1", "0", "7", "parallel_hmc"]
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"
        assert summary.manifest == ["cells.csv", "empty.csv"]


class TestOnedRun:
    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg = small_oned_config()
        a = run_oned_benchmark(cfg, tmp_path / "a")
        b = run_oned_benchmark(cfg, tmp_path / "b")
        assert a.n_c_selected == b.n_c_selected
        for name in a.manifest:
            if name == "summary.json":
                # Wall-clock timings are the one legitimately varying field.
                doc_a = json.loads((tmp_path / "a" / name).read_text())
                doc_b = json.loads((tmp_path / "b" / name).read_text())
                doc_a.pop("timings")
                doc_b.pop("timings")
                assert doc_a == doc_b
                continue
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between identical runs"

    def test_pooled_fit_equals_in_process_fit_and_records_its_work(self, tmp_path):
        pooled = run_oned_benchmark(small_oned_config(workers=2), tmp_path / "pooled")
        alone = run_oned_benchmark(small_oned_config(workers=1), tmp_path / "alone")
        for name in ("gmm.json", "samples_parallel_hmc.csv"):
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "alone" / name).read_bytes()
        assert pooled.aic == alone.aic
        assert pooled.timings["em_fit_work_s"] > 0.0
        # One worker runs every fit in process, inside the phase's wall.
        assert 0.0 < alone.timings["em_fit_work_s"] <= alone.timings["em_fit_s"]

    def test_summary_recomputable_from_artifacts(self, tmp_path):
        cfg = small_oned_config()
        summary = run_oned_benchmark(cfg, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        # Acceptance rates recompute from the acceptance table.
        with open(tmp_path / "acceptance.csv") as fh:
            rows = list(csv.DictReader(fh))
        for variant in ("serial_gaussian", "parallel_hmc"):
            made = sum(int(r["proposals_made"]) for r in rows if r["variant"] == variant)
            acc = sum(int(r["proposals_accepted"]) for r in rows if r["variant"] == variant)
            assert doc["acceptance"][variant] == pytest.approx(acc / made, abs=1e-12)
        # The TV statistic recomputes from the histogram artifact.
        with open(tmp_path / "histogram_parallel_hmc.csv") as fh:
            hist = list(csv.DictReader(fh))
        tv = 0.5 * sum(
            abs(float(r["mass_sampled"]) - float(r["mass_reference"])) for r in hist
        )
        assert doc["relative_errors"]["tv_parallel_hmc_vs_reference"] == pytest.approx(
            tv, abs=1e-12
        )
        # Sample CSVs carry normalized weights.
        with open(tmp_path / "samples_parallel_hmc.csv") as fh:
            srows = list(csv.DictReader(fh))
        weights = np.array([float(r["weight"]) for r in srows])
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(srows) == cfg["n_samples"]
        # The selected count recomputes from the AIC table.
        assert [row["n_c"] for row in doc["aic"]] == [1, 2, 3, 4, 5, 6]
        best = min(doc["aic"], key=lambda row: (row["aic"], row["n_c"]))
        assert doc["n_c_selected"] == summary.n_c_selected == best["n_c"]


class TestDeblurRun:
    def test_artifacts_and_metrics(self, tmp_path):
        cfg = small_deblur_config()
        summary = run_deblur_experiment(cfg, tmp_path)
        for name in summary.manifest:
            assert (tmp_path / name).exists()
        errors = summary.relative_errors
        assert 0.0 < errors["posterior_mean"] < 1.0
        assert errors["noisy_input"] > 0.0
        # Relative errors recompute from the emitted samples and images.
        truth = read_pgm(tmp_path / "true.pgm")
        with open(tmp_path / "samples_parallel_hmc.csv") as fh:
            rows = list(csv.DictReader(fh))
        dim = truth.intensities.size
        samples = np.array(
            [[float(r[f"x{i}"]) for i in range(dim)] for r in rows]
        )
        weights = np.array([float(r["weight"]) for r in rows])
        mean = weights @ samples
        recomputed = relative_error(mean, truth.intensities)
        assert summary.relative_errors["posterior_mean"] == pytest.approx(
            recomputed, abs=1e-12
        )
        # The L-curve corner in the summary matches the emitted table.
        with open(tmp_path / "lcurve.csv") as fh:
            lrows = list(csv.DictReader(fh))
        best = max(float(r["curvature"]) for r in lrows)
        ties = [float(r["alpha"]) for r in lrows if float(r["curvature"]) == best]
        assert summary.alpha_star == max(ties)

    def test_posterior_mean_not_clamped_in_arithmetic(self, tmp_path):
        cfg = small_deblur_config()
        run_deblur_experiment(cfg, tmp_path)
        with open(tmp_path / "samples_parallel_hmc.csv") as fh:
            rows = list(csv.DictReader(fh))
        # Raw samples may exceed [0, 1]; the PGM write clamps, the CSV not.
        values = np.array([float(v) for r in rows for v in list(r.values())[:-1]])
        assert values.min() < 0.0 or values.max() > 1.0 or values.size > 0


class TestHmcTuning:
    """One rule for every HMC chain: h * m = pi / 2 in the mass's units."""

    def test_oned_plans(self, fit_mixture_1d):
        cfg = default_config("oned")
        model = PosteriorModel(fit_mixture_1d, IdentityOperator(1), [-1.0],
                               SpdMatrix.from_diagonal([2.2]))
        plans = oned_plans(model, cfg)
        _, total_var = mixture_moments(fit_mixture_1d)
        serial = plans["serial_hmc"].chains[0].mechanism
        assert serial.mass.diagonal() == pytest.approx(1.0 / total_var)
        chains = plans["serial_hmc"].chains + plans["parallel_hmc"].chains
        assert len(chains) == 1 + fit_mixture_1d.n_components
        for chain in chains:
            self.assert_rule(chain.mechanism, cfg)

    def test_deblur_multichain_plan(self):
        cfg = small_deblur_config(candidate_components=[2, 2])
        setup = prepare_deblur_problem(cfg)
        mixture = fit_prior_mixture(setup["prior_members"], cfg).mixture
        model = PosteriorModel(mixture, setup["operator"], setup["observed"],
                               SpdMatrix.spherical(mixture.dim, setup["noise_std"] ** 2))
        plan = multichain_plan(model, cfg["n_ens"], "hmc", cfg)
        assert len(plan.chains) == 2
        for chain, variances in zip(plan.chains, mixture.variances):
            assert chain.mechanism.mass.diagonal() == pytest.approx(1.0 / variances)
            self.assert_rule(chain.mechanism, cfg)

    @staticmethod
    def assert_rule(params, cfg):
        assert isinstance(params, HmcParams)
        assert params.step_size == (math.pi / 2) / cfg["hmc_steps"]
        assert params.n_steps == cfg["hmc_steps"]
        assert params.jitter_steps == cfg["hmc_jitter"]


class TestBenchRun:
    def test_bench_csv(self, tmp_path):
        cfg = default_config("bench")
        cfg.update(
            n_ens_prior=200,
            n_samples=140,
            candidate_components=[1, 4],
            p_values=[1, 2],
            repetitions=1,
        )
        summary = run_speedup_benchmark(cfg, tmp_path)
        with open(tmp_path / "bench.csv") as fh:
            header = fh.readline().strip()
        assert header == "p,wall_s,speedup,efficiency,pred_speedup,pred_efficiency"
        rows = list(csv.DictReader(open(tmp_path / "bench.csv")))
        assert float(rows[0]["speedup"]) == 1.0
        assert float(rows[0]["pred_speedup"]) == 1.0
        em = json.loads((tmp_path / "summary.json").read_text())["em"]
        assert em == summary.em and em["fits"] >= len(summary.aic)
        assert em["iterations"] >= sum(row["n_iter"] for row in summary.aic)


class TestTikhonovRun:
    def test_runs_and_improves_on_noise(self, tmp_path):
        cfg = default_config("tikhonov")
        cfg["alpha_grid"] = [1e-3, 1e2, 10]
        summary = run_tikhonov_experiment(cfg, tmp_path)
        assert summary.relative_errors["tikhonov"] < summary.relative_errors["noisy_input"]
        assert (tmp_path / "lcurve.csv").exists()
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["aic"] is None and doc["em"] is None

    def test_periodic_lcurve_converges(self, tmp_path):
        # The periodic blur has no closed form; Gauss-Newton, preconditioned
        # by the reflect-boundary DCT solve, converges at every grid alpha.
        cfg = default_config("tikhonov")
        cfg["boundary"] = "periodic"
        run_tikhonov_experiment(cfg, tmp_path)
        with open(tmp_path / "lcurve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert [r["converged"] for r in rows] == ["1"] * 30

    @pytest.mark.parametrize("grid", [None, [1e-6, 1e4, 38]])
    def test_corner_at_the_grid_end_warns(self, tmp_path, grid):
        # The shipped grid's corner, alpha* = 52.98, is point 28 of 0-29, so
        # the corner may lie above the grid; a grid up to 1e4 brackets it.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "tikhonov.json"
        cfg = load_config("tikhonov", shipped, {} if grid is None else {"alpha_grid": grid})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = run_tikhonov_experiment(cfg, tmp_path)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DegenerateCurveWarning)]
        if grid is None:
            assert summary.alpha_star == pytest.approx(52.98, rel=1e-3)
            assert len(messages) == 1
            assert "52.9832" in messages[0] and "grid end 100" in messages[0]
        else:
            assert summary.alpha_star == pytest.approx(128.26, rel=1e-3)
            assert not messages


class TestEmFitRun:
    def test_fit_from_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        data = np.concatenate(
            [rng.standard_normal(120) - 3.0, rng.standard_normal(120) + 3.0]
        ).reshape(-1, 1)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, data, delimiter=",")
        cfg = default_config("em-fit")
        cfg["data"] = str(data_path)
        cfg["candidate_components"] = [1, 3]
        summary = run_em_fit(cfg, tmp_path)
        doc = json.loads((tmp_path / "gmm.json").read_text())
        assert set(doc) == {"structure", "weights", "means", "covariances"}
        assert summary.timings["em_fit_work_s"] > 0.0
        assert summary.n_c_selected == 2

    def test_missing_data_rejected(self, tmp_path):
        cfg = default_config("em-fit")
        with pytest.raises(ConfigError):
            run_em_fit(cfg, tmp_path)


class TestCli:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": True}))
        code = cli_main(["oned", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = cli_main(["oned", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_em_fit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, rng.standard_normal((60, 1)), delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"data": str(data_path), "candidate_components": [1, 2]})
        )
        out = tmp_path / "out"
        code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "gmm.json").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert [row["n_c"] for row in doc["aic"]] == [1, 2]
        assert set(doc["aic"][0]) == {"n_c", "aic", "log_likelihood", "n_iter", "converged"}
        best = min(doc["aic"], key=lambda row: (row["aic"], row["n_c"]))
        assert doc["n_c_selected"] == best["n_c"]
        # Five restarts per candidate, every one a fit.
        assert doc["em"]["fits"] == 10
        assert doc["em"]["iterations"] >= sum(row["n_iter"] for row in doc["aic"])

    def test_runtime_imports_no_scipy(self, tmp_path):
        # A fresh interpreter: the import loads numpy's random module and
        # no scipy, and a dense em-fit through the CLI loads no scipy either.
        rng = np.random.default_rng(4)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, rng.standard_normal((60, 2)) @ [[1.0, 0.5], [0.0, 1.0]],
                   delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_path), "candidate_components": [1, 2]}))
        script = (
            "import json, sys\n"
            "import csample.cli\n"
            "loaded = {name: name in sys.modules for name in ('scipy', 'numpy.random')}\n"
            "code = csample.cli.main(sys.argv[1:])\n"
            "print(json.dumps([loaded, code, 'scipy' in sys.modules]))\n"
        )
        src = Path(csample.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", script, "em-fit", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--procs", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True)
        loaded, code, scipy_after = json.loads(out.stdout.strip().splitlines()[-1])
        assert loaded == {"scipy": False, "numpy.random": True}
        assert code == 0
        assert not scipy_after

    def test_deblur_run_loads_no_numpy_ma(self, tmp_path):
        # The posterior median is taken without np.median, whose NaN check
        # imports numpy.ma.
        script = (
            "import json, sys\n"
            "import csample.cli\n"
            "code = csample.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, 'numpy.ma' in sys.modules]))\n"
        )
        src = Path(csample.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", script, "deblur", "--out", str(tmp_path / "out"),
             "--procs", "1"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True)
        code, ma_loaded = json.loads(out.stdout.strip().splitlines()[-1])
        assert code == 0
        assert not ma_loaded

    def test_em_fit_procs_leave_artifacts_unchanged(self, tmp_path):
        rng = np.random.default_rng(9)
        data_path = tmp_path / "d.csv"
        centers = np.array([[-3.0, 0.0], [2.0, 2.0], [2.0, -3.0]])
        np.savetxt(data_path, np.concatenate([c + rng.standard_normal((60, 2)) for c in centers]),
                   delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_path), "candidate_components": [1, 4]}))
        docs = []
        for procs in (1, 2):
            out = tmp_path / f"p{procs}"
            code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(out),
                             "--procs", str(procs)])
            assert code == 0
            docs.append(json.loads((out / "summary.json").read_text()))
            docs[-1].pop("timings")
        assert (tmp_path / "p1" / "gmm.json").read_bytes() == (
            tmp_path / "p2" / "gmm.json").read_bytes()
        assert docs[0] == docs[1]

    def test_image_io_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"image": str(tmp_path / "missing.pgm")}))
        code = cli_main(["tikhonov", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("command", ["tikhonov", "deblur"])
    @pytest.mark.parametrize("size", ["0 0", "0 5"])
    def test_image_without_pixels_exit_code(self, tmp_path, capsys, command, size):
        image = tmp_path / "empty.pgm"
        image.write_text(f"P2\n{size}\n255\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"image": str(image)}))
        code = cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert str(image) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tikhonov", "deblur"])
    def test_all_black_image_is_a_config_error(self, tmp_path, capsys, command):
        # noise_level and prior_spread scale with the mean intensity, here 0.
        image = tmp_path / "black.pgm"
        image.write_text("P2\n4 4\n255\n" + " ".join(["0"] * 16) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"image": str(image)}))
        out = tmp_path / "o"
        code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert f"image {image} is all black" in capsys.readouterr().err
        assert not out.exists()

    def test_saturated_deblur_end_to_end(self, tmp_path):
        # The shipped deblur config with the saturated operator: the
        # Tikhonov baseline takes Gauss-Newton at every grid alpha.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "deblur.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**json.loads(shipped.read_text()), "saturation": True}))
        out = tmp_path / "out"
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["deblur", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert time.perf_counter() - start < 60.0
        with open(out / "lcurve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert all(r["converged"] in ("0", "1") for r in rows)
        unconverged = [float(r["alpha"]) for r in rows if r["converged"] == "0"]
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, SolverConvergenceWarning)]
        if unconverged:
            assert len(messages) == 1
            assert f"{len(unconverged)} of 30" in messages[0]
            for alpha in unconverged:
                assert f"{alpha:.6g}" in messages[0]
        else:
            assert not messages
        errors = json.loads((out / "summary.json").read_text())["relative_errors"]
        assert errors["posterior_mean"] < errors["tikhonov"]

    def test_numerical_failure_exit_code(self, tmp_path):
        # Nine identical points cannot support five components: the EM fit
        # degenerates in every restart.
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.zeros((9, 1)), delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"data": str(data_path), "candidate_components": [5, 5]})
        )
        code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("oned", "balance", True),
            ("oned", "pool_mode", "process"),
            ("deblur", "noise_interpretation", "std"),
            ("bench", "budgets", "uniform"),
            ("bench", "t_startup", 1e-4),
            ("deblur", "hmc_trajectory", 0.25),
        ],
        ids=["balance", "pool_mode", "noise_interpretation", "budgets", "t_startup",
             "hmc_trajectory"],
    )
    def test_removed_key_exit_code(self, tmp_path, capsys, kind, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = cli_main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("oned", "n_samples", 0),
            ("oned", "hmc_steps", 0),
            ("oned", "stride", 0),
            ("oned", "burn_in", -1),
            ("oned", "candidate_components", [3, 1]),
            ("oned", "workers", 0),
            ("deblur", "n_ens", 0),
            ("deblur", "n_ens", "30"),
            ("tikhonov", "alpha_grid", [1e-6, 1e2, 0]),
            ("oned", "candidate_components", [1]),
            ("bench", "p_values", []),
            ("bench", "p_values", [0]),
            ("bench", "mechanism", "mala"),
            ("bench", "repetitions", 0),
            ("em-fit", "gmm_structure", "banana"),
            ("tikhonov", "boundary", "zero"),
            ("deblur", "reg_matrix", "tv"),
            ("oned", "histogram_bins", 0),
            ("oned", "histogram_range", [1.0, -1.0]),
            ("deblur", "n_ens", 60),  # more than the default prior_pool of 50
            ("tikhonov", "blur_width", 4),
            ("oned", "serial_proposal_variance", -2.0),
            ("deblur", "parallel_proposal_scale", 0.0),
            ("oned", "observation_variance", -2),
            ("tikhonov", "blur_sigma", 0),
            ("deblur", "noise_level", -0.1),
            ("tikhonov", "reg_epsilon", float("inf")),
            ("deblur", "prior_spread", "0.08"),
            ("deblur", "saturation", "no"),
            ("oned", "hmc_jitter", "no"),
            ("oned", "seed", "x"),
            ("oned", "seed", 1.5),
            ("oned", "observation", "abc"),
            ("oned", "observation", None),
            ("tikhonov", "image", 5),
            ("em-fit", "data", ["d.csv"]),
            ("oned", "workers", True),
            ("oned", "candidate_components", [True, 2]),
            ("em-fit", "workers", 0),
        ],
        ids=["n_samples", "hmc_steps", "stride", "burn_in", "candidate_components",
             "workers", "n_ens", "n_ens_string", "alpha_grid_count",
             "candidate_components_shape", "p_values_empty", "p_values_zero", "mechanism",
             "repetitions", "gmm_structure", "boundary", "reg_matrix", "histogram_bins",
             "histogram_range", "n_ens_over_prior_pool", "blur_width",
             "serial_proposal_variance", "parallel_proposal_scale",
             "observation_variance", "blur_sigma", "noise_level", "reg_epsilon_inf",
             "prior_spread_string", "saturation_string", "hmc_jitter_string", "seed_string",
             "seed_float", "observation_string", "observation_null", "image_number",
             "data_list", "workers_bool", "candidate_components_bool", "em_fit_workers"],
    )
    def test_out_of_range_exit_code(self, tmp_path, capsys, kind, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = cli_main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected before the run wrote anything

    @pytest.mark.parametrize(
        "text",
        ["1.0,2.0\n3.0,x\n", "1.0,2.0\n3.0\n", "", "1.0,2.0\nnan,3.0\n", "1.0,2.0\ninf,3.0\n"],
        ids=["non_numeric", "ragged", "empty", "nan", "inf"],
    )
    def test_em_fit_bad_data_exit_code(self, tmp_path, capsys, text):
        data_path = tmp_path / "bad_data.csv"
        data_path.write_text(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_path), "candidate_components": [1, 2]}))
        code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(data_path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, doc, named",
        [
            ("oned", {"n_ens_prior": 3, "candidate_components": [4, 5]}, "n_ens_prior"),
            ("bench", {"n_ens_prior": 3, "candidate_components": [4, 5]}, "n_ens_prior"),
            ("deblur", {"n_ens": 2, "candidate_components": [3, 3]}, "n_ens"),
            ("em-fit", {"candidate_components": [3, 4]}, "d.csv"),
        ],
        ids=["oned", "bench", "deblur", "em-fit"],
    )
    def test_too_few_samples_exit_code(self, tmp_path, capsys, kind, doc, named):
        # Fewer ensemble members than the smallest candidate component count.
        data_path = tmp_path / "d.csv"
        data_path.write_text("1.0,2.0\n3.0,4.0\n")
        if kind == "em-fit":
            doc = {**doc, "data": str(data_path)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = cli_main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "candidate_components" in err
        assert not (tmp_path / "o").exists()

    def test_bench_procs_zero_exit_code(self, tmp_path, capsys):
        code = cli_main(["bench", "--procs", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "p_values" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tikhonov"])
    def test_procs_offered_only_with_a_pool(self, tmp_path, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            cli_main([kind, "--help"])
        assert exc.value.code == 0
        assert "--procs" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli_main([kind, "--procs", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_balance_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["oned", "--balance", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "kind, config, stream",
        [
            ("oned", small_oned_config(n_ens_prior=200, candidate_components=[2, 4]), 1),
            ("deblur", small_deblur_config(), 0),
        ],
    )
    def test_failed_chain_exit_code(self, tmp_path, capsys, monkeypatch, kind, config, stream):
        from csample import mc_scheduler

        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain, **budget):
            if chain.stream_id == stream:
                raise FloatingPointError("injected fault")
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli_main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"chain of component {stream} failed" in err
        assert "injected fault" in err

    def test_failed_serial_chain_exit_code(self, tmp_path, capsys, monkeypatch):
        from csample import mc_scheduler
        from csample.experiments import STREAM_SERIAL_HMC

        original = mc_scheduler.run_chain

        def failing_run_chain(model, chain, **budget):
            if chain.stream_id == STREAM_SERIAL_HMC:
                raise FloatingPointError("injected fault")
            return original(model, chain, **budget)

        monkeypatch.setattr(mc_scheduler, "run_chain", failing_run_chain)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_oned_config(n_ens_prior=200,
                                                         candidate_components=[2, 4])))
        code = cli_main(["oned", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"chain of stream {STREAM_SERIAL_HMC} failed" in err
        assert "injected fault" in err

    def test_em_fits_at_their_cap_are_flagged(self, tmp_path, monkeypatch):
        # Every fit stops after two maps. One component can converge in two,
        # so the candidates start at two.
        from csample import gmm

        def capped_fit(points, centers, structure, rng, max_iter, rel_tol):
            return gmm._em_single(points, centers, structure, rng, 2, rel_tol)

        monkeypatch.setattr(gmm, "_fit_task", capped_fit)
        rng = np.random.default_rng(9)
        centers = np.array([[-3.0, 0.0], [2.0, 2.0], [2.0, -3.0]])
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.concatenate([c + rng.standard_normal((60, 2)) for c in centers]),
                   delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_path), "candidate_components": [2, 4]}))
        out = tmp_path / "o"
        code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(out),
                         "--procs", "1"])
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["em"]["fits"] == 15
        assert doc["em"]["unconverged"] == doc["em"]["fits"]
        assert [(row["n_iter"], row["converged"]) for row in doc["aic"]] == [(2, False)] * 3

    def test_raising_operator_exit_code(self, tmp_path, capsys, monkeypatch):
        # Only the HMC chain's gradient applies the adjoint Jacobian, and the
        # chains run before the Tikhonov baseline.
        from csample.forward_models import GaussianBlurOperator

        def raising(self, x, v):
            raise FloatingPointError("injected adjoint fault")

        monkeypatch.setattr(GaussianBlurOperator, "adjoint_jacobian_apply", raising)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_deblur_config()))
        code = cli_main(["deblur", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--procs", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "chain of component 0 failed" in err
        assert "injected adjoint fault" in err

    def test_non_spd_covariance_exit_code(self, tmp_path, capsys, monkeypatch):
        # Every covariance stack an EM fit factors fails at pivot 1: each
        # candidate is skipped, the last error reaches the CLI, and it exits 3.
        from csample import gmm

        def non_spd(stack):
            raise NotPositiveDefinite(1, "matrix 0 is not positive definite (pivot 1)")

        monkeypatch.setattr(gmm, "cholesky_stack", non_spd)
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.random.default_rng(6).standard_normal((60, 2)), delimiter=",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(data_path), "candidate_components": [1, 2]}))
        code = cli_main(["em-fit", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--procs", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "pivot 1" in err
