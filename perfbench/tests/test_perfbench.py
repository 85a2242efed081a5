"""Tests of the benchmark's own code: tracer arithmetic, metric names,
output checks and failure accounting."""

import json
import re

import numpy as np
import pytest

from perfbench import checks, metrics, run
from perfbench.tracer import Tracer, patch_everywhere

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestTracer:
    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer(clock=scripted_clock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
        tracer.enter("outer")
        tracer.enter("inner")  # 2 .. 5
        tracer.exit()
        tracer.enter("inner")  # 6 .. 7
        tracer.exit()
        tracer.exit()
        outer, inner = tracer.aggregates["outer"], tracer.aggregates["inner"]
        assert (outer.count, outer.total_s, outer.self_s) == (1, 10.0, 6.0)
        assert (inner.count, inner.total_s, inner.self_s) == (2, 4.0, 4.0)

    def test_recursive_span_total_counted_once(self):
        tracer = Tracer(clock=scripted_clock(0.0, 2.0, 5.0, 10.0))
        tracer.enter("apply")
        tracer.enter("apply")
        tracer.exit()
        tracer.exit()
        agg = tracer.aggregates["apply"]
        assert (agg.count, agg.total_s, agg.self_s) == (2, 10.0, 10.0)

    def test_wrapped_nested_call_and_observer(self):
        tracer = Tracer(clock=scripted_clock(0.0, 1.0, 4.0, 9.0))
        seen = []
        inner = tracer.wrap("inner", lambda x: x + 1, lambda t, a, k, r: seen.append(r))
        outer = tracer.wrap("outer", lambda x: 2 * inner(x))
        assert outer(3) == 8
        assert seen == [4]
        assert tracer.aggregates["outer"].self_s == 6.0
        assert tracer.aggregates["inner"].self_s == 3.0

    def test_wrapper_closes_span_on_error(self):
        tracer = Tracer(clock=scripted_clock(0.0, 1.0))

        def fails():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap("f", fails)()
        assert tracer.aggregates["f"].count == 1 and not tracer._stack

    def test_patch_everywhere_replaces_aliases(self):
        import types

        owner = types.SimpleNamespace(f=len)
        alias = types.ModuleType("alias")
        alias.g = len
        original = patch_everywhere([alias], owner, "f", abs)
        assert original is len and owner.f is abs and alias.g is abs


class TestMetricNames:
    def test_declared_names_and_units(self):
        declared = metrics.BENCHMARK["end_to_end"] + metrics.BENCHMARK["per_layer"]
        names = [m["name"] for m in declared]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for unit in metrics.UNITS.values():
            assert UNIT.fullmatch(unit), unit

    def test_end_to_end_reports_every_metric(self):
        report = {"wall_s": 2.0, "setup_s": 0.3, "rss_kb": 2048, "worker_rss_kb": 1024}
        reported = metrics.end_to_end([report], [0.25, 0.35], 1, 0)
        assert set(reported) == {m["name"] for m in metrics.BENCHMARK["end_to_end"]}
        assert reported["setup_s"] == 0.3 and reported["peak_rss_mb"] == 2.0

    def test_per_layer_reports_every_metric(self):
        artifacts, _ = run.artifact_metrics("emfit", {"problems": ["failed"]})
        empty = {"aggregates": {}, "counters": {}, "observations": {}}
        reported = metrics.per_layer(empty, artifacts, 1.0, 1.0, None)
        assert set(reported) == {m["name"] for m in metrics.BENCHMARK["per_layer"]}


def write_samples(path, rows):
    path.write_text("x0,weight\n" + "\n".join(f"{x!r},{w!r}" for x, w in rows) + "\n")


class TestChecks:
    def test_samples_with_nan_or_bad_weights_fail(self, tmp_path):
        good = tmp_path / "good.csv"
        write_samples(good, [(0.5, 0.25), (1.5, 0.75)])
        assert checks.samples_problems(good) == []
        nan = tmp_path / "nan.csv"
        write_samples(nan, [(float("nan"), 0.25), (1.5, 0.75)])
        assert checks.samples_problems(nan)
        light = tmp_path / "light.csv"
        write_samples(light, [(0.5, 0.25), (1.5, 0.5)])
        assert checks.samples_problems(light)

    def test_corrupted_mixture_json_fails(self, tmp_path):
        from csample.gmm import GaussianMixture
        from csample.linalg_rng import SpdMatrix

        mixture = GaussianMixture([0.5, 0.5], [[0.0], [1.0]],
                                  [SpdMatrix.from_dense([[1.0]])] * 2, structure="full")
        doc = mixture.to_json_dict()
        (tmp_path / "gmm.json").write_text(json.dumps(doc))
        stdout = json.dumps({"out": str(tmp_path), "manifest": ["gmm.json"]})
        assert checks.check_emfit(tmp_path, stdout) == []
        doc["weights"] = [0.5, 0.6]
        (tmp_path / "gmm.json").write_text(json.dumps(doc))
        assert checks.check_emfit(tmp_path, stdout)
        (tmp_path / "gmm.json").write_text(json.dumps(doc)[:20])
        assert checks.check_emfit(tmp_path, stdout)

    def test_oned_acceptance_bands(self, tmp_path):
        names = ["serial_gaussian", "parallel_gaussian", "serial_hmc", "parallel_hmc"]
        for name in names:
            write_samples(tmp_path / f"samples_{name}.csv", [(0.5, 1.0)])
        stdout = json.dumps({"manifest": [f"samples_{name}.csv" for name in names]})

        def problems(**rates):
            acceptance = {"serial_gaussian": 0.46, "parallel_gaussian": 0.82,
                          "serial_hmc": 0.98, "parallel_hmc": 1.0, **rates}
            (tmp_path / "summary.json").write_text(json.dumps({"acceptance": acceptance}))
            return checks.check_oned(tmp_path, stdout)

        assert problems() == []
        assert problems(serial_hmc=0.87) == []  # a rough fit's serial chain
        assert problems(serial_hmc=0.40)
        assert problems(parallel_hmc=0.85)
        assert problems(parallel_gaussian=0.60)
        assert problems(serial_gaussian=0.65)

    def test_deblur_error_above_noisy_input_fails(self, tmp_path):
        errors = {"noisy_input": 0.12, "posterior_mean": 0.13, "tikhonov": 0.06}
        (tmp_path / "summary.json").write_text(json.dumps({"relative_errors": errors}))
        for name in ("samples_parallel_hmc.csv", "samples_parallel_gaussian.csv"):
            write_samples(tmp_path / name, [(0.5, 1.0)])
        stdout = json.dumps({"manifest": ["summary.json", "posterior_mean.pgm"]})
        problems = checks.check_deblur(tmp_path, stdout)
        assert any("posterior_mean" in p for p in problems)
        assert any("posterior_mean.pgm missing" in p for p in problems)

    def test_determinism_detects_changed_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d, text in ((a, "1.0\n"), (b, "1.0000000000000002\n")):
            d.mkdir()
            (d / "s.csv").write_text(text)
        assert checks.determinism_problems(a, b, ["s.csv"])
        assert checks.determinism_problems(a, a, ["s.csv"]) == []

    def test_per_point_loglik_of_standard_normal(self):
        from csample.gmm import GaussianMixture
        from csample.linalg_rng import SpdMatrix

        mixture = GaussianMixture([1.0], [[0.0]], [SpdMatrix.from_dense([[1.0]])])
        value = checks.per_point_loglik(mixture, np.array([[0.0], [0.0]]))
        assert value == pytest.approx(-0.5 * np.log(2.0 * np.pi))


def test_missing_image_counts_as_failed_with_exit_code_4(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "write_inputs", lambda *args: {"image": tmp_path / "missing.pgm"})
    invocation = run.Invocation("deblur", 3, 1.0, False, work_root=tmp_path)
    invocation.work.mkdir(parents=True)
    record = invocation.run_once("timed-0", 3, run.TIMED_WORKERS)
    assert record["rc"] == 4
    assert record["problems"] and record["problems"][0].startswith("exit code 4")
