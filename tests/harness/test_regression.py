"""Calibration regression-snapshot and perf-trajectory bench tests."""

import json

import pytest

# `bench_grid_specs` is aliased: pytest's python_functions collects
# bare `bench_*` names as tests.
from repro.harness.regression import \
    bench_grid_specs as the_bench_grid_specs
from repro.harness.regression import (BenchComparison, BenchReport,
                                      RegressionReport,
                                      bootstrap_mean_ci, collect_bench,
                                      collect_headline_metrics, compare_bench,
                                      compare_to_snapshot, latest_bench,
                                      load_bench, render_bench, save_bench,
                                      save_snapshot, validate_bench)


@pytest.fixture(scope="module")
def metrics():
    return collect_headline_metrics(iterations=2)


class TestCollect:
    def test_headline_keys_present(self, metrics):
        assert "micro.improvement.uvm_prefetch" in metrics
        assert "apps.improvement.uvm_prefetch_async" in metrics
        assert "anomaly.nw.uvm_prefetch" in metrics
        assert "counters.gemm.async_control_ratio" in metrics

    def test_counter_ratios_in_paper_band(self, metrics):
        assert metrics["counters.gemm.async_control_ratio"] == \
            pytest.approx(1.40, abs=0.05)
        assert metrics["counters.lud.async_store_miss_ratio"] == \
            pytest.approx(0.30, abs=0.05)


class TestRoundTrip:
    def test_snapshot_compare_passes_against_itself(self, tmp_path,
                                                    metrics):
        path = save_snapshot(tmp_path / "ref.json", metrics=metrics)
        report = compare_to_snapshot(path, metrics=metrics)
        assert report.passed
        assert report.compared == len(metrics)
        assert "within tolerance" in report.render()

    def test_detects_drift(self, tmp_path, metrics):
        path = save_snapshot(tmp_path / "ref.json", metrics=metrics)
        drifted = dict(metrics)
        drifted["micro.improvement.uvm_prefetch"] += 10.0
        drifted["counters.lud.async_store_miss_ratio"] *= 2.0
        report = compare_to_snapshot(path, metrics=drifted)
        assert not report.passed
        assert len(report.violations) == 2
        assert "FAILED" in report.render()

    def test_detects_missing_metric(self, tmp_path, metrics):
        path = save_snapshot(tmp_path / "ref.json", metrics=metrics)
        partial = dict(metrics)
        partial.pop("anomaly.lud.async")
        report = compare_to_snapshot(path, metrics=partial)
        assert not report.passed
        assert any("missing" in violation
                   for violation in report.violations)

    def test_version_mismatch_rejected(self, tmp_path, metrics):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "metrics": {}}))
        with pytest.raises(ValueError, match="version"):
            compare_to_snapshot(path, metrics=metrics)


class TestReport:
    def test_empty_report_passes(self):
        report = RegressionReport(passed=True, compared=5)
        assert "5 metrics" in report.render()


# ======================================================================
# Perf-trajectory benchmarking (``repro bench``)
# ======================================================================
def fake_bench(engines=("reference", "vector"), fingerprint="f" * 40,
               scale=1.0, grid_extra=None):
    """A synthetic, schema-valid snapshot with controllable timings."""
    grid = {"figure": "fig12-threads", "specs": 30, "iterations": 1}
    grid.update(grid_extra or {})
    series = [1.00 * scale, 1.02 * scale, 0.98 * scale, 1.01 * scale]
    return {
        "version": 1,
        "kind": "perf-trajectory",
        "created_utc": "2026-08-07T00:00:00Z",
        "grid": grid,
        "protocol": {"repeats": 4, "warmup_runs": 1},
        "environment": {"fingerprint": fingerprint},
        "engines": {engine: {"cold_s": list(series),
                             "warm_s": [s / 2 for s in series]}
                    for engine in engines},
    }


class TestBenchGrid:
    def test_grid_is_the_fig12_threads_sweep(self):
        specs = the_bench_grid_specs(iterations=1)
        # Six thread points x five transfer modes x one iteration.
        assert len(specs) == 30
        assert len({spec.threads for spec in specs}) == 6
        assert len({spec.mode for spec in specs}) == 5
        assert len(the_bench_grid_specs(iterations=3)) == 90


class TestCollectBench:
    @pytest.fixture(scope="class")
    def payload(self):
        return collect_bench(repeats=2, iterations=1)

    def test_schema_and_series_shape(self, payload):
        validate_bench(payload)  # must not raise
        assert set(payload["engines"]) == {"vector"}  # the default
        for samples in payload["engines"].values():
            assert len(samples["cold_s"]) == 2
            assert len(samples["warm_s"]) == 2
        assert payload["grid"]["specs"] == 30

    def test_render_mentions_every_engine(self, payload):
        rendered = render_bench(payload)
        for engine in payload["engines"]:
            assert f"  {engine} " in rendered

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            collect_bench(repeats=0)


class TestBenchRoundTrip:
    def test_save_names_are_sequence_ordered(self, tmp_path):
        first = save_bench(fake_bench(), results_dir=tmp_path)
        second = save_bench(fake_bench(), results_dir=tmp_path)
        assert first.name.startswith("BENCH_0001_")
        assert second.name.startswith("BENCH_0002_")
        assert first.name.endswith(f"_{'f' * 8}.json")
        assert latest_bench(tmp_path) == second

    def test_load_roundtrip(self, tmp_path):
        payload = fake_bench()
        path = save_bench(payload, results_dir=tmp_path)
        assert load_bench(path) == payload

    def test_latest_ignores_foreign_files(self, tmp_path):
        assert latest_bench(tmp_path / "missing") is None
        (tmp_path / "BENCH_notanum_x.json").write_text("{}")
        assert latest_bench(tmp_path) is None
        path = save_bench(fake_bench(), results_dir=tmp_path)
        assert latest_bench(tmp_path) == path

    @pytest.mark.parametrize("mutate,match", [
        (lambda p: p.update(version=99), "version"),
        (lambda p: p.update(kind="calibration"), "kind"),
        (lambda p: p.pop("grid"), "grid"),
        (lambda p: p.update(engines={}), "no engine samples"),
        (lambda p: p["engines"]["vector"].update(cold_s=[]), "cold_s"),
        (lambda p: p["engines"]["vector"].update(warm_s=[0.1, -1.0]),
         "warm_s"),
    ])
    def test_validate_rejects_malformed(self, mutate, match):
        payload = fake_bench()
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_bench(payload)


class TestBootstrap:
    def test_deterministic_and_ordered(self):
        samples = [1.0, 1.2, 0.9, 1.1, 1.05]
        lower, upper = bootstrap_mean_ci(samples)
        assert (lower, upper) == bootstrap_mean_ci(samples)
        assert lower <= sum(samples) / len(samples) <= upper

    def test_single_sample_degenerates_to_point(self):
        assert bootstrap_mean_ci([2.5]) == (2.5, 2.5)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_mean_ci([])


class TestBenchComparisonLogic:
    @staticmethod
    def leg(baseline_ci, current_ci, baseline_mean=None,
            current_mean=None):
        return BenchComparison(
            engine="vector", phase="cold",
            baseline_mean=baseline_mean
            if baseline_mean is not None else sum(baseline_ci) / 2,
            current_mean=current_mean
            if current_mean is not None else sum(current_ci) / 2,
            baseline_ci=baseline_ci, current_ci=current_ci)

    def test_overlapping_cis_are_quiet(self):
        leg = self.leg((1.0, 2.0), (1.5, 2.5))
        assert leg.overlap and not leg.regressed and not leg.improved
        assert "ok" in leg.render()

    def test_disjoint_and_slower_regresses(self):
        leg = self.leg((1.0, 1.1), (2.0, 2.1))
        assert leg.regressed and not leg.improved
        assert "REGRESSED" in leg.render()

    def test_disjoint_and_faster_improves(self):
        leg = self.leg((2.0, 2.1), (1.0, 1.1))
        assert leg.improved and not leg.regressed
        assert "improved" in leg.render()


class TestCompareBench:
    def test_snapshot_vs_itself_passes(self):
        payload = fake_bench()
        report = compare_bench(payload, payload)
        assert report.passed
        assert len(report.comparisons) == 4  # 2 engines x cold/warm
        assert not report.notes
        assert "within statistical noise" in report.render()

    def test_slowdown_regresses(self):
        report = compare_bench(fake_bench(scale=10.0), fake_bench())
        assert not report.passed
        regressed = [c for c in report.comparisons if c.regressed]
        assert len(regressed) == 4
        assert "REGRESSED" in report.render()

    def test_speedup_is_not_a_regression(self):
        report = compare_bench(fake_bench(), fake_bench(scale=10.0))
        assert report.passed
        assert all(c.improved for c in report.comparisons)

    def test_missing_engine_is_a_note_not_a_failure(self):
        report = compare_bench(fake_bench(),
                               fake_bench(engines=("reference",)))
        assert report.passed
        assert any("vector" in note for note in report.notes)
        assert len(report.comparisons) == 2

    def test_environment_and_grid_mismatch_are_advisory(self):
        baseline = fake_bench()
        current = fake_bench(fingerprint="0" * 40,
                             grid_extra={"iterations": 2})
        report = compare_bench(current, baseline)
        assert report.passed
        assert any("fingerprint" in note for note in report.notes)
        assert any("grids differ" in note for note in report.notes)

    def test_vector_only_snapshot_against_committed_baseline(self):
        """The committed trajectory still carries legs of retired
        engines; a vector-only snapshot compares its vector legs only."""
        from pathlib import Path
        results = Path(__file__).parents[2] / "benchmarks" / "results"
        baseline = load_bench(next(results.glob("BENCH_0002_*.json")))
        assert set(baseline["engines"]) > {"vector"}
        current = json.loads(json.dumps(baseline))
        current["engines"] = {"vector": current["engines"]["vector"]}
        report = compare_bench(current, baseline)
        assert report.passed
        assert [(c.engine, c.phase) for c in report.comparisons] == [
            ("vector", "cold"), ("vector", "warm")]
        assert not report.notes

    def test_empty_report_renders(self):
        assert "nothing comparable" in BenchReport().render()


class TestCommittedSnapshot:
    """The repository ships a reference snapshot; the current tree must
    reproduce it (exact seeds -> tight tolerance)."""

    def test_tree_matches_committed_snapshot(self):
        from pathlib import Path
        path = Path(__file__).parents[2] / "benchmarks" / \
            "reference_snapshot.json"
        metrics = collect_headline_metrics(iterations=3)
        report = compare_to_snapshot(path, metrics=metrics,
                                     tolerance_pts=1.0,
                                     tolerance_rel=0.02)
        assert report.passed, report.render()
