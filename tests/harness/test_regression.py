"""Calibration regression-snapshot tests."""

import json

import pytest

from repro.harness.regression import (RegressionReport,
                                      collect_headline_metrics,
                                      compare_to_snapshot, save_snapshot)
from repro.harness.sensitivity import sweep_specs


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


class TestBenchGrid:
    def test_grid_is_the_fig12_threads_sweep(self):
        specs = sweep_specs("fig12", iterations=1)
        # Six thread points x five transfer modes x one iteration.
        assert len(specs) == 30
        assert len({spec.threads for spec in specs}) == 6
        assert len({spec.mode for spec in specs}) == 5
        assert len(sweep_specs("fig12", iterations=3)) == 90


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
