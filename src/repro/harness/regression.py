"""Calibration regression snapshots.

Re-tuning a constant in ``repro.sim.calibration`` can silently move a
figure, so the headline metrics (geomean improvements, anomaly
orderings, counter deltas) snapshot to JSON (:func:`save_snapshot`)
and later runs compare against them with per-metric tolerances
(:func:`compare_to_snapshot`).  ``benchmarks/reference_snapshot.json``
is the committed snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.configs import TransferMode
from ..workloads.sizes import SizeClass
from .figures import comparison_sweep, counter_sweep, geomean_improvements
from ..workloads.registry import APP_NAMES, MICRO_NAMES

SNAPSHOT_VERSION = 1

# Percentage-point tolerance for geomean improvements; relative
# tolerance for counter ratios.
DEFAULT_TOLERANCE_PTS = 3.0
DEFAULT_TOLERANCE_REL = 0.10


def collect_headline_metrics(iterations: int = 5,
                             base_seed: int = 1234) -> Dict:
    """The numbers EXPERIMENTS.md quotes, as one flat dict."""
    micro = comparison_sweep(MICRO_NAMES, SizeClass.SUPER,
                             iterations=iterations, base_seed=base_seed)
    apps = comparison_sweep(APP_NAMES, SizeClass.SUPER,
                            iterations=max(2, iterations // 2),
                            base_seed=base_seed)
    counters = counter_sweep(base_seed=base_seed)

    metrics: Dict[str, float] = {}
    for label, sweep in (("micro", micro), ("apps", apps)):
        for mode, value in geomean_improvements(sweep).items():
            metrics[f"{label}.improvement.{mode}"] = value
    for name in ("lud", "nw", "yolov3"):
        for mode in TransferMode:
            metrics[f"anomaly.{name}.{mode.value}"] = \
                apps[name].normalized_total(mode)
    gemm = counters["gemm"]
    metrics["counters.gemm.async_control_ratio"] = \
        gemm["async"]["control"] / gemm["standard"]["control"]
    lud = counters["lud"]
    metrics["counters.lud.async_load_miss_ratio"] = \
        lud["async"]["load_miss"] / lud["standard"]["load_miss"]
    metrics["counters.lud.async_store_miss_ratio"] = \
        lud["async"]["store_miss"] / lud["standard"]["store_miss"]
    return metrics


def save_snapshot(path: Union[str, Path], metrics: Optional[Dict] = None,
                  iterations: int = 5) -> Path:
    """Write the current headline metrics to ``path``."""
    path = Path(path)
    metrics = metrics if metrics is not None \
        else collect_headline_metrics(iterations=iterations)
    payload = {"version": SNAPSHOT_VERSION, "metrics": metrics}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


@dataclass
class RegressionReport:
    """Outcome of comparing current metrics to a snapshot."""

    passed: bool
    violations: List[str] = field(default_factory=list)
    compared: int = 0

    def render(self) -> str:
        if self.passed:
            return (f"calibration regression check: {self.compared} "
                    "metrics within tolerance")
        lines = [f"calibration regression check FAILED "
                 f"({len(self.violations)} of {self.compared}):"]
        lines += [f"  {violation}" for violation in self.violations]
        return "\n".join(lines)


def compare_to_snapshot(path: Union[str, Path],
                        metrics: Optional[Dict] = None,
                        iterations: int = 5,
                        tolerance_pts: float = DEFAULT_TOLERANCE_PTS,
                        tolerance_rel: float = DEFAULT_TOLERANCE_REL
                        ) -> RegressionReport:
    """Compare current metrics against a saved snapshot.

    Improvement metrics (percent) compare within ``tolerance_pts``
    points; ratio metrics within ``tolerance_rel`` relative.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {payload.get('version')!r} != "
            f"{SNAPSHOT_VERSION}")
    reference: Dict[str, float] = payload["metrics"]
    metrics = metrics if metrics is not None \
        else collect_headline_metrics(iterations=iterations)

    violations: List[str] = []
    compared = 0
    for key, expected in reference.items():
        if key not in metrics:
            violations.append(f"{key}: missing from current run")
            continue
        actual = metrics[key]
        compared += 1
        if ".improvement." in key:
            if abs(actual - expected) > tolerance_pts:
                violations.append(
                    f"{key}: {actual:.2f} vs snapshot {expected:.2f} "
                    f"(> {tolerance_pts} pts)")
        else:
            scale = max(abs(expected), 1e-9)
            if abs(actual - expected) / scale > tolerance_rel:
                violations.append(
                    f"{key}: {actual:.4f} vs snapshot {expected:.4f} "
                    f"(> {tolerance_rel:.0%})")
    return RegressionReport(passed=not violations,
                            violations=violations, compared=compared)

