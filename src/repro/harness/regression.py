"""Regression snapshots: calibration metrics and perf trajectories.

Two families of snapshot live here:

* **Calibration snapshots** (:func:`save_snapshot` /
  :func:`compare_to_snapshot`): re-tuning a constant in
  ``repro.sim.calibration`` can silently move a figure, so the
  headline metrics (geomean improvements, anomaly orderings, counter
  deltas) snapshot to JSON and later runs compare against them with
  per-metric tolerances.

* **Perf trajectories** (``repro bench``): schema'd ``BENCH_*.json``
  snapshots of per-engine cold/warm grid timings in
  ``benchmarks/results/``, compared *statistically* — bootstrap
  confidence intervals on the mean of each (engine, phase) timing
  series; a regression is a non-overlapping CI pair where the current
  run is slower.  Every perf PR lands on a tracked trajectory instead
  of a single hand-run ``engine_speedup.txt`` number.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.configs import ALL_MODES, TransferMode
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


# ======================================================================
# Perf-trajectory benchmarking (``repro bench``)
# ======================================================================
BENCH_VERSION = 1
BENCH_PREFIX = "BENCH_"
#: Default engine on the trajectory; ``reference`` is opt-in (slow).
DEFAULT_BENCH_ENGINES: Tuple[str, ...] = ("vector",)
DEFAULT_BENCH_REPEATS = 5
DEFAULT_BENCH_ITERATIONS = 10
#: Where snapshots land, relative to the invocation root.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
#: Bootstrap resamples for the CI comparison.
DEFAULT_BOOTSTRAP_DRAWS = 4000
BOOTSTRAP_SEED = 20260807


#: Sensitivity grids the trajectory can measure; ``fig12`` is the
#: canonical default every committed snapshot uses.
BENCH_GRIDS: Tuple[str, ...] = ("fig12", "fig11", "fig13")
DEFAULT_BENCH_GRID = "fig12"


def _bench_grid_points(grid: str) -> Tuple[str, List[Dict]]:
    """Per-grid sweep points as ``expand_grid`` override dicts.

    Returns ``(figure_label, points)``; each point dict carries the
    coordinate that varies along that figure's sensitivity axis, with
    the paper's fixed coordinates for the others.
    """
    from .sensitivity import (BLOCK_SWEEP, CARVEOUT_SWEEP_KB,
                              THREAD_SWEEP, THREAD_SWEEP_BLOCKS)
    if grid == "fig12":
        return "fig12-threads", [
            {"blocks": THREAD_SWEEP_BLOCKS, "threads": threads}
            for threads in THREAD_SWEEP]
    if grid == "fig11":
        return "fig11-blocks", [
            {"blocks": blocks, "threads": 256} for blocks in BLOCK_SWEEP]
    if grid == "fig13":
        return "fig13-carveout", [
            {"smem_carveout_bytes": kb * 1024} for kb in CARVEOUT_SWEEP_KB]
    raise ValueError(f"unknown bench grid {grid!r}; "
                     f"choose from {BENCH_GRIDS}")


def bench_grid_specs(iterations: int = DEFAULT_BENCH_ITERATIONS,
                     base_seed: int = 1234,
                     grid: str = DEFAULT_BENCH_GRID) -> List:
    """One sensitivity-figure grid as an executor spec list.

    The default is the canonical bench grid — the Fig. 12 threads
    sweep: ``vector_seq`` @ large, 64 blocks, threads swept over the
    paper's six points, all five transfer modes — the same specs
    :func:`repro.harness.sensitivity.threads_sensitivity` runs, so the
    trajectory measures exactly what the figure CLIs pay for.
    ``grid`` selects the Fig. 11 blocks sweep or the Fig. 13 carveout
    sweep instead (``repro bench --grid``).
    """
    from .executor import expand_grid
    from .sensitivity import SWEEP_SEED_SALT, SWEEP_WORKLOAD
    _, points = _bench_grid_points(grid)
    specs = []
    for overrides in points:
        specs.extend(expand_grid(
            [SWEEP_WORKLOAD], [SizeClass.LARGE], ALL_MODES,
            iterations=iterations, base_seed=base_seed,
            seed_salt=SWEEP_SEED_SALT, **overrides))
    return specs


def _clear_sim_caches() -> None:
    """Reset every simulation-level cache a cold measurement must pay.

    The SeedSequence memo intentionally survives: it caches pure
    seeding *arithmetic*, not simulation state, and every engine is
    measured under the identical protocol.
    """
    from .executor import clear_program_memo
    from ..sim.phasecache import clear_phase_memos
    clear_phase_memos()
    clear_program_memo()


def measure_engine(engine: str, specs: Sequence,
                   repeats: int = DEFAULT_BENCH_REPEATS) -> Dict:
    """Cold/warm wall-time samples for one engine over one spec list.

    Protocol: one untimed warm-up sweep (imports, allocator churn, the
    seed memo), then ``repeats`` x (clear sim caches -> timed cold
    sweep -> timed warm sweep).  No result cache and no journal: the
    samples time simulation, not disk.

    Besides the timing series, the sample dict carries a ``fusion``
    section (family fused/reroute counts, per-rule reroute tallies)
    from the executor's last cold sweep, so every ``BENCH_*.json``
    records *how* the vector engine earned its timings.
    """
    from .executor import SweepExecutor
    executor = SweepExecutor(jobs=1, engine=engine)
    _clear_sim_caches()
    executor.run(specs)  # warm-up, untimed
    cold: List[float] = []
    warm: List[float] = []
    for _ in range(repeats):
        _clear_sim_caches()
        started = time.perf_counter()
        executor.run(specs)
        cold.append(time.perf_counter() - started)
        stats = executor.last  # cold-sweep fusion accounting
        started = time.perf_counter()
        executor.run(specs)
        warm.append(time.perf_counter() - started)
    return {"cold_s": cold, "warm_s": warm,
            "fusion": {"families_fused": stats.families_fused,
                       "families_rerouted": stats.families_rerouted,
                       "reroute_rules": dict(stats.reroute_rules)}}


def bench_environment() -> Dict:
    """The environment fingerprint a trajectory is only comparable within."""
    from .executor import environment_fingerprint
    return {
        "fingerprint": environment_fingerprint(None, None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def collect_bench(engines: Sequence[str] = DEFAULT_BENCH_ENGINES,
                  repeats: int = DEFAULT_BENCH_REPEATS,
                  iterations: int = DEFAULT_BENCH_ITERATIONS,
                  base_seed: int = 1234,
                  grid: str = DEFAULT_BENCH_GRID) -> Dict:
    """Measure one bench grid on every engine; return one snapshot payload."""
    from .sensitivity import SWEEP_WORKLOAD
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    figure, points = _bench_grid_points(grid)
    specs = bench_grid_specs(iterations=iterations, base_seed=base_seed,
                             grid=grid)
    # The swept coordinate, flattened for the snapshot: fig12 varies
    # threads, fig11 blocks, fig13 the carveout.
    axis_key = ("threads" if grid == "fig12" else
                "blocks" if grid == "fig11" else "smem_carveout_bytes")
    payload: Dict = {
        "version": BENCH_VERSION,
        "kind": "perf-trajectory",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "grid": {
            "figure": figure,
            "workload": SWEEP_WORKLOAD,
            "size": SizeClass.LARGE.label,
            "axis": axis_key,
            "points": [point[axis_key] for point in points],
            "modes": [mode.value for mode in ALL_MODES],
            "iterations": iterations,
            "base_seed": base_seed,
            "specs": len(specs),
        },
        "protocol": {"repeats": repeats, "warmup_runs": 1,
                     "timer": "time.perf_counter"},
        "environment": bench_environment(),
        "engines": {},
    }
    for engine in engines:
        payload["engines"][engine] = measure_engine(engine, specs,
                                                    repeats=repeats)
    return payload


def validate_bench(payload: Dict) -> None:
    """Schema check; raises ``ValueError`` with the offending path."""
    if payload.get("version") != BENCH_VERSION:
        raise ValueError(f"bench version {payload.get('version')!r} != "
                         f"{BENCH_VERSION}")
    if payload.get("kind") != "perf-trajectory":
        raise ValueError(f"bench kind {payload.get('kind')!r}")
    for section in ("grid", "protocol", "environment", "engines"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"bench snapshot missing section {section!r}")
    if not payload["engines"]:
        raise ValueError("bench snapshot has no engine samples")
    for engine, samples in payload["engines"].items():
        for phase in ("cold_s", "warm_s"):
            series = samples.get(phase)
            if (not isinstance(series, list) or not series
                    or not all(isinstance(value, (int, float))
                               and value > 0 for value in series)):
                raise ValueError(
                    f"engines.{engine}.{phase} must be a non-empty list "
                    "of positive seconds")


def save_bench(payload: Dict,
               results_dir: Union[str, Path] = DEFAULT_RESULTS_DIR) -> Path:
    """Write one validated snapshot as the next ``BENCH_NNNN_*.json``.

    Names are ``BENCH_<seq>_<envhash>.json``: the sequence number keeps
    the trajectory totally ordered even across clock skew; the short
    environment hash makes cross-machine mixing visible at a glance.
    """
    validate_bench(payload)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    sequence = 0
    for existing in results_dir.glob(f"{BENCH_PREFIX}*.json"):
        token = existing.name[len(BENCH_PREFIX):].split("_", 1)[0]
        if token.isdigit():
            sequence = max(sequence, int(token))
    env_hash = payload["environment"].get("fingerprint", "")[:8] or "unknown"
    path = results_dir / f"{BENCH_PREFIX}{sequence + 1:04d}_{env_hash}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, Path]) -> Dict:
    payload = json.loads(Path(path).read_text())
    validate_bench(payload)
    return payload


def latest_bench(results_dir: Union[str, Path] = DEFAULT_RESULTS_DIR
                 ) -> Optional[Path]:
    """The newest snapshot on the trajectory (by sequence number)."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        return None
    best: Optional[Tuple[int, str, Path]] = None
    for path in results_dir.glob(f"{BENCH_PREFIX}*.json"):
        token = path.name[len(BENCH_PREFIX):].split("_", 1)[0]
        if not token.isdigit():
            continue
        candidate = (int(token), path.name, path)
        if best is None or candidate > best:
            best = candidate
    return best[2] if best else None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def bootstrap_mean_ci(samples: Sequence[float],
                      draws: int = DEFAULT_BOOTSTRAP_DRAWS,
                      seed: int = BOOTSTRAP_SEED,
                      confidence: float = 0.95) -> Tuple[float, float]:
    """Seeded bootstrap CI for the mean of a small timing series.

    Percentile bootstrap: resample with replacement ``draws`` times,
    take the means, return the (lower, upper) percentile band.  With a
    single sample the CI degenerates to that point — the comparison
    then only fails on a literal ordering inversion.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty series")
    if values.size == 1:
        return float(values[0]), float(values[0])
    rng = np.random.default_rng(seed)
    resamples = rng.integers(0, values.size, size=(draws, values.size))
    means = values[resamples].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(means, (tail, 1.0 - tail))
    return float(lower), float(upper)


@dataclass
class BenchComparison:
    """One (engine, phase) leg of a trajectory comparison."""

    engine: str
    phase: str                 # "cold" or "warm"
    baseline_mean: float
    current_mean: float
    baseline_ci: Tuple[float, float]
    current_ci: Tuple[float, float]

    @property
    def overlap(self) -> bool:
        return (self.current_ci[0] <= self.baseline_ci[1]
                and self.baseline_ci[0] <= self.current_ci[1])

    @property
    def regressed(self) -> bool:
        """Statistically slower: CIs disjoint *and* current is worse."""
        return not self.overlap and self.current_mean > self.baseline_mean

    @property
    def improved(self) -> bool:
        return not self.overlap and self.current_mean < self.baseline_mean

    def render(self) -> str:
        verdict = ("REGRESSED" if self.regressed
                   else "improved" if self.improved else "ok")
        ratio = self.current_mean / self.baseline_mean
        return (f"{self.engine}/{self.phase}: {self.current_mean * 1e3:.1f}ms"
                f" vs baseline {self.baseline_mean * 1e3:.1f}ms"
                f" (x{ratio:.2f}, CI [{self.current_ci[0] * 1e3:.1f},"
                f" {self.current_ci[1] * 1e3:.1f}]ms vs"
                f" [{self.baseline_ci[0] * 1e3:.1f},"
                f" {self.baseline_ci[1] * 1e3:.1f}]ms) {verdict}")


@dataclass
class BenchReport:
    """Outcome of ``repro bench --check``."""

    comparisons: List[BenchComparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(entry.regressed for entry in self.comparisons)

    def render(self) -> str:
        lines = [entry.render() for entry in self.comparisons]
        lines.extend(self.notes)
        regressed = sum(1 for c in self.comparisons if c.regressed)
        if not self.comparisons:
            lines.append("perf trajectory: nothing comparable")
        elif regressed:
            lines.append(f"perf trajectory: {regressed} of "
                         f"{len(self.comparisons)} legs REGRESSED")
        else:
            lines.append(f"perf trajectory: {len(self.comparisons)} legs "
                         "within statistical noise or improved")
        return "\n".join(lines)


def compare_bench(current: Dict, baseline: Dict,
                  draws: int = DEFAULT_BOOTSTRAP_DRAWS,
                  seed: int = BOOTSTRAP_SEED) -> BenchReport:
    """Statistically compare two snapshots, engine by engine.

    A leg regresses when the bootstrap CIs of its mean timing do not
    overlap *and* the current mean is slower — simple noise widens the
    CIs and keeps the gate quiet; a genuine slowdown separates them.
    Environment mismatches don't fail the gate (CI machines vary) but
    are surfaced as notes.
    """
    validate_bench(current)
    validate_bench(baseline)
    report = BenchReport()
    if (current["environment"].get("fingerprint")
            != baseline["environment"].get("fingerprint")):
        report.notes.append(
            "note: environment fingerprints differ; comparison is "
            "advisory only on a changed simulation model")
    if current["grid"] != baseline["grid"]:
        report.notes.append(
            "note: bench grids differ; legs compare only where both "
            "snapshots measured the same engine")
    for engine, samples in sorted(current["engines"].items()):
        reference = baseline["engines"].get(engine)
        if reference is None:
            report.notes.append(f"note: engine {engine!r} has no "
                                "baseline samples; skipped")
            continue
        for phase in ("cold", "warm"):
            series = samples[f"{phase}_s"]
            base_series = reference[f"{phase}_s"]
            report.comparisons.append(BenchComparison(
                engine=engine, phase=phase,
                baseline_mean=_mean(base_series),
                current_mean=_mean(series),
                baseline_ci=bootstrap_mean_ci(base_series, draws=draws,
                                              seed=seed),
                current_ci=bootstrap_mean_ci(series, draws=draws,
                                             seed=seed)))
    return report


def render_bench(payload: Dict) -> str:
    """Human summary of one snapshot (the non-``--check`` output)."""
    grid = payload["grid"]
    lines = [f"bench grid: {grid['figure']} ({grid['specs']} specs, "
             f"{grid['iterations']} iterations, "
             f"{payload['protocol']['repeats']} repeats)"]
    for engine, samples in sorted(payload["engines"].items()):
        line = (
            f"  {engine:<9} cold {_mean(samples['cold_s']) * 1e3:8.1f}ms"
            f"   warm {_mean(samples['warm_s']) * 1e3:8.1f}ms")
        fusion = samples.get("fusion") or {}
        if fusion.get("families_fused") or fusion.get("families_rerouted"):
            rules = ", ".join(
                f"{rule}:{count}" for rule, count
                in sorted(fusion.get("reroute_rules", {}).items()))
            line += (f"   [{fusion['families_fused']} families fused, "
                     f"{fusion['families_rerouted']} rerouted"
                     + (f" ({rules})" if rules else "") + "]")
        lines.append(line)
    return "\n".join(lines)
