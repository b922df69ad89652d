"""Input-size search (Sec. 3.3's methodology, as a reusable tool).

The paper spends Sec. 3.3 choosing input sizes: large enough to
amortize the constant system overhead and capture config differences,
small enough to avoid host DRAM-chip spill noise. This module runs
that search for any workload: sweep the size classes, measure
stability and the config spread, and recommend the usable band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.configs import ALL_MODES
from ..core.stats import geomean
from ..workloads.registry import get_workload
from ..workloads.sizes import SizeClass
from .executor import (SweepExecutor, collect_comparisons, ensure_executor,
                       expand_grid)
from .report import render_table

# Sec. 3.3's working criteria.
MAX_STABLE_CV = 0.05          # run-to-run noise budget
MIN_CONFIG_SPREAD = 0.05      # configs must differ by >= 5 % to study


@dataclass(frozen=True)
class SizeAssessment:
    """One size class's suitability for the characterization study.

    ``complete=False`` marks a size whose sweep lost cells to failures
    (partial, non-strict executor): its metrics are NaN, it is never
    usable, and the renderer annotates it instead of hiding it.
    """

    size: str
    mean_total_ns: float
    cv: float
    config_spread: float       # (max - min) / min across the five configs
    stable: bool
    discriminative: bool
    complete: bool = True

    @property
    def usable(self) -> bool:
        return self.complete and self.stable and self.discriminative

    @classmethod
    def incomplete(cls, size: str) -> "SizeAssessment":
        nan = float("nan")
        return cls(size=size, mean_total_ns=nan, cv=nan, config_spread=nan,
                   stable=False, discriminative=False, complete=False)


def assess_sizes(workload: str,
                 sizes: Sequence[SizeClass] = SizeClass.ordered(),
                 iterations: int = 10,
                 base_seed: int = 1234,
                 executor: Optional[SweepExecutor] = None
                 ) -> List[SizeAssessment]:
    """Run the Sec. 3.3 search for one workload.

    Sizes the workload declines (`Workload.supports`, e.g. gemm at
    Mega where explicit allocation exceeds HBM) are skipped. All
    (size x mode x iteration) cells go through one executor pass.
    """
    subject = get_workload(workload)
    supported = [size for size in sizes if subject.supports(size)]
    specs = expand_grid((workload,), supported, ALL_MODES,
                        iterations=iterations, base_seed=base_seed)
    results = ensure_executor(executor).run_outcomes(specs).results
    comparisons = collect_comparisons(r for r in results if r is not None)
    assessments = []
    for size in supported:
        comparison = comparisons.get((workload, size.label))
        if comparison is None or any(
                mode not in comparison.by_mode
                or len(comparison.by_mode[mode]) < iterations
                for mode in ALL_MODES):
            # A partial sweep lost cells here: the stability and spread
            # criteria would be computed over a biased subsample, so
            # mark the size as an annotated gap instead.
            assessments.append(SizeAssessment.incomplete(size.label))
            continue
        cvs = [runs.cv() for runs in comparison.by_mode.values()]
        totals = [runs.mean_total_ns()
                  for runs in comparison.by_mode.values()]
        spread = (max(totals) - min(totals)) / min(totals)
        cv = geomean([max(value, 1e-9) for value in cvs])
        assessments.append(SizeAssessment(
            size=size.label,
            mean_total_ns=comparison.baseline().mean_total_ns(),
            cv=cv,
            config_spread=spread,
            stable=cv <= MAX_STABLE_CV,
            discriminative=spread >= MIN_CONFIG_SPREAD,
        ))
    return assessments


def recommend_sizes(assessments: Sequence[SizeAssessment]) -> List[str]:
    """The usable band (the paper lands on Large and Super)."""
    return [a.size for a in assessments if a.usable]


def render_size_search(workload: str,
                       assessments: Sequence[SizeAssessment]) -> str:
    """ASCII table of the size search plus the recommended band."""
    rows = []
    for a in assessments:
        if not a.complete:
            rows.append((a.size, "-", "-", "-", "no data (failed runs)"))
            continue
        verdict = "usable" if a.usable else (
            "noisy" if not a.stable else "indiscriminate")
        rows.append((a.size, f"{a.mean_total_ns / 1e6:.1f}",
                     f"{a.cv:.4f}", f"{a.config_spread:.3f}", verdict))
    text = render_table(
        ("size", "standard mean (ms)", "std/mean", "config spread",
         "verdict"), rows,
        title=f"Sec. 3.3 input-size search: {workload}")
    usable = recommend_sizes(assessments)
    text += "\nrecommended band: " + (", ".join(usable) if usable
                                      else "(none)")
    return text
