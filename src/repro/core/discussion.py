"""Section 6.1 aggregates: where the time goes before/after optimizing.

The paper reports that across the application suite, moving from
``standard`` to ``uvm_prefetch_async``:

* the CPU-GPU transfer share of overall time drops (55.86 % -> 24.55 %),
* GPU occupancy (busy fraction) rises (25.15 % -> 37.79 %), and
* allocation becomes the dominant share (18.99 % -> 37.66 %),

which motivates the inter-job pipeline of
:mod:`repro.core.pipeline_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..workloads.registry import APP_NAMES
from ..workloads.sizes import SizeClass
from .configs import TransferMode
from .experiment import Experiment
from .stats import mean


@dataclass(frozen=True)
class ShareSummary:
    """Mean time shares and GPU busyness for one configuration."""

    mode: TransferMode
    memcpy_share: float
    allocation_share: float
    kernel_share: float
    gpu_busy: float

    def __post_init__(self) -> None:
        for name in ("memcpy_share", "allocation_share", "kernel_share",
                     "gpu_busy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} outside [0, 1]: {value}")


@dataclass(frozen=True)
class DiscussionSummary:
    """The Sec. 6.1 before/after pair."""

    standard: ShareSummary
    optimized: ShareSummary

    @property
    def transfer_share_drop(self) -> float:
        return self.standard.memcpy_share - self.optimized.memcpy_share

    @property
    def occupancy_gain(self) -> float:
        return self.optimized.gpu_busy - self.standard.gpu_busy

    @property
    def allocation_share_rise(self) -> float:
        return (self.optimized.allocation_share
                - self.standard.allocation_share)

    def render(self) -> str:
        rows = []
        for summary in (self.standard, self.optimized):
            rows.append(
                f"{summary.mode.value:>20}: transfer {summary.memcpy_share:6.2%}"
                f"  allocation {summary.allocation_share:6.2%}"
                f"  kernel {summary.kernel_share:6.2%}"
                f"  GPU busy {summary.gpu_busy:6.2%}")
        return "\n".join(rows)


def _mode_shares(mode: TransferMode, workloads: Sequence[str],
                 size: SizeClass, iterations: int,
                 base_seed: int) -> ShareSummary:
    memcpy, alloc, kernel, busy = [], [], [], []
    for name in workloads:
        runs = Experiment(workload=name, size=size, modes=(mode,),
                          iterations=iterations,
                          base_seed=base_seed).run_mode(mode)
        for run in runs.runs:
            memcpy.append(run.share("memcpy"))
            alloc.append(run.share("allocation"))
            kernel.append(run.share("gpu_kernel"))
            busy.append(run.gpu_busy_fraction)
    return ShareSummary(
        mode=mode,
        memcpy_share=mean(memcpy),
        allocation_share=mean(alloc),
        kernel_share=mean(kernel),
        gpu_busy=mean(busy),
    )


def section6_shares(workloads: Sequence[str] = APP_NAMES,
                    size: SizeClass = SizeClass.SUPER,
                    iterations: int = 3, base_seed: int = 1234,
                    optimized_mode: TransferMode =
                    TransferMode.UVM_PREFETCH_ASYNC) -> DiscussionSummary:
    """Compute the Sec. 6.1 before/after share summary."""
    return DiscussionSummary(
        standard=_mode_shares(TransferMode.STANDARD, workloads, size,
                              iterations, base_seed),
        optimized=_mode_shares(optimized_mode, workloads, size,
                               iterations, base_seed),
    )
