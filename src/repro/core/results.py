"""Result containers for runs and run distributions.

A :class:`RunResult` is one execution of one workload under one
configuration; a :class:`RunSet` is the 30-run distribution the paper
plots. Both expose the paper's accounting: overall time is the *sum*
of allocation, memcpy, and GPU-kernel time (Sec. 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..sim.counters import CounterReport
from .configs import TransferMode
from .stats import Summary, coefficient_of_variation, mean

BREAKDOWN_KEYS = ("gpu_kernel", "memcpy", "allocation")


@dataclass(frozen=True)
class RunResult:
    """One measured run of one workload under one configuration."""

    workload: str
    mode: TransferMode
    size: str
    seed: int
    alloc_ns: float
    memcpy_ns: float
    kernel_ns: float
    wall_ns: float
    counters: CounterReport
    occupancy: float = 0.0
    gpu_busy_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alloc_ns", "memcpy_ns", "kernel_ns", "wall_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def replayed(cls, workload: str, mode: TransferMode, size: str,
                 seed: int, alloc_ns: float, memcpy_ns: float,
                 kernel_ns: float, wall_ns: float, counters: CounterReport,
                 occupancy: float, gpu_busy_fraction: float) -> "RunResult":
        """Construct from already-validated fields (batch-replay path).

        The frozen-dataclass ``__init__`` pays one guarded
        ``object.__setattr__`` per field plus the ``__post_init__``
        range checks — an order of magnitude more than the arithmetic
        a vectorized replay spends per run.  Batched replays and cache
        pack decodes validate the same invariants out-of-band (the
        caller range-checks the timing fields before calling), so this
        path stores every field (all of them, in field order) straight
        into the instance dict.
        """
        self = object.__new__(cls)
        # One attribute set first makes CPython (3.11+) give the
        # instance the class's shared-key dict, which the stores below
        # fill in field order: a result the hot cache or a figure
        # holds costs ~240 bytes instead of ~530.
        object.__setattr__(self, "workload", workload)
        fields = self.__dict__
        fields["mode"] = mode
        fields["size"] = size
        fields["seed"] = seed
        fields["alloc_ns"] = alloc_ns
        fields["memcpy_ns"] = memcpy_ns
        fields["kernel_ns"] = kernel_ns
        fields["wall_ns"] = wall_ns
        fields["counters"] = counters
        fields["occupancy"] = occupancy
        fields["gpu_busy_fraction"] = gpu_busy_fraction
        return self

    @property
    def total_ns(self) -> float:
        """Paper-style overall execution time: sum of the components."""
        return self.alloc_ns + self.memcpy_ns + self.kernel_ns

    def breakdown(self) -> Dict[str, float]:
        return {
            "gpu_kernel": self.kernel_ns,
            "memcpy": self.memcpy_ns,
            "allocation": self.alloc_ns,
        }

    def share(self, component: str) -> float:
        """Fraction of overall time spent in one component."""
        value = self.breakdown()[component]
        total = self.total_ns
        return value / total if total else 0.0


@dataclass
class RunSet:
    """The distribution of repeated runs (the paper uses 30)."""

    workload: str
    mode: TransferMode
    size: str
    runs: List[RunResult] = field(default_factory=list)

    def add(self, run: RunResult) -> None:
        if run.workload != self.workload or run.mode != self.mode:
            raise ValueError("run does not belong to this RunSet")
        self.runs.append(run)

    def __len__(self) -> int:
        return len(self.runs)

    def totals(self) -> List[float]:
        return [run.total_ns for run in self.runs]

    def mean_total_ns(self) -> float:
        return mean(self.totals())

    def cv(self) -> float:
        """std / mean of overall time (Fig. 5's stability metric)."""
        return coefficient_of_variation(self.totals())

    def summary(self) -> Summary:
        return Summary.of(self.totals())

    def mean_breakdown(self) -> Dict[str, float]:
        if not self.runs:
            raise ValueError("empty RunSet")
        return {
            key: mean([run.breakdown()[key] for run in self.runs])
            for key in BREAKDOWN_KEYS
        }

    def mean_component(self, component: str) -> float:
        return self.mean_breakdown()[component]

    def mean_occupancy(self) -> float:
        if not self.runs:
            raise ValueError("empty RunSet")
        return mean([run.occupancy for run in self.runs])

    def mean_gpu_busy(self) -> float:
        if not self.runs:
            raise ValueError("empty RunSet")
        return mean([run.gpu_busy_fraction for run in self.runs])

    def representative_counters(self) -> CounterReport:
        """Counters are deterministic across runs; return the first."""
        if not self.runs:
            raise ValueError("empty RunSet")
        return self.runs[0].counters


@dataclass
class ModeComparison:
    """All five configurations of one workload at one size (one bar group)."""

    workload: str
    size: str
    by_mode: Dict[TransferMode, RunSet] = field(default_factory=dict)

    def add(self, runs: RunSet) -> None:
        self.by_mode[runs.mode] = runs

    def baseline(self) -> RunSet:
        try:
            return self.by_mode[TransferMode.STANDARD]
        except KeyError:
            raise ValueError("comparison lacks the standard baseline") from None

    def normalized_total(self, mode: TransferMode) -> float:
        """Mean overall time as a multiple of standard (Figs. 7/8)."""
        return self.by_mode[mode].mean_total_ns() / self.baseline().mean_total_ns()

    def normalized_breakdown(self, mode: TransferMode) -> Dict[str, float]:
        base_total = self.baseline().mean_total_ns()
        return {key: value / base_total
                for key, value in self.by_mode[mode].mean_breakdown().items()}

    def improvement_pct(self, mode: TransferMode) -> float:
        """Percent overall-time saving of ``mode`` vs standard."""
        return (1.0 - self.normalized_total(mode)) * 100.0

    def component_saving_pct(self, mode: TransferMode, component: str) -> float:
        base = self.baseline().mean_component(component)
        if base <= 0:
            return 0.0
        return (base - self.by_mode[mode].mean_component(component)) / base * 100.0

    def modes(self) -> Sequence[TransferMode]:
        return tuple(self.by_mode)
