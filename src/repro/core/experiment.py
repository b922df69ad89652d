"""The experiment runner: repeated runs across configurations.

An :class:`Experiment` reproduces the paper's measurement protocol:
run one workload at one input-size class under each configuration for
N iterations (the paper uses 30), with deterministic per-run seeds, and
collect the distributions into a :class:`~repro.core.results.ModeComparison`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..sim.calibration import Calibration, default_calibration
from ..sim.hardware import SystemSpec, default_system
from ..workloads.base import Workload
from ..workloads.sizes import SizeClass
from .configs import ALL_MODES, TransferMode
from .execution import execute_program
from .results import ModeComparison, RunResult, RunSet

DEFAULT_ITERATIONS = 30


def _stable_token(text: str) -> int:
    """Deterministic across interpreter runs (unlike ``hash``)."""
    return zlib.crc32(text.encode("utf-8"))


def seed_words(base_seed: int, workload: str, size: str,
               mode: TransferMode) -> Tuple[int, int, int, int]:
    """The first four entropy words of :func:`run_seed`: everything
    but the iteration, so one value for a whole sweep family."""
    return (base_seed, _stable_token(workload), _stable_token(size),
            _stable_token(mode.value))


def run_seed(base_seed: int, workload: str, size: str, mode: TransferMode,
             iteration: int) -> np.random.SeedSequence:
    """The per-run seed: stable, and unique per (workload, size, mode, i)."""
    return np.random.SeedSequence(
        [*seed_words(base_seed, workload, size, mode), iteration])


def resolve_workload(workload: Union[str, Workload]) -> Workload:
    if isinstance(workload, Workload):
        return workload
    from ..workloads.registry import get_workload
    return get_workload(workload)


@dataclass
class Experiment:
    """One workload x one size x several configurations x N iterations."""

    workload: Union[str, Workload]
    size: SizeClass = SizeClass.SUPER
    modes: Sequence[TransferMode] = ALL_MODES
    iterations: int = DEFAULT_ITERATIONS
    base_seed: int = 1234
    system: Optional[SystemSpec] = None
    calib: Optional[Calibration] = None
    smem_carveout_bytes: Optional[int] = None
    _resolved: Optional[Workload] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.modes:
            raise ValueError("at least one mode is required")

    @property
    def target(self) -> Workload:
        if self._resolved is None:
            self._resolved = resolve_workload(self.workload)
        return self._resolved

    def run_one(self, mode: TransferMode, iteration: int) -> RunResult:
        workload = self.target
        program = workload.program(self.size)
        seed_seq = run_seed(self.base_seed, workload.name, self.size.label,
                            mode, iteration)
        rng = np.random.default_rng(seed_seq)
        return execute_program(
            program, mode,
            system=self.system or default_system(),
            calib=self.calib or default_calibration(),
            rng=rng,
            seed=iteration,
            smem_carveout_bytes=self.smem_carveout_bytes,
            size_label=self.size.label,
        )

    def run_mode(self, mode: TransferMode) -> RunSet:
        workload = self.target
        if not workload.supports(self.size):
            raise ValueError(
                f"workload {workload.name!r} does not support size "
                f"{self.size.label!r}"
            )
        runs = RunSet(workload=workload.name, mode=mode, size=self.size.label)
        # Build the program once; it is immutable and shared by runs.
        program = workload.program(self.size)
        system = self.system or default_system()
        calib = self.calib or default_calibration()
        for iteration in range(self.iterations):
            seed_seq = run_seed(self.base_seed, workload.name,
                                self.size.label, mode, iteration)
            rng = np.random.default_rng(seed_seq)
            runs.add(execute_program(
                program, mode, system=system, calib=calib, rng=rng,
                seed=iteration,
                smem_carveout_bytes=self.smem_carveout_bytes,
                size_label=self.size.label,
            ))
        return runs

    def run(self) -> ModeComparison:
        comparison = ModeComparison(workload=self.target.name,
                                    size=self.size.label)
        for mode in self.modes:
            comparison.add(self.run_mode(mode))
        return comparison


def run_workload(name: Union[str, Workload],
                 size: Union[str, SizeClass] = SizeClass.SUPER,
                 mode: TransferMode = TransferMode.STANDARD,
                 iterations: int = DEFAULT_ITERATIONS,
                 **kwargs) -> RunSet:
    """One-call convenience: a RunSet for one workload/size/mode."""
    if isinstance(size, str):
        size = SizeClass.from_label(size)
    experiment = Experiment(workload=name, size=size, modes=(mode,),
                            iterations=iterations, **kwargs)
    return experiment.run_mode(mode)


def compare_workload(name: Union[str, Workload],
                     size: Union[str, SizeClass] = SizeClass.SUPER,
                     iterations: int = DEFAULT_ITERATIONS,
                     **kwargs) -> ModeComparison:
    """One-call convenience: all five configurations compared."""
    if isinstance(size, str):
        size = SizeClass.from_label(size)
    experiment = Experiment(workload=name, size=size, iterations=iterations,
                            **kwargs)
    return experiment.run()
