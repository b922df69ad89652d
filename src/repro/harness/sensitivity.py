"""Sensitivity studies (Sec. 5 / Figs. 11-13).

All three sweeps use vector_seq, as the paper does: it partitions
flexibly and benefits from both Async Memcpy and UVM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.configs import ALL_MODES, TransferMode
from ..core.results import RunSet
from ..workloads.sizes import SizeClass
from .executor import RunSpec, SweepExecutor, ensure_executor
from .report import render_table

BLOCK_SWEEP = (4096, 2048, 1024, 512, 256, 128, 64, 32, 16)
THREAD_SWEEP = (1024, 512, 256, 128, 64, 32)
THREAD_SWEEP_BLOCKS = 64  # "total number of cores is fixed (set as 64)"
CARVEOUT_SWEEP_KB = (2, 4, 8, 16, 32, 64, 128)

#: Seed-stream salt the sensitivity sweeps have always used (their
#: per-run seeds hash the token ``"<workload>:sweep"``).
SWEEP_SEED_SALT = ":sweep"

SWEEP_WORKLOAD = "vector_seq"


def _sweep(points: Sequence[int], iterations: int, base_seed: int,
           size: SizeClass, modes: Sequence[TransferMode],
           spec_for_point, executor: Optional[SweepExecutor]
           ) -> Dict[int, Dict[str, RunSet]]:
    """Run every (point, mode, iteration) cell in one executor pass.

    Different sweep points share (workload, size, mode) coordinates,
    so results are regrouped by position rather than by key — which is
    also what makes partial sweeps safe here: a failed run leaves a
    ``None`` at its position (never shifting later cells), producing a
    shorter (possibly empty) :class:`RunSet` for that cell.
    """
    specs: List[RunSpec] = []
    for point in points:
        base = spec_for_point(point)
        for mode in modes:
            specs.extend(RunSpec(
                workload=base.workload, size=size.label, mode=mode,
                base_seed=base_seed, blocks=base.blocks,
                threads=base.threads,
                smem_carveout_bytes=base.smem_carveout_bytes,
                seed_salt=SWEEP_SEED_SALT).members(range(iterations)))
    results = ensure_executor(executor).run_outcomes(specs).results
    data: Dict[int, Dict[str, RunSet]] = {}
    cursor = 0
    for point in points:
        data[point] = {}
        for mode in modes:
            runs = RunSet(workload=SWEEP_WORKLOAD, mode=mode,
                          size=size.label)
            for run in results[cursor:cursor + iterations]:
                if run is not None:
                    runs.add(run)
            cursor += iterations
            data[point][mode.value] = runs
    return data


def blocks_sensitivity(blocks: Sequence[int] = BLOCK_SWEEP,
                       size: SizeClass = SizeClass.LARGE,
                       iterations: int = 10, base_seed: int = 1234,
                       modes: Sequence[TransferMode] = ALL_MODES,
                       threads: int = 256,
                       executor: Optional[SweepExecutor] = None
                       ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 11: vary the number of blocks at fixed threads/block."""
    return _sweep(
        blocks, iterations, base_seed, size, modes,
        lambda count: RunSpec(workload=SWEEP_WORKLOAD, size=size.label,
                              mode=modes[0], blocks=count, threads=threads),
        executor)


def threads_sensitivity(threads: Sequence[int] = THREAD_SWEEP,
                        size: SizeClass = SizeClass.LARGE,
                        iterations: int = 10, base_seed: int = 1234,
                        modes: Sequence[TransferMode] = ALL_MODES,
                        blocks: int = THREAD_SWEEP_BLOCKS,
                        executor: Optional[SweepExecutor] = None
                        ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 12: vary threads per block at a fixed 64-block grid."""
    return _sweep(
        threads, iterations, base_seed, size, modes,
        lambda count: RunSpec(workload=SWEEP_WORKLOAD, size=size.label,
                              mode=modes[0], blocks=blocks, threads=count),
        executor)


def carveout_sensitivity(carveouts_kb: Sequence[int] = CARVEOUT_SWEEP_KB,
                         size: SizeClass = SizeClass.LARGE,
                         iterations: int = 10, base_seed: int = 1234,
                         modes: Sequence[TransferMode] = ALL_MODES,
                         executor: Optional[SweepExecutor] = None
                         ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 13: vary the shared-memory carveout (rest becomes L1)."""
    return _sweep(
        carveouts_kb, iterations, base_seed, size, modes,
        lambda kb: RunSpec(workload=SWEEP_WORKLOAD, size=size.label,
                           mode=modes[0], smem_carveout_bytes=kb * 1024),
        executor)


def normalized_sweep(data: Dict[int, Dict[str, RunSet]],
                     baseline_mode: str = "standard",
                     baseline_key: Optional[int] = None
                     ) -> Dict[int, Dict[str, Optional[float]]]:
    """Normalize mean totals to one baseline cell (paper's Figs. 11-13).

    Partial sweeps: empty cells (all runs failed) normalize to
    ``None`` — and if the *baseline* cell itself is empty, every value
    is ``None`` (nothing to normalize against). Renderers print these
    as ``-``.
    """
    keys = list(data)
    baseline_key = baseline_key if baseline_key is not None else keys[0]
    baseline_runs = data[baseline_key][baseline_mode]
    baseline = baseline_runs.mean_total_ns() if len(baseline_runs) else None
    return {
        key: {mode: (runs.mean_total_ns() / baseline
                     if baseline and len(runs) else None)
              for mode, runs in by_mode.items()}
        for key, by_mode in data.items()
    }


def render_sweep(normalized: Dict[int, Dict[str, Optional[float]]],
                 axis_label: str, title: str) -> str:
    """Figure 11-13-style normalized sweep table (``-`` marks gaps)."""
    modes = list(next(iter(normalized.values())))
    rows = [(key, *(f"{normalized[key][mode]:.3f}"
                    if normalized[key][mode] is not None else "-"
                    for mode in modes))
            for key in normalized]
    return render_table((axis_label, *modes), rows, title=title)
