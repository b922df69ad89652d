"""Sensitivity studies (Sec. 5 / Figs. 11-13).

All three sweeps use vector_seq, as the paper does: it partitions
flexibly and benefits from both Async Memcpy and UVM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.configs import ALL_MODES, TransferMode
from ..core.results import RunSet
from ..workloads.sizes import SizeClass
from .executor import RunSpec, SweepExecutor, ensure_executor
from .report import render_table

BLOCK_SWEEP = (4096, 2048, 1024, 512, 256, 128, 64, 32, 16)
BLOCK_SWEEP_THREADS = 256
THREAD_SWEEP = (1024, 512, 256, 128, 64, 32)
THREAD_SWEEP_BLOCKS = 64  # "total number of cores is fixed (set as 64)"
CARVEOUT_SWEEP_KB = (2, 4, 8, 16, 32, 64, 128)

#: Seed-stream salt the sensitivity sweeps have always used (their
#: per-run seeds hash the token ``"<workload>:sweep"``).
SWEEP_SEED_SALT = ":sweep"

SWEEP_WORKLOAD = "vector_seq"

#: Per figure: the ``RunSpec`` field it sweeps, the paper's points and
#: the fields it holds fixed.  Fig. 13's points are KB of carveout.
FIGURE_SWEEPS: Dict[str, Tuple[str, Tuple[int, ...], Dict[str, int]]] = {
    "fig11": ("blocks", BLOCK_SWEEP, {"threads": BLOCK_SWEEP_THREADS}),
    "fig12": ("threads", THREAD_SWEEP, {"blocks": THREAD_SWEEP_BLOCKS}),
    "fig13": ("smem_carveout_bytes", CARVEOUT_SWEEP_KB, {}),
}


def sweep_specs(figure: str, points: Optional[Sequence[int]] = None,
                iterations: int = 10, base_seed: int = 1234,
                size: SizeClass = SizeClass.LARGE,
                modes: Sequence[TransferMode] = ALL_MODES,
                **fixed: int) -> List[RunSpec]:
    """Every (point, mode, iteration) spec of one sensitivity figure.

    ``figure`` is a :data:`FIGURE_SWEEPS` key; ``points`` defaults to
    the paper's, and ``fixed`` overrides the held fields.  The order is
    point-major, then mode, then iteration: the order :func:`_sweep`
    regroups results by.
    """
    axis, paper_points, held = FIGURE_SWEEPS[figure]
    held = {**held, **fixed}
    unit = 1024 if axis == "smem_carveout_bytes" else 1
    specs: List[RunSpec] = []
    for point in paper_points if points is None else points:
        for mode in modes:
            specs.extend(RunSpec(
                workload=SWEEP_WORKLOAD, size=size.label, mode=mode,
                base_seed=base_seed, seed_salt=SWEEP_SEED_SALT,
                **held, **{axis: point * unit}).members(range(iterations)))
    return specs


def _sweep(figure: str, points: Sequence[int], iterations: int,
           base_seed: int, size: SizeClass, modes: Sequence[TransferMode],
           executor: Optional[SweepExecutor], **fixed: int
           ) -> Dict[int, Dict[str, RunSet]]:
    """Run every (point, mode, iteration) cell in one executor pass.

    Different sweep points share (workload, size, mode) coordinates,
    so results are regrouped by position rather than by key — which is
    also what makes partial sweeps safe here: a failed run leaves a
    ``None`` at its position (never shifting later cells), producing a
    shorter (possibly empty) :class:`RunSet` for that cell.
    """
    specs = sweep_specs(figure, points, iterations, base_seed, size, modes,
                        **fixed)
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
                       threads: int = BLOCK_SWEEP_THREADS,
                       executor: Optional[SweepExecutor] = None
                       ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 11: vary the number of blocks at fixed threads/block."""
    return _sweep("fig11", blocks, iterations, base_seed, size, modes,
                  executor, threads=threads)


def threads_sensitivity(threads: Sequence[int] = THREAD_SWEEP,
                        size: SizeClass = SizeClass.LARGE,
                        iterations: int = 10, base_seed: int = 1234,
                        modes: Sequence[TransferMode] = ALL_MODES,
                        blocks: int = THREAD_SWEEP_BLOCKS,
                        executor: Optional[SweepExecutor] = None
                        ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 12: vary threads per block at a fixed 64-block grid."""
    return _sweep("fig12", threads, iterations, base_seed, size, modes,
                  executor, blocks=blocks)


def carveout_sensitivity(carveouts_kb: Sequence[int] = CARVEOUT_SWEEP_KB,
                         size: SizeClass = SizeClass.LARGE,
                         iterations: int = 10, base_seed: int = 1234,
                         modes: Sequence[TransferMode] = ALL_MODES,
                         executor: Optional[SweepExecutor] = None
                         ) -> Dict[int, Dict[str, RunSet]]:
    """Fig. 13: vary the shared-memory carveout (rest becomes L1)."""
    return _sweep("fig13", carveouts_kb, iterations, base_seed, size,
                  modes, executor)


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
