"""Replaying a workload program under one transfer configuration.

This module encodes what each of the five configurations *means* as a
sequence of runtime operations:

* ``standard`` / ``async`` - host malloc, ``cudaMalloc``, explicit
  H2D copies, kernels (sync or cp.async staging), explicit D2H copies,
  ``cudaFree``.
* ``uvm`` - ``cudaMallocManaged``, kernels fault their data over on
  first touch (migration overlaps the stalling kernel), the host
  faults results back, ``cudaFree``.
* ``uvm_prefetch`` / ``uvm_prefetch_async`` - as ``uvm`` plus a bulk
  ``cudaMemPrefetchAsync`` of every input range before the kernels;
  kernels start fully resident, except when a preceding kernel shares
  its working set (the paper's nw anomaly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.calibration import Calibration, default_calibration
from ..sim.counters import CounterReport
from ..sim.hardware import SystemSpec, default_system
from ..sim.pcie import TransferKind
from ..sim.program import BufferDirection, Program
from ..sim.runtime import CudaRuntime, combine_repeat_counters
from ..sim.timing import simulate_kernel
from .configs import TransferMode
from .results import RunResult

# Fraction of a kernel's working set still resident when a bulk
# prefetch for the previous kernel displaced shared data (nw case):
# the displaced range must fault back in entirely.
SHARED_DATA_PREFETCH_PENALTY = 0.0

# Fraction of HBM usable for managed data (driver reserves the rest).
UVM_USABLE_HBM_FRACTION = 0.95

@dataclass(frozen=True)
class EngineSpec:
    """One entry in the :data:`ENGINES` registry.

    ``analytic`` engines replay programs without the event heap
    (:class:`repro.sim.vecgrid.AnalyticRuntime`), bind the process-local
    kernel-phase memo (:func:`repro.sim.phasecache.phase_memo_for`), and
    rerun a program on the ``reference`` event engine when the analytic
    contention classifier bails.
    """

    name: str
    summary: str
    analytic: bool = False


#: The single source of truth for engine selection — consumed by
#: ``cli.py`` (``--engine`` choices), ``SweepExecutor`` and
#: :func:`execute_program`.  Both engines are bit-identical; the event
#: engine is the oracle the analytic one is checked against.
ENGINES: Dict[str, EngineSpec] = {
    "reference": EngineSpec(
        "reference", "event-by-event heap engine (the oracle)"),
    "vector": EngineSpec(
        "vector", "analytic array-program engine; grid-batched phases, "
        "falls back to the reference engine on cross-stream contention",
        analytic=True),
}

#: The engine every command runs unless told otherwise.
DEFAULT_ENGINE = "vector"


def engine_spec(engine: str) -> EngineSpec:
    """Resolve an engine name, raising the canonical error when unknown."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}") from None


def make_runtime(engine: str, system: SystemSpec, calib: Calibration,
                 rng: np.random.Generator, *,
                 footprint_bytes: int = 0,
                 smem_carveout_bytes: Optional[int] = None,
                 kernel_sim=None) -> CudaRuntime:
    """Build the runtime for an engine name (event or analytic)."""
    if engine_spec(engine).analytic:
        from ..sim.vecgrid import AnalyticRuntime
        return AnalyticRuntime(system, calib, rng,
                               footprint_bytes=footprint_bytes,
                               smem_carveout_bytes=smem_carveout_bytes,
                               kernel_sim=kernel_sim)
    return CudaRuntime(system, calib, rng,
                       footprint_bytes=footprint_bytes,
                       smem_carveout_bytes=smem_carveout_bytes,
                       kernel_sim=kernel_sim)


def managed_capacity_ratio(program: Program, rt: CudaRuntime) -> float:
    """How much of the program's footprint fits GPU memory at once.

    Under oversubscription (footprint > HBM), every kernel pass
    re-faults the excess - the thrashing regime studied by the
    oversubscription literature the paper builds on (Shao et al.).
    Explicit allocation cannot oversubscribe at all; managed memory
    degrades gracefully via this cap on residency.
    """
    return capacity_ratio_for(program, rt.system)


def capacity_ratio_for(program: Program, system: SystemSpec) -> float:
    """:func:`managed_capacity_ratio` without a runtime in hand."""
    usable = system.gpu.hbm_bytes * UVM_USABLE_HBM_FRACTION
    return min(1.0, usable / max(program.footprint_bytes, 1))


def iter_phase_cells(program: Program, mode: TransferMode,
                     smem_carveout_bytes: Optional[int],
                     system: SystemSpec) -> List[Tuple]:
    """Enumerate the kernel-phase memo cells one run will request.

    Mirrors the residency logic of :func:`_explicit_process` /
    :func:`_managed_process` (first-touch, shared-data prefetch
    displacement, oversubscription capping, cold-vs-warm repeats) so
    the vector engine can batch-evaluate a whole sweep's phases before
    any spec runs (:func:`repro.sim.vecgrid.prewarm_phase_memo`).
    Drifting from the process functions is *safe* — a missed cell is a
    scalar memo miss, never a wrong result — but wastes the batching,
    so keep the two in lockstep.
    """
    flags = mode.kernel_flags()
    carveout = (smem_carveout_bytes if smem_carveout_bytes is not None
                else system.gpu.default_shared_mem_bytes)
    cells: List[Tuple] = []
    if not mode.managed:
        for phase in program.phases:
            cells.append((phase.descriptor, flags, carveout, 1.0))
        return cells
    capacity_ratio = capacity_ratio_for(program, system)
    first_touch = True
    previous_shares_data = False
    for phase in program.phases:
        desc = phase.descriptor
        if mode.prefetch:
            resident_first = 1.0
            if previous_shares_data:
                resident_first = SHARED_DATA_PREFETCH_PENALTY
            resident_rest = resident_first if phase.fresh_data else 1.0
        else:
            resident_first = 1.0 if not first_touch else 0.0
            resident_rest = 0.0 if phase.fresh_data else 1.0
        resident_first = min(resident_first, capacity_ratio)
        resident_rest = min(resident_rest, capacity_ratio)
        cells.append((desc, flags, carveout, resident_first))
        if phase.count > 1 and resident_rest != resident_first:
            cells.append((desc, flags, carveout, resident_rest))
        first_touch = False
        previous_shares_data = desc.shares_data_with_next
    return cells


def _explicit_process(rt: CudaRuntime, program: Program, mode: TransferMode):
    """standard / async: explicit allocation and copies."""
    flags = mode.kernel_flags()
    for buf in program.buffers:
        if buf.direction is not BufferDirection.SCRATCH:
            yield from rt.malloc_host(buf.name, buf.size_bytes)
    for buf in program.buffers:
        yield from rt.malloc_device(buf.name, buf.size_bytes)
    for buf in program.buffers:
        if buf.direction.host_to_device:
            yield from rt.memcpy_h2d(buf.name, buf.size_bytes)
    for phase in program.phases:
        yield from rt.launch_repeated(phase.descriptor, flags, phase.count,
                                      resident_first=1.0, resident_rest=1.0)
        if phase.host_sync_bytes:
            # Rodinia's explicit versions copy intermediate results
            # back every iteration; UVM keeps them resident instead.
            yield from rt.memcpy_d2h(f"{phase.descriptor.name}:sync",
                                     phase.host_sync_bytes)
    for buf in program.buffers:
        if buf.direction.device_to_host:
            yield from rt.memcpy_d2h(buf.name, buf.size_bytes)
    for buf in program.buffers:
        yield from rt.free(buf.name, buf.size_bytes, managed=False)


def _managed_process(rt: CudaRuntime, program: Program, mode: TransferMode):
    """uvm / uvm_prefetch / uvm_prefetch_async."""
    flags = mode.kernel_flags()
    for buf in program.buffers:
        yield from rt.malloc_managed(
            buf.name, buf.size_bytes,
            host_populated=buf.direction.host_to_device)

    if mode.prefetch:
        for buf in program.buffers:
            if buf.direction.host_to_device:
                yield from rt.uvm_prefetch(buf.name,
                                           fraction=buf.device_touched_fraction)

    capacity_ratio = managed_capacity_ratio(program, rt)
    first_touch = True
    previous_shares_data = False
    for phase in program.phases:
        desc = phase.descriptor
        if mode.prefetch:
            resident_first = 1.0
            if previous_shares_data:
                # Prefetching around a kernel that re-reads the previous
                # kernel's data displaces the shared working set; part of
                # it must fault back (the paper's nw case).
                resident_first = SHARED_DATA_PREFETCH_PENALTY
            resident_rest = resident_first if phase.fresh_data else 1.0
        else:
            resident_first = 1.0 if not first_touch else 0.0
            resident_rest = 0.0 if phase.fresh_data else 1.0
        # Oversubscription: residency is capped by GPU capacity, so
        # repeated passes keep re-faulting the evicted excess.
        resident_first = min(resident_first, capacity_ratio)
        resident_rest = min(resident_rest, capacity_ratio)
        yield from rt.launch_repeated(desc, flags, phase.count,
                                      resident_first=resident_first,
                                      resident_rest=resident_rest)
        first_touch = False
        previous_shares_data = desc.shares_data_with_next

    for buf in program.buffers:
        if buf.direction.device_to_host:
            rt.managed.device_wrote(buf.name, fraction=1.0)
            yield from rt.uvm_host_read(buf.name, buf.host_read_fraction)
    for buf in program.buffers:
        yield from rt.free(buf.name, buf.size_bytes, managed=True)


def execute_program(program: Program, mode: TransferMode, *,
                    system: Optional[SystemSpec] = None,
                    calib: Optional[Calibration] = None,
                    rng: Optional[np.random.Generator] = None,
                    seed: int = 0,
                    smem_carveout_bytes: Optional[int] = None,
                    size_label: str = "",
                    validate: bool = False,
                    engine: str = "reference",
                    phase_memo=None) -> RunResult:
    """Run one program once under one configuration; return the measurement.

    With ``validate=True`` the program is first linted against this
    (mode, system, carveout) and :class:`repro.analysis.LintError` is
    raised before any simulation time is spent if an error-severity
    finding exists (e.g. a launch that overflows the shared-memory
    carveout, or an explicit allocation larger than HBM).

    ``engine`` selects the simulation engine (see :data:`ENGINES`);
    both produce bit-identical results — ``vector`` replays without the
    event heap and reruns on ``reference`` when it meets contention.
    ``phase_memo`` optionally supplies a
    :class:`repro.sim.phasecache.PhaseMemo` whose ``simulate`` replaces
    ``simulate_kernel`` (pure function, so memoization is
    result-preserving by construction).
    """
    system = system or default_system()
    calib = calib or default_calibration()
    if validate:
        # Late import: analysis depends on sim only; importing it here
        # keeps core importable without the analysis package loaded.
        from ..analysis.runner import validate_program
        validate_program(program, mode, system=system,
                         smem_carveout_bytes=smem_carveout_bytes)
    rng = rng if rng is not None else np.random.default_rng(seed)
    kernel_sim = phase_memo.simulate if phase_memo is not None else None
    if engine_spec(engine).analytic:
        from ..sim.vecgrid import ContentionDetected, vec_stats
        # The runtime constructor itself draws (host placement), so
        # snapshot the RNG *before* building it: a contention fallback
        # must replay the event engine on the exact same stream.
        state = rng.bit_generator.state
        try:
            rt = _build_and_run(engine, program, mode, system, calib, rng,
                                smem_carveout_bytes, kernel_sim)
        except ContentionDetected:
            vec_stats().fallbacks += 1
            rng.bit_generator.state = state
            engine = "reference"
        else:
            return _assemble_result(rt, program, mode, size_label, seed)
    rt = _build_and_run(engine, program, mode, system, calib, rng,
                        smem_carveout_bytes, kernel_sim)
    return _assemble_result(rt, program, mode, size_label, seed)


def compile_program(program: Program, mode: TransferMode,
                    system: SystemSpec, calib: Calibration,
                    smem_carveout_bytes: Optional[int] = None,
                    kernel_sim=None):
    """Lower one (program, mode, carveout) structure to a compiled op
    list for whole-grid replay (:mod:`repro.sim.vecgrid`).

    The *real* process generators drive a recording runtime, so the
    compiled ops cannot drift from execution semantics; only the
    seed-dependent parts (host placement, jitter, measurement noise)
    are deferred to replay time.
    """
    from ..sim.vecgrid import CompilerRuntime
    rt = CompilerRuntime(system, calib,
                         smem_carveout_bytes=smem_carveout_bytes,
                         kernel_sim=kernel_sim)
    if mode.managed:
        process = _managed_process(rt, program, mode)
    else:
        process = _explicit_process(rt, program, mode)
    rt.run(process)
    return rt.finish(program)


def program_structure_key(program: Program) -> Tuple:
    """Everything about a program that determines its compiled op shape
    except kernel geometry.

    Two programs with equal keys produce compiled tapes whose host-op
    durations, transfer bytes, launch flags and residency fractions are
    equal *functions of equal inputs* — allocation costs and
    :class:`~repro.sim.uvm.ManagedSpace` plans depend only on the
    buffer list, residency logic only on phase structure and footprint
    (see :func:`iter_phase_cells`), and the jitter charge only on op
    order.  That is the guard for :func:`derive_compiled`: a sibling
    cell along a threads/blocks/carveout axis shares the key, so only
    its kernel totals and demand-migration spawns need re-deriving;
    a size-axis sibling gets a different key and a full compile.
    """
    return (
        program.footprint_bytes,
        tuple((buf.name, buf.size_bytes, buf.direction,
               buf.device_touched_fraction, buf.host_read_fraction)
              for buf in program.buffers),
        tuple((phase.descriptor.name, phase.count, phase.host_sync_bytes,
               phase.fresh_data, phase.descriptor.shares_data_with_next)
              for phase in program.phases),
    )


def derive_compiled(rep, program: Program, system: SystemSpec,
                    calib: Calibration,
                    smem_carveout_bytes: Optional[int] = None,
                    kernel_sim=None):
    """Derive a sibling cell's compiled tape from a representative's.

    ``rep`` is a :class:`~repro.sim.vecgrid.CompiledProgram` for a
    program with the same :func:`program_structure_key`; only kernel
    totals, counters and demand-migration spawns can differ, so this
    rebuilds exactly those ops — through the same ``kernel_sim`` and
    the same float expressions as ``launch_repeated`` — and copies the
    rest verbatim.  Returns ``None`` when the sibling's spawn shape
    differs from the representative's (a kernel that faults in one cell
    but not the other); the caller full-compiles that cell instead.
    Results are bitwise identical to :func:`compile_program` either
    way — pinned by the fusion property battery.
    """
    from ..sim.vecgrid import _OP_KERNEL, _OP_SPAWN, CompiledProgram
    if kernel_sim is None:
        kernel_sim = simulate_kernel
    if smem_carveout_bytes is None:
        # Same default resolution as CudaRuntime.__init__ — the
        # recorded launches saw the resolved value, not None.
        smem_carveout_bytes = system.gpu.default_shared_mem_bytes
    if len(rep.launches) != len(program.phases):  # pragma: no cover
        return None
    ops: List[Tuple] = []
    counters = CounterReport()
    phase_index = 0
    i = 0
    rep_ops = rep.ops
    total_ops = len(rep_ops)
    while i < total_ops:
        op = rep_ops[i]
        code = op[0]
        if code != _OP_SPAWN and code != _OP_KERNEL:
            ops.append(op)
            i += 1
            continue
        # One launch: an optional spawn op followed by its kernel op.
        flags, count, resident_first, resident_rest = \
            rep.launches[phase_index]
        desc = program.phases[phase_index].descriptor
        first = kernel_sim(desc, flags, system, calib,
                           smem_carveout_bytes=smem_carveout_bytes,
                           resident_fraction=resident_first)
        rest = None
        if count > 1:
            if resident_rest == resident_first:
                rest = first
            else:
                rest = kernel_sim(desc, flags, system, calib,
                                  smem_carveout_bytes=smem_carveout_bytes,
                                  resident_fraction=resident_rest)
        total_ns = first.duration_ns + (count - 1) * (rest.duration_ns
                                                      if rest else 0.0)
        migrate_bytes = first.demand_migrated_bytes
        if rest is not None:
            migrate_bytes += (count - 1) * rest.demand_migrated_bytes
        spawned = code == _OP_SPAWN
        if spawned != (migrate_bytes > 0):
            return None
        if spawned:
            duration = rep.link.duration_ns(TransferKind.MIGRATE_H2D,
                                            migrate_bytes, 1.0)
            ops.append((_OP_SPAWN, op[1], migrate_bytes, duration))
            i += 1
            kernel_op = rep_ops[i]
        else:
            kernel_op = op
        ops.append((_OP_KERNEL, kernel_op[1], total_ns, kernel_op[3]))
        counters.add(combine_repeat_counters(first, rest, count))
        phase_index += 1
        i += 1
    if phase_index != len(rep.launches):  # pragma: no cover
        return None
    return CompiledProgram(
        name=program.name,
        footprint_bytes=program.footprint_bytes,
        ops=tuple(ops),
        counters=counters,
        occupancy=counters.mean_occupancy(),
        draws=rep.draws,
        link=rep.link,
        copy_engines=rep.copy_engines,
        launches=rep.launches,
    )


def _build_and_run(engine: str, program: Program, mode: TransferMode,
                   system: SystemSpec, calib: Calibration,
                   rng: np.random.Generator,
                   smem_carveout_bytes: Optional[int],
                   kernel_sim) -> CudaRuntime:
    """Run one program on one engine.  The analytic runtime raises
    :class:`~repro.sim.vecgrid.ContentionDetected` when the run must go
    back to the event engine."""
    rt = make_runtime(engine, system, calib, rng,
                      footprint_bytes=program.footprint_bytes,
                      smem_carveout_bytes=smem_carveout_bytes,
                      kernel_sim=kernel_sim)
    if mode.managed:
        process = _managed_process(rt, program, mode)
    else:
        process = _explicit_process(rt, program, mode)
    rt.run(process)
    return rt


def _assemble_result(rt: CudaRuntime, program: Program, mode: TransferMode,
                     size_label: str, seed: int) -> RunResult:
    """Fold a finished runtime's timeline into a :class:`RunResult`."""
    timeline = rt.timeline
    wall = timeline.wall_ns()
    gpu_busy = timeline.busy_time("gpu_kernel") / wall if wall > 0 else 0.0
    return RunResult(
        workload=program.name,
        mode=mode,
        size=size_label,
        seed=seed,
        alloc_ns=timeline.category_time("allocation"),
        memcpy_ns=timeline.category_time("memcpy"),
        kernel_ns=timeline.category_time("gpu_kernel"),
        wall_ns=wall,
        counters=rt.counters,
        occupancy=rt.counters.mean_occupancy(),
        gpu_busy_fraction=gpu_busy,
    )
