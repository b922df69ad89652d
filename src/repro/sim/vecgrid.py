"""Vectorized whole-grid simulation engine (``--engine vector``).

Two cooperating pieces turn a sensitivity grid from thousands of
event-engine runs into a handful of array programs:

* :class:`AnalyticRuntime` replays a whole program **without the event
  heap**.  Every program the executor runs is strictly serial — one
  process issuing allocations, copies and kernel launches back to back
  — so each ``Resource.stream`` hold is uncontended and its timing is
  the closed form ``end = start + duration`` (bitwise: an uncontended
  train ends on the same float as the monolithic hold it refines, see
  :meth:`repro.sim.engine.Resource.stream`).  The only concurrency in
  the model is the UVM demand-migration train a kernel spawns; the
  runtime keeps those in a pending set and *settles* them in event
  order as the clock passes their end.  The moment anything would
  actually contend — a train ending exactly on another event boundary
  (heap order ambiguous), or more in-flight trains than DMA copy
  engines (FIFO queueing, re-anchored trains) — it raises
  :class:`ContentionDetected` and the caller falls back to the event
  engine, so the analytic path never has to approximate.

* :func:`simulate_phase_grid` batches the pure phase-timing closed
  forms of :mod:`repro.sim.timing` (memory / compute / control /
  barrier stages, fault stalls) and the occupancy integer math of
  :mod:`repro.sim.sm` over NumPy axes, one lane per ``(descriptor,
  flags, carveout, residency)`` cell.  Every array expression mirrors
  the scalar operation order exactly (IEEE-754 elementwise float64 ops
  are identical to Python's), so each lane is **bit-identical** to
  :func:`repro.sim.timing.simulate_kernel` — pinned element-wise by
  ``tests/sim/test_vecgrid_properties.py`` and end-to-end by the
  three-way differential battery.

Results are bit-identical to the ``reference`` event engine (pinned by
the differential battery); the classifier only ever changes *how fast*
an answer is produced, never the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calibration import Calibration
from .counters import CounterReport, collect_counters
from .hardware import SystemSpec
from .hostmem import place_host_data
from .kernel import AccessPattern, AsyncMechanism, KernelDescriptor
from .pcie import PcieLink, TransferKind, TransferTiming
from .phasecache import PhaseMemo
from .runtime import CudaRuntime
from .sm import (ASYNC_MLP_FACTOR, BYTES_PER_REGISTER,
                 FULL_UTILIZATION_THREADS, PER_SM_BANDWIDTH_CAP,
                 PER_THREAD_BANDWIDTH)
from .timing import ConfigFlags, KernelExecution

#: A phase cell: the exact :class:`~repro.sim.phasecache.PhaseMemo`
#: key — ``(descriptor, flags, smem_carveout_bytes, resident_fraction)``.
PhaseCell = Tuple[KernelDescriptor, ConfigFlags, int, float]


class ContentionDetected(Exception):
    """The analytic replay met genuine cross-stream contention.

    Raised by :class:`AnalyticRuntime` the moment event order would
    depend on heap arbitration (same-time boundaries, queued copy
    engines).  Callers catch it, restore the RNG state and re-run on
    the event engine — see ``repro.core.execution.execute_program``.
    """


class FamilyRerouted(Exception):
    """A sweep family failed the axis-fusion classifier's proof.

    ``rule`` names the obligation that failed (``shape-mismatch``,
    ``noise-pattern``, ``degenerate-duration``, ``duration-mismatch``,
    ``boundary-tie``, ``engine-queue``, ``schedule-divergence``,
    ``empty``).  Unlike :class:`ContentionDetected` this is a
    *family*-level verdict: the caller fuses each member cell as its
    own one-cell family, and a cell that still reroutes takes the
    per-spec path — rerouting only ever changes how fast the answer is
    produced.
    """

    def __init__(self, rule: str, detail: str = ""):
        super().__init__(detail or rule)
        self.rule = rule


@dataclass
class VecStats:
    """Process-wide accounting for the vector engine (per-sweep
    fusion counts live in :class:`repro.harness.executor.SweepStats`)."""

    fallbacks: int = 0  # runs rerouted to the event engine


_STATS = VecStats()


def vec_stats() -> VecStats:
    """The process-wide :class:`VecStats` (tests and sweep summaries)."""
    return _STATS


class _AnalyticClock:
    """Bare simulation clock standing in for an ``Environment``.

    The analytic runtime never schedules events, so all it needs from
    its environment is the ``now`` attribute every primitive reads and
    advances.  Anything else (``process``, ``run``...) is deliberately
    absent: reaching for it is a bug, not a fallback.
    """

    def __init__(self) -> None:
        self.now: float = 0.0


class AnalyticRuntime(CudaRuntime):
    """Event-free replay of a serial program, bit-identical or bust.

    Overrides the four engine hooks of :class:`CudaRuntime` with
    closed-form equivalents.  The overrides stay *generators* (via an
    unreachable ``yield``) so the unmodified base-class process
    fragments (``malloc_*``, ``memcpy_*``, ``launch*``) drive them with
    ``yield from`` exactly as they drive the event engine — same code,
    same call order, same RNG draw order.
    """

    def __init__(self, system: SystemSpec, calib: Calibration,
                 rng: np.random.Generator,
                 footprint_bytes: int = 0,
                 smem_carveout_bytes: Optional[int] = None,
                 kernel_sim=None):
        super().__init__(system, calib, rng,
                         footprint_bytes=footprint_bytes,
                         smem_carveout_bytes=smem_carveout_bytes,
                         env=_AnalyticClock(),
                         kernel_sim=kernel_sim)
        #: in-flight demand-migration trains: (label, start, end),
        #: settled in end order as the clock passes them.
        self._pending: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------
    # Pending-migration settlement (the contention classifier)
    # ------------------------------------------------------------------
    def _settle_through(self, boundary: float) -> None:
        """Complete every pending train that ends strictly before
        ``boundary``, in completion order.

        This is where the event heap's ordering is replayed: a train
        ending at time *t* draws its measurement noise and records its
        timeline event before anything that happens at a later time.
        A train ending *exactly at* ``boundary`` (or exactly with
        another train) would be ordered by heap sequence numbers in the
        event engine — ambiguous here, so it is contention by
        definition.
        """
        if not self._pending:
            return
        self._pending.sort(key=lambda entry: entry[2])
        while self._pending:
            label, start, end = self._pending[0]
            if end > boundary:
                break
            if end == boundary or (len(self._pending) > 1
                                   and end == self._pending[1][2]):
                raise ContentionDetected(
                    f"migration train {label!r} ends on a same-time event "
                    "boundary; completion order would depend on heap "
                    "sequence numbers")
            self._pending.pop(0)
            noisy_end = start + self._noisy(end - start,
                                            self.calib.noise.memcpy_sigma)
            self.timeline.record(label, "memcpy", start, max(noisy_end, start))

    def _require_free_engine(self, what: str) -> None:
        """A new link stream next to the pending trains must not queue."""
        if len(self._pending) + 1 > self.system.link.copy_engines:
            raise ContentionDetected(
                f"{what} would queue for a DMA copy engine "
                f"({len(self._pending)} trains already in flight, "
                f"{self.system.link.copy_engines} engines)")

    # ------------------------------------------------------------------
    # Engine hooks (closed-form replacements; still generators so the
    # base class' ``yield from`` call sites work unchanged)
    # ------------------------------------------------------------------
    def _host_op(self, name: str, duration_ns: float,
                 category: str = "allocation"):
        start = self.env.now
        end = start + duration_ns
        self._settle_through(end)
        self.env.now = end
        self.timeline.record(name, category, start, end)
        return
        yield  # pragma: no cover - keeps this a generator for yield from

    def _transfer(self, label: str, kind: TransferKind, num_bytes: int,
                  chunks: Optional[int] = None):
        if num_bytes <= 0:
            return None
        self._require_free_engine(f"transfer {label!r}")
        duration = self.link.duration_ns(kind, num_bytes,
                                         self.placement.time_multiplier)
        start = self.env.now
        end = start + duration
        self._settle_through(end)
        self.env.now = end
        noisy_end = start + self._noisy(self.env.now - start,
                                        self.calib.noise.memcpy_sigma)
        self.timeline.record(label, "memcpy", start, max(noisy_end, start))
        return TransferTiming(kind=kind, bytes=num_bytes, duration_ns=duration)
        yield  # pragma: no cover - keeps this a generator for yield from

    def _spawn_migration(self, desc: KernelDescriptor, migrate_bytes: int,
                         batches: int) -> None:
        self._require_free_engine(f"migration for kernel {desc.name!r}")
        duration = self.link.duration_ns(TransferKind.MIGRATE_H2D,
                                         migrate_bytes,
                                         self.placement.time_multiplier)
        start = self.env.now
        self._pending.append((f"uvm migrate:{desc.name}", start,
                              start + duration))

    def _hold_gpu(self, label: str, duration: float):
        start = self.env.now
        end = start + duration
        self._settle_through(end)
        self.env.now = end
        self.timeline.record(label, "gpu_kernel", start, end)
        return
        yield  # pragma: no cover - keeps this a generator for yield from

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self, process) -> None:
        """Exhaust the program generator inline.

        With every engine hook closed-form, a serial program never
        yields a live event; if it somehow does, the analytic premise
        is broken and we bail rather than guess.
        """
        try:
            for _event in process:
                raise ContentionDetected(
                    "program suspended on a live event; analytic replay "
                    "cannot order it")
        finally:
            process.close()
        # Trains that outlive the program drain in completion order,
        # exactly as Environment.run() drains the heap.
        self._settle_through(math.inf)


# ----------------------------------------------------------------------
# Batched closed forms
# ----------------------------------------------------------------------
_PATTERNS = tuple(AccessPattern)
_PATTERN_INDEX = {pattern: index for index, pattern in enumerate(_PATTERNS)}
_INT_UNLIMITED = np.iinfo(np.int64).max


def simulate_phase_grid(cells: Sequence[PhaseCell], system: SystemSpec,
                        calib: Calibration) -> List[KernelExecution]:
    """Evaluate many kernel-phase cells as one array program.

    Each lane mirrors :func:`repro.sim.timing.simulate_kernel` exactly:
    identical operation order, identical branch structure (branches
    become per-lane masks), float64 throughout — so every returned
    :class:`KernelExecution` equals the scalar result *bitwise*.
    Counters stay scalar per cell (pure integer bookkeeping off the
    hot path).
    """
    if not cells:
        return []
    gpu = system.gpu
    kc = calib.kernel
    uvm = system.uvm

    descs = [cell[0] for cell in cells]
    flag_list = [cell[1] for cell in cells]

    resident = np.array([cell[3] for cell in cells], dtype=np.float64)
    if np.any((resident < 0.0) | (resident > 1.0)):
        bad = float(resident[(resident < 0.0) | (resident > 1.0)][0])
        raise ValueError(f"resident_fraction {bad} outside [0, 1]")

    # --- per-cell attribute extraction (pure descriptor math; the
    # values are identical however they are computed) -----------------
    blocks = np.array([d.blocks for d in descs], dtype=np.int64)
    threads = np.array([d.threads_per_block for d in descs], dtype=np.int64)
    tiles = np.array([d.tiles_per_block for d in descs], dtype=np.int64)
    tile_bytes = np.array([d.tile_bytes for d in descs], dtype=np.int64)
    smem_static = np.array([d.smem_static_bytes for d in descs],
                           dtype=np.int64)
    registers = np.array([d.registers_per_thread for d in descs],
                         dtype=np.int64)
    write_bytes = np.array([d.write_bytes for d in descs], dtype=np.int64)
    reuse = np.array([d.reuse for d in descs], dtype=np.float64)
    touched = np.array([d.touched_fraction for d in descs], dtype=np.float64)
    footprint = np.array([d.footprint_bytes for d in descs], dtype=np.float64)
    compute_cycles = np.array([d.compute_cycles for d in descs],
                              dtype=np.float64)
    copies = np.array([d.async_copies() * d.total_tiles for d in descs],
                      dtype=np.int64)
    total_tiles = np.array([d.total_tiles for d in descs], dtype=np.int64)
    sync_overlap = np.array([d.sync_overlap for d in descs], dtype=np.float64)
    accuracy = np.array([d.derived_prefetch_accuracy() for d in descs],
                        dtype=np.float64)
    per_copy = np.array(
        [d.async_control_cycles_per_copy
         if d.async_control_cycles_per_copy is not None
         else kc.async_control_cycles_per_copy for d in descs],
        dtype=np.float64)
    serializes = np.array([d.async_serializes for d in descs], dtype=bool)
    arrive_wait = np.array(
        [d.async_mechanism is AsyncMechanism.ARRIVE_WAIT for d in descs],
        dtype=bool)
    has_override = np.array(
        [d.bandwidth_efficiency is not None for d in descs], dtype=bool)
    override = np.array(
        [d.bandwidth_efficiency if d.bandwidth_efficiency is not None
         else 0.0 for d in descs], dtype=np.float64)
    pattern_idx = np.array([_PATTERN_INDEX[d.access_pattern] for d in descs],
                           dtype=np.int64)
    wpattern_idx = np.array(
        [_PATTERN_INDEX[d.effective_write_pattern] for d in descs],
        dtype=np.int64)
    pf_friendly = np.array(
        [d.access_pattern.prefetch_friendly for d in descs], dtype=bool)
    wpf_friendly = np.array(
        [d.effective_write_pattern.prefetch_friendly for d in descs],
        dtype=bool)

    use_async = np.array([fl.use_async for fl in flag_list], dtype=bool)
    managed = np.array([fl.managed for fl in flag_list], dtype=bool)
    prefetched = np.array([fl.prefetched for fl in flag_list], dtype=bool)
    carveout = np.array([cell[2] for cell in cells], dtype=np.int64)
    if np.any(managed & ((carveout < 0)
                         | (carveout > gpu.max_shared_mem_bytes))):
        bad = int(carveout[managed & ((carveout < 0)
                                      | (carveout > gpu.max_shared_mem_bytes))][0])
        raise ValueError(f"shared-memory carveout {bad} outside "
                         f"[0, {gpu.max_shared_mem_bytes}]")

    # --- occupancy_for: integer limit math, exact in int64 ------------
    limit = np.minimum(gpu.max_threads_per_sm // threads,
                       np.int64(gpu.max_blocks_per_sm))
    buffers = np.where(use_async, 2, 1).astype(np.int64)
    need_smem = smem_static + buffers * tile_bytes
    limit = np.minimum(limit, np.where(
        need_smem > 0, carveout // np.maximum(need_smem, 1), _INT_UNLIMITED))
    reg_bytes = registers * threads * BYTES_PER_REGISTER
    limit = np.minimum(limit, np.where(
        reg_bytes > 0, gpu.register_file_bytes // np.maximum(reg_bytes, 1),
        _INT_UNLIMITED))
    blocks_per_sm = np.maximum(1, limit)
    active_sms = np.minimum(np.int64(gpu.sm_count), blocks)
    resident_blocks = np.minimum(
        blocks_per_sm, np.ceil(blocks / active_sms).astype(np.int64))
    resident_threads = resident_blocks * threads
    occ_fraction = (np.minimum(1.0, resident_threads / gpu.max_threads_per_sm)
                    * (active_sms / gpu.sm_count))
    throughput = np.minimum(1.0, resident_threads / FULL_UTILIZATION_THREADS)

    # --- _memory_time_ns ----------------------------------------------
    eff_lookup = np.array([kc.pattern_efficiency[p] for p in _PATTERNS],
                          dtype=np.float64)
    thread_limited = ~has_override
    efficiency = np.where(has_override, override, eff_lookup[pattern_idx])
    roofline = gpu.hbm_bandwidth * efficiency
    per_thread = np.where(use_async,
                          PER_THREAD_BANDWIDTH * ASYNC_MLP_FACTOR,
                          PER_THREAD_BANDWIDTH)
    per_sm = np.minimum(PER_SM_BANDWIDTH_CAP, resident_threads * per_thread)
    bandwidth = np.where(thread_limited,
                         np.minimum(roofline, active_sms * per_sm), roofline)
    bandwidth = np.where(use_async, bandwidth * kc.async_bandwidth_gain,
                         bandwidth)
    irregular = pattern_idx == _PATTERN_INDEX[AccessPattern.IRREGULAR]
    bandwidth = np.where(use_async & irregular,
                         bandwidth * kc.async_irregular_gain, bandwidth)

    warm_l2 = managed & prefetched & pf_friendly
    strided = pattern_idx == _PATTERN_INDEX[AccessPattern.STRIDED]
    strided_gain = (1.0 + (kc.prefetch_l2_gain - 1.0)
                    * kc.strided_prefetch_retention)
    gain = np.where(strided, strided_gain, kc.prefetch_l2_gain)
    gain = 1.0 + (gain - 1.0) * accuracy
    bandwidth = np.where(warm_l2, bandwidth * gain, bandwidth)

    load_bytes = blocks * tiles * tile_bytes
    unique = load_bytes / reuse
    reused = load_bytes - unique
    load_ns = unique / bandwidth * 1e9
    load_ns = np.where(
        reused > 0,
        load_ns + reused / (bandwidth * kc.cached_reuse_bandwidth_factor) * 1e9,
        load_ns)

    write_eff = np.where(has_override, override, eff_lookup[wpattern_idx])
    store_roofline = gpu.hbm_bandwidth * write_eff
    store_per_sm = np.minimum(PER_SM_BANDWIDTH_CAP,
                              resident_threads * PER_THREAD_BANDWIDTH)
    store_bw = np.where(thread_limited,
                        np.minimum(store_roofline, active_sms * store_per_sm),
                        store_roofline)
    store_bw = np.where(warm_l2 & wpf_friendly,
                        store_bw * kc.prefetch_l2_gain, store_bw)
    load_ns = np.where(write_bytes != 0,
                       load_ns + write_bytes / store_bw * 1e9, load_ns)

    # --- compute / control / barrier stages ---------------------------
    denom = active_sms * np.maximum(throughput, 1e-9)
    compute_ns = compute_cycles / denom * gpu.clock_ns
    control_ns = (copies * per_copy) / denom * gpu.clock_ns
    barrier_ns = np.where(
        arrive_wait,
        (total_tiles * kc.arrive_wait_extra_cycles_per_tile)
        / denom * gpu.clock_ns,
        0.0)

    # --- core assembly (async overlap vs sync staging) ----------------
    compute_async = compute_ns + control_ns
    fits = (smem_static + 2 * tile_bytes) <= carveout
    fill = load_ns / tiles * kc.async_pipeline_fill_tiles
    core_async = np.where(fits & ~serializes,
                          np.maximum(load_ns, compute_async) + fill,
                          load_ns + compute_async) + barrier_ns
    overlapped = sync_overlap * np.minimum(load_ns, compute_ns)
    core_sync = load_ns + compute_ns - overlapped
    core = np.where(use_async, core_async, core_sync)
    compute_out = np.where(use_async, compute_async, compute_ns)

    # --- UVM effects (managed lanes only) ------------------------------
    l1_reference = gpu.l1_bytes(gpu.default_shared_mem_bytes)
    l1_now = gpu.unified_l1_bytes - carveout
    pressure = np.maximum(0.0, 1.0 - l1_now / l1_reference)
    core_managed = core * (1.0 + kc.uvm_page_walk_overhead)
    core_managed = core_managed + kc.uvm_launch_sync_ns
    core_managed = core_managed * (1.0 + kc.uvm_l1_pressure * pressure)
    missing = footprint * touched * (1.0 - resident)
    footprint_ns = missing / bandwidth * 1e9
    core_managed = core_managed + ((kc.uvm_demand_kernel_multiplier - 1.0)
                                   * footprint_ns)
    core = np.where(managed, core_managed, core)

    # --- _fault_stalls (shared batch math with repro.sim.uvm) ----------
    has_fault = managed & (missing > 0)
    mig_blocks = np.ceil(missing / uvm.migration_block_bytes)
    batches = np.where(has_fault,
                       np.ceil(mig_blocks / uvm.fault_batch_size), 0.0)
    stall_ns = np.where(has_fault,
                        batches * (uvm.fault_service_ns + uvm.fault_stall_ns),
                        0.0)
    demand_bytes = np.where(has_fault, missing, 0.0)

    duration = kc.launch_ns + core + stall_ns

    executions: List[KernelExecution] = []
    for index, (desc, flags, cell_carveout, _res) in enumerate(cells):
        occupancy = float(occ_fraction[index])
        counters = collect_counters(
            desc, gpu, calib, cell_carveout,
            use_async=flags.use_async, managed=flags.managed,
            prefetched=flags.prefetched, occupancy=occupancy)
        executions.append(KernelExecution(
            name=desc.name,
            duration_ns=float(duration[index]),
            load_ns=float(load_ns[index]),
            compute_ns=float(compute_out[index]),
            fault_stall_ns=float(stall_ns[index]),
            fault_batches=int(batches[index]),
            demand_migrated_bytes=int(demand_bytes[index]),
            occupancy_fraction=occupancy,
            counters=counters,
        ))
    return executions


def prewarm_phase_memo(memo: PhaseMemo,
                       cells: Sequence[PhaseCell]) -> int:
    """Batch-evaluate every not-yet-memoized cell and seed ``memo``.

    Deduplicates while preserving first-seen order, evaluates the
    missing cells with :func:`simulate_phase_grid`, and seeds the memo
    so subsequent runs hit without ever touching the scalar simulator.
    Returns the number of cells evaluated.  Seeded values are bitwise
    equal to what a miss would have computed, so this is purely a
    scheduling optimization — cells the enumeration missed simply fall
    back to scalar misses.

    Family members across sweep groups routinely share phase
    signatures (pageable/pinned differ only in transfer kinds, not in
    kernel cells), so each unique cell is hashed exactly once here and
    cells the memo already holds are skipped.
    """
    seen = set()
    fresh = []
    for cell in cells:
        if cell in seen:
            continue
        seen.add(cell)
        if cell not in memo:
            fresh.append(cell)
    if not fresh:
        return 0
    for cell, execution in zip(fresh,
                               simulate_phase_grid(fresh, memo.system,
                                                   memo.calib)):
        memo.seed(cell, execution)
    return len(fresh)


# ----------------------------------------------------------------------
# Whole-grid batching: compile once per program structure.  A
# sensitivity grid re-runs the same (program, mode, carveout) structure
# for every iteration and seed; the op *sequence* and every pre-noise
# duration are identical across those runs (noise multiplies recorded
# durations, it never reorders operations).  So the grid runner
# compiles the structure once — by driving the real process generators
# through a recording runtime, never by re-deriving the logic — and
# then replays the compiled ops of a whole family of cells with only
# each spec's RNG draws (axis fusion, below).
# ----------------------------------------------------------------------
#: Compiled opcodes (plain tuples keep the replay loop allocation-free).
_OP_HOST = 0     # (op, label, category, base_ns, sigma, charges_jitter)
_OP_XFER = 1     # (op, label, kind, bytes, duration_at_unit_multiplier)
_OP_SPAWN = 2    # (op, label, bytes, duration_at_unit_multiplier)
_OP_KERNEL = 3   # (op, label, total_ns, sigma)


@dataclass
class CompiledProgram:
    """One program structure lowered to a replayable op list.

    Everything here is seed-independent: op order, pre-noise
    durations (at host-placement multiplier 1.0), the aggregated
    counters and occupancy.  ``counters`` is shared by every
    :class:`~repro.core.results.RunResult` replayed from this compile —
    safe because results treat counter reports as immutable.
    """

    name: str
    footprint_bytes: int
    ops: Tuple
    counters: CounterReport
    occupancy: float
    draws: int             # upper bound of standard-normal draws/replay
    link: PcieLink         # duration math (pure; env never touched)
    copy_engines: int
    #: one (flags, count, resident_first, resident_rest) per
    #: ``launch_repeated`` call, in program order — the inputs a
    #: structure-equal sibling cell needs to re-derive its kernel and
    #: spawn ops without re-driving the program generators (see
    #: ``repro.core.execution.derive_compiled``).
    launches: Tuple = ()


class _NoDrawRng:
    """Compile-time RNG stand-in: any draw is a bug, not a fallback."""

    def __getattr__(self, name: str):
        raise RuntimeError(
            f"compile-time RNG draw via {name!r}; compiled programs must "
            "be seed-independent")


class CompilerRuntime(CudaRuntime):
    """Records a program's op sequence instead of executing it.

    The real process generators (``repro.core.execution``) drive this
    runtime exactly as they drive the event engine, so the compiled op
    list cannot drift from execution semantics.  ``_noisy`` and
    ``_alloc_duration`` latch the pre-noise duration and sigma instead
    of drawing; the engine hooks emit ops.  The RNG is never touched —
    placement, jitter and measurement noise are all replay-time.
    """

    def __init__(self, system: SystemSpec, calib: Calibration,
                 smem_carveout_bytes: Optional[int] = None,
                 kernel_sim=None):
        # footprint_bytes=0 keeps the constructor's placement draw-free;
        # the replay draws the real placement per spec.
        super().__init__(system, calib, _NoDrawRng(),
                         footprint_bytes=0,
                         smem_carveout_bytes=smem_carveout_bytes,
                         env=_AnalyticClock(),
                         kernel_sim=kernel_sim)
        self.ops: List[Tuple] = []
        self.launches: List[Tuple] = []
        self.draws = 0
        self._latch: Optional[Tuple[float, float, bool]] = None

    # -- noise latches (no draws at compile time) ----------------------
    def _noisy(self, value_ns: float, sigma: float) -> float:
        self._latch = (value_ns, sigma, False)
        return value_ns

    def _alloc_duration(self, base_ns: float, per_byte_ns: float,
                        num_bytes: int) -> float:
        # Mirrors CudaRuntime._alloc_duration with the jitter draw
        # deferred to replay time (flag recorded instead).
        duration = base_ns + per_byte_ns * num_bytes
        jitter = not self._jitter_charged
        self._jitter_charged = True
        noise = self.calib.noise
        mib = max(1.0, num_bytes / (1024.0 * 1024.0))
        sigma = noise.alloc_sigma + noise.small_alloc_sigma / mib ** 0.5
        self._latch = (duration, sigma, jitter)
        return duration

    def _take_latch(self, duration_ns: float,
                    what: str) -> Tuple[float, float, bool]:
        latch = self._latch
        self._latch = None
        if latch is None or latch[0] != duration_ns:
            raise RuntimeError(
                f"compile latch mismatch at {what}: the duration did not "
                "come from this runtime's noise path")
        return latch

    # -- engine hooks: emit ops ----------------------------------------
    def _host_op(self, name: str, duration_ns: float,
                 category: str = "allocation"):
        base, sigma, jitter = self._take_latch(duration_ns, name)
        self.ops.append((_OP_HOST, name, category, base, sigma, jitter))
        self.draws += 1 + (1 if jitter else 0)
        return
        yield  # pragma: no cover - keeps this a generator for yield from

    def _transfer(self, label: str, kind: TransferKind, num_bytes: int,
                  chunks: Optional[int] = None):
        if num_bytes <= 0:
            return None
        duration = self.link.duration_ns(kind, num_bytes, 1.0)
        self.ops.append((_OP_XFER, label, kind, num_bytes, duration))
        self.draws += 1
        return TransferTiming(kind=kind, bytes=num_bytes,
                              duration_ns=duration)
        yield  # pragma: no cover - keeps this a generator for yield from

    def _spawn_migration(self, desc: KernelDescriptor, migrate_bytes: int,
                         batches: int) -> None:
        duration = self.link.duration_ns(TransferKind.MIGRATE_H2D,
                                         migrate_bytes, 1.0)
        self.ops.append((_OP_SPAWN, f"uvm migrate:{desc.name}",
                         migrate_bytes, duration))
        self.draws += 1  # the train's settlement draw

    def _hold_gpu(self, label: str, duration: float):
        total_ns, sigma, _ = self._take_latch(duration, label)
        self.ops.append((_OP_KERNEL, label, total_ns, sigma))
        self.draws += 1
        return
        yield  # pragma: no cover - keeps this a generator for yield from

    def launch_repeated(self, desc: KernelDescriptor, flags: ConfigFlags,
                        count: int, resident_first: float = 1.0,
                        resident_rest: float = 1.0):
        # Record the launch inputs so sibling cells of a fused family
        # can re-derive their kernel/spawn ops (derive_compiled) without
        # re-driving the program generators.
        self.launches.append((flags, count, resident_first, resident_rest))
        return (yield from super().launch_repeated(
            desc, flags, count, resident_first, resident_rest))

    def run(self, process) -> None:
        try:
            for _event in process:
                raise RuntimeError(
                    "program suspended on a live event during compilation")
        finally:
            process.close()

    def finish(self, program) -> CompiledProgram:
        """Package the recorded ops once the program generator drained."""
        occupancy = self.counters.mean_occupancy()
        compiled = CompiledProgram(
            name=program.name,
            footprint_bytes=program.footprint_bytes,
            ops=tuple(self.ops),
            counters=self.counters,
            occupancy=occupancy,
            draws=self.draws,
            link=self.link,
            copy_engines=self.system.link.copy_engines,
            launches=tuple(self.launches),
        )
        return compiled


# ----------------------------------------------------------------------
# Axis fusion: compile a whole sweep *family* — every cell sharing a
# ``(workload, mode)``, varying along one sensitivity axis (threads /
# blocks / carveout / size) — into one 2-D array program, evaluated as
# one NumPy call per op over a ``[spec, op]`` matrix.
#
# The family-level contention classifier works in two stages:
#
# 1. **Static proof at compile time** (``compile_family``): every cell
#    must share the op-code sequence, draw pattern and copy-engine
#    budget, and the *canonical schedule* — which op boundary each
#    migration train settles at, computed noise-free at host-placement
#    multiplier 1.0 — must be identical across the whole axis.  One
#    representative proves the shape; equality across the edge cells
#    extends the proof to the family (the closed forms are monotone in
#    the axis coordinate, so a schedule that holds at both ends and
#    never changes in between holds everywhere).  Any violated
#    obligation raises :class:`FamilyRerouted` naming the rule.
#
# 2. **Per-spec residual guards at replay time** (``replay_family``):
#    noise, OS jitter and the per-spec host-placement multiplier can
#    still perturb a realized schedule off the canonical one.  Each
#    guard is the exact vectorized form of a branch the scalar replay
#    takes (train settles strictly inside its canonical window, no
#    same-time boundaries, every conditional noise draw actually taken,
#    GPU busy-groups strictly separated).  Specs that fail any guard
#    are *invalid* in the returned mask and the caller runs them
#    through the per-spec path — the family result is used only where
#    it is provably the bitwise-identical answer.
#
# A family that fails the static proof is retried one cell at a time:
# a one-cell family has no axis to diverge along, so only a cell whose
# own canonical schedule contends takes the per-spec path.
# ----------------------------------------------------------------------


def _exp_map(values: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp`` over a 1-D array (libm, not ``np.exp``).

    The scalar engines draw measurement noise through ``math.exp``;
    NumPy's SIMD exp kernels may differ from libm in the last ulp and
    pick different code paths per CPU, which would silently break the
    bitwise-identity contract.  Routing every noise factor through the
    same libm call the scalar path makes keeps the fused replay exact.
    """
    return np.fromiter(map(math.exp, values.tolist()),
                       dtype=np.float64, count=values.shape[0])


def _canonical_schedule(ops: Tuple, copy_engines: int
                        ) -> Tuple[List[List[int]], List[int]]:
    """The noise-free settlement schedule of one compiled cell.

    Walks the op list with all noise at zero and the host-placement
    multiplier at 1.0 and records, for every migration train, the op
    whose boundary settles it (``settles[j]`` lists spawn-op indices in
    settlement order) or that it drains after the last op (``drains``).
    Raises :class:`FamilyRerouted` where the scalar replay would raise
    :class:`ContentionDetected` (same-time boundaries, queued engines):
    a family whose *canonical* schedule already contends has nothing to
    fuse.
    """
    now = 0.0
    pending: List[Tuple[float, int]] = []
    settles: List[List[int]] = [[] for _ in ops]
    drains: List[int] = []

    def settle(boundary: float, sink: List[int]) -> None:
        pending.sort()
        while pending:
            end, idx = pending[0]
            if end > boundary:
                break
            if end == boundary or (len(pending) > 1
                                   and end == pending[1][0]):
                raise FamilyRerouted(
                    "boundary-tie",
                    "canonical schedule has a same-time event boundary")
            pending.pop(0)
            sink.append(idx)

    for j, op in enumerate(ops):
        code = op[0]
        if code == _OP_SPAWN:
            if len(pending) + 1 > copy_engines:
                raise FamilyRerouted(
                    "engine-queue",
                    "canonical schedule queues for a DMA copy engine")
            pending.append((now + op[3], j))
            continue
        if code == _OP_HOST:
            duration = op[3]
        elif code == _OP_XFER:
            if len(pending) + 1 > copy_engines:
                raise FamilyRerouted(
                    "engine-queue",
                    "canonical schedule queues for a DMA copy engine")
            duration = op[4]
        else:  # _OP_KERNEL
            duration = op[2]
        end = now + duration
        settle(end, settles[j])
        now = end
    settle(math.inf, drains)
    return settles, drains


@dataclass
class CompiledFamily:
    """One sensitivity axis lowered to a 2-D array program.

    Row ``c`` of the ``[cell, op]`` matrices holds cell ``c``'s
    pre-noise durations; :func:`replay_family` gathers rows per spec
    and evaluates every spec of the family in one vectorized pass per
    op.  Everything here is static: the op codes, the draw-column map
    (which slot of the batched standard-normal vector each op
    consumes — exact cursor positions of the scalar replay), the
    canonical settlement plan and the GPU busy-groups.
    """

    cells: Tuple[CompiledProgram, ...]
    codes: Tuple[int, ...]
    base: np.ndarray          # [cell, op] pre-noise / fixed durations
    wire: np.ndarray          # [cell, op] per-unit-multiplier wire time
    sigma: np.ndarray         # [cell, op] lognormal sigma (host/kernel)
    jitter_cols: Tuple[int, ...]   # OS-jitter z column per op (-1: none)
    noise_cols: Tuple[int, ...]    # sigma z column per op (-1: none)
    #: per op: ((spawn_op, z_col), ...) trains settling at its boundary
    settle_plan: Tuple[Tuple[Tuple[int, int], ...], ...]
    drain_plan: Tuple[Tuple[int, int], ...]
    #: maximal runs of kernel ops separated only by zero-width spawns —
    #: statically merged GPU busy spans (first_op, last_op)
    kernel_groups: Tuple[Tuple[int, int], ...]
    cols: int                 # z columns actually consumed per spec
    copy_engines: int
    os_jitter_ns: float
    memcpy_sigma: float


def _reroute(rule: str, detail: str) -> None:
    raise FamilyRerouted(rule, detail)


def compile_family(cells: Sequence[CompiledProgram],
                   calib: Calibration) -> CompiledFamily:
    """Fuse structure-verified sibling cells into one array program.

    ``cells`` are the compiled tapes of every coordinate along one
    sensitivity axis (same workload and transfer mode).  Verifies the
    static proof obligations (see the section comment above) and
    precomputes the per-op matrices and draw-column map.  Raises
    :class:`FamilyRerouted` — with the rule that fired — when the
    family cannot be proven fusable; the caller then replays each cell
    individually, so rerouting never changes results.
    """
    if not cells:
        _reroute("empty", "no cells to fuse")
    head = cells[0]
    nops = len(head.ops)
    codes = tuple(op[0] for op in head.ops)
    if not any(code != _OP_SPAWN for code in codes):
        _reroute("empty", "no clock-advancing ops to fuse")
    for cell in cells[1:]:
        if tuple(op[0] for op in cell.ops) != codes:
            _reroute("shape-mismatch",
                     "cells disagree on the op-code sequence")
        if cell.draws != head.draws:
            _reroute("shape-mismatch", "cells disagree on the draw count")
        if cell.copy_engines != head.copy_engines:
            _reroute("shape-mismatch",
                     "cells disagree on the copy-engine budget")

    noise = calib.noise
    memcpy_sigma = noise.memcpy_sigma

    # --- static draw-pattern verification per op ----------------------
    host_jitter = [False] * nops
    op_draws = [False] * nops  # host/kernel sigma draw taken (static)
    for j in range(nops):
        code = codes[j]
        if code == _OP_HOST:
            flags = {cell.ops[j][5] for cell in cells}
            if len(flags) != 1:
                _reroute("shape-mismatch",
                         "cells disagree on the OS-jitter charge")
            host_jitter[j] = flags.pop()
            takes = set()
            for cell in cells:
                op = cell.ops[j]
                if op[4] > 0 and op[3] <= 0 and host_jitter[j]:
                    # duration = |jitter| alone: whether the sigma draw
                    # happens depends on the jitter draw's value.
                    _reroute("degenerate-duration",
                             f"host op {op[1]!r} duration is jitter-only")
                takes.add(op[4] > 0 and op[3] > 0)
            if len(takes) != 1:
                _reroute("noise-pattern",
                         "cells disagree on a host noise draw")
            op_draws[j] = takes.pop()
        elif code == _OP_KERNEL:
            takes = {cell.ops[j][3] > 0 and cell.ops[j][2] > 0
                     for cell in cells}
            if len(takes) != 1:
                _reroute("noise-pattern",
                         "cells disagree on a kernel noise draw")
            op_draws[j] = takes.pop()

    # --- canonical schedule: representative + equality across the axis
    try:
        schedule = _canonical_schedule(head.ops, head.copy_engines)
    except FamilyRerouted as exc:
        _reroute(exc.rule, str(exc))
    for cell in cells[1:]:
        try:
            other = _canonical_schedule(cell.ops, cell.copy_engines)
        except FamilyRerouted as exc:
            _reroute(exc.rule, str(exc))
        if other != schedule:
            _reroute("schedule-divergence",
                     "canonical settlement schedules differ across the "
                     "axis")
    settles, drains = schedule

    # --- draw-column map: exact scalar cursor positions ---------------
    col = 0
    jitter_cols = [-1] * nops
    noise_cols = [-1] * nops
    train_cols: Dict[int, int] = {}
    for j in range(nops):
        code = codes[j]
        if code == _OP_HOST:
            if host_jitter[j]:
                jitter_cols[j] = col
                col += 1
            if op_draws[j]:
                noise_cols[j] = col
                col += 1
        elif code == _OP_KERNEL and op_draws[j]:
            noise_cols[j] = col
            col += 1
        for t in settles[j]:
            train_cols[t] = col if memcpy_sigma > 0 else -1
            col += 1 if memcpy_sigma > 0 else 0
        if code == _OP_XFER and memcpy_sigma > 0:
            noise_cols[j] = col
            col += 1
    for t in drains:
        train_cols[t] = col if memcpy_sigma > 0 else -1
        col += 1 if memcpy_sigma > 0 else 0
    if col > head.draws:  # pragma: no cover - draws is an upper bound
        _reroute("shape-mismatch", "draw-column map exceeds the batch")

    # --- per-op matrices ----------------------------------------------
    ncells = len(cells)
    base = np.zeros((ncells, nops), dtype=np.float64)
    wire = np.zeros((ncells, nops), dtype=np.float64)
    sigma = np.zeros((ncells, nops), dtype=np.float64)
    # Sibling cells derived from one head share the head's link object
    # and, on a non-size axis, its transfer tuples — memoize the
    # decomposition per (link, kind, bytes) instead of re-deriving the
    # bandwidth model per cell.
    parts_memo: Dict[Tuple, Tuple[float, float]] = {}

    def parts_for(link, kind, nbytes):
        # repro: allow[D407] -- call-local dedup key; the id never
        # outlives this compile or reaches any result or cache key
        memo_key = (id(link), kind, nbytes)
        value = parts_memo.get(memo_key)
        if value is None:
            value = link.duration_parts(kind, nbytes)
            parts_memo[memo_key] = value
        return value

    for c, cell in enumerate(cells):
        link = cell.link
        for j, op in enumerate(cell.ops):
            code = codes[j]
            if code == _OP_HOST:
                base[c, j] = op[3]
                sigma[c, j] = op[4]
            elif code == _OP_XFER:
                fixed, unit = parts_for(link, op[2], op[3])
                if fixed + unit * 1.0 != op[4]:
                    _reroute("duration-mismatch",
                             f"transfer {op[1]!r} decomposition drifted "
                             "from the recorded duration")
                base[c, j] = fixed
                wire[c, j] = unit
            elif code == _OP_SPAWN:
                fixed, unit = parts_for(link, TransferKind.MIGRATE_H2D,
                                        op[2])
                if fixed + unit * 1.0 != op[3]:
                    _reroute("duration-mismatch",
                             f"migration {op[1]!r} decomposition drifted "
                             "from the recorded duration")
                base[c, j] = fixed
                wire[c, j] = unit
            else:  # _OP_KERNEL
                base[c, j] = op[2]
                sigma[c, j] = op[3]

    # --- static GPU busy-groups (spans separated only by zero-width
    # spawn ops abut exactly and always merge) ------------------------
    groups: List[Tuple[int, int]] = []
    first = last = -1
    for j, code in enumerate(codes):
        if code == _OP_KERNEL:
            if first < 0:
                first = j
            last = j
        elif code != _OP_SPAWN and first >= 0:
            groups.append((first, last))
            first = last = -1
    if first >= 0:
        groups.append((first, last))

    return CompiledFamily(
        cells=tuple(cells),
        codes=codes,
        base=base,
        wire=wire,
        sigma=sigma,
        jitter_cols=tuple(jitter_cols),
        noise_cols=tuple(noise_cols),
        settle_plan=tuple(
            tuple((t, train_cols[t]) for t in settles[j])
            for j in range(nops)),
        drain_plan=tuple((t, train_cols[t]) for t in drains),
        kernel_groups=tuple(groups),
        cols=col,
        copy_engines=head.copy_engines,
        os_jitter_ns=noise.os_jitter_ns,
        memcpy_sigma=memcpy_sigma,
    )


@dataclass
class FamilyReplay:
    """Per-spec measurements of one fused family replay.

    ``valid[i]`` is True iff spec ``i`` provably followed the canonical
    schedule, in which case row ``i`` of every array is bitwise equal
    to the scalar engines.  Invalid rows hold unverified garbage and
    must be recomputed per spec by the caller.
    """

    alloc_ns: np.ndarray
    memcpy_ns: np.ndarray
    kernel_ns: np.ndarray
    wall_ns: np.ndarray
    gpu_busy: np.ndarray
    valid: np.ndarray


def replay_family(fam: CompiledFamily, cell_index: np.ndarray,
                  multipliers: np.ndarray, z: np.ndarray) -> FamilyReplay:
    """Replay every spec of a family as one array program.

    ``cell_index[i]`` selects spec ``i``'s row of the family matrices,
    ``multipliers[i]`` is its host-placement time multiplier (drawn by
    the caller, placement-first like the scalar replay) and ``z`` is
    the ``[spec, col]`` matrix of batched standard-normal draws — each
    row the exact prefix of the spec's post-placement stream.  Every
    array expression mirrors the scalar :class:`AnalyticRuntime`
    operation order per lane (same float ops, same libm exp), and
    every branch the scalar path could take differently is guarded
    into the ``valid`` mask, so valid lanes are bitwise identical to
    the scalar engines.
    """
    n = multipliers.shape[0]
    with np.errstate(all="ignore"):
        base = fam.base[cell_index]
        wire = fam.wire[cell_index]
        sigma = fam.sigma[cell_index]
        memcpy_sigma = fam.memcpy_sigma
        os_jitter = fam.os_jitter_ns

        now = np.zeros(n, dtype=np.float64)
        alloc = np.zeros(n, dtype=np.float64)
        memcpy = np.zeros(n, dtype=np.float64)
        kernel = np.zeros(n, dtype=np.float64)
        busy = np.zeros(n, dtype=np.float64)
        max_end = np.zeros(n, dtype=np.float64)
        valid = np.ones(n, dtype=bool)
        trains: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        group_first = {f: g for g, (f, _l) in enumerate(fam.kernel_groups)}
        group_last = {l: g for g, (_f, l) in enumerate(fam.kernel_groups)}
        group_spans: List[Tuple[np.ndarray, np.ndarray]] = []
        group_start: List[Optional[np.ndarray]] = \
            [None] * len(fam.kernel_groups)

        def settle(plan, boundary) -> None:
            # Trains settling at this boundary, canonical order.  The
            # guards are exactly the scalar replay's branches: a train
            # settles here iff its end lies strictly inside
            # (previous boundary, this boundary) — `now` is the highest
            # earlier boundary, so end > now covers every intermediate
            # settle call and every same-time tie below it — and
            # co-settling trains must keep strictly ordered ends.
            # Accumulators mutate in place: they are owned zeros-born
            # arrays never aliased by trains or group spans.
            nonlocal memcpy, valid
            prev_end = None
            for t, t_col in plan:
                t_start, t_end = trains.pop(t)
                if boundary is None:
                    valid &= t_end > now
                else:
                    valid &= (t_end > now) & (t_end < boundary)
                if prev_end is not None:
                    valid &= prev_end < t_end
                prev_end = t_end
                value = t_end - t_start
                if t_col >= 0:
                    valid &= value > 0
                    value = value * _exp_map(memcpy_sigma * z[:, t_col])
                noisy_end = t_start + value
                event_end = np.maximum(noisy_end, t_start)
                memcpy += event_end - t_start
                np.maximum(max_end, event_end, out=max_end)

        for j, code in enumerate(fam.codes):
            if code == _OP_SPAWN:
                duration = base[:, j] + wire[:, j] * multipliers
                trains[j] = (now, now + duration)
                continue
            if code == _OP_HOST:
                duration = base[:, j]
                j_col = fam.jitter_cols[j]
                if j_col >= 0:
                    duration = duration + np.abs(0.0 + os_jitter
                                                 * z[:, j_col])
                n_col = fam.noise_cols[j]
                if n_col >= 0:
                    duration = duration * _exp_map(sigma[:, j]
                                                   * z[:, n_col])
                end = now + duration
                settle(fam.settle_plan[j], end)
                alloc += end - now
                np.maximum(max_end, end, out=max_end)
                now = end
            elif code == _OP_KERNEL:
                duration = base[:, j]
                n_col = fam.noise_cols[j]
                if n_col >= 0:
                    duration = duration * _exp_map(sigma[:, j]
                                                   * z[:, n_col])
                end = now + duration
                settle(fam.settle_plan[j], end)
                kernel += end - now
                np.maximum(max_end, end, out=max_end)
                g = group_first.get(j)
                if g is not None:
                    group_start[g] = now
                g = group_last.get(j)
                if g is not None:
                    busy += end - group_start[g]
                    group_spans.append((group_start[g], end))
                now = end
            else:  # _OP_XFER
                duration = base[:, j] + wire[:, j] * multipliers
                end = now + duration
                settle(fam.settle_plan[j], end)
                value = end - now
                n_col = fam.noise_cols[j]
                if n_col >= 0:
                    valid &= value > 0
                    value = value * _exp_map(memcpy_sigma * z[:, n_col])
                noisy_end = now + value
                event_end = np.maximum(noisy_end, now)
                memcpy += event_end - now
                np.maximum(max_end, event_end, out=max_end)
                now = end

        settle(fam.drain_plan, None)

        # Busy-groups must stay strictly separated per spec, or the
        # scalar merge_intervals would have coalesced them.
        for g in range(1, len(group_spans)):
            valid &= group_spans[g][0] > group_spans[g - 1][1]

        # min_start is 0.0 (the first event starts at the epoch), so
        # wall == max_end bitwise.
        wall = max_end
        if group_spans:
            positive = wall > 0
            gpu_busy = np.where(positive,
                                busy / np.where(positive, wall, 1.0), 0.0)
        else:
            gpu_busy = np.zeros(n, dtype=np.float64)

    return FamilyReplay(alloc_ns=alloc, memcpy_ns=memcpy, kernel_ns=kernel,
                        wall_ns=wall, gpu_busy=gpu_busy, valid=valid)


def replay_compiled(compiled: CompiledProgram, rng: np.random.Generator,
                    system: SystemSpec, calib: Calibration
                    ) -> Optional[Tuple[float, float, float, float, float]]:
    """One spec's measurements from a compiled program, as a one-cell
    family, with the executor's draw order: the host placement first,
    then ``cols`` standard normals.

    Returns ``(alloc_ns, memcpy_ns, kernel_ns, wall_ns,
    gpu_busy_fraction)``, or ``None`` when the cell reroutes or the
    spec fails a residual guard (the per-spec path then answers).
    """
    try:
        fam = compile_family([compiled], calib)
    except FamilyRerouted:
        return None
    multiplier = place_host_data(compiled.footprint_bytes, system.cpu,
                                 calib.noise, rng).time_multiplier
    rep = replay_family(fam, np.zeros(1, dtype=np.intp),
                        np.array([multiplier]),
                        rng.standard_normal((1, fam.cols)))
    row = tuple(float(values[0]) for values in (
        rep.alloc_ns, rep.memcpy_ns, rep.kernel_ns, rep.wall_ns,
        rep.gpu_busy))
    if not rep.valid[0] or min(row[:4]) < 0.0:
        return None
    return row
