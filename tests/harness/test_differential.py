"""Engine equivalence battery: the reference oracle vs the vector engine.

The reference event engine is the oracle.  The vector engine
(:mod:`repro.sim.vecgrid`) answers each spec one of two ways: per spec
through :class:`~repro.sim.vecgrid.AnalyticRuntime` (with a contention
classifier that reroutes anything ambiguous back to the reference
engine), or as a row of a compiled, fused sweep family — the path every
figure sweep takes.  Every simulated quantity on every path — phase
times, wall clock, timeline events, CUPTI counters, UVM fault-batch
counts and migration volumes — must be **bit-identical** to the
reference engine, not merely close.  This module is the proof battery:
all 21 workloads x 5 modes run three ways (reference, vector per spec,
vector grid replay), a timeline-level comparison (every recorded event,
every kernel execution), and a hypothesis fuzz over synthetic programs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import TransferMode
from repro.core.execution import (ENGINES, _explicit_process,
                                  _managed_process, compile_program,
                                  execute_program, make_runtime)
from repro.sim.calibration import default_calibration
from repro.sim.hardware import default_system
from repro.sim.kernel import AccessPattern, KernelDescriptor
from repro.sim.program import simple_program
from repro.workloads.registry import get_workload
from repro.workloads.sizes import SizeClass

from ..sim.test_vecgrid_properties import replayed_result

MODES = list(TransferMode)
#: Every engine checked against the reference oracle.
OTHER_ENGINES = tuple(engine for engine in ENGINES if engine != "reference")

# All 21 workloads. Micro kernels at the paper's largest class they
# define, applications at LARGE or larger: together they exercise
# explicit trains, prefetch trains, demand migration, oversubscription,
# iterative launch_repeated, and d2h writebacks. The darknet networks
# add long per-layer launch trains; lud (irregular in-place tiles) and
# nw (a prefetch that displaces the next kernel's working set) are the
# paper's called-out anomalies.
BATTERY = [
    ("vector_seq", SizeClass.MEGA),
    ("vector_rand", SizeClass.MEGA),
    ("saxpy", SizeClass.MEGA),
    ("gemv", SizeClass.MEGA),
    ("2DCONV", SizeClass.MEGA),
    ("3DCONV", SizeClass.SUPER),
    ("gemm", SizeClass.LARGE),
    ("hotspot", SizeClass.LARGE),
    ("kmeans", SizeClass.LARGE),
    ("srad", SizeClass.LARGE),
    ("pathfinder", SizeClass.LARGE),
    ("knn", SizeClass.LARGE),
    ("resnet18", SizeClass.LARGE),
    ("resnet50", SizeClass.LARGE),
    ("yolov3-tiny", SizeClass.LARGE),
    ("yolov3", SizeClass.LARGE),
    ("lud", SizeClass.LARGE),
    ("nw", SizeClass.LARGE),
    ("backprop", SizeClass.MEGA),
    ("lavaMD", SizeClass.SUPER),
    ("bayesian", SizeClass.MEGA),
]


def run_once(program, mode, engine, size):
    return execute_program(program, mode, seed=7, engine=engine,
                           size_label=size.label)


def grid_replayed(program, mode, seed, size_label=""):
    """One spec as a one-cell fused family (compile, then replay with
    the executor's draw order); ``None`` when the classifier or a
    residual guard leaves the spec to the per-spec path."""
    compiled = compile_program(program, mode, default_system(),
                               default_calibration())
    return replayed_result(compiled, mode, seed, size_label)


class TestBattery:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("name,size", BATTERY,
                             ids=[w for w, _ in BATTERY])
    def test_run_results_bit_identical_three_way(self, name, size, mode):
        workload = get_workload(name)
        if not workload.supports(size):
            pytest.skip(f"{name} undefined at {size.label}")
        program = workload.program(size)
        ref = run_once(program, mode, "reference", size)
        legs = {engine: run_once(program, mode, engine, size)
                for engine in OTHER_ENGINES}
        replayed = grid_replayed(program, mode, 7, size.label)
        if replayed is not None:
            legs["grid"] = replayed
        for leg, other in legs.items():
            # Dataclass equality covers every timing field and the full
            # counter report (per-kernel instruction mixes, miss rates,
            # DRAM traffic, occupancy) — all bitwise, no tolerances.
            assert other == ref, leg
            assert other.breakdown() == ref.breakdown(), leg
            assert other.total_ns == ref.total_ns, leg


def run_runtime(program, mode, engine):
    """execute_program's internals, exposing the runtime itself.

    ``make_runtime`` builds the event runtime for reference and
    the analytic :class:`repro.sim.vecgrid.AnalyticRuntime` for
    vector — both :class:`CudaRuntime` subclasses exposing the same
    timeline/executions/counters surface.
    """
    system, calib = default_system(), default_calibration()
    rt = make_runtime(engine, system, calib, np.random.default_rng(7),
                      footprint_bytes=program.footprint_bytes)
    if mode.managed:
        process = _managed_process(rt, program, mode)
    else:
        process = _explicit_process(rt, program, mode)
    rt.run(process)
    return rt


class TestTimelineLevel:
    """Event-by-event equivalence, not just aggregate times."""

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_every_trace_event_identical(self, mode):
        program = get_workload("hotspot").program(SizeClass.LARGE)
        ref = run_runtime(program, mode, "reference")
        for engine in OTHER_ENGINES:
            other = run_runtime(program, mode, engine)
            assert other.timeline.events == ref.timeline.events, engine
            assert other.env.now == ref.env.now, engine

    @pytest.mark.parametrize("engine", OTHER_ENGINES)
    @pytest.mark.parametrize("mode",
                             [TransferMode.UVM, TransferMode.UVM_PREFETCH,
                              TransferMode.UVM_PREFETCH_ASYNC],
                             ids=lambda m: m.value)
    def test_uvm_fault_batches_and_migration_volumes(self, mode, engine):
        """The UVM driver model must agree across engines on *how much*
        moved and in *how many* service rounds, not only on time."""
        program = get_workload("srad").program(SizeClass.LARGE)
        ref = run_runtime(program, mode, "reference")
        other = run_runtime(program, mode, engine)
        ref_exec = [(e.name, e.fault_batches, e.demand_migrated_bytes,
                     e.fault_stall_ns) for e in ref.executions]
        other_exec = [(e.name, e.fault_batches, e.demand_migrated_bytes,
                       e.fault_stall_ns) for e in other.executions]
        assert other_exec == ref_exec
        if mode is TransferMode.UVM:
            # Cold demand paging must actually migrate something, or
            # the comparison above is vacuous.
            assert sum(e.fault_batches for e in ref.executions) > 0
            assert sum(e.demand_migrated_bytes for e in ref.executions) > 0
        migrations = [e for e in ref.timeline.events
                      if e.name.startswith(("uvm migrate", "uvm writeback"))]
        other_migrations = [e for e in other.timeline.events
                            if e.name.startswith(("uvm migrate",
                                                  "uvm writeback"))]
        assert other_migrations == migrations

    def test_counters_identical_per_kernel(self):
        program = get_workload("gemm").program(SizeClass.LARGE)
        for mode in MODES:
            ref = run_runtime(program, mode, "reference")
            for engine in OTHER_ENGINES:
                assert run_runtime(program, mode,
                                   engine).counters == ref.counters, engine


# ----------------------------------------------------------------------
# Hypothesis fuzz over synthetic single-kernel programs
# ----------------------------------------------------------------------
PATTERNS = list(AccessPattern)


@st.composite
def programs(draw):
    blocks = draw(st.integers(min_value=1, max_value=4096))
    tiles = draw(st.integers(min_value=1, max_value=64))
    tile_bytes = draw(st.sampled_from([4096, 16384, 49152]))
    desc = KernelDescriptor(
        name="fuzz",
        blocks=blocks,
        threads_per_block=draw(st.sampled_from([64, 128, 256, 1024])),
        tiles_per_block=tiles,
        tile_bytes=tile_bytes,
        compute_cycles_per_tile=draw(st.floats(min_value=1.0,
                                               max_value=1e6)),
        access_pattern=draw(st.sampled_from(PATTERNS)),
        write_bytes=draw(st.integers(min_value=0, max_value=1 << 30)),
        reuse=draw(st.floats(min_value=1.0, max_value=64.0)),
        touched_fraction=draw(st.floats(min_value=0.01, max_value=1.0)),
    )
    in_bytes = draw(st.integers(min_value=1 << 12, max_value=1 << 36))
    out_bytes = draw(st.integers(min_value=1 << 12, max_value=1 << 32))
    iterations = draw(st.integers(min_value=1, max_value=200))
    return simple_program("fuzz", desc, in_bytes, out_bytes,
                          iterations=iterations)


@given(program=programs(),
       mode=st.sampled_from(MODES),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_fuzz_three_way(program, mode, seed):
    """Reference vs vector per spec vs vector grid replay over
    synthetic programs.

    The per-spec vector leg also exercises the contention-fallback
    path: when the classifier bails, execute_program reruns on the
    reference engine from the snapshotted RNG state, so the result must
    *still* be bitwise reference."""
    ref = dataclasses.asdict(
        execute_program(program, mode, seed=seed, engine="reference"))
    for engine in OTHER_ENGINES:
        other = execute_program(program, mode, seed=seed, engine=engine)
        assert dataclasses.asdict(other) == ref, engine
    replayed = grid_replayed(program, mode, seed)
    if replayed is not None:
        assert dataclasses.asdict(replayed) == ref
