"""Axis-fusion equivalence battery: fused vs the reference engine.

The axis-fused family replay (:func:`repro.sim.vecgrid.compile_family`
/ :func:`replay_family`) evaluates a whole sensitivity axis as one 2-D
array program, gated by a family-level classifier that proves the
entire family uncontended from one representative cell.  The contract
is the same as every other engine shortcut in this repo: **bitwise**
equality, no tolerances — a fused sweep must be indistinguishable from
the event-driven reference engine.

Four layers:

* a curated 9-workload x 5-mode battery along the threads axis,
* the exact figure grids (boundary cells at both family edges), fused
  end to end with no spec left to the per-spec path,
* a family whose cells settle on different canonical schedules, which
  reroutes and fuses cell by cell, and
* a deliberately-contended system (one DMA engine) where the
  classifier must *refuse* to fuse and still produce bitwise results
  through the per-spec/event fallback,

plus a hypothesis fuzz over random (workload, axis, points, mode,
iterations) families.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import TransferMode
from repro.harness import executor as executor_module
from repro.harness.executor import SweepExecutor, expand_grid
from repro.harness.sensitivity import sweep_specs
from repro.sim.hardware import default_system
from repro.workloads.registry import get_workload
from repro.workloads.sizes import SizeClass

MODES = list(TransferMode)

# Same population as the engine battery: micro kernels exercise
# explicit trains and prefetch trains, applications add demand
# migration, oversubscription, and iterative launch_repeated.
BATTERY = [
    ("vector_seq", SizeClass.MEGA),
    ("vector_rand", SizeClass.MEGA),
    ("saxpy", SizeClass.MEGA),
    ("gemm", SizeClass.LARGE),
    ("hotspot", SizeClass.LARGE),
    ("kmeans", SizeClass.LARGE),
    ("srad", SizeClass.LARGE),
    ("pathfinder", SizeClass.LARGE),
    ("knn", SizeClass.LARGE),
]

THREAD_POINTS = (64, 256, 1024)
CARVEOUT_POINTS_KB = (2, 32, 128)


def axis_family(workload, size, mode, iterations=2):
    """One family: a single sensitivity axis for one (workload, mode).

    Workloads with ``program_with_geometry`` (the vector micros) sweep
    the threads axis; every other workload sweeps the carveout axis,
    which never touches program construction.
    """
    if hasattr(get_workload(workload), "program_with_geometry"):
        overrides = [{"blocks": 64, "threads": t} for t in THREAD_POINTS]
    else:
        overrides = [{"smem_carveout_bytes": kb * 1024}
                     for kb in CARVEOUT_POINTS_KB]
    specs = []
    for override in overrides:
        specs.extend(expand_grid(
            [workload], [size], [mode], iterations=iterations,
            seed_salt=":sweep", **override))
    return specs


def sweep(specs, engine, system=None):
    """Run one engine over the specs; return (executor, result dicts).

    ``dataclasses.asdict`` flattens every timing field and the full
    counter report, so list equality below is bitwise across all of
    them at once.
    """
    executor = SweepExecutor(jobs=1, engine=engine, system=system)
    results = executor.run(specs)
    return executor, [dataclasses.asdict(result) for result in results]


class TestBattery:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("name,size", BATTERY,
                             ids=[w for w, _ in BATTERY])
    def test_fused_equals_per_cell_equals_scalar(self, name, size, mode):
        """Fused == reference, bitwise (the id dates from when a
        per-cell replay leg ran too)."""
        if not get_workload(name).supports(size):
            pytest.skip(f"{name} undefined at {size.label}")
        specs = axis_family(name, size, mode)
        fused_exec, fused = sweep(specs, "vector")
        _, scalar = sweep(specs, "reference")
        assert fused == scalar
        # The family must at least have reached the classifier: either
        # it fused or it rerouted with a recorded rule — never silently
        # fell off the fused path.
        stats = fused_exec.last
        assert stats.families_fused + stats.families_rerouted >= 1, \
            stats.summary()


class TestFigureGrids:
    """The figures' own grids, including both family-edge cells."""

    @pytest.mark.parametrize("grid", ("fig12", "fig11", "fig13"))
    def test_grid_bitwise_and_fully_fused(self, grid, monkeypatch):
        """At the paper's 30 runs, every spec of the figure grid comes
        from the fused replay: one family per mode, none rerouted, and
        not one spec reaches the per-spec path."""
        specs = sweep_specs(grid, iterations=30)
        _, scalar = sweep(specs, "reference")

        def refuse(entry):
            raise AssertionError(f"{entry[0]} took the per-spec path")

        monkeypatch.setattr(executor_module, "_execute_entry", refuse)
        fused_exec, fused = sweep(specs, "vector")  # strict: raises
        assert fused == scalar
        stats = fused_exec.last
        assert stats.grid_specs == stats.total == len(specs)
        assert stats.families_fused == len(MODES)
        assert stats.families_rerouted == 0
        assert stats.reroute_rules == {}

    def test_family_edge_cells_present_and_identical(self):
        """Boundary cells (first/last axis point) settle bitwise.

        Edge cells are where a monotonicity argument would slip first;
        compare them spec-by-spec rather than only as a whole list.
        """
        specs = sweep_specs("fig12", iterations=2)
        edge_threads = {min(s.threads for s in specs),
                        max(s.threads for s in specs)}
        _, fused = sweep(specs, "vector")
        _, scalar = sweep(specs, "reference")
        compared = 0
        for spec, ours, theirs in zip(specs, fused, scalar):
            if spec.threads in edge_threads:
                assert ours == theirs, spec
                compared += 1
        assert compared == len(MODES) * 2 * 2  # 2 edges x 2 iterations


class TestMixedSeedBatches:
    """A served batch can hold one grid under several base seeds (two
    tenants' requests), interleaved spec by spec."""

    @pytest.mark.parametrize("salts", [("", ""), ("", ":sweep")],
                             ids=["base-seeds", "base-seeds-and-salts"])
    def test_interleaved_seeds_replay_bitwise(self, salts):
        grids = [expand_grid(["vector_seq", "hotspot"], [SizeClass.LARGE],
                             iterations=3, base_seed=seed, seed_salt=salt)
                 for seed, salt in zip((63, 64), salts)]
        specs = [spec for pair in zip(*grids) for spec in pair]
        fused_exec, fused = sweep(specs, "vector")
        _, scalar = sweep(specs, "reference")
        assert fused == scalar
        assert fused_exec.last.grid_specs == len(specs)

    def test_two_seeds_share_each_cells_compile(self):
        """A cell's tape does not depend on the seed: one grid under
        two base seeds compiles each cell once, and each seed's results
        equal that seed's own sweep."""
        grids = [expand_grid(["gemm", "vector_seq"], [SizeClass.SUPER],
                             iterations=5, base_seed=seed)
                 for seed in (63, 64)]
        specs = [spec for pair in zip(*grids) for spec in pair]
        assert len(specs) == 100
        mixed_exec, mixed = sweep(specs, "vector")
        alone_exec, alone = sweep(grids[0], "vector")
        assert alone_exec.last.grid_groups == 10
        assert mixed_exec.last.grid_groups == 10
        assert mixed_exec.last.grid_specs == len(specs)
        assert mixed[0::2] == alone
        assert mixed[1::2] == sweep(grids[1], "vector")[1]


class TestRerouteTiers:
    def test_schedule_divergence_fuses_per_cell_and_stays_bitwise(self):
        """Fig. 4's saxpy/uvm size axis settles its migration trains at
        different op boundaries per size: the family reroutes on
        ``schedule-divergence``, then each size fuses as its own
        one-cell family and still matches the reference bitwise."""
        sizes = [size for size in SizeClass.ordered()
                 if get_workload("saxpy").supports(size)]
        specs = expand_grid(["saxpy"], sizes, [TransferMode.UVM],
                            iterations=3)
        fused_exec, fused = sweep(specs, "vector")
        _, scalar = sweep(specs, "reference")
        assert fused == scalar
        stats = fused_exec.last
        assert stats.reroute_rules.get("schedule-divergence") == 1, \
            stats.summary()
        assert stats.families_rerouted == 1, stats.summary()
        assert stats.families_fused == len(sizes), stats.summary()
        # Rows failing a residual guard take the per-spec path.
        assert stats.grid_specs == len(specs) - stats.reroute_rules.get(
            "residual-guard", 0)


    def test_isolated_grid_task_reports_in_process_tallies(self):
        """An isolated sweep replays the grid on a pool worker and
        carries its tallies back: the ``[sweep]`` counts match an
        in-process sweep's.  Phase-memo counts are left out, because a
        worker's memo is its own."""
        sizes = [size for size in SizeClass.ordered()
                 if get_workload("saxpy").supports(size)]
        specs = expand_grid(["saxpy"], sizes, [TransferMode.UVM],
                            iterations=3)
        local = SweepExecutor(jobs=1, engine="vector")
        isolated = SweepExecutor(jobs=1, engine="vector", isolate=True)
        assert [dataclasses.asdict(run) for run in isolated.run(specs)] \
            == [dataclasses.asdict(run) for run in local.run(specs)]
        names = ("grid_specs", "grid_groups", "families_fused",
                 "families_rerouted", "reroute_rules")
        assert local.last.reroute_rules.get("schedule-divergence") == 1
        assert {name: getattr(isolated.last, name) for name in names} == \
            {name: getattr(local.last, name) for name in names}


class TestContendedFamilies:
    def test_single_copy_engine_reroutes_and_stays_bitwise(self):
        """A system with one DMA engine makes saxpy's two UVM demand
        streams queue: the classifier must reroute (never fuse a
        contended family) and the fallback path must still match the
        scalar engine bitwise on the *same* contended system."""
        base = default_system()
        system = dataclasses.replace(
            base, link=dataclasses.replace(base.link, copy_engines=1))
        specs = axis_family("saxpy", SizeClass.LARGE,
                            TransferMode.UVM)
        fused_exec, fused = sweep(specs, "vector", system=system)
        _, scalar = sweep(specs, "reference", system=system)
        assert fused == scalar
        stats = fused_exec.last
        rerouted = stats.families_rerouted \
            + sum(stats.reroute_rules.values())
        assert rerouted >= 1, stats.summary()
        assert stats.families_fused == 0, stats.summary()


# ----------------------------------------------------------------------
# Hypothesis fuzz over random single-axis families
# ----------------------------------------------------------------------
FUZZ_WORKLOADS = ("vector_seq", "vector_rand", "saxpy")


@st.composite
def families(draw):
    mode = draw(st.sampled_from(MODES))
    iterations = draw(st.integers(min_value=1, max_value=3))
    axis = draw(st.sampled_from(("threads", "blocks", "carveout")))
    # Geometry axes need program_with_geometry (the vector micros);
    # the carveout axis works for any workload.
    workload = draw(st.sampled_from(
        FUZZ_WORKLOADS if axis == "carveout" else FUZZ_WORKLOADS[:2]))
    if axis == "threads":
        points = draw(st.lists(
            st.sampled_from((32, 64, 128, 256, 512, 1024)),
            min_size=2, max_size=4, unique=True))
        overrides = [{"blocks": 64, "threads": p} for p in points]
    elif axis == "blocks":
        points = draw(st.lists(
            st.sampled_from((16, 64, 256, 1024, 4096)),
            min_size=2, max_size=4, unique=True))
        overrides = [{"blocks": p, "threads": 256} for p in points]
    else:
        points = draw(st.lists(
            st.sampled_from((2, 8, 32, 128)),
            min_size=2, max_size=4, unique=True))
        overrides = [{"smem_carveout_bytes": p * 1024} for p in points]
    specs = []
    for override in overrides:
        specs.extend(expand_grid(
            [workload], [SizeClass.LARGE], [mode],
            iterations=iterations, seed_salt=":sweep", **override))
    return specs


@given(specs=families())
@settings(max_examples=25, deadline=None)
def test_fuzz_fused_equals_reference(specs):
    """Fused == reference over random axis families.

    Families the classifier reroutes are equally valid examples: the
    equality must hold whichever path settled each spec."""
    _, fused = sweep(specs, "vector")
    _, scalar = sweep(specs, "reference")
    assert fused == scalar
