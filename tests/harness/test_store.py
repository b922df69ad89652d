"""Result-store tests."""

import json

import pytest

from repro.core.configs import TransferMode
from repro.core.experiment import Experiment
from repro.core.results import RunResult
from repro.harness.store import (ResultStore, record_to_run, run_to_record)
from repro.sim.cache import MissRates
from repro.sim.counters import CounterReport, KernelCounters
from repro.sim.kernel import InstructionMix
from repro.workloads.sizes import SizeClass


@pytest.fixture(scope="module")
def comparison():
    return Experiment(workload="saxpy", size=SizeClass.SMALL,
                      iterations=3).run()


def make_run(mode: TransferMode, size: str, **overrides) -> RunResult:
    """A synthetic run whose fields encode its coordinates."""
    fields = dict(
        workload="synthetic", mode=mode, size=size, seed=7,
        alloc_ns=1.5e8, memcpy_ns=2.25e7, kernel_ns=3.125e6,
        wall_ns=1.75e8, counters=CounterReport(),
        occupancy=0.625, gpu_busy_fraction=0.25,
    )
    fields.update(overrides)
    return RunResult(**fields)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "runs.jsonl")


class TestRoundTrip:
    def test_append_and_reload_runset(self, store, comparison):
        original = comparison.by_mode[TransferMode.UVM]
        assert store.append_runset(original) == 3
        loaded = store.load_runset("saxpy", TransferMode.UVM, "small")
        assert len(loaded) == 3
        assert loaded.mean_total_ns() == pytest.approx(
            original.mean_total_ns())
        assert loaded.mean_breakdown() == pytest.approx(
            original.mean_breakdown())

    def test_reload_full_comparison(self, store, comparison):
        for runs in comparison.by_mode.values():
            store.append_runset(runs)
        loaded = store.load_comparison("saxpy", "small")
        for mode in TransferMode:
            assert loaded.normalized_total(mode) == pytest.approx(
                comparison.normalized_total(mode))

    def test_incremental_appends_accumulate(self, store, comparison):
        runs = comparison.by_mode[TransferMode.STANDARD]
        store.append(runs.runs[0])
        store.append(runs.runs[1])
        assert len(store) == 2


class TestFullSchemaRoundTrip:
    """`query` round trip for every TransferMode x size class."""

    @pytest.mark.parametrize("mode", list(TransferMode),
                             ids=[m.value for m in TransferMode])
    @pytest.mark.parametrize("size",
                             [s.label for s in SizeClass.ordered()])
    def test_every_mode_and_size_round_trips(self, store, mode, size):
        original = make_run(mode, size)
        store.append(original)
        matches = store.query(workload="synthetic", mode=mode, size=size)
        assert len(matches) == 1
        loaded = matches[0]
        assert loaded.mode is mode
        assert loaded.size == size
        for field in ("workload", "seed", "alloc_ns", "memcpy_ns",
                      "kernel_ns", "wall_ns", "occupancy",
                      "gpu_busy_fraction"):
            assert getattr(loaded, field) == getattr(original, field), field
        # the round trip is byte-stable, not merely approximate
        assert json.dumps(run_to_record(loaded), sort_keys=True) == \
            json.dumps(run_to_record(original), sort_keys=True)

    def test_cross_mode_query_keeps_records_apart(self, store):
        for mode in TransferMode:
            for size in SizeClass.ordered():
                store.append(make_run(mode, size.label))
        for mode in TransferMode:
            assert len(store.query(mode=mode)) == len(SizeClass.ordered())
        for size in SizeClass.ordered():
            assert len(store.query(size=size.label)) == len(TransferMode)


class TestOptionalFields:
    """Records written before the optional fields existed still load."""

    def test_missing_occupancy_and_busy_default_to_zero(self, store):
        record = run_to_record(make_run(TransferMode.UVM, "large"))
        for optional in ("occupancy", "gpu_busy_fraction"):
            del record[optional]
        with store.path.open("a") as stream:
            stream.write(json.dumps(record) + "\n")
        (loaded,) = list(store)
        assert loaded.occupancy == 0.0
        assert loaded.gpu_busy_fraction == 0.0
        assert loaded.total_ns == pytest.approx(
            make_run(TransferMode.UVM, "large").total_ns)

    def test_missing_counters_yield_empty_report(self):
        record = run_to_record(make_run(TransferMode.ASYNC, "tiny"))
        assert "counters" not in record  # default stays lean
        loaded = record_to_run(record)
        assert loaded.counters.kernels == []
        assert loaded.counters.mean_occupancy() == 0.0

    def test_counters_round_trip_when_requested(self):
        counters = CounterReport()
        counters.add(KernelCounters(
            kernel_name="k0",
            instructions=InstructionMix(memory=10.0, fp=20.0,
                                        integer=30.0, control=5.0),
            l1=MissRates(load=0.86, store=0.74),
            dram_load_bytes=4096.0, dram_store_bytes=1024.0,
            occupancy=0.5))
        original = make_run(TransferMode.UVM_PREFETCH_ASYNC, "super",
                            counters=counters)
        record = json.loads(json.dumps(
            run_to_record(original, with_counters=True)))
        loaded = record_to_run(record)
        assert loaded.counters.instructions == counters.instructions
        assert loaded.counters.mean_miss_rates() == \
            counters.mean_miss_rates()
        assert loaded.counters.kernels[0].kernel_name == "k0"
        assert loaded.counters.kernels[0].occupancy == 0.5

    @pytest.mark.parametrize("field", ["alloc_ns", "memcpy_ns",
                                       "kernel_ns", "wall_ns"])
    def test_negative_timing_rejected(self, field):
        record = run_to_record(make_run(TransferMode.UVM, "large"))
        record[field] = -1.0
        with pytest.raises(ValueError, match="negative timing"):
            record_to_run(record)

    def test_unknown_mode_rejected(self):
        record = run_to_record(make_run(TransferMode.UVM, "large"))
        record["mode"] = "nvlink"
        with pytest.raises(ValueError, match="unknown transfer mode"):
            record_to_run(record)

    def test_decoded_run_equals_constructed_run(self):
        run = make_run(TransferMode.ASYNC, "super")
        loaded = record_to_run(json.loads(json.dumps(run_to_record(run))))
        assert loaded == run
        assert list(vars(loaded)) == list(vars(run))


class TestQuery:
    def test_filters(self, store, comparison):
        for runs in comparison.by_mode.values():
            store.append_runset(runs)
        assert len(store.query(mode=TransferMode.ASYNC)) == 3
        assert len(store.query(workload="saxpy")) == 15
        assert store.query(workload="other") == []
        assert store.workloads() == ["saxpy"]

    def test_empty_store(self, store):
        assert len(store) == 0
        assert store.query() == []


class TestRobustness:
    def test_corrupt_line_reported_with_location(self, store, comparison):
        store.append(comparison.by_mode[TransferMode.UVM].runs[0])
        with store.path.open("a") as stream:
            stream.write("{not json\n")
        with pytest.raises(ValueError, match=":2"):
            list(store)

    def test_blank_lines_skipped(self, store, comparison):
        store.append(comparison.by_mode[TransferMode.UVM].runs[0])
        with store.path.open("a") as stream:
            stream.write("\n\n")
        assert len(store) == 1

    def test_version_checked(self, store):
        with store.path.open("a") as stream:
            stream.write('{"v": 99}\n')
        with pytest.raises(ValueError, match="version"):
            list(store)
