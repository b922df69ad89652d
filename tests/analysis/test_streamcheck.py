"""Stream/event-graph analyzer tests: races, cycles, dead syncs."""

import numpy as np
import pytest

from repro.analysis.streamcheck import (StreamGraph, analyze_records)
from repro.core.streaming import execute_program_streamed
from repro.sim.pcie import TransferKind
from repro.sim.program import (BufferDirection, BufferSpec, KernelPhase,
                               Program)
from repro.sim.runtime import CudaRuntime
from repro.sim.streams import CudaStream
from repro.sim.timing import ConfigFlags

from ..analysis.test_rules import make_descriptor


@pytest.fixture
def rt(system, calib):
    return CudaRuntime(system, calib, np.random.default_rng(0))


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


class TestDeclarativeGraph:
    def test_classic_h2d_kernel_race(self):
        graph = StreamGraph()
        graph.op("copy", "H2D", kind="copy", writes=("A",))
        graph.op("compute", "kernel", kind="kernel", reads=("A",))
        diags = graph.analyze()
        assert rules_of(diags) == {"S301"}
        assert "A" in diags[0].message

    def test_event_edge_suppresses_race(self):
        graph = StreamGraph()
        copy = graph.op("copy", "H2D", kind="copy", writes=("A",))
        graph.op("compute", "kernel", kind="kernel", reads=("A",),
                 after=copy)
        assert graph.analyze() == []

    def test_host_sync_suppresses_race(self):
        graph = StreamGraph()
        graph.op("copy", "H2D", kind="copy", writes=("A",))
        graph.sync("copy")
        graph.op("compute", "kernel", kind="kernel", reads=("A",))
        assert graph.analyze() == []

    def test_read_read_is_not_a_race(self):
        graph = StreamGraph()
        graph.op("s1", "k1", reads=("A",))
        graph.op("s2", "k2", reads=("A",))
        assert graph.analyze() == []

    def test_disjoint_buffers_do_not_race(self):
        graph = StreamGraph()
        graph.op("s1", "k1", writes=("A",))
        graph.op("s2", "k2", writes=("B",))
        assert graph.analyze() == []

    def test_transitive_ordering_suppresses_race(self):
        # a -> b (event), b -> c (FIFO): a happens-before c.
        graph = StreamGraph()
        a = graph.op("s1", "produce", writes=("A",))
        graph.op("s2", "relay", after=a)
        graph.op("s2", "consume", reads=("A",))
        assert graph.analyze() == []

    def test_write_write_race(self):
        graph = StreamGraph()
        graph.op("s1", "w1", writes=("A",))
        graph.op("s2", "w2", writes=("A",))
        assert rules_of(graph.analyze()) == {"S301"}

    def test_cycle_detected(self):
        graph = StreamGraph()
        a = graph.op("s1", "a")
        b = graph.op("s2", "b", after=a)
        graph.add_dependency(a, after=b)
        diags = graph.analyze()
        assert rules_of(diags) == {"S302"}
        assert "deadlock" in diags[0].message

    def test_cycle_suppresses_race_analysis(self):
        graph = StreamGraph()
        a = graph.op("s1", "a", writes=("A",))
        b = graph.op("s2", "b", reads=("A",))
        graph.add_dependency(a, after=b)
        graph.add_dependency(b, after=a)
        assert rules_of(graph.analyze()) == {"S302"}

    def test_dead_sync_on_empty_stream(self):
        graph = StreamGraph()
        graph.sync("s1")
        diags = graph.analyze()
        assert rules_of(diags) == {"S303"}

    def test_back_to_back_syncs(self):
        graph = StreamGraph()
        graph.op("s1", "work")
        graph.sync("s1")
        graph.sync("s1")
        diags = graph.analyze()
        # First sync waits on real work; second waits on nothing.
        assert [d.rule for d in diags] == ["S303"]

    def test_workload_mode_stamped(self):
        graph = StreamGraph()
        graph.sync("s1")
        diag = graph.analyze(workload="w", mode="standard")[0]
        assert diag.workload == "w"
        assert diag.mode == "standard"


class TestFromRecords:
    def test_recorded_race_detected(self, rt):
        copy_stream = CudaStream(rt, "copy")
        compute_stream = CudaStream(rt, "compute")
        copy_stream.enqueue(
            rt._transfer("copy", TransferKind.H2D, 1 << 20),
            label="H2D", kind="copy", writes=("A",))
        compute_stream.enqueue(
            rt.launch(make_descriptor(), ConfigFlags(),
                      resident_fraction=1.0),
            label="kernel", kind="kernel", reads=("A",))
        rt.env.run()
        diags = analyze_records(rt.stream_ops, workload="w",
                                mode="standard")
        assert rules_of(diags) == {"S301"}

    def test_recorded_after_edge_suppresses_race(self, rt):
        copy_stream = CudaStream(rt, "copy")
        compute_stream = CudaStream(rt, "compute")
        copy = copy_stream.enqueue(
            rt._transfer("copy", TransferKind.H2D, 1 << 20),
            label="H2D", kind="copy", writes=("A",))
        compute_stream.enqueue(
            rt.launch(make_descriptor(), ConfigFlags(),
                      resident_fraction=1.0),
            after=copy, label="kernel", kind="kernel", reads=("A",))
        rt.env.run()
        assert analyze_records(rt.stream_ops) == []

    def test_recorded_sync_suppresses_race(self, rt):
        copy_stream = CudaStream(rt, "copy")
        compute_stream = CudaStream(rt, "compute")

        def main():
            copy_stream.enqueue(
                rt._transfer("copy", TransferKind.H2D, 1 << 20),
                kind="copy", writes=("A",))
            yield from copy_stream.synchronize()
            compute_stream.enqueue(
                rt.launch(make_descriptor(), ConfigFlags(),
                          resident_fraction=1.0),
                kind="kernel", reads=("A",))
            yield from compute_stream.synchronize()

        rt.env.run_process(main())
        assert analyze_records(rt.stream_ops) == []

    def test_drained_sync_reported_dead(self, rt):
        stream = CudaStream(rt, "s")
        stream.enqueue(rt._transfer("copy", TransferKind.H2D, 1 << 20))
        rt.env.run()  # drain before synchronizing

        def main():
            yield from stream.synchronize()

        rt.env.run_process(main())
        assert rules_of(analyze_records(rt.stream_ops)) == {"S303"}

    def test_from_streams_interleaves_by_sequence(self, rt):
        s1 = CudaStream(rt, "s1")
        s2 = CudaStream(rt, "s2")
        a = s1.enqueue(rt._transfer("c", TransferKind.H2D, 1 << 20),
                       writes=("A",))
        s2.enqueue(rt.launch(make_descriptor(), ConfigFlags(),
                             resident_fraction=1.0),
                   after=a, reads=("A",))
        rt.env.run()
        graph = StreamGraph.from_streams(s1, s2)
        assert len(graph.ops) == 2
        assert graph.analyze() == []


class TestStreamedExecutionLedger:
    def make_program(self, count=1):
        desc = make_descriptor(blocks=256)
        buffers = (
            BufferSpec("in", desc.load_bytes, BufferDirection.IN),
            BufferSpec("out", desc.write_bytes, BufferDirection.OUT),
        )
        return Program(name="streamed", buffers=buffers,
                       phases=(KernelPhase(desc, count=count),))

    def run_ledger(self, program, system, calib, chunks=4):
        rng = np.random.default_rng(0)
        rt = CudaRuntime(system, calib, rng,
                         footprint_bytes=program.footprint_bytes)
        from repro.core.streaming import _streamed_process
        rt.run(_streamed_process(rt, program, chunks, False, True))
        return rt.stream_ops

    def test_chunked_overlap_is_race_free(self, system, calib):
        records = self.run_ledger(self.make_program(), system, calib)
        assert records, "streamed execution must populate the ledger"
        assert analyze_records(records) == []

    def test_repeated_phase_war_hazard_detected(self, system, calib):
        # Pass 2's chunk copies overwrite the staging regions pass 1's
        # kernels read, with no sync between passes: a genuine
        # write-after-read hazard in the hand-tuned overlap pattern.
        records = self.run_ledger(self.make_program(count=2), system,
                                  calib)
        assert "S301" in rules_of(analyze_records(records))

    def test_execute_program_streamed_still_runs(self, system, calib):
        result = execute_program_streamed(self.make_program(), chunks=4,
                                          system=system, calib=calib)
        assert result.wall_ns > 0
        assert result.chunks == 4
