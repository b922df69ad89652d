"""Executor-level engine parity, prewarm hoisting, and memo stats.

Complements ``tests/harness/test_differential.py`` (per-run bitwise
equivalence) by exercising the sweep layer: the executor must produce
identical result streams under either engine, must not rebuild a
program that another coordinate already built (prewarm hoisting), and
must surface the phase-memo hit/miss accounting in its summary line.
"""

import json

import pytest

from repro.core.configs import ALL_MODES
from repro.harness.executor import (RunSpec, SweepExecutor,
                                    clear_program_memo, execute_spec,
                                    expand_grid)
from repro.harness.store import run_to_record
from repro.sim.phasecache import clear_phase_memos
from repro.workloads.sizes import SizeClass

GRID = dict(workloads=("vector_seq", "saxpy"),
            sizes=(SizeClass.TINY, SizeClass.SMALL),
            modes=ALL_MODES, iterations=3)


def serialize(runs):
    return [json.dumps(run_to_record(run, with_counters=True),
                       sort_keys=True) for run in runs]


@pytest.fixture(scope="module")
def specs():
    return expand_grid(**GRID)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_phase_memos()
    clear_program_memo()
    yield
    clear_phase_memos()
    clear_program_memo()


class TestEngineParity:
    def test_vector_sweep_matches_reference_sweep(self, specs):
        ref = SweepExecutor(jobs=1, engine="reference").run(specs)
        vector = SweepExecutor(jobs=1, engine="vector").run(specs)
        assert serialize(vector) == serialize(ref)

    def test_vector_threads_match_vector_serial(self, specs):
        serial = SweepExecutor(jobs=1, engine="vector").run(specs)
        threaded = SweepExecutor(jobs=4, engine="vector").run(specs)
        assert serialize(threaded) == serialize(serial)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(engine="warp")

    def test_execute_spec_rejects_retired_engine(self, specs):
        with pytest.raises(ValueError, match="unknown engine 'fast'"):
            execute_spec(specs[0], engine="fast")


class TestPrewarm:
    def test_no_redundant_build_program_calls(self, specs, monkeypatch):
        """Every (workload, size, geometry) coordinate builds its
        program exactly once per sweep; the mode x iteration fan-out
        reuses the memoized object."""
        calls = []
        original = RunSpec.build_program

        def counting(self):
            calls.append((self.workload, self.size))
            return original(self)

        monkeypatch.setattr(RunSpec, "build_program", counting)
        executor = SweepExecutor(jobs=1, engine="vector")
        executor.run(specs)
        distinct = {(s.workload, s.size, s.blocks, s.threads) for s in specs}
        assert len(calls) == len(distinct)
        # 2 workloads x 2 sizes x 5 modes x 3 iterations = 60 specs,
        # but only 4 distinct program coordinates.
        assert len(calls) == 4
        assert len(specs) == 60

    def test_prewarm_counts_distinct_coordinates(self, specs):
        executor = SweepExecutor(jobs=1)
        assert executor.prewarm(specs) == 4
        # Idempotent: a second pass builds nothing new.
        assert executor.prewarm(specs) == 4


class TestMemoStats:
    def test_vector_sweep_reports_phase_memo_hits(self, specs):
        executor = SweepExecutor(jobs=1, engine="vector")
        executor.run(specs)
        stats = executor.last
        assert stats.engine == "vector"
        assert stats.phase_lookups > 0
        # 3 iterations per cell with identical phases: most lookups hit.
        assert stats.phase_hits > stats.phase_misses
        summary = executor.summary()
        assert "vector engine" in summary
        assert "phase memo" in summary
        assert f"{stats.phase_hits}/{stats.phase_lookups}" in summary

    def test_reference_sweep_reports_no_memo(self, specs):
        executor = SweepExecutor(jobs=1, engine="reference")
        executor.run(specs[:10])
        assert executor.last.phase_lookups == 0
        assert "phase memo" not in executor.summary()
        assert "vector engine" not in executor.summary()

    def test_hit_rate_property(self):
        from repro.harness.executor import SweepStats
        stats = SweepStats(phase_hits=3, phase_misses=1)
        assert stats.phase_lookups == 4
        assert stats.phase_hit_rate == pytest.approx(0.75)
        assert SweepStats().phase_hit_rate == 0.0
