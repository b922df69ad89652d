"""Foundations of the fast paths: deadlines, chunk trains, phase memo.

The vector engine replays an uncontended ``Resource.stream`` train as
the closed form ``end = start + duration``, and sweeps serve kernel
phases from :class:`~repro.sim.phasecache.PhaseMemo`.  Both shortcuts
are exact only because of the event-engine mechanics pinned here: a
chunk train's end is bitwise the monolithic hold, deadlines fire at
their absolute time, and a memo hit is the scalar result.  The
reference-vs-vector equivalence battery lives in
``tests/harness/test_differential.py``.
"""

import pytest

from repro.sim.calibration import default_calibration
from repro.sim.engine import (Deadline, Environment, Resource,
                              SimulationError, Timeout)
from repro.sim.hardware import default_system
from repro.sim.kernel import AccessPattern, KernelDescriptor
from repro.sim.phasecache import (PhaseMemo, clear_phase_memos,
                                  phase_memo_for)
from repro.sim.timing import ConfigFlags, simulate_kernel

#: Event environments the mechanics are checked on.
ENGINES = (Environment,)


# ----------------------------------------------------------------------
# Timeout / Deadline trigger-guard regression (the historical bug)
# ----------------------------------------------------------------------
class TestTriggerGuard:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_event_types(self, engine):
        env = engine()
        assert isinstance(env.timeout(1.0), Timeout)
        assert isinstance(env.timeout_until(1.0), Deadline)

    def test_timeout_succeed_after_creation_raises(self):
        """A Timeout is born triggered; ``succeed`` must raise instead
        of double-scheduling it (the historical guard-bypass bug)."""
        env = Environment()
        timeout = env.timeout(5.0)
        with pytest.raises(SimulationError):
            timeout.succeed()

    def test_timeout_not_double_scheduled(self):
        env = Environment()
        timeout = env.timeout(5.0)
        with pytest.raises(SimulationError):
            timeout.succeed()
        fired = []
        timeout.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [5.0]  # exactly once, at the original delay

    def test_deadline_succeed_after_creation_raises(self):
        env = Environment()
        deadline = env.timeout_until(5.0)
        with pytest.raises(SimulationError):
            deadline.succeed()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadline_fires_at_absolute_time(self, engine):
        env = engine()
        first = env.timeout(2.0)
        seen = []
        env.timeout_until(7.25).callbacks.append(
            lambda e: seen.append(env.now))
        env.run()
        assert first.processed
        assert seen == [7.25]

    def test_deadline_in_past_rejected(self):
        env = Environment()
        env.timeout(10.0)
        env.run()
        with pytest.raises(SimulationError):
            env.timeout_until(5.0)


# ----------------------------------------------------------------------
# Chunk trains: boundary arithmetic and contention semantics
# ----------------------------------------------------------------------
def run_stream(engine, count, total, start_delay=0.0):
    env = engine()
    resource = Resource(env, capacity=1, name="r")
    out = {}

    def proc():
        if start_delay:
            yield env.timeout(start_delay)
        out["span"] = yield from resource.stream(count, total)

    env.run_process(proc(), name="train")
    return env, resource, out["span"]


class TestStreamTrains:
    # Awkward floats whose iterated-addition sum differs from the
    # analytic product — the reason boundaries are absolute deadlines.
    @pytest.mark.parametrize("total", [103.0, 1234.567891, 0.1, 3.0e7 / 7])
    @pytest.mark.parametrize("count", [1, 2, 3, 17, 128])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_train_end_bit_identical_to_monolithic(self, engine, count,
                                                   total):
        _, _, (start1, end1) = run_stream(engine, 1, total,
                                          start_delay=13.25)
        _, _, (startn, endn) = run_stream(engine, count, total,
                                          start_delay=13.25)
        assert startn == start1
        assert endn == end1  # bitwise: absolute boundaries, 1.0 factor

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_chunks_is_noop(self, engine):
        env, resource, (start, end) = run_stream(engine, 0, 55.0)
        assert (start, end) == (0.0, 0.0)
        assert env.now == 0.0
        assert resource.in_use == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_rejected(self, engine):
        env = engine()
        resource = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            env.run_process(resource.stream(-1, 5.0))
        env = engine()
        resource = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            env.run_process(resource.stream(2, -5.0))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_contended_trains_interleave_per_chunk(self, engine):
        """Two trains on a capacity-1 resource share it chunk by chunk."""
        env = engine()
        resource = Resource(env, capacity=1, name="link")
        spans = {}

        def train(tag, count, total, delay):
            if delay:
                yield env.timeout(delay)
            spans[tag] = yield from resource.stream(count, total)

        env.process(train("a", 4, 100.0, 0.0), name="a")
        env.process(train("b", 4, 100.0, 10.0), name="b")
        env.run()
        # b arrives at t=10 but only gets its first grant at a's first
        # chunk boundary (t=25); from there its absolute boundaries run
        # 50, 75, 100, 125 while a's remaining chunks catch up to their
        # own (already-passed) deadlines in zero time.
        assert spans["a"] == (0.0, 100.0)
        assert spans["b"] == (25.0, 125.0)
        assert env.now == 125.0

    def test_contended_first_grant_waits(self):
        """A second requester arriving mid-train queues until the
        in-flight chunk releases, not until the whole train ends."""
        env = Environment()
        resource = Resource(env, capacity=1, name="link")
        grants = []

        def train():
            yield from resource.stream(10, 100.0)

        def interloper():
            yield env.timeout(5.0)
            yield resource.request()
            grants.append(env.now)
            resource.release()

        env.process(train(), name="train")
        env.process(interloper(), name="interloper")
        env.run()
        # chunk boundaries are at 10, 20, ... the interloper (t=5)
        # gets the resource at the first boundary, not at 100.
        assert grants == [10.0]


# ----------------------------------------------------------------------
# Phase memo
# ----------------------------------------------------------------------
DESC = KernelDescriptor(
    name="memo_kernel", blocks=128, threads_per_block=256,
    tiles_per_block=4, tile_bytes=16384, compute_cycles_per_tile=2048.0,
    access_pattern=AccessPattern.SEQUENTIAL, write_bytes=1 << 20,
    data_footprint_bytes=1 << 24)


class TestPhaseMemo:
    def setup_method(self):
        clear_phase_memos()

    def teardown_method(self):
        clear_phase_memos()

    def test_hit_returns_identical_object(self):
        system, calib = default_system(), default_calibration()
        smem = system.gpu.default_shared_mem_bytes
        memo = PhaseMemo(system, calib)
        flags = ConfigFlags()
        first = memo.simulate(DESC, flags, system, calib,
                              smem_carveout_bytes=smem,
                              resident_fraction=0.0)
        second = memo.simulate(DESC, flags, system, calib,
                               smem_carveout_bytes=smem,
                               resident_fraction=0.0)
        assert second is first
        assert (memo.hits, memo.misses) == (1, 1)
        assert first == simulate_kernel(DESC, flags, system, calib,
                                        smem_carveout_bytes=smem,
                                        resident_fraction=0.0)

    def test_distinct_arguments_miss(self):
        system, calib = default_system(), default_calibration()
        smem = system.gpu.default_shared_mem_bytes
        memo = PhaseMemo(system, calib)
        memo.simulate(DESC, ConfigFlags(), system, calib,
                      smem_carveout_bytes=smem)
        memo.simulate(DESC, ConfigFlags(use_async=True), system, calib,
                      smem_carveout_bytes=smem)
        memo.simulate(DESC, ConfigFlags(), system, calib,
                      smem_carveout_bytes=smem, resident_fraction=0.5)
        assert memo.misses == 3
        assert memo.hits == 0

    def test_foreign_environment_bypasses(self):
        system, calib = default_system(), default_calibration()
        memo = PhaseMemo(system, calib)
        import dataclasses
        other = dataclasses.replace(
            system, gpu=dataclasses.replace(system.gpu, sm_count=1))
        smem = other.gpu.default_shared_mem_bytes
        result = memo.simulate(DESC, ConfigFlags(), other, calib,
                               smem_carveout_bytes=smem)
        assert memo.bypasses == 1
        assert len(memo) == 0
        assert result == simulate_kernel(DESC, ConfigFlags(), other, calib,
                                         smem_carveout_bytes=smem,
                                         resident_fraction=0.0)

    def test_registry_reuses_by_equality(self):
        a = phase_memo_for(default_system(), default_calibration())
        b = phase_memo_for(default_system(), default_calibration())
        assert a is b
        clear_phase_memos()
        c = phase_memo_for(default_system(), default_calibration())
        assert c is not a
