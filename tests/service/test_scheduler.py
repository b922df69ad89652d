"""Unit battery for the fair-share scheduler and circuit breaker.

The executor is faked: ``execute_batch`` stubs record what the
scheduler dispatched and settle synthetic outcomes, so these tests pin
scheduling semantics (rotation, dedup, abandon, drain, containment)
without paying for real sweeps.
"""

import asyncio
import threading

import pytest

from repro.harness.resilience import SpecOutcome, SpecStatus, SweepOutcome
from repro.service import CircuitBreaker, FairShareScheduler


def outcome_for(spec, status=SpecStatus.OK, from_cache=False):
    return SpecOutcome(spec=spec, index=0, status=status,
                       from_cache=from_cache, attempts=1)


def ok_batch(specs, engine):
    return SweepOutcome(outcomes=[outcome_for(spec) for spec in specs])


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_reference_engine_makes_it_inert(self):
        breaker = CircuitBreaker("reference", threshold=1)
        for _ in range(5):
            breaker.record(outcome_for(None, SpecStatus.FAILED))
        assert breaker.state == "closed"
        assert breaker.select() == "reference"
        assert not breaker.active

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("vector", threshold=3)
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        assert breaker.select() == "vector"  # not yet
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        assert breaker.state == "open"
        assert breaker.select() == "reference"
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker("vector", threshold=2)
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        breaker.record(outcome_for(None))  # streak broken
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        assert breaker.state == "closed"

    def test_cache_hits_and_skips_say_nothing(self):
        breaker = CircuitBreaker("vector", threshold=1)
        breaker.record(outcome_for(None, SpecStatus.FAILED,
                                   from_cache=True))
        breaker.record(outcome_for(None, SpecStatus.SKIPPED))
        assert breaker.state == "closed"

    def test_recovery_path_reopens_then_closes(self):
        breaker = CircuitBreaker("vector", threshold=1, recovery=2)
        breaker.record(outcome_for(None, SpecStatus.TIMED_OUT))
        assert breaker.state == "open"
        breaker.record(outcome_for(None))  # fallback success 1
        assert breaker.state == "open"
        breaker.record(outcome_for(None))  # fallback success 2
        assert breaker.state == "half_open"
        assert breaker.select() == "vector"  # probing the real engine
        breaker.record(outcome_for(None))
        assert breaker.state == "closed"

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker("vector", threshold=1, recovery=1)
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        breaker.record(outcome_for(None))  # -> half_open
        assert breaker.state == "half_open"
        breaker.record(outcome_for(None, SpecStatus.FAILED))
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("vector", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("vector", recovery=0)

    def test_snapshot_shape(self):
        snapshot = CircuitBreaker("vector").snapshot()
        assert snapshot == {"state": "closed", "configured": "vector",
                            "serving": "vector", "trips": 0,
                            "consecutive_failures": 0,
                            "fallback_successes": 0}


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestDedup:
    def test_identical_keys_share_one_job(self):
        async def scenario():
            release = threading.Event()

            def execute(specs, engine):
                release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=4, slots=1)
            # Occupy the slot so later submissions stay queued.
            scheduler.submit("ops", "plug", "key-plug")
            await asyncio.sleep(0.05)
            job, created = scheduler.submit("alice", "s1", "key-1")
            dup, dup_created = scheduler.submit("bob", "s1", "key-1")
            assert created and not dup_created
            assert dup is job
            assert job.waiters == 2
            assert job.tenants == {"alice", "bob"}
            assert scheduler.stats.dedup_hits == 1
            release.set()
            assert await scheduler.wait_idle(timeout=5)
            assert job.future.result().ok

        asyncio.run(scenario())


class TestFairShare:
    def test_rotation_interleaves_tenants(self):
        async def scenario():
            release = threading.Event()
            batches = []

            def execute(specs, engine):
                batches.append(list(specs))
                if specs == ["plug"]:
                    release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=4, slots=1)
            scheduler.submit("ops", "plug", "key-plug")
            await asyncio.sleep(0.05)
            for i in range(6):
                scheduler.submit("bulk", f"b{i}", f"kb{i}")
            for i in range(2):
                scheduler.submit("light", f"l{i}", f"kl{i}")
            release.set()
            assert await scheduler.wait_idle(timeout=5)
            # The first post-plug batch alternates bulk/light: the bulk
            # tenant's head start does not buy it the whole batch.
            assert batches[0] == ["plug"]
            assert batches[1] == ["b0", "l0", "b1", "l1"]
            assert batches[2] == ["b2", "b3", "b4", "b5"]

        asyncio.run(scenario())


class TestAbandon:
    def test_last_waiter_cancels_a_queued_job(self):
        async def scenario():
            release = threading.Event()

            def execute(specs, engine):
                release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=4, slots=1)
            scheduler.submit("ops", "plug", "key-plug")
            await asyncio.sleep(0.05)
            job, _ = scheduler.submit("alice", "s1", "key-1")
            assert scheduler.abandon(job) is True
            outcome = job.future.result()
            assert outcome.status is SpecStatus.SKIPPED
            assert "abandoned" in outcome.error
            assert scheduler.stats.cancelled == 1
            # The key left the dedup map: a retry re-executes it.
            retry, created = scheduler.submit("alice", "s1", "key-1")
            assert created and retry is not job
            release.set()
            assert await scheduler.wait_idle(timeout=5)
            assert retry.future.result().ok

        asyncio.run(scenario())

    def test_earlier_waiters_do_not_cancel(self):
        async def scenario():
            release = threading.Event()

            def execute(specs, engine):
                release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=4, slots=1)
            scheduler.submit("ops", "plug", "key-plug")
            await asyncio.sleep(0.05)
            job, _ = scheduler.submit("alice", "s1", "key-1")
            scheduler.submit("bob", "s1", "key-1")
            assert scheduler.abandon(job) is False  # bob still waits
            assert not job.cancelled
            release.set()
            assert await scheduler.wait_idle(timeout=5)
            assert job.future.result().ok

        asyncio.run(scenario())

    def test_resume_jobs_are_never_abandoned(self):
        async def scenario():
            release = threading.Event()

            def execute(specs, engine):
                release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=4, slots=1)
            scheduler.submit("ops", "plug", "key-plug")
            await asyncio.sleep(0.05)
            job, _ = scheduler.submit("__resume__", "s1", "key-1",
                                      source="resume")
            assert scheduler.abandon(job) is False
            release.set()
            assert await scheduler.wait_idle(timeout=5)
            assert job.future.result().ok

        asyncio.run(scenario())


class TestContainment:
    def test_wholesale_batch_error_settles_its_own_jobs_only(self):
        async def scenario():
            def execute(specs, engine):
                if "poison" in specs:
                    raise RuntimeError("executor exploded")
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(execute, batch_size=1, slots=1)
            poisoned, _ = scheduler.submit("alice", "poison", "key-p")
            healthy, _ = scheduler.submit("alice", "fine", "key-f")
            assert await scheduler.wait_idle(timeout=5)
            bad = poisoned.future.result()
            assert bad.status is SpecStatus.FAILED
            assert "batch execution error" in bad.error
            assert "executor exploded" in bad.error
            assert healthy.future.result().ok  # the loop survived
            assert scheduler.stats.batch_errors == 1

        asyncio.run(scenario())

    def test_torn_batch_is_a_contained_failure(self):
        async def scenario():
            def execute(specs, engine):
                return SweepOutcome(outcomes=[])  # wrong cardinality

            scheduler = FairShareScheduler(execute, batch_size=2, slots=1)
            job, _ = scheduler.submit("alice", "s1", "key-1")
            assert await scheduler.wait_idle(timeout=5)
            assert job.future.result().status is SpecStatus.FAILED
            assert scheduler.stats.batch_errors == 1

        asyncio.run(scenario())

    def test_settle_hook_bugs_stay_local(self):
        async def scenario():
            def bad_hook(job, outcome):
                raise RuntimeError("hook bug")

            scheduler = FairShareScheduler(ok_batch, batch_size=2,
                                           slots=1, on_settle=bad_hook)
            job, _ = scheduler.submit("alice", "s1", "key-1")
            assert await scheduler.wait_idle(timeout=5)
            assert job.future.result().ok  # settled despite the hook

        asyncio.run(scenario())


class TestSettleHooks:
    def test_each_settlement_reaches_both_hooks_in_order(self):
        async def scenario():
            events = []
            scheduler = FairShareScheduler(
                ok_batch, batch_size=2, slots=1,
                on_settle=lambda job, outcome: events.append(job.key),
                on_settle_many=lambda pairs: events.append(
                    [job.key for job, _ in pairs]))
            for n in range(3):
                scheduler.submit("alice", f"s{n}", f"key-{n}", pump=False)
            assert scheduler.queued_jobs() == 3  # no batch until the pump
            scheduler.pump()
            assert await scheduler.wait_idle(timeout=5)
            return events

        assert asyncio.run(scenario()) == [
            "key-0", "key-1", ["key-0", "key-1"], "key-2", ["key-2"]]

    def test_abandon_settles_as_a_group_and_drain_does_not(self):
        async def scenario():
            groups = []
            scheduler = FairShareScheduler(
                ok_batch, batch_size=1, slots=1,
                on_settle_many=lambda pairs: groups.append(
                    [(job.key, job.drained) for job, _ in pairs]))
            scheduler.draining = True  # queue without dispatching
            abandoned, _ = scheduler.submit("alice", "s0", "key-0")
            scheduler.submit("alice", "s1", "key-1")
            scheduler.submit("alice", "s2", "key-2")
            assert scheduler.abandon(abandoned)
            await scheduler.drain(grace_s=1)
            return groups

        assert asyncio.run(scenario()) == [[("key-0", False)]]


class TestDrain:
    def test_drain_flushes_queued_and_waits_for_running(self):
        async def scenario():
            release = threading.Event()
            settled = []

            def execute(specs, engine):
                release.wait(5)
                return ok_batch(specs, engine)

            scheduler = FairShareScheduler(
                execute, batch_size=1, slots=1,
                on_settle=lambda job, outcome: settled.append(
                    (job.key, job.drained, outcome.status)))
            running, _ = scheduler.submit("alice", "s1", "key-1")
            await asyncio.sleep(0.05)  # batch for s1 now occupies the slot
            queued, _ = scheduler.submit("alice", "s2", "key-2")
            drain_task = asyncio.get_running_loop().create_task(
                scheduler.drain(grace_s=5))
            await asyncio.sleep(0.05)
            release.set()
            flushed = await drain_task
            assert flushed == 1
            drained = queued.future.result()
            assert drained.status is SpecStatus.SKIPPED
            assert "draining" in drained.error
            assert queued.drained  # journal keeps its pending record
            assert running.future.result().ok  # grace let it finish
            assert ("key-2", True, SpecStatus.SKIPPED) in settled
            assert ("key-1", False, SpecStatus.OK) in settled
            # Draining schedulers accept no new batches.
            late, _ = scheduler.submit("alice", "s3", "key-3")
            assert scheduler.queued_jobs() == 1
            assert not late.future.done()

        asyncio.run(scenario())
