"""Discrete-event engine tests."""

import pytest

from repro.sim.engine import AllOf, Resource, SimulationError, Timeout


class TestEvent:
    def test_succeed_sets_value(self, env):
        event = env.event("e")
        event.succeed(42)
        env.run()
        assert event.processed
        assert event.value == 42

    def test_double_succeed_rejected(self, env):
        event = env.event("e")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_with_delay_fires_later(self, env):
        event = env.event("e")
        seen = []
        event.callbacks.append(lambda e: seen.append(env.now))
        event.succeed(delay=50.0)
        env.run()
        assert seen == [50.0]

    def test_untriggered_event_never_fires(self, env):
        event = env.event("e")
        env.run()
        assert not event.processed


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(100.0)
        assert env.run() == 100.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_carries_value(self, env):
        timeout = env.timeout(5.0, value="done")
        env.run()
        assert timeout.value == "done"

    def test_ordering_is_fifo_at_same_time(self, env):
        order = []
        for tag in ("a", "b", "c"):
            env.timeout(10.0).callbacks.append(
                lambda e, tag=tag: order.append(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_process_runs_to_completion(self, env):
        def worker():
            yield env.timeout(10.0)
            yield env.timeout(5.0)
            return "finished"

        result = env.run_process(worker())
        assert result == "finished"
        assert env.now == 15.0

    def test_process_receives_event_values(self, env):
        def worker():
            value = yield env.timeout(1.0, value=7)
            return value * 2

        assert env.run_process(worker()) == 14

    def test_process_yielding_non_event_raises(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_process_waits_on_already_processed_event(self, env):
        event = env.event("e")
        event.succeed("early")

        def late():
            yield env.timeout(10.0)
            value = yield event
            return value

        assert env.run_process(late()) == "early"

    def test_yield_from_composes(self, env):
        def inner():
            yield env.timeout(3.0)
            return 5

        def outer():
            value = yield from inner()
            yield env.timeout(2.0)
            return value

        assert env.run_process(outer()) == 5
        assert env.now == 5.0

    def test_deadlock_detected(self, env):
        def stuck():
            yield env.event("never")

        with pytest.raises(SimulationError, match="deadlock"):
            env.run_process(stuck())

    def test_two_processes_interleave(self, env):
        log = []

        def worker(name, delay):
            yield env.timeout(delay)
            log.append((name, env.now))

        env.process(worker("slow", 20.0))
        env.process(worker("fast", 5.0))
        env.run()
        assert log == [("fast", 5.0), ("slow", 20.0)]


class TestAllOf:
    def test_waits_for_all(self, env):
        timeouts = [env.timeout(t) for t in (5.0, 15.0, 10.0)]

        def waiter():
            yield AllOf(env, timeouts)
            return env.now

        assert env.run_process(waiter()) == 15.0

    def test_empty_fires_immediately(self, env):
        def waiter():
            yield AllOf(env, [])
            return env.now

        assert env.run_process(waiter()) == 0.0


class TestResource:
    def test_capacity_enforced(self, env):
        resource = Resource(env, capacity=1)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(env.now)

        env.process(worker())
        env.process(worker())
        env.run()
        assert finish_times == [10.0, 20.0]

    def test_two_slots_run_concurrently(self, env):
        resource = Resource(env, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert finish_times == [10.0, 10.0, 20.0]

    def test_release_idle_raises(self, env):
        resource = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_busy_time_accounting(self, env):
        resource = Resource(env, capacity=2)

        def worker(delay):
            yield from resource.use(delay)

        env.process(worker(10.0))
        env.process(worker(30.0))
        env.run()
        assert resource.busy_time() == pytest.approx(40.0)

    def test_fifo_grant_order(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag):
            yield resource.request()
            order.append(tag)
            yield env.timeout(1.0)
            resource.release()

        for tag in ("first", "second", "third"):
            env.process(worker(tag))
        env.run()
        assert order == ["first", "second", "third"]


class TestRunUntil:
    def test_run_until_stops_clock(self, env):
        env.timeout(100.0)
        assert env.run(until=40.0) == 40.0

    def test_run_empty_heap_returns_now(self, env):
        assert env.run() == 0.0

    def test_run_resumes_after_until(self, env):
        env.timeout(10.0)
        env.timeout(100.0)
        assert env.run(until=50.0) == 50.0
        assert env.now == 50.0
        assert env.run() == 100.0
