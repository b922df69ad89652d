"""Minimal discrete-event simulation core.

The simulator is built on a classic event-heap + coroutine-process
design (in the style of SimPy, reimplemented here so the package has
no dependency beyond NumPy):

* :class:`Environment` owns the clock and the event heap.
* :class:`Event` is a one-shot occurrence other processes can wait on.
* :class:`Process` wraps a generator; every ``yield`` suspends the
  process until the yielded :class:`Event` fires.
* :class:`Resource` is a counted FIFO server (used for the PCIe link,
  GPU copy engines, the host allocator thread, and GPU compute).

Time is a float in **nanoseconds** throughout the simulator.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation core."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with an optional value; every registered
    callback then runs when the environment reaches the event's
    scheduled time.
    """

    __slots__ = ("env", "callbacks", "_triggered", "_processed", "value", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._processed = False
        self.value: Any = None
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event ``delay`` ns from now."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        return self._trigger(value, delay)

    def _trigger(self, value: Any, delay: float) -> "Event":
        """Internal trigger path shared by :meth:`succeed` and subclasses.

        Every trigger funnels through here so the already-triggered
        guard in :meth:`succeed` can never be bypassed by a subclass
        scheduling itself directly (the historical :class:`Timeout`
        bug: it set ``_triggered`` by hand, so a later ``succeed``
        call would double-schedule the event instead of raising).
        """
        self._triggered = True
        self.value = value
        self.env._schedule(self, delay)
        return self

    def _trigger_at(self, value: Any, at: float) -> "Event":
        """Absolute-time twin of :meth:`_trigger` (same guard discipline)."""
        self._triggered = True
        self.value = value
        self.env._schedule_at(self, at)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation.

    Hot path: timeouts carry no eagerly-formatted name (the label is
    derived on demand in :meth:`__repr__`); naming every timeout cost
    one f-string per simulated operation.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env, name="timeout")
        self.delay = delay
        # Through the guarded trigger path (not a bare ``_triggered``
        # write): a Timeout is born triggered, and any later
        # ``succeed`` must raise instead of double-scheduling.
        self._trigger(value, delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else "scheduled"
        return f"<Timeout({self.delay:g}) {state}>"


class Deadline(Event):
    """An event that fires at an *absolute* simulation time.

    Chunk trains schedule their boundaries as deadlines rather than
    accumulated relative timeouts: ``fl(now + fl(t - now))`` is not
    ``t`` in floating point, so N relative hops would land the train's
    end a few ulps off the monolithic hold it refines.  A deadline
    pins every boundary to the exact float the train arithmetic
    produced, which is what makes an N-chunk train end bit-identically
    to the single hold it replaces (see :meth:`Resource.stream`).
    """

    __slots__ = ("at",)

    def __init__(self, env: "Environment", at: float, value: Any = None):
        if at < env.now:
            raise SimulationError(
                f"deadline {at!r} is in the past (now={env.now!r})")
        super().__init__(env, name="deadline")
        self.at = at
        # Guarded path, as for Timeout: born triggered, a later
        # ``succeed`` must raise instead of double-scheduling.
        self._trigger_at(value, at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else "scheduled"
        return f"<Deadline({self.at:g}) {state}>"


class AllOf(Event):
    """Fires once every child event has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, name="all_of")
        self._pending = 0
        events = list(events)
        for event in events:
            if event.processed:
                continue
            self._pending += 1
            event.callbacks.append(self._child_done)
        if self._pending == 0:
            self.succeed([e.value for e in events])
        else:
            self._children = events

    def _child_done(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed([e.value for e in self._children])


class Process(Event):
    """A running coroutine; itself an event that fires on completion."""

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Bootstrap: resume once at the current time.
        bootstrap = Event(env, name=f"start:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        if target.processed:
            # Already fired: resume via a relay event so the ordering
            # against same-time events stays deterministic.
            relay = Event(self.env, name=f"relay:{self.name}")
            relay.callbacks.append(self._resume)
            relay.succeed(target.value)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Simulation environment: clock plus event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._sequence = 0

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _schedule_at(self, event: Event, at: float) -> None:
        """Schedule at an absolute time (see :class:`Deadline`)."""
        self._sequence += 1
        heapq.heappush(self._heap, (at, self._sequence, event))

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_until(self, at: float, value: Any = None) -> Deadline:
        """An event firing at absolute time ``at`` (>= now)."""
        return Deadline(self, at, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap empties (or ``until`` is reached).

        Returns the final simulation time.
        """
        while self._heap:
            at, _seq, event = self._heap[0]
            if until is not None and at > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = at
            event._run_callbacks()
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run a single process to completion, return its value."""
        process = self.process(generator, name)
        self.run()
        if not process.processed:
            raise SimulationError(f"process {process.name!r} deadlocked")
        return process.value


class Resource:
    """A counted FIFO resource (``capacity`` concurrent holders)."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque = deque()
        # Utilization accounting.
        self._busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Integral of holders over time (ns x holders), up to *now*."""
        self._account()
        return self._busy_time

    def request(self) -> Event:
        """Return an event that fires when the resource is granted."""
        self._account()
        grant = Event(self.env, name=f"grant:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        self._account()
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            grant = self._queue.popleft()
            grant.succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process fragment: acquire, hold for ``duration`` ns, release."""
        yield self.request()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()

    def stream(self, count: int, total_ns: float) -> Generator:
        """Process fragment: hold for ``count`` back-to-back chunks
        totalling ``total_ns``.

        Chunk ``k`` targets the *absolute* boundary ``anchor +
        total_ns * (k+1)/count``, where ``anchor`` is the time the
        first chunk was granted.  The final boundary is ``anchor +
        total_ns`` exactly (``count/count == 1.0`` and multiplication
        by 1.0 are exact in IEEE-754), so an uncontended N-chunk train
        ends on the *same float* as the monolithic ``stream(1,
        total_ns)`` hold it refines - chunk granularity changes event
        traffic, never results.  Boundaries are scheduled as
        :class:`Deadline` events: iterating relative timeouts would
        accumulate rounding and break that identity.

        If a competing holder delays a grant past its boundary, the
        train re-anchors at the grant time and the remaining chunks
        play out event by event from there - contention is arbitrated
        per chunk through the FIFO queue, exactly as ``count``
        sequential :meth:`use` calls would be.

        Returns ``(start, end)``: the time the first chunk was granted
        the resource and the time the last chunk released it.
        """
        if count < 0:
            raise SimulationError(f"negative stream count: {count}")
        if total_ns < 0:
            raise SimulationError(f"negative stream duration: {total_ns}")
        env = self.env
        if count == 0:
            return env.now, env.now
        start = env.now
        anchor = start
        granted = False
        for chunk in range(count):
            yield self.request()
            if not granted:
                anchor = start = env.now
                granted = True
            target = anchor + total_ns * ((chunk + 1) / count)
            if target < env.now:
                # A delayed grant pushed us past the boundary:
                # re-anchor so the remaining chunks keep their width.
                anchor = env.now - total_ns * (chunk / count)
                target = anchor + total_ns * ((chunk + 1) / count)
                if target < env.now:  # float guard on the re-anchor
                    target = env.now
            try:
                yield env.timeout_until(target)
            finally:
                self.release()
        return start, env.now
