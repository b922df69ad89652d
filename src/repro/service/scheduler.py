"""Fair-share spec scheduling for the sweep service.

The serving unit is one *spec job*: a single grid cell identified by
its content-addressed cache key. Requests decompose into jobs, jobs
dedup by key (two tenants asking for the same cell share one
execution), and the scheduler assembles batches round-robin across
per-tenant queues — so a tenant that dumps a 10k-cell grid cannot
starve the tenant asking for 4 cells. Batches execute through the
existing :class:`~repro.harness.executor.SweepExecutor` (crash
containment, retries, per-spec timeouts, disk cache) in a bounded
thread pool; everything else in this module runs on the asyncio event
loop and needs no locks.

Failure containment is layered:

* a failing/hanging/crashing spec is contained by the executor and
  surfaces as a non-ok :class:`~repro.harness.resilience.SpecOutcome`;
* a batch whose executor call itself raises settles *its own* jobs as
  failed and nothing else — the loop, the other batches, and the
  server stay up;
* repeated executed-spec failures on the vector engine trip the
  :class:`CircuitBreaker`, which falls the service back to the
  reference engine (bit-identical results, no phase memo / analytic
  machinery in the blast radius) until enough fallback successes argue
  for re-closing.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..harness.resilience import SpecOutcome, SpecStatus, SweepOutcome

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Trips from the configured engine to ``reference`` on failures.

    States: ``closed`` (configured engine), ``open`` (reference
    fallback), ``half_open`` (probing the configured engine again).
    Transitions count *executed* spec outcomes only — cache hits say
    nothing about engine health. With ``engine="reference"`` the
    breaker is inert (there is nothing to fall back to).
    """

    def __init__(self, engine: str, threshold: int = 5, recovery: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if recovery < 1:
            raise ValueError("recovery must be >= 1")
        self.configured = engine
        self.threshold = threshold
        self.recovery = recovery
        self.state = "closed"
        self.consecutive_failures = 0
        self.fallback_successes = 0
        self.trips = 0

    @property
    def active(self) -> bool:
        return self.configured != "reference"

    def select(self) -> str:
        """The engine the next batch should run on."""
        if not self.active or self.state in ("closed", "half_open"):
            return self.configured
        return "reference"

    def record(self, outcome: SpecOutcome) -> None:
        """Feed one executed spec outcome into the state machine."""
        if not self.active or outcome.from_cache \
                or outcome.status is SpecStatus.SKIPPED:
            return
        failed = outcome.status is not SpecStatus.OK
        if self.state == "closed":
            if failed:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.threshold:
                    self._trip()
            else:
                self.consecutive_failures = 0
        elif self.state == "half_open":
            if failed:
                self._trip()
            else:
                self.state = "closed"
                self.consecutive_failures = 0
                logger.info("circuit breaker closed: %s engine healthy "
                            "again", self.configured)
        else:  # open: running on reference
            if not failed:
                self.fallback_successes += 1
                if self.fallback_successes >= self.recovery:
                    self.state = "half_open"

    def _trip(self) -> None:
        self.state = "open"
        self.trips += 1
        self.fallback_successes = 0
        self.consecutive_failures = 0
        logger.warning(
            "circuit breaker open: %s engine erroring; falling back to "
            "the reference engine (results stay bit-identical)",
            self.configured)

    def snapshot(self) -> Dict:
        return {"state": self.state, "configured": self.configured,
                "serving": self.select(), "trips": self.trips,
                "consecutive_failures": self.consecutive_failures,
                "fallback_successes": self.fallback_successes}


# ----------------------------------------------------------------------
# Spec jobs
# ----------------------------------------------------------------------
@dataclass
class SpecJob:
    """One deduplicated unit of execution: a spec behind its cache key."""

    key: str
    spec: object  # RunSpec (kept untyped to avoid the executor import)
    tenant: str
    future: "asyncio.Future[SpecOutcome]"
    waiters: int = 0
    queued: bool = True
    cancelled: bool = False
    #: Settled by a drain (kept ``pending`` in the journal for resume).
    drained: bool = False
    source: str = "request"  # "request" | "resume"
    tenants: Set[str] = field(default_factory=set)

    @property
    def done(self) -> bool:
        return self.future.done()


@dataclass
class SchedulerStats:
    """Lifetime counters (exported on ``/stats``)."""

    submitted: int = 0
    dedup_hits: int = 0
    batches: int = 0
    executed: int = 0
    settled_ok: int = 0
    settled_failed: int = 0
    cancelled: int = 0
    batch_errors: int = 0


ExecuteBatch = Callable[[List, str], SweepOutcome]
SettleHook = Callable[[SpecJob, SpecOutcome], None]
SettleManyHook = Callable[[List[Tuple[SpecJob, SpecOutcome]]], None]


class FairShareScheduler:
    """Round-robin-over-tenants batch scheduler with in-flight dedup.

    ``execute_batch(specs, engine)`` is the blocking bridge into the
    sweep executor; it runs in a thread pool of ``slots`` workers, so
    at most ``slots`` batches execute concurrently. Everything else —
    submit, batch assembly, settlement — happens on the event loop.

    Hooks: ``on_settle(job, outcome)`` fires once per settled job, in
    settle order; ``on_settle_many(pairs)`` then fires once per
    executed batch, and once per abandoned job, with all of its
    ``(job, outcome)`` pairs, before any waiter on those jobs resumes.
    Drained jobs reach only ``on_settle``: their journal stays
    ``pending``.

    ``batch_size`` and ``slots`` have no defaults here: the service's
    come from :class:`~repro.service.server.ServiceConfig`.
    """

    def __init__(self, execute_batch: ExecuteBatch,
                 breaker: Optional[CircuitBreaker] = None, *,
                 batch_size: int, slots: int,
                 on_settle: Optional[SettleHook] = None,
                 on_settle_many: Optional[SettleManyHook] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.execute_batch = execute_batch
        self.breaker = breaker or CircuitBreaker("reference")
        self.batch_size = batch_size
        self.slots = slots
        self.on_settle = on_settle
        self.on_settle_many = on_settle_many
        self.stats = SchedulerStats()
        self.draining = False
        self._queues: "OrderedDict[str, Deque[SpecJob]]" = OrderedDict()
        self._rotation: Deque[str] = deque()
        self._inflight: Dict[str, SpecJob] = {}
        self._running_batches: Set[asyncio.Task] = set()
        self._free_slots = slots
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Submission / dedup
    # ------------------------------------------------------------------
    def submit(self, tenant: str, spec, key: str,
               source: str = "request",
               pump: bool = True) -> "tuple[SpecJob, bool]":
        """Enqueue a spec (or join the identical in-flight one).

        Returns ``(job, created)``: ``created`` is False when the key
        deduplicated onto an execution another request already owns —
        the new tenant simply becomes one more waiter on its future.
        ``pump=False`` leaves batch assembly to the caller's next
        :meth:`pump`, so a request's jobs fill whole batches instead of
        the first one leaving alone.
        """
        self.stats.submitted += 1
        job = self._inflight.get(key)
        if job is not None and not job.cancelled:
            self.stats.dedup_hits += 1
            job.waiters += 1
            job.tenants.add(tenant)
            return job, False
        loop = asyncio.get_running_loop()
        job = SpecJob(key=key, spec=spec, tenant=tenant,
                      future=loop.create_future(), waiters=1,
                      source=source, tenants={tenant})
        self._inflight[key] = job
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rotation.append(tenant)
        queue.append(job)
        self._idle.clear()
        if pump:
            self.pump()
        return job, True

    def abandon(self, job: SpecJob) -> bool:
        """A waiter (deadline-expired request) walks away from a job.

        When the last waiter leaves a still-queued job, the job is
        cancelled: settled as SKIPPED, removed from the dedup map so a
        later identical request re-executes it. Jobs already handed to
        a batch always run to completion (their result still lands in
        the caches). Resume jobs have no request waiters and are never
        abandoned. Returns whether the job was cancelled.
        """
        job.waiters = max(0, job.waiters - 1)
        if job.waiters > 0 or not job.queued or job.done \
                or job.source == "resume":
            return False
        job.cancelled = True
        job.queued = False
        self._inflight.pop(job.key, None)
        self.stats.cancelled += 1
        self._settled([(job, self._settle(job, SpecOutcome(
            spec=job.spec, index=0, status=SpecStatus.SKIPPED,
            error="abandoned: request deadline expired", key=job.key)))])
        return True

    # ------------------------------------------------------------------
    # Batch assembly + dispatch
    # ------------------------------------------------------------------
    def queued_jobs(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def inflight_keys(self) -> int:
        return len(self._inflight)

    def _next_batch(self) -> List[SpecJob]:
        """Up to ``batch_size`` jobs, one per tenant per rotation turn."""
        batch: List[SpecJob] = []
        spins_left = len(self._rotation)
        while len(batch) < self.batch_size and self._rotation:
            tenant = self._rotation[0]
            queue = self._queues.get(tenant)
            job = None
            while queue and job is None:
                candidate = queue.popleft()
                if not candidate.cancelled:
                    job = candidate
            if not queue:
                self._rotation.popleft()
                self._queues.pop(tenant, None)
            else:
                self._rotation.rotate(-1)
            if job is not None:
                job.queued = False
                batch.append(job)
                spins_left = len(self._rotation)
            else:
                spins_left -= 1
                if spins_left <= 0 and not any(self._queues.values()):
                    break
        return batch

    def pump(self) -> None:
        """Launch batches while slots are free and work is queued."""
        if self.draining:
            return
        while self._free_slots > 0 and self.queued_jobs() > 0:
            batch = self._next_batch()
            if not batch:
                break
            self._free_slots -= 1
            task = asyncio.get_running_loop().create_task(
                self._run_batch(batch))
            self._running_batches.add(task)
            task.add_done_callback(self._running_batches.discard)
        # Abandoned jobs stay in their queues until assembly skips
        # them; if the sweep above consumed only cancelled stragglers,
        # the scheduler may have just gone idle without any batch
        # completion to notice it.
        if self.queued_jobs() == 0 and self._free_slots == self.slots:
            self._idle.set()

    async def _run_batch(self, jobs: List[SpecJob]) -> None:
        engine = self.breaker.select()
        self.stats.batches += 1
        loop = asyncio.get_running_loop()
        specs = [job.spec for job in jobs]
        try:
            try:
                outcome = await loop.run_in_executor(
                    None, self.execute_batch, specs, engine)
                outcomes = list(outcome.outcomes)
                if len(outcomes) != len(jobs):  # defensive: torn batch
                    raise RuntimeError(
                        f"batch returned {len(outcomes)} outcomes for "
                        f"{len(jobs)} jobs")
                self.stats.executed += len(jobs)
            except Exception as error:
                # Containment: a broken batch degrades its own jobs to
                # failures; the process, the loop, and every other
                # batch keep running.
                self.stats.batch_errors += 1
                logger.exception("batch of %d specs failed wholesale",
                                 len(jobs))
                outcomes = [SpecOutcome(
                    spec=job.spec, index=0, status=SpecStatus.FAILED,
                    error=f"batch execution error: "
                          f"{type(error).__name__}: {error}",
                    key=job.key) for job in jobs]
            for job, spec_outcome in zip(jobs, outcomes):
                self.breaker.record(self._settle(job, spec_outcome))
            self._settled(list(zip(jobs, outcomes)))
        finally:
            self._free_slots += 1
            if self.queued_jobs() == 0 and self._free_slots == self.slots:
                self._idle.set()
            self.pump()

    def _settle(self, job: SpecJob, outcome: SpecOutcome) -> SpecOutcome:
        if outcome.status is SpecStatus.OK:
            self.stats.settled_ok += 1
        elif not job.cancelled:
            self.stats.settled_failed += 1
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(outcome)
        if self.on_settle is not None:
            try:
                self.on_settle(job, outcome)
            except Exception:  # pragma: no cover - hook bugs stay local
                logger.exception("on_settle hook failed for %s", job.key)
        return outcome

    def _settled(self, pairs: List[Tuple[SpecJob, SpecOutcome]]) -> None:
        if self.on_settle_many is not None:
            try:
                self.on_settle_many(pairs)
            except Exception:  # pragma: no cover - hook bugs stay local
                logger.exception("on_settle_many hook failed for %d "
                                 "job(s)", len(pairs))

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(self, grace_s: float = 30.0) -> int:
        """Stop scheduling, flush queued jobs as drained, await batches.

        Queued jobs settle as SKIPPED with a ``draining`` error so held
        requests get an explicit partial response; their journal
        records stay ``pending`` (the settle hook skips drained jobs),
        which is exactly what ``--resume`` replays after restart.
        Running batches get ``grace_s`` to finish; the method returns
        the number of queued jobs it flushed.
        """
        self.draining = True
        flushed = 0
        for queue in self._queues.values():
            while queue:
                job = queue.popleft()
                if job.cancelled:
                    continue
                job.queued = False
                job.drained = True
                flushed += 1
                self._settle(job, SpecOutcome(
                    spec=job.spec, index=0, status=SpecStatus.SKIPPED,
                    error="skipped: server draining (journaled pending; "
                          "rerun after restart --resume)", key=job.key))
        self._queues.clear()
        self._rotation.clear()
        if self._running_batches:
            await asyncio.wait(set(self._running_batches), timeout=grace_s)
        return flushed

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no queued jobs and no running batches."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def snapshot(self) -> Dict:
        return {
            "queued_jobs": self.queued_jobs(),
            "inflight_keys": self.inflight_keys,
            "running_batches": len(self._running_batches),
            "free_slots": self._free_slots,
            "tenants_queued": list(self._rotation),
            "submitted": self.stats.submitted,
            "dedup_hits": self.stats.dedup_hits,
            "batches": self.stats.batches,
            "executed": self.stats.executed,
            "settled_ok": self.stats.settled_ok,
            "settled_failed": self.stats.settled_failed,
            "cancelled": self.stats.cancelled,
            "batch_errors": self.stats.batch_errors,
            "breaker": self.breaker.snapshot(),
        }
