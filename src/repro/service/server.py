"""``repro serve``: the asyncio sweep server.

A deliberately small HTTP/1.1 server built on ``asyncio.start_server``
(stdlib only — no framework, persistent connections), exposing the
sweep executor as a long-running, multi-tenant service:

* ``POST /sweep``  - run a :class:`~repro.harness.executor.RunSpec`
  grid; the request decomposes into per-spec jobs that dedup against
  identical in-flight work, schedule fairly across tenants, and settle
  through the cached, crash-contained
  :class:`~repro.harness.executor.SweepExecutor`;
* ``GET /healthz`` - liveness (always 200 while the process serves);
* ``GET /readyz``  - readiness (503 once draining);
* ``GET /stats``   - admission / scheduler / cache counters.

Responses mirror the CLI's exit-code semantics: a fully satisfied
request returns 200, a partial one (deadline expiry, failed specs,
drain) returns 206 with every gap explicitly annotated — the HTTP
analogue of ``repro sweep``'s exit code 3. Overload returns 429 with
``Retry-After`` (admission control), drain returns 503, and any
internal error is contained to a 500 for that one request: the serving
loop itself never dies with a client.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.configs import ALL_MODES, TransferMode
from ..core.execution import DEFAULT_ENGINE, engine_spec
from ..harness.executor import (ResultCache, RunSpec, SweepExecutor,
                                WorkerPool, default_cache_dir,
                                environment_fingerprint, expand_grid,
                                family_keys)
from ..harness.resilience import RetryPolicy, SweepJournal, SweepOutcome
from ..harness.store import run_to_record
from .admission import (AdmissionController, AdmissionLimits,
                        AdmissionRejected)
from .hotcache import HotCache
from .scheduler import CircuitBreaker, FairShareScheduler, SpecJob

logger = logging.getLogger(__name__)

#: The service's journal file, beside the result cache. Distinct from
#: the CLI sweep journal so an operator can run both against one cache.
SERVICE_JOURNAL = "service-journal.jsonl"

#: Journal status for admitted-but-unsettled specs (a plain string on
#: purpose: :class:`~repro.harness.resilience.SpecStatus` stays the
#: executor's terminal-state vocabulary).
PENDING_STATUS = "pending"

#: Tenant label for jobs replayed from the journal on ``--resume``.
RESUME_TENANT = "__resume__"

_REASONS = {200: "OK", 206: "Partial Content", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class BadRequest(ValueError):
    """Client error: malformed request line, JSON, or spec payload.

    ``status`` is the HTTP answer: 400, or 413 for an oversized body.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one :class:`ReproService` instance."""

    host: str = "127.0.0.1"
    port: int = 8023
    #: Batch-executor shape: ``jobs`` workers per batch, ``slots``
    #: concurrent batches, up to ``batch_size`` specs per batch. 64
    #: holds a 25-30-spec grid request whole (one worker task), with
    #: room for two tenants' requests to share the batch
    #: (docs/PERFORMANCE.md, "One served request, one batch").
    jobs: int = 1
    engine: str = DEFAULT_ENGINE
    slots: int = 2
    batch_size: int = 64
    retries: int = 1
    timeout_s: Optional[float] = 30.0
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    #: Default per-request deadline when the client sends none
    #: (``None`` waits indefinitely — not recommended for production).
    default_deadline_s: Optional[float] = 60.0
    drain_grace_s: float = 30.0
    cache_dir: Optional[Path] = None
    hot_capacity: int = 4096
    resume: bool = False
    breaker_threshold: int = 5
    breaker_recovery: int = 3
    max_body_bytes: int = 4 * 1024 * 1024
    request_read_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        engine_spec(self.engine)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.default_deadline_s is not None \
                and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")


class ReproService:
    """One sweep-serving process: HTTP front end + fair-share backend.

    Wiring: requests admit through the :class:`AdmissionController`,
    decompose into content-addressed spec jobs, check the
    :class:`HotCache`, then join the :class:`FairShareScheduler`. The
    scheduler executes each batch through a crash-isolated
    :class:`~repro.harness.executor.SweepExecutor` on one of ``slots``
    long-lived :class:`~repro.harness.executor.WorkerPool` s, one per
    concurrent batch (worker processes, so hang/crash faults are
    contained and timed out exactly as in CLI sweeps; a crash or hang
    replaces only that slot's pool). Every admitted spec is
    journaled ``pending`` at admission and terminally on settle — one
    journal write per request and one per batch — giving SIGTERM
    drains a checkpoint that ``--resume`` replays bit-identically.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache_root = (Path(self.config.cache_dir)
                           if self.config.cache_dir else default_cache_dir())
        self.disk_cache = ResultCache(self.cache_root)
        self.hot = HotCache(self.config.hot_capacity)
        self.admission = AdmissionController(self.config.limits)
        self.journal = SweepJournal(self.cache_root / SERVICE_JOURNAL,
                                    durable=True)
        self.breaker = CircuitBreaker(self.config.engine,
                                      threshold=self.config.breaker_threshold,
                                      recovery=self.config.breaker_recovery)
        self.scheduler = FairShareScheduler(
            self._execute_batch, breaker=self.breaker,
            batch_size=self.config.batch_size, slots=self.config.slots,
            on_settle=self._on_settle, on_settle_many=self._journal_settled)
        self.draining = False
        self.requests = 0
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._handlers: set = set()
        # Writers of connections waiting for their next request line:
        # close() closes these without waiting for them.
        self._idle: set = set()
        self._env_fp: Optional[str] = None
        # Bounded by the hot cache's capacity: past it, the oldest
        # keys go first. Writes hold the lock (evict-then-insert).
        self._key_memo: Dict[RunSpec, str] = {}
        self._key_lock = threading.Lock()
        # One worker pool per scheduler slot, checked out per batch.
        self.worker_pools = [WorkerPool() for _ in range(self.config.slots)]
        self._idle_pools = list(self.worker_pools)
        self._pools_closed = False
        self._pools_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Backend bridge (runs in a worker thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, specs: List[RunSpec],
                       engine: str) -> SweepOutcome:
        """One scheduler batch through an isolated executor on a slot's
        long-lived worker pool.

        ``isolate=True`` runs all of the batch's simulation in pool
        workers — the vector grid replay as one task, each spec it
        leaves as one more — so a crashing spec SIGKILLs that worker,
        never this server; the slot's pool is then replaced. The
        executor is per batch (it starts from the keys the service
        memo holds and the service's environment fingerprint) and
        journals nothing
        (the service journal is written by :meth:`_handle_sweep` and
        :meth:`_journal_settled`); it shares the service's disk cache
        so results are content-addressed exactly as CLI sweeps write
        them.
        """
        with self._pools_lock:
            # Empty only after close_pools: the batch then builds a
            # private pool, as a lone executor does.
            pool = self._idle_pools.pop() if self._idle_pools else None
        try:
            executor = SweepExecutor(
                jobs=self.config.jobs, cache=self.disk_cache,
                retry=RetryPolicy(retries=self.config.retries,
                                  timeout_s=self.config.timeout_s),
                engine=engine, isolate=True, pool=pool,
                env_fingerprint=self._env_fp)
            # The keys _keys_for derived for these specs' requests (any
            # the bounded memo has evicted since are derived again).
            with self._key_lock:
                keys = [self._key_memo.get(spec) for spec in specs]
            return executor.run_outcomes(specs, strict=False, keys=keys)
        finally:
            if pool is not None:
                with self._pools_lock:
                    closed = self._pools_closed
                    if not closed:
                        self._idle_pools.append(pool)
                if closed:
                    pool.close()

    def close_pools(self) -> None:
        """Close every idle slot's pool and reap its workers (blocking).

        A batch still running keeps its slot's pool and closes it when
        it returns.
        """
        with self._pools_lock:
            self._pools_closed = True
            idle, self._idle_pools = self._idle_pools, []
        for pool in idle:
            pool.close()

    def _on_settle(self, job: SpecJob, outcome) -> None:
        """Scheduler per-job settle hook: hot-cache fill."""
        if outcome.ok and outcome.result is not None:
            self.hot.put(job.key, outcome.result, family=job.spec.family)

    def _journal_settled(self, settled: List[Tuple[SpecJob, object]]
                         ) -> None:
        """Scheduler settlement hook: the terminal journal lines of a
        batch (or an abandoned job) in one durable append, written
        before any request waiting on those jobs responds.

        Drained jobs never reach it: their ``pending`` record *is* the
        checkpoint ``--resume`` replays.
        """
        self.journal.record_many([
            (job.key, outcome.status, job.spec, outcome.attempts,
             outcome.error) for job, outcome in settled])

    def _memo_keys(self, specs: List[RunSpec]) -> List[Optional[str]]:
        """Each spec's memoized key, or None where the memo lacks one."""
        memo = self._key_memo
        return [memo.get(spec) for spec in specs]

    def _keys_for(self, specs: List[RunSpec],
                  keys: Optional[List[Optional[str]]] = None) -> List[str]:
        """Content-addressed keys (blocking: builds programs once).

        ``keys`` is the memo's answer already read for ``specs``
        (:meth:`_memo_keys`); the ones it lacks are derived once per
        sweep family (:func:`~repro.harness.executor.family_keys`).
        """
        if self._env_fp is None:
            self._env_fp = environment_fingerprint()
        memo, capacity = self._key_memo, self.hot.capacity
        keys = self._memo_keys(specs) if keys is None else list(keys)
        missing = [index for index, key in enumerate(keys) if key is None]
        if missing:
            derived = family_keys([specs[index] for index in missing],
                                  self._env_fp)
            with self._key_lock:
                for index, key in zip(missing, derived):
                    keys[index] = key
                    if capacity:
                        while len(memo) >= capacity:
                            del memo[next(iter(memo))]
                        memo[specs[index]] = key
        return keys

    # ------------------------------------------------------------------
    # Lifecycle surface (driven by repro.service.lifecycle)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin the graceful drain."""
        self._stop.set()

    async def wait_stopped(self) -> None:
        await self._stop.wait()

    async def close(self) -> None:
        """Stop accepting, close idle connections, then give open
        handlers a moment to flush.

        The service is draining by now, so a connection with a request
        in flight closes after its response and none turns idle again.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()  # its handler reads EOF and returns
            await self._server.wait_closed()
        open_handlers = {task for task in self._handlers if not task.done()}
        if open_handlers:
            await asyncio.wait(open_handlers, timeout=5.0)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Serve one connection: request after request until the client
        or the drain ends it, or a request's framing cannot be trusted.

        Each request, including the idle wait before it, must arrive
        within ``request_read_timeout_s``.
        """
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    method, path, body, keep_alive = await asyncio.wait_for(
                        self._read_request(reader, writer),
                        timeout=self.config.request_read_timeout_s)
                except BadRequest as error:
                    await self._respond(writer, error.status,
                                        {"error": str(error)},
                                        keep_alive=False)
                    return
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return  # client went away, dribbled or idled out
                status, payload, headers = await self._answer(
                    method, path, body)
                keep_alive = keep_alive and not self.draining
                await self._respond(writer, status, payload, headers,
                                    keep_alive)
                if not keep_alive or self.draining:
                    return  # the drain may have begun during the write
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - peer already gone
                pass

    async def _answer(self, method: str, path: str, body: bytes
                      ) -> Tuple[int, Dict, Dict[str, str]]:
        """Route one parsed request; every error becomes its answer."""
        try:
            return await self._dispatch(method, path, body)
        except AdmissionRejected as error:
            retry_after = max(0.0, error.retry_after_s)
            return 429, {"error": error.reason,
                         "retry_after_s": retry_after}, \
                {"Retry-After": f"{retry_after:g}"}
        except BadRequest as error:
            return error.status, {"error": str(error)}, {}
        except Exception:
            # Containment: one broken request is one 500; the accept
            # loop and every other request keep going.
            logger.exception("request handler failed (%s %s)",
                             method, path)
            return 500, {
                "error": "internal error (contained; see server log)"}, {}

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Tuple[str, str, bytes, bool]:
        """``(method, path, body, keep_alive)`` of the next request.

        The connection counts as idle until its request line arrives;
        once the listener has closed, none turns idle (close() has
        already closed the idle ones).
        """
        if self._server is not None and not self._server.is_serving():
            raise ConnectionError("server closed")
        self._idle.add(writer)
        try:
            line = await self._read_line(reader)
        finally:
            self._idle.discard(writer)
        if not line or writer.is_closing():
            raise ConnectionError("connection closed")
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise BadRequest("malformed request line")
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise BadRequest("Transfer-Encoding is not supported; "
                             "send a Content-Length")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise BadRequest(
                f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > self.config.max_body_bytes:
            raise BadRequest(
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit", status=413)
        body = await reader.readexactly(length) if length else b""
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return method, target.split("?", 1)[0], body, keep_alive

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # past the stream's 64 KiB line limit
            raise BadRequest("request line or header too long") from None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict,
                       headers: Optional[Dict[str, str]] = None,
                       keep_alive: bool = True) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        if not keep_alive:
            lines.append("Connection: close")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass  # client vanished mid-response; its problem, not ours

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes
                        ) -> Tuple[int, Dict, Dict[str, str]]:
        if method == "GET":
            if path == "/healthz":
                return 200, {"status": "ok", "draining": self.draining}, {}
            if path == "/readyz":
                if self.draining:
                    return 503, {"status": "draining"}, {"Retry-After": "5"}
                return 200, {"status": "ready"}, {}
            if path == "/stats":
                return 200, self.snapshot(), {}
            return 404, {"error": f"no such resource {path!r}"}, {}
        if method == "POST":
            if path == "/sweep":
                return await self._handle_sweep(body)
            return 404, {"error": f"no such resource {path!r}"}, {}
        return 405, {"error": f"method {method} not supported"}, {}

    # ------------------------------------------------------------------
    # POST /sweep
    # ------------------------------------------------------------------
    async def _handle_sweep(self, body: bytes
                            ) -> Tuple[int, Dict, Dict[str, str]]:
        if self.draining:
            return 503, {"error": "server draining; retry after restart"}, \
                {"Retry-After": "5"}
        self.requests += 1
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise BadRequest("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        tenant = str(payload.get("tenant") or "anonymous")
        deadline_s = self._parse_deadline(payload)
        specs = self._parse_specs(payload)
        if not specs:
            raise BadRequest("request expands to zero runnable specs")

        started = time.monotonic()
        self.admission.admit(tenant, len(specs))  # may raise -> 429
        # Keys the memo holds are read here, on the loop; one it lacks
        # sends the derivation of the missing ones to a thread.
        keys = self._memo_keys(specs)
        if None in keys:
            try:
                keys = await asyncio.get_running_loop().run_in_executor(
                    None, self._keys_for, specs, keys)
            except Exception as error:
                self.admission.release(tenant, unsettled=len(specs))
                raise BadRequest(
                    f"cannot resolve specs: {type(error).__name__}: "
                    f"{error}") from error
            if self.draining:  # the drain began while we computed keys
                self.admission.release(tenant, unsettled=len(specs))
                return 503, {"error": "server draining; retry after "
                                      "restart"}, {"Retry-After": "5"}

        # Decompose: hot hits settle immediately; everything else joins
        # the scheduler (dedup'ing onto identical in-flight jobs). No
        # awaits in this loop, so the drain cannot interleave.
        slots: List[Tuple[str, object, str, RunSpec]] = []
        created_jobs = []
        for spec, key in zip(specs, keys):
            run = self.hot.get(key)
            if run is not None:
                self.admission.spec_settled(tenant)
                slots.append(("hot", run, key, spec))
                continue
            job, created = self.scheduler.submit(tenant, spec, key,
                                                 pump=False)
            job.future.add_done_callback(
                functools.partial(self._spec_settled, tenant))
            if created:
                created_jobs.append((key, PENDING_STATUS, spec))
            slots.append(("job", job, key, spec))
        # One durable append for the request, then batch assembly, both
        # before the first await: no batch starts ahead of its jobs'
        # ``pending`` lines, and the request fills whole batches.
        if created_jobs:
            self.journal.record_many(created_jobs)
            self.scheduler.pump()

        futures = {job.future for kind, job, _, _ in slots
                   if kind == "job"}
        expired: set = set()
        if futures:
            remaining = None
            if deadline_s is not None:
                remaining = max(0.0, deadline_s
                                - (time.monotonic() - started))
            _, still_pending = await asyncio.wait(futures,
                                                  timeout=remaining)
            expired = still_pending

        entries: List[Dict] = []
        counts: Dict[str, int] = {}
        for kind, item, key, spec in slots:
            if kind == "hot":
                entry = {"status": "ok", "cache": "hot", "key": key,
                         "record": run_to_record(item, with_counters=True)}
            else:
                job = item
                if job.future in expired:
                    # One abandon per submit call: this request's
                    # waiter count on the job drops to zero only when
                    # every duplicate slot has walked away.
                    self.scheduler.abandon(job)
                    entry = {"status": "skipped", "cache": "none",
                             "key": key,
                             "error": "request deadline expired before "
                                      "this spec settled"}
                else:
                    outcome = job.future.result()
                    entry = {"status": outcome.status.value,
                             "cache": "disk" if outcome.from_cache
                             else "none",
                             "key": key, "attempts": outcome.attempts}
                    if outcome.ok and outcome.result is not None:
                        entry["record"] = run_to_record(
                            outcome.result, with_counters=True)
                    if outcome.error:
                        entry["error"] = outcome.error
            entry.update(self._spec_echo(spec))
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
            entries.append(entry)
        self.admission.release(tenant)

        complete = counts.get("ok", 0) == len(entries)
        response = {
            "tenant": tenant,
            "complete": complete,
            "counts": counts,
            "deadline_expired": bool(expired),
            "elapsed_s": round(time.monotonic() - started, 6),
            "engine": self.breaker.select(),
            "specs": entries,
        }
        # 200 iff every spec is ok — 206 is the HTTP spelling of the
        # CLI's exit code 3 (partial sweep, gaps annotated inline).
        return (200 if complete else 206), response, {}

    def _spec_settled(self, tenant: str, _future) -> None:
        """Future done-callback: return one admitted spec slot."""
        self.admission.spec_settled(tenant)

    @staticmethod
    def _spec_echo(spec: RunSpec) -> Dict:
        return {"workload": spec.workload, "size": spec.size,
                "mode": spec.mode.value, "iteration": spec.iteration}

    def _parse_deadline(self, payload: Dict) -> Optional[float]:
        if "deadline_s" not in payload:
            return self.config.default_deadline_s
        deadline = payload["deadline_s"]
        if deadline is None:
            return None
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise BadRequest("deadline_s must be a positive number or null")
        return float(deadline)

    def _parse_specs(self, payload: Dict) -> List[RunSpec]:
        raw_specs = payload.get("specs")
        grid = payload.get("grid")
        if raw_specs is not None and grid is not None:
            raise BadRequest("give either 'specs' or 'grid', not both")
        if raw_specs is not None:
            if not isinstance(raw_specs, list):
                raise BadRequest("'specs' must be a list of objects")
            specs = []
            for position, entry in enumerate(raw_specs):
                if not isinstance(entry, dict):
                    raise BadRequest(f"spec #{position} is not an object")
                try:
                    specs.append(RunSpec(
                        workload=str(entry["workload"]),
                        size=str(entry["size"]),
                        mode=entry.get("mode", "standard"),
                        iteration=int(entry.get("iteration", 0)),
                        base_seed=int(entry.get("base_seed", 1234)),
                        blocks=entry.get("blocks"),
                        threads=entry.get("threads"),
                        smem_carveout_bytes=entry.get(
                            "smem_carveout_bytes"),
                        seed_salt=str(entry.get("seed_salt", ""))))
                except (KeyError, ValueError, TypeError) as error:
                    raise BadRequest(
                        f"spec #{position}: {error}") from None
            return specs
        if grid is not None:
            if not isinstance(grid, dict):
                raise BadRequest("'grid' must be an object")
            try:
                mode_labels = grid.get(
                    "modes", [mode.value for mode in ALL_MODES])
                modes = [TransferMode.from_label(label)
                         for label in mode_labels]
                return expand_grid(
                    [str(name) for name in grid.get("workloads") or []],
                    [str(size) for size in grid.get("sizes") or []],
                    modes=modes,
                    iterations=int(grid.get("iterations", 1)),
                    base_seed=int(grid.get("base_seed", 1234)))
            except (KeyError, ValueError, TypeError) as error:
                raise BadRequest(f"grid: {error}") from None
        raise BadRequest("request needs a 'specs' list or a 'grid' object")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        return {
            "draining": self.draining,
            "sweep_requests": self.requests,
            "admission": self.admission.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "worker_pools": {
                "slots": len(self.worker_pools),
                "spawns": sum(pool.spawns for pool in self.worker_pools),
                "tasks": sum(pool.tasks for pool in self.worker_pools),
            },
            "hot_cache": {
                "entries": len(self.hot),
                "capacity": self.hot.capacity,
                "hits": self.hot.stats.hits,
                "misses": self.hot.stats.misses,
                "stores": self.hot.stats.stores,
                "evictions": self.hot.stats.evictions,
            },
            "disk_cache": {
                "root": str(self.cache_root),
                "hits": self.disk_cache.stats.hits,
                "misses": self.disk_cache.stats.misses,
                "stores": self.disk_cache.stats.stores,
                "corrupt": self.disk_cache.stats.corrupt,
            },
        }


#: Re-exported for callers that only import the server module.
__all__ = ["BadRequest", "ReproService", "ServiceConfig",
           "SERVICE_JOURNAL", "PENDING_STATUS", "RESUME_TENANT",
           "AdmissionLimits"]
