"""Graceful lifecycle for the sweep service: signals, drain, resume.

The contract ``repro serve`` makes to its operator:

* **SIGTERM/SIGINT drain** — stop admitting, settle every queued job
  as an explicit drained-skip (held requests get their partial
  response, not a hangup), give running batches a bounded grace
  period, reap the slots' worker processes, then exit. Queued jobs
  keep their ``pending`` journal records: that file *is* the
  checkpoint.
* **Resume on restart** — ``--resume`` replays every ``pending``
  record through the scheduler under a dedicated tenant. Because runs
  are seeded purely from their spec coordinates and every engine is
  bit-identical, a resumed spec produces byte-for-byte the result the
  interrupted execution would have — restarts can change *when* work
  happens, never *what* it computes.
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Callable, Dict, Optional

from ..harness.executor import RunSpec
from .server import PENDING_STATUS, RESUME_TENANT, ReproService

logger = logging.getLogger(__name__)


def install_signal_handlers(loop: asyncio.AbstractEventLoop,
                            service: ReproService) -> bool:
    """SIGTERM/SIGINT -> graceful drain. Returns False where the loop
    cannot install handlers (non-main thread, exotic platforms)."""
    installed = True
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            installed = False
    return installed


def spec_from_journal(record: Dict) -> Optional[RunSpec]:
    """Reconstruct the RunSpec a service journal record checkpointed.

    Returns ``None`` for records without a usable spec payload (e.g.
    hand-edited or pre-upgrade files) — the caller marks those
    unresumable instead of crashing the whole restart.
    """
    payload = record.get("spec")
    if not isinstance(payload, dict):
        return None
    try:
        return RunSpec(
            workload=payload["workload"], size=payload["size"],
            mode=payload["mode"],
            iteration=int(payload.get("iteration", 0)),
            base_seed=int(payload.get("base_seed", 1234)),
            blocks=payload.get("blocks"),
            threads=payload.get("threads"),
            smem_carveout_bytes=payload.get("smem_carveout_bytes"),
            seed_salt=str(payload.get("seed_salt", "")))
    except (KeyError, ValueError, TypeError):
        return None


async def resume_pending(service: ReproService) -> int:
    """Re-enqueue every journaled ``pending`` spec; returns the count.

    Keys are *recomputed* from the journaled spec: if the environment
    (hardware model, calibration, code version) changed across the
    restart, the old checkpoint is closed out as skipped and the spec
    re-runs under its current key — a stale key must never alias a
    fresh result.
    """
    entries = service.journal.latest_entries()
    if service.journal.last_salvaged:
        logger.warning("service journal: %d damaged line(s) salvaged "
                       "during resume", service.journal.last_salvaged)
    pending = []
    for key, record in entries.items():
        if record.get("status") != PENDING_STATUS:
            continue
        spec = spec_from_journal(record)
        if spec is None:
            service.journal.record(
                key, "skipped",
                error="unresumable journal record (no spec payload)")
            continue
        pending.append((key, spec))
    if not pending:
        return 0
    loop = asyncio.get_running_loop()
    keys = await loop.run_in_executor(
        None, service._keys_for, [spec for _, spec in pending])
    resumed = 0
    for (old_key, spec), key in zip(pending, keys):
        if key != old_key:
            service.journal.record(
                old_key, "skipped",
                error="environment changed across restart; re-keyed")
        _, created = service.scheduler.submit(RESUME_TENANT, spec, key,
                                              source="resume")
        if created and key != old_key:
            service.journal.record(key, PENDING_STATUS, spec=spec)
        resumed += 1
    logger.info("resumed %d pending spec(s) from %s", resumed,
                service.journal.path)
    return resumed


async def drain(service: ReproService) -> int:
    """The graceful exit: flush queues, bound in-flight work, close."""
    if service.draining:
        return 0
    service.draining = True
    flushed = await service.scheduler.drain(service.config.drain_grace_s)
    # Queued jobs settled as drained-skips above, so every held request
    # unblocks and writes its (partial) response before the listener
    # closes; close() then waits briefly for those handlers to flush.
    await service.close()
    await asyncio.get_running_loop().run_in_executor(
        None, service.close_pools)
    logger.info("drained: %d queued spec(s) kept pending in %s "
                "(restart with --resume to finish them)", flushed,
                service.journal.path)
    return flushed


async def serve(service: ReproService,
                on_ready: Optional[Callable[[ReproService], None]] = None
                ) -> int:
    """Run the service until a shutdown signal; returns flushed count."""
    await service.start()
    install_signal_handlers(asyncio.get_running_loop(), service)
    if service.config.resume:
        await resume_pending(service)
    if on_ready is not None:
        on_ready(service)
    logger.info("repro service listening on %s:%s", service.config.host,
                service.port)
    await service.wait_stopped()
    return await drain(service)
