"""The fabric coordinator: spawn workers, detect trouble, collect.

The coordinator is deliberately *not* a scheduler — workers schedule
themselves off the shared state. It does the three things only a
bird's-eye view can:

* **abandon** — a lease whose heartbeat went stale past ``lease_s``
  belongs to a corpse; log an ``abandon`` event (making the crash
  diagnosable) — the lease itself is already claimable by expiry.
* **re-dispatch** — a leased node running longer than
  ``straggler_factor ×`` its group's median committed runtime gets a
  ``redispatch`` event; any idle worker may then claim *over* the
  straggler's fresh lease (``beyond_token``), first commit wins.
* **respawn** — a worker process that died (SIGKILL, OOM) while the
  sweep is incomplete is replaced, so the fleet size survives chaos.

Because every decision is a fold over the journal + leases, a
coordinator crash loses nothing: restart it on the same root and it
resumes exactly where the log says things stand.

:func:`run_fabric` is the one-call facade the CLI uses: init
root → spawn N workers → monitor →
collect a :class:`~repro.harness.resilience.SweepOutcome` that is
bit-identical to ``SweepExecutor.run_dag`` on the same DAG.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..harness.executor import (Calibration, RunSpec, SystemSpec,
                                cache_key, environment_fingerprint)
from ..harness.resilience import (SpecOutcome, SpecStatus, SweepOutcome,
                                  describe_spec)
from .dag import SpecDAG
from .layout import FabricMeta, FabricRoot
from .state import (COMMITTED, FAILED, FabricState, expired_leases,
                    reduce_state, straggler_nodes)
from .worker import FabricWorker, WorkerCrashed


class FabricTimeout(RuntimeError):
    """The sweep did not complete within the coordinator's deadline."""


@dataclass
class CoordinatorStats:
    """What the monitor loop observed during one sweep."""

    workers_spawned: int = 0
    workers_respawned: int = 0
    abandons: int = 0
    redispatches: int = 0
    leases_swept: int = 0
    elapsed_s: float = 0.0

    def summary(self) -> str:
        parts = [f"{self.workers_spawned} workers"]
        if self.workers_respawned:
            parts.append(f"{self.workers_respawned} respawned")
        if self.abandons:
            parts.append(f"{self.abandons} leases abandoned")
        if self.redispatches:
            parts.append(f"{self.redispatches} stragglers re-dispatched")
        parts.append(f"{self.elapsed_s:.2f}s")
        return "[fabric] " + ", ".join(parts)


class _WorkerHandle:
    """One worker the coordinator owns — subprocess or inline thread."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.proc: Optional[subprocess.Popen] = None
        self.thread: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.poll() is None
        if self.thread is not None:
            return self.thread.is_alive()
        return False

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait()


class Coordinator:
    """Drive one fabric sweep to completion. See module docstring."""

    def __init__(self, fabric: FabricRoot, workers: int = 3,
                 spawn: str = "process", respawn: bool = True,
                 system: Optional[SystemSpec] = None,
                 calib: Optional[Calibration] = None,
                 monitor_s: Optional[float] = None):
        if spawn not in ("process", "thread"):
            raise ValueError(f"unknown spawn mode {spawn!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.fabric = fabric
        self.dag: SpecDAG = fabric.load_dag()
        self.meta: FabricMeta = fabric.load_meta()
        self.workers = workers
        self.spawn = spawn
        self.respawn = respawn
        self.system = system
        self.calib = calib
        self.monitor_s = (monitor_s if monitor_s is not None
                          else self.meta.effective_heartbeat_s)
        self.journal = fabric.journal()
        self.leases = fabric.leases()
        self.cache = fabric.cache()
        self.stats = CoordinatorStats()
        self._handles: List[_WorkerHandle] = []
        self._abandoned: Set[Tuple[int, int]] = set()      # (node, token)
        self._redispatched: Set[Tuple[int, int]] = set()   # (node, token)
        self._spawn_seq = 0

    # ------------------------------------------------------------------
    def run(self, timeout_s: Optional[float] = None) -> SweepOutcome:
        """Spawn the fleet, monitor to completion, collect results."""
        started = time.perf_counter()
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            while True:
                state = self.snapshot()
                if state.complete:
                    break
                if timeout_s is not None and \
                        time.perf_counter() - started > timeout_s:
                    raise FabricTimeout(
                        f"fabric sweep incomplete after {timeout_s}s: "
                        f"{state.counts()}")
                self.monitor_once(state)
                self._keep_fleet_alive(state)
                time.sleep(self.monitor_s)
        finally:
            self._shutdown()
            self.stats.elapsed_s = time.perf_counter() - started
        finished = [node_id for node_id, node in
                    self.snapshot().nodes.items() if node.finished]
        self.stats.leases_swept += self.leases.sweep(finished)
        return self.collect()

    def snapshot(self) -> FabricState:
        return reduce_state(self.dag, self.journal.events(),
                            self.leases.all_leases(), self.meta.lease_s,
                            max_errors=self.meta.max_errors)

    # ------------------------------------------------------------------
    # Monitor passes (public so tests can drive them synchronously)
    # ------------------------------------------------------------------
    def monitor_once(self, state: Optional[FabricState] = None) -> None:
        if state is None:
            state = self.snapshot()
        for lease in expired_leases(state, self.meta.lease_s):
            mark = (lease.node_id, lease.token)
            if mark in self._abandoned:
                continue
            self._abandoned.add(mark)
            self.stats.abandons += 1
            self.journal.append_event(
                "abandon", node=lease.node_id, worker=lease.worker,
                token=lease.token,
                age_s=round(lease.age(state.now), 3))
        for node_id, token in straggler_nodes(
                self.dag, state,
                straggler_factor=self.meta.straggler_factor,
                straggler_min_s=self.meta.straggler_min_s,
                min_samples=self.meta.straggler_min_samples):
            mark = (node_id, token)
            if mark in self._redispatched:
                continue
            self._redispatched.add(mark)
            self.stats.redispatches += 1
            lease = state.leases.get(node_id)
            self.journal.append_event(
                "redispatch", node=node_id, token=token,
                worker=lease.worker if lease else None)
        # Finished nodes must not keep lease files around (a worker
        # that crashed between commit and release would otherwise
        # leave one dangling forever).
        finished = [node_id for node_id, node in state.nodes.items()
                    if node.finished and node_id in state.leases]
        if finished:
            self.stats.leases_swept += self.leases.sweep(finished)

    def _keep_fleet_alive(self, state: FabricState) -> None:
        if not self.respawn:
            return
        for handle in list(self._handles):
            if not handle.alive and not state.complete:
                # Drop the dead handle, or every later pass would
                # respawn it again and the fleet would keep growing.
                self._handles.remove(handle)
                self.stats.workers_respawned += 1
                self._spawn_worker(replacing=handle.worker_id)

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def _spawn_worker(self, replacing: Optional[str] = None) -> None:
        self._spawn_seq += 1
        worker_id = (f"{replacing}-r{self._spawn_seq}" if replacing
                     else f"w{self._spawn_seq}")
        handle = _WorkerHandle(worker_id)
        if self.spawn == "process":
            # The fault plan (if any) rides os.environ, same as the
            # executor's process pool workers.
            handle.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 "--root", str(self.fabric.root), "--id", worker_id],
                env=os.environ.copy(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        else:
            worker = FabricWorker(self.fabric, worker_id,
                                  system=self.system, calib=self.calib,
                                  crash_hook=_raise_crash)

            def body(target: FabricWorker = worker) -> None:
                try:
                    target.run()
                except WorkerCrashed:
                    pass  # inline stand-in for SIGKILL: just stop

            handle.thread = threading.Thread(
                target=body, name=f"fabric-{worker_id}", daemon=True)
            handle.thread.start()
        self._handles.append(handle)
        self.stats.workers_spawned += 1

    def _shutdown(self) -> None:
        for handle in self._handles:
            handle.stop()
        deadline = time.monotonic() + 10.0
        for handle in self._handles:
            if handle.thread is not None:
                handle.thread.join(timeout=max(
                    0.1, deadline - time.monotonic()))
            elif handle.proc is not None:
                try:
                    handle.proc.wait(timeout=max(
                        0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:  # pragma: no cover
                    handle.proc.kill()

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def collect(self) -> SweepOutcome:
        """Fold the cache + journal back into a serial-shaped outcome.

        Ordered by ``run_index`` — the original spec order — so the
        result list is drop-in comparable (and byte-identical, for
        complete sweeps) with ``SweepExecutor.run_outcomes`` on the
        flat grid.
        """
        state = self.snapshot()
        entries = self.journal.latest_entries()
        env_fp = environment_fingerprint(self.system, self.calib)
        outcomes: List[Optional[SpecOutcome]] = [None] * self.dag.run_count
        for node_obj in self.dag:
            if not node_obj.is_run:
                continue
            node = state.nodes[node_obj.node_id]
            spec = node_obj.spec
            key = cache_key(spec, self.system, self.calib,
                            env_fingerprint=env_fp)
            if node.status == COMMITTED:
                result = self.cache.get(key)
                if result is not None:
                    outcome = SpecOutcome(
                        spec=spec, index=node_obj.run_index,
                        status=SpecStatus.OK, result=result,
                        attempts=max(1, node.attempts), key=key)
                else:  # pragma: no cover - committed entry lost on disk
                    outcome = SpecOutcome(
                        spec=spec, index=node_obj.run_index,
                        status=SpecStatus.FAILED, key=key,
                        error="committed result missing from cache")
            elif node.status == FAILED:
                record = entries.get(key, {})
                outcome = SpecOutcome(
                    spec=spec, index=node_obj.run_index,
                    status=SpecStatus.FAILED, key=key,
                    attempts=max(1, node.attempts),
                    error=record.get("error",
                                     f"{describe_spec(spec)} failed"))
            else:
                outcome = SpecOutcome(
                    spec=spec, index=node_obj.run_index,
                    status=SpecStatus.SKIPPED, key=key,
                    error="skipped: parent node failed"
                          if node.status == "skipped" else
                          "not scheduled")
            outcomes[node_obj.run_index] = outcome
        return SweepOutcome(outcomes=[o for o in outcomes if o is not None])


def _raise_crash() -> None:
    raise WorkerCrashed("injected worker_crash (inline)")


def run_fabric(specs_or_dag: Union[Sequence[RunSpec], SpecDAG],
               root: Union[str, Path],
               workers: int = 3,
               structure: str = "figure",
               meta: Optional[FabricMeta] = None,
               spawn: str = "process",
               system: Optional[SystemSpec] = None,
               calib: Optional[Calibration] = None,
               timeout_s: Optional[float] = None,
               respawn: bool = True) -> SweepOutcome:
    """Compile (if needed), init the root, run the fleet, collect.

    The one-call path behind ``repro fabric run``. Accepts either a
    flat spec list (compiled under ``structure``, see
    :data:`repro.fabric.dag.STRUCTURES`) or an already-compiled
    :class:`SpecDAG`.
    """
    if isinstance(specs_or_dag, SpecDAG):
        dag = specs_or_dag
    else:
        from .dag import compile_sweep
        dag = compile_sweep(list(specs_or_dag), structure=structure)
    dag.validate()
    fabric = FabricRoot.init(root, dag, meta=meta)
    coordinator = Coordinator(fabric, workers=workers, spawn=spawn,
                              respawn=respawn, system=system, calib=calib)
    outcome = coordinator.run(timeout_s=timeout_s)
    outcome.fabric_stats = coordinator.stats  # type: ignore[attr-defined]
    return outcome
