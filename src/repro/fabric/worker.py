"""The fabric worker: claim, compute, commit — and survive the rest.

One :class:`FabricWorker` is one competing consumer of the fabric
root's DAG. Its loop is stateless between iterations (every decision
re-reduces the shared journal + lease directory via
:func:`repro.fabric.state.reduce_state`):

1. snapshot state; exit when the sweep is complete;
2. pick a claimable node — same compile-group as the last one when
   possible (tape affinity: the vector engine compiles each group
   once per process), lowest ``node_id`` otherwise;
3. claim it (fenced token + lease), start heartbeating; a claim over
   an expired lease first clears a commit marker its dead holder left
   without a journaled commit;
4. run it: cache hit, or engine execution timed for the straggler
   baseline; prewarm nodes build their group's program instead;
5. fence-check, then commit: the ``O_EXCL`` commit marker admits one
   holder, first ``ResultCache.put`` wins the result, the journal
   gets one line carrying both the checkpoint view (``key``/
   ``status``) and the event view (``commit``/node/worker/token/
   runtime);
6. release the lease and go to 1.

Chaos hooks (:func:`repro.harness.faults.fabric_fault`, keyed on the
fencing token so only the *first* claimant suffers) can SIGKILL the
worker mid-lease (``worker_crash``), stall it while heartbeating
(``lease_stall``), or mute its heartbeats while it keeps computing
(``partition``). Recovery for all three is someone else's job — the
coordinator notices, the protocol fences — which is the point: a
worker needs no cleanup path of its own.

Determinism: every result a worker publishes is a pure function of
the spec (PR 3's seeding contract), the cache key is content-
addressed, and commits are first-wins at three layers, so *any*
interleaving of workers, crashes and speculative re-executions
publishes byte-identical bytes per key — the chaos suite
(``tests/fabric/test_fabric_chaos.py``) diffs a crashed 3-worker
sweep against the serial reference byte for byte.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Optional

from ..harness import faults
from ..harness.executor import (Calibration, ResultCache, RunSpec,
                                SystemSpec, cache_key,
                                environment_fingerprint, execute_spec,
                                program_fingerprint)
from ..harness.resilience import SpecStatus
from .dag import SpecDAG, SpecNode
from .layout import FabricRoot
from .state import FabricState, NodeState, reduce_state


class WorkerCrashed(RuntimeError):
    """Raised by the inline crash hook (tests) instead of SIGKILL."""


def _sigkill_self() -> None:  # pragma: no cover - kills the process
    os.kill(os.getpid(), signal.SIGKILL)


class FabricWorker:
    """One competing consumer of a fabric root. See module docstring."""

    #: Extra read attempts absorbed before a flaky cache read degrades
    #: to a miss (mirrors ``SweepExecutor.CACHE_READ_RETRIES``).
    CACHE_READ_RETRIES = 2

    def __init__(self, fabric: FabricRoot, worker_id: str,
                 system: Optional[SystemSpec] = None,
                 calib: Optional[Calibration] = None,
                 crash_hook=None):
        self.fabric = fabric
        self.worker_id = worker_id
        self.dag: SpecDAG = fabric.load_dag()
        self.meta = fabric.load_meta()
        self.journal = fabric.journal()
        self.leases = fabric.leases()
        self.cache: ResultCache = fabric.cache()
        self.system = system
        self.calib = calib
        # Tests swap SIGKILL for an exception so the "crashed" worker
        # can run inline (pytest-cov cannot see subprocess lines).
        self._crash = crash_hook or _sigkill_self
        self._env_fp = environment_fingerprint(system, calib)
        self._last_group = None
        self._last_family = None
        self.committed = 0
        # Heartbeat machinery (live only while a lease is held).
        self._hb_stop: Optional[threading.Event] = None
        self._hb_thread: Optional[threading.Thread] = None
        self._fenced = False
        self._partitioned = False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_nodes: Optional[int] = None,
            deadline_s: Optional[float] = None) -> int:
        """Consume nodes until the sweep completes; returns commits.

        ``max_nodes`` / ``deadline_s`` bound the loop for tests and
        for ``repro fabric worker --max-nodes`` (a worker that exits
        early just makes the sweep slower, never wrong).
        """
        self.journal.append_event("worker", worker=self.worker_id,
                                  pid=os.getpid())
        started = time.monotonic()
        while True:
            if max_nodes is not None and self.committed >= max_nodes:
                return self.committed
            if deadline_s is not None \
                    and time.monotonic() - started > deadline_s:
                return self.committed
            state = self.snapshot()
            if state.complete:
                return self.committed
            node = self._pick(state)
            if node is None:
                time.sleep(self.meta.poll_s)
                continue
            beyond = (node.redispatch_token
                      if node.status == "leased" else None)
            lease = self.leases.claim(node.node_id, self.worker_id,
                                      self.meta.lease_s,
                                      beyond_token=beyond)
            if lease is None:
                continue  # lost the race; re-snapshot and move on
            if beyond is None:
                self._reclaim_commit(lease)
            self._run_node(self.dag[node.node_id], lease,
                           prior_errors=node.errors)

    def snapshot(self) -> FabricState:
        return reduce_state(self.dag, self.journal.events(),
                            self.leases.all_leases(), self.meta.lease_s,
                            max_errors=self.meta.max_errors)

    def _pick(self, state: FabricState) -> Optional[NodeState]:
        """Claimable node, preferring group then family affinity.

        Tier 1: the last compile-group — the vector engine compiles
        each group's tape once per worker.  Tier 2: the last fusion
        family (``SpecNode.family``) — a worker that drains a whole
        family leases exactly the cells the executor can settle as
        one fused array replay, so distributed sweeps keep the
        single-process fusion win instead of scattering a family
        across workers.
        """
        candidates = state.claimable()
        if not candidates:
            return None
        if self._last_group is not None:
            for node in candidates:
                if self.dag[node.node_id].group == self._last_group:
                    return node
        if self._last_family:
            for node in candidates:
                if self.dag[node.node_id].family == self._last_family:
                    return node
        return candidates[0]

    # ------------------------------------------------------------------
    # One node, one lease
    # ------------------------------------------------------------------
    def _run_node(self, node: SpecNode, lease, prior_errors: int = 0) -> None:
        self.journal.append_event("claim", node=node.node_id,
                                  worker=self.worker_id, token=lease.token)
        self._last_group = node.group
        self._last_family = node.family
        fault = faults.fabric_fault(node.spec, lease.token)
        if fault is not None and fault.kind == faults.KIND_WORKER_CRASH:
            # Die holding the lease: no release, no event, heartbeat
            # gone. (The real hook SIGKILLs; the inline hook raises.)
            self._crash()
            raise WorkerCrashed(  # pragma: no cover - _crash always acts
                f"{self.worker_id} crashed on node {node.node_id}")
        self._partitioned = bool(
            fault is not None and fault.kind == faults.KIND_PARTITION)
        self._start_heartbeat(lease)
        try:
            if fault is not None and fault.kind == faults.KIND_LEASE_STALL:
                # A straggler, not a corpse: heartbeats keep flowing,
                # so only the coordinator's re-dispatch rescues the
                # node. Bail out of the nap early once fenced.
                self._nap(fault.hang_s)
            if self._fenced or not self.leases.check(lease):
                self._fence_out(node, lease)
                return
            if node.is_run:
                self._run_spec_node(node, lease, prior_errors)
            else:
                self._run_prewarm_node(node, lease)
        finally:
            self._stop_heartbeat()

    def _run_spec_node(self, node: SpecNode, lease,
                       prior_errors: int) -> None:
        spec = node.spec
        key = cache_key(spec, self.system, self.calib,
                        env_fingerprint=self._env_fp)
        result, runtime_s = self._cache_get(spec, key), None
        if result is None:
            begin = time.perf_counter()
            try:
                result = execute_spec(spec, system=self.system,
                                      calib=self.calib,
                                      attempt=lease.token,
                                      engine=self.meta.engine)
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self._record_error(node, lease, spec, key, error,
                                   prior_errors)
                self.leases.release(lease)
                return
            runtime_s = time.perf_counter() - begin
        if (self._fenced or not self.leases.check(lease)
                or not self.leases.commit(lease)):
            self._fence_out(node, lease)
            return
        self.cache.put(key, result)  # first commit wins
        self.journal.record(
            key, SpecStatus.OK, spec=spec, attempts=1,
            extra={"event": "commit", "node": node.node_id,
                   "worker": self.worker_id, "token": lease.token,
                   "runtime_s": runtime_s})
        self.committed += 1
        self.leases.release(lease)

    def _run_prewarm_node(self, node: SpecNode, lease) -> None:
        # The shared prefix a sensitivity group's cells depend on:
        # build the group's program once and fingerprint it (warming
        # the per-process program memo every later cell hits).
        program_fingerprint(node.spec)
        if (self._fenced or not self.leases.check(lease)
                or not self.leases.commit(lease)):
            self._fence_out(node, lease)
            return
        self.journal.append_event("commit", node=node.node_id,
                                  worker=self.worker_id, token=lease.token)
        self.committed += 1
        self.leases.release(lease)

    def _record_error(self, node: SpecNode, lease, spec: RunSpec, key: str,
                      error: Exception, prior_errors: int) -> None:
        # One execution attempt per claim; whether this error is
        # terminal depends on how many the node already absorbed.
        terminal = prior_errors + 1 >= self.meta.max_errors
        self.journal.record(
            key, SpecStatus.FAILED if terminal else "error", spec=spec,
            attempts=1, error=f"{type(error).__name__}: {error}",
            extra={"event": "error", "node": node.node_id,
                   "worker": self.worker_id, "token": lease.token,
                   "terminal": terminal or None})

    def _reclaim_commit(self, lease) -> None:
        # Without ``beyond_token`` a claim succeeds only over no lease
        # or an expired one: every lower token's holder is silent. Its
        # marker with no journaled commit is from a worker killed
        # mid-commit and would block the node forever.
        holder = self.leases.committer(lease.node_id)
        if holder is None or holder >= lease.token or any(
                event.get("event") == "commit"
                and event.get("node") == lease.node_id
                for event in self.journal.events()):
            return
        self.leases.clear_commit(lease.node_id)
        self.journal.append_event("reclaim", node=lease.node_id,
                                  worker=self.worker_id, token=lease.token,
                                  committer=holder)

    def _fence_out(self, node: SpecNode, lease) -> None:
        # Someone out-fenced us (crash recovery or speculative
        # re-dispatch). The stealer owns the node now: no commit, no
        # release — just a diagnosable trace.
        self.journal.append_event("fenced", node=node.node_id,
                                  worker=self.worker_id, token=lease.token)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _start_heartbeat(self, lease) -> None:
        self._fenced = False
        self._hb_stop = threading.Event()
        interval = self.meta.effective_heartbeat_s

        def beat(stop: threading.Event = self._hb_stop) -> None:
            current = lease
            while not stop.wait(interval):
                if self._partitioned:
                    continue  # zombie: computing, but silent
                renewed = self.leases.renew(current)
                if renewed is None:
                    self._fenced = True
                    return
                current = renewed
                self.journal.append_event("renew", node=current.node_id,
                                          worker=self.worker_id,
                                          token=current.token)

        self._hb_thread = threading.Thread(
            target=beat, name=f"fabric-hb-{self.worker_id}", daemon=True)
        self._hb_thread.start()

    def _stop_heartbeat(self) -> None:
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
        self._hb_stop = self._hb_thread = None
        self._partitioned = False

    def _nap(self, seconds: float) -> None:
        """Sleep in small slices so a fence cuts the stall short."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline and not self._fenced:
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))

    # ------------------------------------------------------------------
    def _cache_get(self, spec: RunSpec, key: str):
        """Flake-resilient cache read (see executor ``_cache_get``)."""
        for _ in range(self.CACHE_READ_RETRIES + 1):
            try:
                faults.maybe_flaky_io(spec)
                return self.cache.get(key)
            except OSError:
                continue
        self.cache.stats.misses += 1
        return None


def main(root: str, worker_id: Optional[str] = None,
         max_nodes: Optional[int] = None,
         deadline_s: Optional[float] = None) -> int:
    """Entry point behind ``repro fabric worker``.

    The fault plan (if any) arrives via the ``REPRO_FAULT_PLAN``
    environment variable inherited from the coordinator — the same
    channel the executor's process pool uses.
    """
    fabric = FabricRoot(root)
    if not fabric.initialized:
        raise SystemExit(f"not a fabric root (no dag.json): {root}")
    worker = FabricWorker(
        fabric, worker_id or f"worker-{os.getpid()}")
    return worker.run(max_nodes=max_nodes, deadline_s=deadline_s)
