"""Reduce the coordination log + lease directory to fabric state.

Nothing in the fabric holds state in memory: every scheduling
decision — worker "what should I run next", coordinator "who
straggled", ``repro fabric status`` "what is stuck" — is a pure fold
over two sources any process can read at any time:

* the shared :class:`~repro.harness.resilience.SweepJournal`
  (``claim`` / ``renew`` / ``commit`` / ``error`` / ``abandon`` /
  ``redispatch`` / ``fenced`` events, appended O_APPEND one line at a
  time so concurrent writers never interleave), and
* the :class:`~repro.fabric.leases.LeaseDir` (who holds what, how
  stale their heartbeat is).

The fold is deterministic: replaying the same journal bytes yields
the same :class:`FabricState`, which is what makes a crashed
coordinator restartable and a second terminal's ``status`` view
trustworthy.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .dag import SpecDAG
from .leases import Lease

# Node lifecycle (display + scheduling statuses).
PENDING = "pending"      # parents not yet committed
READY = "ready"          # claimable now
LEASED = "leased"        # live lease, work in flight
COMMITTED = "committed"  # first commit event seen
FAILED = "failed"        # terminal error event seen
SKIPPED = "skipped"      # an ancestor failed; will never run


@dataclass
class NodeState:
    """Everything the log says about one DAG node."""

    node_id: int
    status: str = PENDING
    worker: Optional[str] = None     # current/last lease holder
    token: int = 0                   # highest token seen in the log
    attempts: int = 0                # claims observed
    errors: int = 0                  # non-terminal error events
    runtime_s: Optional[float] = None
    committed_by: Optional[str] = None
    claimed_ts: Optional[float] = None
    redispatch_token: Optional[int] = None  # steal allowed up to this
    abandoned: int = 0               # expired-lease abandon events

    @property
    def finished(self) -> bool:
        return self.status in (COMMITTED, FAILED, SKIPPED)


@dataclass
class FabricState:
    """One consistent snapshot of a fabric sweep."""

    nodes: Dict[int, NodeState] = field(default_factory=dict)
    workers: Dict[str, float] = field(default_factory=dict)  # last-seen ts
    leases: Dict[int, Lease] = field(default_factory=dict)
    now: float = 0.0

    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in
                 (PENDING, READY, LEASED, COMMITTED, FAILED, SKIPPED)}
        for node in self.nodes.values():
            tally[node.status] += 1
        return tally

    @property
    def complete(self) -> bool:
        return all(node.finished for node in self.nodes.values())

    @property
    def abandoned_total(self) -> int:
        return sum(node.abandoned for node in self.nodes.values())

    @property
    def redispatched(self) -> List[int]:
        return sorted(node.node_id for node in self.nodes.values()
                      if node.redispatch_token is not None)

    def claimable(self) -> List[NodeState]:
        """Nodes a worker may try to claim right now, id-sorted.

        ``READY`` nodes, plus ``LEASED`` nodes the coordinator has
        marked for speculative re-dispatch (the claim must then pass
        ``beyond_token=redispatch_token`` to out-fence the straggler).
        """
        out = [node for node in self.nodes.values()
               if node.status == READY
               or (node.status == LEASED
                   and node.redispatch_token is not None
                   and node.token <= node.redispatch_token)]
        return sorted(out, key=lambda node: node.node_id)

    def heartbeat_ages(self) -> Dict[str, float]:
        """Seconds since each known worker was last heard from."""
        return {worker: max(0.0, self.now - seen)
                for worker, seen in sorted(self.workers.items())}


def reduce_state(dag: SpecDAG, events: List[Dict],
                 leases: Dict[int, Lease], lease_s: float,
                 max_errors: int = 1,
                 now: Optional[float] = None) -> FabricState:
    """Fold the event log + lease snapshot into a :class:`FabricState`.

    ``events`` is :meth:`SweepJournal.events` output (append order).
    ``max_errors`` is how many *non-terminal* error events a node may
    accumulate before it is declared failed anyway (a backstop against
    a poisoned node being re-claimed forever).
    """
    now = time.time() if now is None else now
    state = FabricState(now=now, leases=dict(leases))
    for node in dag:
        state.nodes[node.node_id] = NodeState(node_id=node.node_id)

    committed: Set[int] = set()
    for record in events:
        event = record.get("event")
        node_id = record.get("node")
        worker = record.get("worker")
        ts = record.get("ts")
        if worker and ts is not None:
            seen = state.workers.get(worker, 0.0)
            state.workers[worker] = max(seen, float(ts))
        node = state.nodes.get(node_id)
        if node is None:
            continue
        token = int(record.get("token") or 0)
        node.token = max(node.token, token)
        if event == "claim":
            node.attempts += 1
            node.worker = worker
            node.claimed_ts = float(ts) if ts is not None else None
        elif event == "commit":
            if node_id not in committed:  # first commit wins
                committed.add(node_id)
                node.committed_by = worker
                if record.get("runtime_s") is not None:
                    node.runtime_s = float(record["runtime_s"])
        elif event == "error":
            node.errors += 1
            if record.get("terminal"):
                node.errors = max(node.errors, max_errors)
        elif event == "abandon":
            node.abandoned += 1
        elif event == "redispatch":
            node.redispatch_token = max(node.redispatch_token or 0, token)

    # Lease files refresh worker last-seen too (heartbeats may outrun
    # the journal when renew events are throttled).
    for lease in leases.values():
        seen = state.workers.get(lease.worker, 0.0)
        state.workers[lease.worker] = max(seen, lease.heartbeat_ts)

    # Statuses, in dependency order (node_id order is topological for
    # every compiler in dag.py, but walk() holds regardless).
    failed: Set[int] = set()
    skipped: Set[int] = set()
    for node_obj, _layer in dag.walk():
        node = state.nodes[node_obj.node_id]
        if node_obj.node_id in committed:
            node.status = COMMITTED
            continue
        if node.errors >= max_errors:
            node.status = FAILED
            failed.add(node_obj.node_id)
            continue
        if any(parent in failed or parent in skipped
               for parent in node_obj.parents):
            node.status = SKIPPED
            skipped.add(node_obj.node_id)
            continue
        lease = leases.get(node_obj.node_id)
        if lease is not None and not lease.expired(lease_s, now) \
                and lease.token >= node.token:
            node.status = LEASED
            node.worker = lease.worker
            continue
        if all(parent in committed for parent in node_obj.parents):
            node.status = READY
        else:
            node.status = PENDING
    return state


def straggler_nodes(dag: SpecDAG, state: FabricState,
                    straggler_factor: float = 4.0,
                    straggler_min_s: float = 1.0,
                    min_samples: int = 3) -> List[Tuple[int, int]]:
    """Leased nodes running suspiciously long: ``[(node_id, token)]``.

    A leased node straggles when its elapsed time since claim exceeds
    ``max(straggler_min_s, straggler_factor * median)`` where the
    median is over committed runtimes *of the node's group* (same
    compiled tape — the only apples-to-apples baseline); with fewer
    than ``min_samples`` committed in the group, the global median is
    used, and with fewer than ``min_samples`` overall there is no
    baseline and nothing straggles. Already-redispatched nodes (at
    their current token) are not re-reported.
    """
    by_group: Dict[Tuple, List[float]] = {}
    all_runtimes: List[float] = []
    for node_obj in dag:
        node = state.nodes[node_obj.node_id]
        if node.status == COMMITTED and node.runtime_s is not None:
            by_group.setdefault(node_obj.group, []).append(node.runtime_s)
            all_runtimes.append(node.runtime_s)
    if len(all_runtimes) < min_samples:
        return []
    out: List[Tuple[int, int]] = []
    for node_obj in dag:
        node = state.nodes[node_obj.node_id]
        if node.status != LEASED:
            continue
        lease = state.leases.get(node_obj.node_id)
        started = (lease.acquired_ts if lease is not None
                   else node.claimed_ts)
        if started is None:
            continue
        token = lease.token if lease is not None else node.token
        if node.redispatch_token is not None \
                and node.redispatch_token >= token:
            continue  # already marked; don't spam redispatch events
        samples = by_group.get(node_obj.group) or all_runtimes
        if len(samples) < min_samples:
            samples = all_runtimes
        budget = max(straggler_min_s,
                     straggler_factor * statistics.median(samples))
        if state.now - started > budget:
            out.append((node_obj.node_id, token))
    return out


def expired_leases(state: FabricState, lease_s: float) -> List[Lease]:
    """Lease records whose heartbeat is stale, on unfinished nodes."""
    out = []
    for node_id, lease in sorted(state.leases.items()):
        node = state.nodes.get(node_id)
        if node is not None and node.finished:
            continue
        if lease.expired(lease_s, state.now):
            out.append(lease)
    return out
