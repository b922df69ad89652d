"""Static stream/event-graph analyzer.

Walks :class:`~repro.sim.streams.CudaStream` enqueue ledgers (or a
declaratively built graph) to reconstruct the happens-before DAG CUDA
guarantees - per-stream FIFO order, ``after`` (cudaStreamWaitEvent)
edges, and host-blocking ``synchronize`` barriers - and statically
detects:

* **S301 stream-race** - two operations on different streams touch the
  same buffer, at least one writes, and neither happens-before the
  other (the classic unsynchronized H2D-copy-vs-kernel overlap bug).
* **S302 stream-cycle** - the dependency graph has a cycle; at run
  time every operation on it waits forever (deadlock).
* **S303 dead-sync** - a ``synchronize()`` that provably waits on
  nothing (empty or already-drained stream, or back-to-back syncs).

The analyzer is conservative in the sound direction: an edge is only
added when the ordering is guaranteed, so every reported race is a
genuine absence of synchronization in the modelled graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..sim.streams import StreamOpRecord
from .diagnostics import Diagnostic, RuleRegistry
from .rules import DEFAULT_REGISTRY, STREAM_RULES


@dataclass
class GraphOp:
    """One node of the happens-before DAG."""

    index: int
    stream: str
    label: str
    kind: str = "op"
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    #: indices of ops this one is guaranteed to start after
    afters: List[int] = field(default_factory=list)
    #: sync-only: did the sync have in-flight work to wait for?
    pending: bool = True

    @property
    def is_sync(self) -> bool:
        return self.kind == "sync"

    def describe(self) -> str:
        return f"{self.stream}#{self.index}:{self.label}"


class StreamGraph:
    """A happens-before DAG over stream operations.

    Build it declaratively (:meth:`op` / :meth:`sync` /
    :meth:`add_dependency`) or from a recorded simulation ledger
    (:meth:`from_records` / :meth:`from_runtime`), then call
    :meth:`analyze`.
    """

    def __init__(self) -> None:
        self.ops: List[GraphOp] = []
        self._stream_tail: Dict[str, int] = {}
        self._last_sync: Optional[int] = None
        self._synced_tail: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def op(self, stream: str, label: str = "", kind: str = "op",
           reads: Sequence[str] = (), writes: Sequence[str] = (),
           after: Union[None, GraphOp, Iterable[GraphOp]] = None) -> GraphOp:
        """Append an operation to ``stream`` (FIFO after its tail)."""
        node = GraphOp(index=len(self.ops), stream=stream,
                       label=label or f"{stream}:{len(self.ops)}",
                       kind=kind, reads=tuple(reads), writes=tuple(writes))
        tail = self._stream_tail.get(stream)
        if tail is not None:
            node.afters.append(tail)
        if self._last_sync is not None:
            # Host blocked on a synchronize before enqueuing this op.
            node.afters.append(self._last_sync)
        if after is not None:
            targets = [after] if isinstance(after, GraphOp) else list(after)
            for target in targets:
                node.afters.append(target.index)
        self.ops.append(node)
        self._stream_tail[stream] = node.index
        return node

    def sync(self, stream: str) -> GraphOp:
        """Record a cudaStreamSynchronize on ``stream``."""
        tail = self._stream_tail.get(stream)
        pending = (tail is not None
                   and tail != self._synced_tail.get(stream))
        node = GraphOp(index=len(self.ops), stream=stream,
                       label=f"{stream}:synchronize", kind="sync",
                       pending=pending)
        if tail is not None:
            node.afters.append(tail)
        if self._last_sync is not None:
            node.afters.append(self._last_sync)
        self.ops.append(node)
        self._last_sync = node.index
        self._synced_tail[stream] = tail
        return node

    def add_dependency(self, op: GraphOp, after: GraphOp) -> None:
        """Add an arbitrary edge (supports testing cycle detection)."""
        op.afters.append(after.index)

    # ------------------------------------------------------------------
    # Construction from simulation ledgers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[StreamOpRecord]) -> "StreamGraph":
        """Rebuild the DAG from recorded :class:`StreamOpRecord`s.

        ``after`` events are matched to producing operations by process
        identity; events the ledger does not know about contribute no
        edge (conservative: unknown ordering is no ordering).
        """
        graph = cls()
        by_process: Dict[int, GraphOp] = {}
        for record in records:
            if record.kind == "sync":
                node = graph.sync(record.stream)
                # Trust the runtime's view of pendingness: the ledger
                # records whether the tail had actually drained.
                node.pending = record.pending and node.pending
                continue
            node = graph.op(record.stream, label=record.label,
                            kind=record.kind, reads=record.reads,
                            writes=record.writes)
            for event in record.after:
                producer = by_process.get(id(event))
                if producer is not None:
                    node.afters.append(producer.index)
            if record.process is not None:
                by_process[id(record.process)] = node
        return graph

    @classmethod
    def from_runtime(cls, rt) -> "StreamGraph":
        """Rebuild the DAG from a runtime's ``stream_ops`` ledger."""
        return cls.from_records(getattr(rt, "stream_ops", ()))

    @classmethod
    def from_streams(cls, *streams) -> "StreamGraph":
        """Rebuild from individual streams' ledgers (host order is
        approximated by interleaving on sequence numbers)."""
        records = [op for stream in streams for op in stream.ops]
        records.sort(key=lambda r: r.sequence)
        return cls.from_records(records)

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def _successors(self) -> List[List[int]]:
        succ: List[List[int]] = [[] for _ in self.ops]
        for node in self.ops:
            for dep in node.afters:
                succ[dep].append(node.index)
        return succ

    def find_cycle(self) -> Optional[List[int]]:
        """One dependency cycle (list of op indices), or ``None``."""
        succ = self._successors()
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.ops)
        stack_path: List[int] = []

        def visit(start: int) -> Optional[List[int]]:
            work = [(start, iter(succ[start]))]
            color[start] = GREY
            stack_path.append(start)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if color[child] == GREY:
                        at = stack_path.index(child)
                        return stack_path[at:] + [child]
                    if color[child] == WHITE:
                        color[child] = GREY
                        stack_path.append(child)
                        work.append((child, iter(succ[child])))
                        advanced = True
                        break
                if not advanced:
                    work.pop()
                    stack_path.pop()
                    color[node] = BLACK
            return None

        for start in range(len(self.ops)):
            if color[start] == WHITE:
                cycle = visit(start)
                if cycle is not None:
                    return cycle
        return None

    def _reachability(self) -> List[Set[int]]:
        """``reach[i]`` = every op guaranteed to complete before op i."""
        order = sorted(range(len(self.ops)))  # indices are append-order
        reach: List[Set[int]] = [set() for _ in self.ops]
        for index in order:
            node = self.ops[index]
            for dep in node.afters:
                if dep < index:  # forward edges only (cycles reported separately)
                    reach[index].add(dep)
                    reach[index] |= reach[dep]
        return reach

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self, registry: Optional[RuleRegistry] = None,
                workload: str = "", mode: str = "") -> List[Diagnostic]:
        """Run the stream rules; return their diagnostics."""
        registry = registry or DEFAULT_REGISTRY
        diagnostics: List[Diagnostic] = []

        def emit(rule_id: str, message: str, location: str,
                 fix_hint: str) -> None:
            if rule_id in registry and not registry.is_enabled(rule_id):
                return
            rule = (registry.effective_rule(rule_id)
                    if rule_id in registry else
                    next(r for r in STREAM_RULES if r.id == rule_id))
            diag = rule.diag(message, location=location, fix_hint=fix_hint)
            diagnostics.append(Diagnostic(
                rule=diag.rule, severity=diag.severity,
                message=diag.message, location=diag.location,
                fix_hint=diag.fix_hint, workload=workload, mode=mode))

        # S302 - cycles. A cyclic graph has no happens-before order, so
        # report it and skip race analysis (everything would look racy).
        cycle = self.find_cycle()
        if cycle is not None:
            names = " -> ".join(self.ops[i].describe() for i in cycle)
            emit("S302",
                 f"dependency cycle: {names}; every operation on it "
                 "deadlocks",
                 location=f"stream:{self.ops[cycle[0]].stream}",
                 fix_hint="break the cycle: an operation cannot wait on "
                          "work enqueued after it")
        else:
            reach = self._reachability()
            for b_idx, b in enumerate(self.ops):
                if b.is_sync:
                    continue
                for a_idx in range(b_idx):
                    a = self.ops[a_idx]
                    if a.is_sync or a.stream == b.stream:
                        continue
                    conflicts = (set(a.writes) & set(b.reads + b.writes)) \
                        | (set(a.reads) & set(b.writes))
                    if not conflicts:
                        continue
                    if a_idx in reach[b_idx] or b_idx in reach[a_idx]:
                        continue
                    buffers = ", ".join(sorted(conflicts))
                    emit("S301",
                         f"unsynchronized access to {buffers!r}: "
                         f"{a.describe()} and {b.describe()} run on "
                         "different streams with no happens-before edge",
                         location=f"{a.stream}<->{b.stream}",
                         fix_hint="add an event edge (enqueue "
                                  "after=<producer>) or a synchronize "
                                  "between the streams")

        for node in self.ops:
            if node.is_sync and not node.pending:
                emit("S303",
                     f"{node.describe()} waits on nothing (stream empty "
                     "or already drained)",
                     location=f"stream:{node.stream}",
                     fix_hint="drop the redundant synchronize")
        return diagnostics


def analyze_records(records: Sequence[StreamOpRecord],
                    registry: Optional[RuleRegistry] = None,
                    workload: str = "", mode: str = "") -> List[Diagnostic]:
    """Convenience: rebuild the DAG from a ledger and analyze it."""
    return StreamGraph.from_records(records).analyze(
        registry, workload=workload, mode=mode)
