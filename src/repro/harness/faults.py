"""Deterministic fault injection for the sweep pipeline (test-only).

The resilience layer (:mod:`repro.harness.resilience`) promises that a
sweep survives per-spec failures, hung workers, killed worker
processes, and torn cache writes. Promises about failure handling are
only worth what their tests can *provoke*, so this module provides a
:class:`FaultPlan`: a declarative, fully deterministic schedule of
faults ("fail spec *i* on attempt *j*", "hang", "crash the worker
process", "corrupt the cache write") that
:func:`repro.harness.executor.execute_spec` consults through a single
test-only hook (:func:`maybe_fire`).

Determinism contract: a plan matches on the spec's *coordinates*
(workload, size, mode, iteration) plus the attempt number — never on
wall-clock time, scheduling order, or randomness — so a chaos test
replays bit-identically under ``jobs=1`` and pooled sweeps.

Propagation: :func:`install` stores the plan both in this process (a
module global) and in ``os.environ[PLAN_ENV]`` (as JSON), so child
processes started afterwards (fabric workers, a ``repro serve``
subprocess) inherit it; :func:`active_plan` checks the global first,
then the environment. Executor pool workers live across plans, so the
coordinator sends its active plan with every task and the worker fires
exactly that one (:func:`fire`). Production code never installs a
plan, so the hook costs one ``is None`` check per run.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

#: Environment variable carrying the JSON-serialized plan into worker
#: processes (set/cleared by :func:`install` / :func:`clear`).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Supported fault kinds.
KIND_FAIL = "fail"                   # raise InjectedFault
KIND_HANG = "hang"                   # sleep >> any sane timeout
KIND_CRASH = "crash"                 # SIGKILL the worker process
KIND_CORRUPT_CACHE = "corrupt_cache"  # tear the cache write afterwards
KIND_DELAY = "delay"                 # slow spec: sleep, then run normally
KIND_FLAKY_IO = "flaky_io"           # transient cache *read* error
KIND_WORKER_CRASH = "worker_crash"   # SIGKILL a fabric worker mid-lease
KIND_LEASE_STALL = "lease_stall"     # straggler: stall while heartbeating
KIND_PARTITION = "partition"         # zombie: compute on, heartbeats stop
ALL_KINDS = (KIND_FAIL, KIND_HANG, KIND_CRASH, KIND_CORRUPT_CACHE,
             KIND_DELAY, KIND_FLAKY_IO, KIND_WORKER_CRASH,
             KIND_LEASE_STALL, KIND_PARTITION)

#: Kinds interpreted only by the distributed-fabric worker loop
#: (:mod:`repro.fabric.worker`): they key on the node's *fencing
#: token* rather than the executor's attempt counter, and they never
#: fire through :func:`maybe_fire` — a fabric fault must hit the
#: lease protocol around the simulation, not the simulation itself.
FABRIC_KINDS = (KIND_WORKER_CRASH, KIND_LEASE_STALL, KIND_PARTITION)


class InjectedFault(RuntimeError):
    """The error a ``fail`` fault raises inside ``execute_spec``."""


class InjectedIOError(OSError):
    """The error a ``flaky_io`` fault raises on a cache read.

    Subclasses :class:`OSError` so production read paths that already
    degrade gracefully on real filesystem errors treat the injected
    fault identically.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: *what* happens to *which* cell and *when*.

    ``attempts`` lists the attempt numbers (1-based) on which the fault
    fires; the empty tuple means *every* attempt (a permanent fault).
    For ``flaky_io`` the "attempt" is the per-process cache *read*
    count for the spec, so ``attempts=(1,)`` fails exactly the first
    read and lets a retried read succeed — the transient-IO shape.
    """

    kind: str
    workload: str
    size: str
    mode: str
    iteration: int = 0
    attempts: Tuple[int, ...] = (1,)
    hang_s: float = 30.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}")
        if any(attempt < 1 for attempt in self.attempts):
            raise ValueError("attempt numbers are 1-based")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def matches_spec(self, spec) -> bool:
        mode = getattr(spec.mode, "value", spec.mode)
        return (spec.workload, spec.size, mode, spec.iteration) == \
            (self.workload, self.size, self.mode, self.iteration)

    def matches(self, spec, attempt: int) -> bool:
        if not self.matches_spec(spec):
            return False
        return not self.attempts or attempt in self.attempts

    @classmethod
    def for_spec(cls, spec, kind: str = KIND_FAIL,
                 attempts: Sequence[int] = (1,),
                 hang_s: float = 30.0,
                 delay_s: float = 0.05) -> "Fault":
        """Build a fault targeting an existing ``RunSpec``."""
        return cls(kind=kind, workload=spec.workload, size=spec.size,
                   mode=getattr(spec.mode, "value", spec.mode),
                   iteration=spec.iteration, attempts=tuple(attempts),
                   hang_s=hang_s, delay_s=delay_s)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic battery of scheduled faults."""

    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def match(self, spec, attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(spec, attempt):
                return fault
        return None

    # ------------------------------------------------------------------
    # JSON round-trip (for the env-var hand-off to process workers)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([{
            "kind": f.kind, "workload": f.workload, "size": f.size,
            "mode": f.mode, "iteration": f.iteration,
            "attempts": list(f.attempts), "hang_s": f.hang_s,
            "delay_s": f.delay_s,
        } for f in self.faults])

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        return cls(faults=tuple(
            Fault(kind=entry["kind"], workload=entry["workload"],
                  size=entry["size"], mode=entry["mode"],
                  iteration=entry["iteration"],
                  attempts=tuple(entry["attempts"]),
                  hang_s=entry["hang_s"],
                  delay_s=entry.get("delay_s", 0.05))
            for entry in json.loads(payload)))


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None

#: Per-process cache-read counter keyed by spec coordinates, consumed
#: by ``flaky_io`` faults. Deterministic within a process: the N-th
#: read of a given spec's cache entry always sees the same verdict.
_IO_READS: dict = {}


def install(plan: FaultPlan) -> None:
    """Activate a plan in this process and (via env) in future workers."""
    global _ACTIVE
    _ACTIVE = plan
    _IO_READS.clear()
    os.environ[PLAN_ENV] = plan.to_json()


def clear() -> None:
    """Deactivate fault injection everywhere."""
    global _ACTIVE
    _ACTIVE = None
    _IO_READS.clear()
    os.environ.pop(PLAN_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan: process-local first, then the environment.

    The environment path is what child processes use — they inherit
    ``PLAN_ENV`` from their parent at start but not its module globals.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    # repro: allow[D405] -- chaos-test control channel: the plan only
    # decides whether maybe_fire *raises*; it never alters a computed
    # value, so no environment-dependent bytes can reach the cache.
    payload = os.environ.get(PLAN_ENV)
    if payload:
        try:
            return FaultPlan.from_json(payload)
        except (ValueError, KeyError, TypeError):
            return None
    return None


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with inject(plan): ...`` — install and always clean up."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ----------------------------------------------------------------------
# The execute_spec hook
# ----------------------------------------------------------------------
def maybe_fire(spec, attempt: int = 1) -> None:
    """Fire any fault the active plan schedules for ``(spec, attempt)``.

    The grid-replay path calls this in place of a simulation; see
    :func:`fire` for what each kind does.
    """
    fire(active_plan(), spec, attempt)


def fire(plan: Optional[FaultPlan], spec, attempt: int = 1) -> None:
    """Fire any fault ``plan`` schedules for ``(spec, attempt)``.

    Called by :func:`repro.harness.executor.execute_spec` before the
    simulation starts, with the plan the task carried (a long-lived
    pool worker never consults its own, possibly stale, environment).
    ``fail`` raises :class:`InjectedFault`; ``hang``
    sleeps for ``hang_s`` (long enough to trip any per-spec timeout);
    ``delay`` sleeps for ``delay_s`` and then lets the spec run
    normally (a deterministic *slow* spec, for deadline tests);
    ``crash`` SIGKILLs the current process — mid-spec, exactly like an
    OOM-killed or segfaulting worker. ``corrupt_cache`` and
    ``flaky_io`` do nothing here (the coordinator applies them on the
    cache write/read paths, see :func:`should_corrupt_cache` and
    :func:`maybe_flaky_io`).
    """
    if plan is None:
        return
    fault = plan.match(spec, attempt)
    if fault is None or fault.kind in (KIND_CORRUPT_CACHE, KIND_FLAKY_IO) \
            or fault.kind in FABRIC_KINDS:
        return
    if fault.kind == KIND_FAIL:
        raise InjectedFault(
            f"injected failure: {spec.workload}@{spec.size} "
            f"{getattr(spec.mode, 'value', spec.mode)}#{spec.iteration} "
            f"attempt {attempt}")
    if fault.kind == KIND_DELAY:
        time.sleep(fault.delay_s)
        return
    if fault.kind == KIND_HANG:
        time.sleep(fault.hang_s)
        return
    if fault.kind == KIND_CRASH:  # pragma: no cover - kills the process
        os.kill(os.getpid(), signal.SIGKILL)


def fabric_fault(spec, token: int):
    """The fabric fault (if any) scheduled for ``(spec, token)``.

    Called by :class:`repro.fabric.worker.FabricWorker` right after it
    wins a lease. The fencing token plays the role the attempt number
    plays elsewhere: ``attempts=(1,)`` hits only the *first* claimant
    of the node, so the speculative re-execution that follows a crash,
    stall, or partition runs clean — which is exactly the recovery the
    chaos tests want to observe.

    Returns the matching :class:`Fault` (kind in :data:`FABRIC_KINDS`)
    or ``None``; the worker interprets it:

    * ``worker_crash`` — SIGKILL itself while holding the lease;
    * ``lease_stall`` — sleep ``hang_s`` *while heartbeating* (a
      straggler, not a corpse: only re-dispatch can rescue the node);
    * ``partition`` — suppress heartbeats but keep computing (a
      zombie: the lease expires, another worker re-claims, and the
      zombie's late commit must lose the fence).
    """
    plan = active_plan()
    if plan is None:
        return None
    for fault in plan.faults:
        if fault.kind in FABRIC_KINDS and fault.matches(spec, token):
            return fault
    return None


def should_corrupt_cache(spec) -> bool:
    """Whether a ``corrupt_cache`` fault targets this spec (any attempt)."""
    plan = active_plan()
    if plan is None:
        return False
    fault = plan.match(spec, attempt=1)
    return fault is not None and fault.kind == KIND_CORRUPT_CACHE


def maybe_flaky_io(spec) -> None:
    """Fire a scheduled ``flaky_io`` fault for this spec's cache read.

    Called by the coordinator immediately before a result-cache read.
    Each call increments a per-process read counter for the spec; the
    fault raises :class:`InjectedIOError` when the counter matches one
    of its ``attempts`` (empty tuple = every read fails — a permanently
    unreadable entry). The counter makes the schedule deterministic:
    ``attempts=(1,)`` is the classic transient error that a single
    read retry absorbs.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.faults:
        if fault.kind != KIND_FLAKY_IO or not fault.matches_spec(spec):
            continue
        coords = (spec.workload, spec.size,
                  getattr(spec.mode, "value", spec.mode), spec.iteration)
        count = _IO_READS.get(coords, 0) + 1
        _IO_READS[coords] = count
        if not fault.attempts or count in fault.attempts:
            raise InjectedIOError(
                f"injected flaky cache read #{count}: "
                f"{spec.workload}@{spec.size} {coords[2]}#{spec.iteration}")
        return
