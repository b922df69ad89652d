"""Resilience primitives for the sweep executor.

The paper's headline figures aggregate 5 configurations x 21 workloads
x several sizes; at production scale one raising cell must not abort
the grid. This module holds the vocabulary the executor uses to keep
sweeps alive:

* :class:`SpecStatus` / :class:`SpecOutcome` - per-spec terminal state
  (ok / failed / timed-out / skipped) carrying the exception and
  traceback instead of raising it through the pool;
* :class:`SweepOutcome` - an ordered outcome list with partial-result
  accessors and a human-readable failure summary;
* :class:`RetryPolicy` - bounded retries with exponential backoff and
  *deterministic* jitter (seeded from the spec's own seed stream, so a
  rerun backs off identically bit-for-bit), per-spec wall-clock
  timeouts (pooled sweeps), and the poison-spec crash threshold;
* :class:`SweepJournal` - an append-only JSONL checkpoint of terminal
  spec keys next to the result cache, enabling ``--resume``. It
  doubles as the *coordination log* of the distributed sweep fabric
  (:mod:`repro.fabric`): :meth:`~SweepJournal.append_event` records
  claim / renew / commit / abandon / redispatch / fenced events that
  multiple worker processes append concurrently (one ``O_APPEND``
  line each, so records never interleave), and
  :meth:`~SweepJournal.compact` rewrites a long-lived journal down to
  its live suffix atomically;
* :class:`SweepFailure` / :class:`SweepInterrupted` - the strict-mode
  and Ctrl-C exits, both carrying the partial outcome.

Nothing here imports the executor; the executor imports this.
"""

from __future__ import annotations

import enum
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple,
                    Union)

import numpy as np

#: :meth:`SweepJournal.record_many` item defaults past ``(key, status)``.
_ITEM_DEFAULTS = (None, None, None, 0, None, None)
#: Stands in for the key and the iteration in a journal line template.
_SLOT = "\x00slot\x00"
#: ``json.dumps`` of one ``str``.
_encode_str = json.encoder.encode_basestring_ascii

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import RunResult
    from .executor import RunSpec


def describe_spec(spec) -> str:
    """Compact human label for one grid cell."""
    mode = getattr(spec.mode, "value", spec.mode)
    label = f"{spec.workload}@{spec.size} {mode}#{spec.iteration}"
    if getattr(spec, "seed_salt", ""):
        label += spec.seed_salt
    return label


class SpecStatus(enum.Enum):
    """Terminal state of one spec within a sweep."""

    OK = "ok"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    SKIPPED = "skipped"

    @property
    def is_ok(self) -> bool:
        return self is SpecStatus.OK


#: Journal statuses that mean "do not re-attempt on --resume".
TERMINAL_FAILURE_STATUSES = (SpecStatus.FAILED.value,
                             SpecStatus.TIMED_OUT.value)


@dataclass
class SpecOutcome:
    """What happened to one spec: result *or* failure detail, never a raise."""

    spec: "RunSpec"
    index: int
    status: SpecStatus
    result: Optional["RunResult"] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 0
    crashes: int = 0
    from_cache: bool = False
    key: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is SpecStatus.OK

    @classmethod
    def settled_ok(cls, spec: "RunSpec", index: int, result: "RunResult",
                   key: Optional[str],
                   from_cache: bool = False) -> "SpecOutcome":
        """Bulk-settle fast path: an OK outcome in one dict install.

        The executor settles hundreds of precomputed grid results or
        cache hits in one loop; this skips the generated
        ``__init__``'s per-field default handling.  A computed result
        took one attempt, a cache hit none.  Field set must mirror the
        dataclass.
        """
        self = cls.__new__(cls)
        self.__dict__.update(
            spec=spec, index=index, status=SpecStatus.OK, result=result,
            error=None, traceback=None, attempts=0 if from_cache else 1,
            crashes=0, from_cache=from_cache, key=key)
        return self

    def describe(self) -> str:
        head = f"{describe_spec(self.spec)}: {self.status.value}"
        if self.status is SpecStatus.OK:
            return head + (" (cache)" if self.from_cache else
                           f" after {self.attempts} attempt(s)")
        detail = self.error or ""
        if self.attempts:
            head += f" after {self.attempts} attempt(s)"
        if self.crashes:
            head += f", {self.crashes} worker crash(es)"
        return f"{head}: {detail}" if detail else head


@dataclass
class SweepOutcome:
    """Ordered per-spec outcomes of one :meth:`SweepExecutor.run_outcomes`."""

    outcomes: List[SpecOutcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def results(self) -> List[Optional["RunResult"]]:
        """Results in spec order; failed/skipped cells are ``None``."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def ok_results(self) -> List["RunResult"]:
        return [o.result for o in self.outcomes if o.ok and o.result is not None]

    @property
    def failures(self) -> List[SpecOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def complete(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        tally = {status.value: 0 for status in SpecStatus}
        for outcome in self.outcomes:
            tally[outcome.status.value] += 1
        return tally

    def failure_summary(self, limit: int = 10) -> str:
        """Multi-line annotation of every gap (for figure footers)."""
        failures = self.failures
        if not failures:
            return ""
        counts = self.counts()
        kinds = ", ".join(f"{counts[s]} {s}" for s in
                          ("failed", "timed_out", "skipped") if counts[s])
        lines = [f"[sweep] partial: {len(failures)} of {len(self.outcomes)} "
                 f"specs missing ({kinds})"]
        for outcome in failures[:limit]:
            lines.append(f"  - {outcome.describe()}")
        if len(failures) > limit:
            lines.append(f"  ... and {len(failures) - limit} more")
        return "\n".join(lines)


class SweepFailure(RuntimeError):
    """Strict mode: raised at the first *permanent* spec failure."""

    def __init__(self, outcome: SpecOutcome,
                 partial: Optional[SweepOutcome] = None):
        self.outcome = outcome
        self.partial = partial
        super().__init__(outcome.describe())


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C / SIGTERM mid-sweep, after the journal was flushed.

    Subclasses :class:`KeyboardInterrupt` so generic interrupt handling
    (including the CLI's exit-130 path) still applies; carries the
    partial :class:`SweepOutcome` so callers can salvage finished work.
    """

    def __init__(self, partial: SweepOutcome):
        self.partial = partial
        done = sum(1 for o in partial.outcomes if o.ok)
        super().__init__(f"sweep interrupted with {done} of "
                         f"{len(partial.outcomes)} specs complete")


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry/backoff/timeout policy.

    * ``retries`` - extra attempts after the first (0 = fail fast);
    * ``backoff_s`` * ``backoff_factor``^(attempt-1) - base delay
      before attempt N+1;
    * ``jitter`` - +/- fraction of the base delay, drawn from a
      generator seeded by the *spec's own* ``seed_sequence`` so reruns
      back off bit-identically (no shared RNG, no wall-clock seeds);
    * ``timeout_s`` - per-spec wall-clock budget, enforced on pooled
      sweeps only (a hung worker process is killed; a serial sweep
      runs inline and documents-and-ignores it);
    * ``max_crashes`` - quarantine a spec as poison after this many
      worker-process crashes while it was in flight.
    """

    retries: int = 0
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    timeout_s: Optional[float] = None
    max_crashes: int = 3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay_s(self, spec, attempt: int) -> float:
        """Backoff before retrying ``spec`` after failed attempt N (1-based).

        Deterministic: the jitter stream is seeded from the spec's seed
        sequence, so the same spec backs off identically on every rerun
        of the sweep — scheduling noise cannot leak into wall-clock
        patterns that tests or bisections depend on.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_s * (self.backoff_factor ** (attempt - 1))
        if base == 0.0:
            return 0.0
        if self.jitter == 0.0:
            return base
        rng = np.random.default_rng(spec.seed_sequence())
        # attempt-th draw, so successive retries see fresh-but-fixed jitter
        offsets = rng.uniform(-1.0, 1.0, size=attempt)
        return base * (1.0 + self.jitter * float(offsets[-1]))


#: Policy the executor uses when none is given: single attempt, no
#: timeout — i.e. exactly the pre-resilience behavior, plus isolation.
DEFAULT_RETRY_POLICY = RetryPolicy()


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
@dataclass
class CompactionStats:
    """What one :meth:`SweepJournal.compact` pass did.

    ``salvaged`` counts undecodable lines dropped while reading (a
    torn tail from an interrupted append, or mid-file bit rot); they
    are gone from the rewritten journal, exactly as a fresh
    :meth:`SweepJournal.load` would have ignored them.
    """

    records_before: int = 0
    records_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    salvaged: int = 0

    @property
    def dropped(self) -> int:
        return self.records_before - self.records_after

    def summary(self) -> str:
        return (f"journal compacted: {self.records_before} -> "
                f"{self.records_after} records "
                f"({self.bytes_before} -> {self.bytes_after} bytes, "
                f"{self.salvaged} salvaged)")


class SweepJournal:
    """Append-only JSONL checkpoint of terminal spec outcomes.

    One line per terminal outcome: ``{"key", "status", "spec",
    "attempts", "error", "ts"}``. Lives next to the result cache
    (:meth:`beside`). Each :meth:`record` / :meth:`record_many` call is
    written with one open/append/close so a crash can tear at most the
    final line — and :meth:`load`
    salvages a torn tail explicitly (the damaged line is dropped with
    a logged warning and counted in ``last_salvaged``, never silently).
    ``--resume`` uses the journal to skip specs that already failed
    permanently; *completed* specs need no journal help because the
    content-addressed cache already covers them.

    ``durable=True`` additionally flushes **and fsyncs** every call —
    the long-lived-process contract (``repro serve``): once
    :meth:`record` returns, the line survives a power cut, not just a
    process kill. One-shot CLI sweeps keep the cheaper default.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, path: Union[str, Path], durable: bool = False):
        self.path = Path(path)
        self.durable = durable
        #: Damaged lines dropped by the most recent :meth:`load` /
        #: :meth:`latest_entries` call (torn tail or mid-file rot).
        self.last_salvaged = 0

    @classmethod
    def beside(cls, cache_root: Union[str, Path],
               durable: bool = False) -> "SweepJournal":
        return cls(Path(cache_root) / cls.FILENAME, durable=durable)

    def _read_records(self) -> List[Dict]:
        """Every decodable record, in append order, salvaging damage.

        Undecodable lines are *salvaged*: dropped from the result,
        counted in ``last_salvaged``, and logged — a torn final line
        (the expected crash artifact of an append interrupted mid-
        write) is called out as such, while a corrupt line anywhere
        else is reported with its line number so real bit rot is never
        mistaken for an ordinary crash tail.
        """
        records: List[Dict] = []
        self.last_salvaged = 0
        try:
            text = self.path.read_text()
        except OSError:
            return records
        lines = text.splitlines()
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.last_salvaged += 1
                # Resolved here: the salvage path is the only user of
                # logging, which every CLI start would otherwise import.
                import logging
                logger = logging.getLogger(__name__)
                if lineno == len(lines):
                    logger.warning(
                        "journal %s: salvaged truncated final line "
                        "(%d bytes) — an interrupted append; the record "
                        "it carried is lost and its spec will re-run",
                        self.path, len(line))
                else:
                    logger.warning(
                        "journal %s: dropped corrupt line %d of %d "
                        "(not a crash tail — possible bit rot)",
                        self.path, lineno, len(lines))
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def latest_entries(self) -> Dict[str, Dict]:
        """Latest full key-record per key (later lines win).

        Coordination *events* (records without ``key``/``status``, see
        :meth:`append_event`) are transparently skipped, so resume and
        service readers see exactly the checkpoint view they always
        did even on a journal the fabric also writes to.
        """
        entries: Dict[str, Dict] = {}
        for record in self._read_records():
            key, status = record.get("key"), record.get("status")
            if key and status:
                entries[key] = record
        return entries

    def events(self) -> List[Dict]:
        """Coordination events, in append order.

        An event is any record carrying an ``event`` field — the
        fabric's claim / renew / commit / abandon / redispatch /
        fenced protocol records. Commit records carry *both* views
        (``event`` plus ``key``/``status``), so they show up here and
        in :meth:`latest_entries`.
        """
        return [record for record in self._read_records()
                if record.get("event")]

    def append_event(self, event: str, **fields) -> None:
        """Append one coordination-log event record.

        Same durability contract as :meth:`record`: open-append-close
        per call (plus fsync under ``durable``), and a single
        ``write()`` in append mode so concurrent *processes* sharing
        the journal never interleave bytes mid-line.
        """
        entry: Dict = {"event": str(event), "ts": time.time()}
        for name, value in fields.items():
            if value is not None:
                entry[name] = value
        self._append(json.dumps(entry) + "\n")

    def load(self) -> Dict[str, str]:
        """Latest journaled status per key (later lines win)."""
        return {key: record["status"]
                for key, record in self.latest_entries().items()}

    def failed_keys(self) -> Dict[str, str]:
        """Keys whose latest status is a permanent failure."""
        return {key: status for key, status in self.load().items()
                if status in TERMINAL_FAILURE_STATUSES}

    def record(self, key: str, status: Union[SpecStatus, str], spec=None,
               attempts: int = 0, error: Optional[str] = None,
               extra: Optional[Dict] = None) -> None:
        self.record_many([(key, status, spec, attempts, error, extra)])

    def record_many(self, items: Iterable[Tuple]) -> int:
        """Append one key-record per item, in one write; returns the count.

        Each item is ``(key, status[, spec[, attempts[, error[,
        extra]]]])`` — :meth:`record`'s arguments, in order.  A run of
        items without ``error`` or ``extra`` whose specs share a sweep
        family (``spec.family``), status and attempts is formatted from
        one ``json.dumps`` template; every line is byte-identical to
        ``json.dumps`` of its :meth:`_entry`.
        """
        now = time.time()
        lines = []
        family = parts = None
        for item in items:
            key, status, spec, attempts, error, extra = (
                tuple(item) + _ITEM_DEFAULTS[len(item):])
            spec_family = getattr(spec, "family", None)
            if (spec_family is None or error or extra
                    or type(key) is not str or type(attempts) is not int
                    or type(spec.iteration) is not int):
                lines.append(json.dumps(self._entry(now, *item)) + "\n")
                continue
            # A sweep family's OK lines differ only in key and
            # iteration: serialize the family once, splice those two.
            signature = (status, attempts, spec_family)
            if signature != family:
                family = signature
                entry = self._entry(now, _SLOT, status, spec, attempts)
                entry["spec"]["iteration"] = _SLOT
                parts = json.dumps(entry).split(json.dumps(_SLOT))
                if len(parts) != 3:
                    parts = None
            if parts is None:
                lines.append(json.dumps(self._entry(now, *item)) + "\n")
            else:
                lines.append(f"{parts[0]}{_encode_str(key)}{parts[1]}"
                             f"{spec.iteration}{parts[2]}\n")
        if lines:
            self._append("".join(lines))
        return len(lines)

    @staticmethod
    def _entry(now: float, key: str, status: Union[SpecStatus, str],
               spec=None, attempts: int = 0, error: Optional[str] = None,
               extra: Optional[Dict] = None) -> Dict:
        status_value = (status.value if isinstance(status, SpecStatus)
                        else str(status))
        entry: Dict = {"key": key, "status": status_value,
                       "attempts": attempts, "ts": now}
        if spec is not None:
            entry["spec"] = {
                "workload": spec.workload, "size": spec.size,
                "mode": getattr(spec.mode, "value", spec.mode),
                "iteration": spec.iteration,
                # The full coordinate set, so a restarted service can
                # reconstruct the RunSpec bit-exactly from the journal
                # alone (defaults tolerated for pre-upgrade records).
                "base_seed": getattr(spec, "base_seed", 1234),
                "blocks": getattr(spec, "blocks", None),
                "threads": getattr(spec, "threads", None),
                "smem_carveout_bytes": getattr(spec, "smem_carveout_bytes",
                                               None),
                "seed_salt": getattr(spec, "seed_salt", ""),
            }
        if error:
            entry["error"] = str(error)[:500]
        if extra:
            # Fabric commit records ride the key-record (one line
            # serves the checkpoint view *and* the event view); the
            # reserved fields above always win a collision.
            entry = {**extra, **entry}
        return entry

    def _append(self, text: str) -> None:
        """Whole lines, one open and one atomic append.

        Open-append-close per call: the file is always flushed, so
        SIGKILL between calls loses nothing and Ctrl-C loses at most
        the lines being written; a single ``write()`` in append mode
        keeps concurrent *processes* from interleaving bytes mid-line.
        ``durable`` upgrades that to power-cut safety with one fsync
        per call.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as stream:
            stream.write(text)
            if self.durable:
                stream.flush()
                os.fsync(stream.fileno())

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    #: Event kinds folded away once their node has terminally resolved
    #: (first commit wins; the claim/renew chatter behind it is dead).
    _EPHEMERAL_EVENTS = ("claim", "renew", "redispatch", "fenced")

    def compact(self) -> CompactionStats:
        """Rewrite the journal down to its live suffix, atomically.

        Resumed, re-keyed, and fabric-coordinated journals grow
        without bound: every retry appends a fresh key-record, every
        heartbeat a ``renew`` event. Compaction keeps exactly the
        records a cold reader would still act on:

        * the **latest** key-record per key (what :meth:`load` and
          ``--resume`` already reduce to);
        * the **first** ``commit`` event per node (first-commit-wins —
          later duplicate commits are dropped);
        * for *uncommitted* nodes only, the latest event per
          ephemeral kind (``claim``/``renew``/``redispatch``/
          ``fenced``) plus every ``abandon``, so in-flight lease state
          stays diagnosable;
        * any other event verbatim.

        Damaged lines (torn tail, bit rot) are salvaged exactly as
        :meth:`load` salvages them — dropped, counted, logged — and do
        not survive into the rewrite. The rewrite goes through a temp
        file and an atomic rename (fsynced when ``durable``), so a
        crash mid-compaction leaves either the old journal or the new
        one, never a torn hybrid.
        """
        stats = CompactionStats()
        try:
            stats.bytes_before = self.path.stat().st_size
        except OSError:
            return stats  # no journal, nothing to do
        records = self._read_records()
        stats.records_before = len(records)
        stats.salvaged = self.last_salvaged

        latest_key: Dict[str, int] = {}       # key -> position of latest
        committed_nodes = set()
        first_commit: Dict[object, int] = {}  # node -> position of first
        for position, record in enumerate(records):
            key, status = record.get("key"), record.get("status")
            if key and status:
                latest_key[key] = position
            if record.get("event") == "commit" and "node" in record:
                node = record["node"]
                if node not in first_commit:
                    first_commit[node] = position
                committed_nodes.add(node)

        keep: List[int] = []
        latest_ephemeral: Dict[tuple, int] = {}
        for position, record in enumerate(records):
            event = record.get("event")
            key = record.get("key")
            if key and record.get("status"):
                if latest_key[key] != position:
                    continue  # superseded key-record
                if event == "commit" and \
                        first_commit.get(record.get("node")) != position:
                    continue  # duplicate commit (lost first-commit-wins)
                keep.append(position)
                continue
            if event is None:
                continue  # undecipherable non-event record: drop
            node = record.get("node")
            if event == "commit":
                if first_commit.get(node) == position:
                    keep.append(position)
                continue
            if node is not None and node in committed_nodes \
                    and event in self._EPHEMERAL_EVENTS:
                continue  # dead chatter behind a committed node
            if event in self._EPHEMERAL_EVENTS:
                latest_ephemeral[(event, node)] = position
                continue  # resolved after the scan
            keep.append(position)
        keep.extend(latest_ephemeral.values())
        keep.sort()

        payload = "".join(json.dumps(records[position]) + "\n"
                          for position in keep)
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        with tmp.open("w") as stream:
            stream.write(payload)
            if self.durable:
                stream.flush()
                os.fsync(stream.fileno())
        tmp.replace(self.path)  # atomic on POSIX
        stats.records_after = len(keep)
        stats.bytes_after = len(payload.encode("utf-8"))
        return stats

    def clear(self) -> None:
        try:
            os.remove(self.path)
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self.load())
