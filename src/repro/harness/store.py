"""Persistent result store for long-running studies.

The paper's protocol (30 iterations x 21 workloads x 5 configs x
several sweeps) takes hours on real hardware; losing measurements to a
crash is expensive. This store appends every run to a JSON-lines file
and reloads them into the same result types the rest of the library
consumes, so studies can be resumed, merged, and re-analyzed offline.
"""

from __future__ import annotations

import binascii
import json
import struct
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.configs import TransferMode
from ..core.results import ModeComparison, RunResult, RunSet
from ..sim.cache import MissRates
from ..sim.counters import CounterReport, KernelCounters
from ..sim.kernel import InstructionMix

SCHEMA_VERSION = 1

#: ``TransferMode.from_label`` as one dict lookup (a cache hit's hot path).
_MODES = {mode.value: mode for mode in TransferMode}


def _counters_to_record(counters: CounterReport) -> List[Dict]:
    """Serialize per-kernel counters (the Fig. 9/10 payload)."""
    return [
        {
            "kernel": entry.kernel_name,
            "inst": [entry.instructions.memory, entry.instructions.fp,
                     entry.instructions.integer, entry.instructions.control],
            "l1": [entry.l1.load, entry.l1.store],
            "dram_load_bytes": entry.dram_load_bytes,
            "dram_store_bytes": entry.dram_store_bytes,
            "occupancy": entry.occupancy,
        }
        for entry in counters.kernels
    ]


def _counters_from_record(entries: List[Dict]) -> CounterReport:
    report = CounterReport()
    for entry in entries:
        memory, fp, integer, control = entry["inst"]
        load, store = entry["l1"]
        report.add(KernelCounters(
            kernel_name=entry["kernel"],
            instructions=InstructionMix(memory=memory, fp=fp,
                                        integer=integer, control=control),
            l1=MissRates(load=load, store=store),
            dram_load_bytes=entry["dram_load_bytes"],
            dram_store_bytes=entry["dram_store_bytes"],
            occupancy=entry["occupancy"],
        ))
    return report


def run_to_record(run: RunResult, with_counters: bool = False) -> Dict:
    """Serialize one run to the store's JSON record schema.

    ``occupancy``, ``gpu_busy_fraction`` and ``counters`` are optional
    on read (older stores lack them); ``with_counters=True`` persists
    the per-kernel counter report too - the result cache uses this so
    counter sweeps (Figs. 9/10) replay exactly from cache.
    """
    record = {
        "v": SCHEMA_VERSION,
        "workload": run.workload,
        "mode": run.mode.value,
        "size": run.size,
        "seed": run.seed,
        "alloc_ns": run.alloc_ns,
        "memcpy_ns": run.memcpy_ns,
        "kernel_ns": run.kernel_ns,
        "wall_ns": run.wall_ns,
        "occupancy": run.occupancy,
        "gpu_busy_fraction": run.gpu_busy_fraction,
    }
    if with_counters:
        record["counters"] = _counters_to_record(run.counters)
    return record


def _checked_mode(label, alloc_ns, memcpy_ns, kernel_ns, wall_ns
                  ) -> TransferMode:
    """Check a record's mode label and timings; return its mode.

    The checks ``RunResult.__post_init__`` would make, shared by
    :func:`record_to_run` and :func:`pack_runs`: an unknown mode label
    or a negative timing raises ``ValueError`` (an unhashable label
    ``TypeError``).
    """
    mode = _MODES[label] if label in _MODES else TransferMode.from_label(label)
    if alloc_ns < 0 or memcpy_ns < 0 or kernel_ns < 0 or wall_ns < 0:
        raise ValueError("negative timing in record")
    return mode


def record_to_run(record: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` from a store record.

    Optional fields (``occupancy``, ``gpu_busy_fraction``,
    ``counters``) default to empty when missing, so records written by
    older schema-1 stores still load.

    Checks what ``RunResult.__post_init__`` would (non-negative
    timings) and then installs the fields through
    :meth:`RunResult.replayed`. A bad record raises ``ValueError``,
    ``KeyError`` or ``TypeError``.
    """
    if record.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported record version {record.get('v')!r}")
    entries = record.get("counters")
    alloc = record["alloc_ns"]
    memcpy = record["memcpy_ns"]
    kernel = record["kernel_ns"]
    wall = record["wall_ns"]
    return RunResult.replayed(
        record["workload"],
        _checked_mode(record["mode"], alloc, memcpy, kernel, wall),
        record["size"], record["seed"], alloc, memcpy, kernel, wall,
        (_counters_from_record(entries)
         if entries is not None else CounterReport()),
        record.get("occupancy", 0.0), record.get("gpu_busy_fraction", 0.0))


#: Layout version of a result-cache pack.  A pack of any other version
#: (the JSON-record packs of version 1 among them) is a stale schema:
#: it reads as corrupt, and the cache re-simulates and re-publishes it.
PACK_VERSION = 2

#: The :class:`RunResult` fields of a pack's float64 block, in block
#: order (field-major: all of a pack's ``alloc_ns``, then all of its
#: ``memcpy_ns``, ...).
PACK_FLOATS = ("alloc_ns", "memcpy_ns", "kernel_ns", "wall_ns",
               "occupancy", "gpu_busy_fraction")


def runs_to_pack(items: Iterable[Tuple[str, RunResult]]) -> Dict:
    """Serialize keyed runs as one result-cache pack (columns).

    ``{"v": 2, "keys": [...], "workload": [...], "mode": [...],
    "size": [...], "seed": [...], "counters": [<kernel-entry lists>],
    "counters_index": [...], "f8": "<base64>"}``: one list per
    non-float field with one row per key, and the :data:`PACK_FLOATS`
    fields as one little-endian float64 block of ``6 x n`` values,
    base64-encoded.  The block round-trips every float's bits exactly
    (``-0.0``, subnormals, infinities and NaN payloads included); the
    engines write Python ``float``s to these fields, and any other
    real number is stored as its ``float``.

    A counter report shared by many runs (every iteration of a sweep
    family) is stored once in ``counters`` and referenced by its index;
    reports are matched by identity, then equality.
    """
    items = list(items)
    runs = [run for _, run in items]
    reports: List[CounterReport] = []
    indices: List[int] = []
    for run in runs:
        counters = run.counters
        for index, seen in enumerate(reports):
            if seen is counters or seen == counters:
                break
        else:
            index = len(reports)
            reports.append(counters)
        indices.append(index)
    block = struct.pack(f"<{len(PACK_FLOATS) * len(runs)}d",
                        *[getattr(run, name) for name in PACK_FLOATS
                          for run in runs])
    return {"v": PACK_VERSION, "keys": [key for key, _ in items],
            "workload": [run.workload for run in runs],
            "mode": [run.mode.value for run in runs],
            "size": [run.size for run in runs],
            "seed": [run.seed for run in runs],
            "counters": [_counters_to_record(report) for report in reports],
            "counters_index": indices,
            "f8": binascii.b2a_base64(block, newline=False).decode("ascii")}


def pack_runs(payload: Dict) -> Dict[str, RunResult]:
    """Decode a :func:`runs_to_pack` payload: key -> result, every row.

    Checks the pack's shape first (its version, equal column lengths,
    a float block of ``6 x n`` values) and raises
    ``ValueError``/``KeyError``/``TypeError`` when it is wrong: a bad
    pack fails every key that reads it.  Then builds each row's
    :class:`RunResult` in one pass, after the row checks
    :func:`record_to_run` makes (known mode, non-negative timings)
    and a valid counters index.  A row that fails them is left out of
    the result, so it fails only its own key.

    Each counter list is decoded once into one :class:`CounterReport`,
    shared by every run of the pack (results treat counter reports as
    immutable).
    """
    if payload["v"] != PACK_VERSION:
        raise ValueError(f"stale pack version {payload['v']!r}")
    keys = payload["keys"]
    columns = (payload["workload"], payload["mode"], payload["size"],
               payload["seed"], payload["counters_index"])
    n = len(keys)
    if any(len(column) != n for column in columns):
        raise ValueError("pack columns differ in length")
    width = len(PACK_FLOATS)
    block = binascii.a2b_base64(payload["f8"])
    if len(block) != 8 * width * n:
        raise ValueError(f"pack float block holds {len(block)} bytes, "
                         f"not {width} x {n} float64")
    floats = struct.unpack(f"<{width * n}d", block)
    reports = [_counters_from_record(entries)
               for entries in payload["counters"]]
    replayed = RunResult.replayed
    runs: Dict[str, RunResult] = {}
    for (key, workload, label, size, seed, index, alloc, memcpy, kernel,
         wall, occupancy, busy) in zip(
            keys, *columns,
            *(floats[j * n:(j + 1) * n] for j in range(width))):
        try:
            mode = _checked_mode(label, alloc, memcpy, kernel, wall)
            if not isinstance(index, int) or not 0 <= index < len(reports):
                raise ValueError(f"bad counters index {index!r}")
            runs[key] = replayed(workload, mode, size, seed, alloc, memcpy,
                                 kernel, wall, reports[index], occupancy,
                                 busy)
        except (ValueError, TypeError):
            continue  # this row's key reads as corrupt
    return runs


# Backwards-compatible private aliases (pre-executor callers).
_run_to_record = run_to_record
_record_to_run = record_to_run


class ResultStore:
    """Append-only JSON-lines store of :class:`RunResult` records.

    Reading is strict by default (a corrupt line raises, naming the
    file and line). Long-running studies that were killed mid-append
    can instead salvage everything readable with
    ``iter_runs(skip_corrupt=True)``; the number of lines dropped by
    the most recent tolerant read is kept in ``last_skipped``.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.last_skipped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, run: RunResult) -> None:
        with self.path.open("a") as stream:
            stream.write(json.dumps(_run_to_record(run)) + "\n")

    def append_many(self, runs: Iterable[RunResult]) -> int:
        count = 0
        with self.path.open("a") as stream:
            for run in runs:
                stream.write(json.dumps(_run_to_record(run)) + "\n")
                count += 1
        return count

    def append_runset(self, runs: RunSet) -> int:
        return self.append_many(runs.runs)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[RunResult]:
        return self.iter_runs(skip_corrupt=False)

    def iter_runs(self, skip_corrupt: bool = False) -> Iterator[RunResult]:
        """Yield stored runs; optionally skip unreadable lines.

        ``skip_corrupt=True`` drops lines that fail to parse or
        deserialize (counting them in ``last_skipped``) instead of
        raising — the salvage path for stores torn by a crash or an
        interrupted append.
        """
        self.last_skipped = 0
        if not self.path.exists():
            return
        with self.path.open() as stream:
            for line_number, line in enumerate(stream, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    run = _record_to_run(record)
                except (json.JSONDecodeError, ValueError, KeyError,
                        TypeError) as error:
                    if skip_corrupt:
                        self.last_skipped += 1
                        continue
                    raise ValueError(
                        f"{self.path}:{line_number}: corrupt record "
                        f"({error})") from error
                yield run

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def query(self, workload: Optional[str] = None,
              mode: Optional[TransferMode] = None,
              size: Optional[str] = None) -> List[RunResult]:
        """All stored runs matching the given filters."""
        matches = []
        for run in self:
            if workload is not None and run.workload != workload:
                continue
            if mode is not None and run.mode is not mode:
                continue
            if size is not None and run.size != size:
                continue
            matches.append(run)
        return matches

    def load_runset(self, workload: str, mode: TransferMode,
                    size: str) -> RunSet:
        runs = RunSet(workload=workload, mode=mode, size=size)
        for run in self.query(workload=workload, mode=mode, size=size):
            runs.add(run)
        return runs

    def load_comparison(self, workload: str, size: str) -> ModeComparison:
        """Rebuild a five-config comparison from stored runs."""
        comparison = ModeComparison(workload=workload, size=size)
        for mode in TransferMode:
            runs = self.load_runset(workload, mode, size)
            if len(runs):
                comparison.add(runs)
        return comparison

    def workloads(self) -> List[str]:
        return sorted({run.workload for run in self})
