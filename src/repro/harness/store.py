"""Persistent result store for long-running studies.

The paper's protocol (30 iterations x 21 workloads x 5 configs x
several sweeps) takes hours on real hardware; losing measurements to a
crash is expensive. This store appends every run to a JSON-lines file
and reloads them into the same result types the rest of the library
consumes, so studies can be resumed, merged, and re-analyzed offline.
"""

from __future__ import annotations

import json
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


def record_to_run(record: Dict,
                  counters: Optional[CounterReport] = None) -> RunResult:
    """Rebuild a :class:`RunResult` from a store record.

    Optional fields (``occupancy``, ``gpu_busy_fraction``,
    ``counters``) default to empty when missing, so records written by
    older schema-1 stores still load. An explicit ``counters`` report
    (a cache pack's shared decode) replaces the record's own field.

    Checks what ``RunResult.__post_init__`` would (non-negative
    timings) and then installs the fields through
    :meth:`RunResult.replayed`. A bad record raises ``ValueError``,
    ``KeyError`` or ``TypeError``.
    """
    if record.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported record version {record.get('v')!r}")
    if counters is None:
        entries = record.get("counters")
        counters = (_counters_from_record(entries)
                    if entries is not None else CounterReport())
    label = record["mode"]
    mode = _MODES[label] if label in _MODES else TransferMode.from_label(label)
    alloc = record["alloc_ns"]
    memcpy = record["memcpy_ns"]
    kernel = record["kernel_ns"]
    wall = record["wall_ns"]
    if alloc < 0 or memcpy < 0 or kernel < 0 or wall < 0:
        raise ValueError("negative timing in record")
    return RunResult.replayed({
        "workload": record["workload"],
        "mode": mode,
        "size": record["size"],
        "seed": record["seed"],
        "alloc_ns": alloc, "memcpy_ns": memcpy,
        "kernel_ns": kernel, "wall_ns": wall,
        "counters": counters,
        "occupancy": record.get("occupancy", 0.0),
        "gpu_busy_fraction": record.get("gpu_busy_fraction", 0.0),
    })


def runs_to_pack(items: Iterable[Tuple[str, RunResult]]) -> Dict:
    """Serialize keyed runs as one result-cache pack.

    ``{"counters": [<kernel-entry lists>], "records": {key: record}}``:
    each record is :func:`run_to_record` with ``"counters"`` replaced by
    an index into the pack's list, so a counter report shared by many
    runs (every iteration of a sweep family) is stored once. Reports
    are matched by identity, then equality.
    """
    reports: List[CounterReport] = []
    records: Dict[str, Dict] = {}
    for key, run in items:
        counters = run.counters
        for index, seen in enumerate(reports):
            if seen is counters or seen == counters:
                break
        else:
            index = len(reports)
            reports.append(counters)
        record = run_to_record(run)
        record["counters"] = index
        records[key] = record
    return {"counters": [_counters_to_record(report) for report in reports],
            "records": records}


class Pack:
    """A decoded :func:`runs_to_pack` payload.

    Each counter list is decoded once into one :class:`CounterReport`,
    shared by every run rebuilt from the pack (results treat counter
    reports as immutable). Raises ``ValueError``/``KeyError``/
    ``TypeError`` on a payload of the wrong shape.
    """

    def __init__(self, payload: Dict):
        self.records: Dict[str, Dict] = payload["records"]
        self.reports = [_counters_from_record(entries)
                        for entries in payload["counters"]]

    def run(self, key: str) -> RunResult:
        """The run stored under ``key`` (``KeyError`` when absent).

        A bad record raises ``ValueError``/``KeyError``/``TypeError``
        for its own key only.
        """
        record = self.records[key]
        index = record["counters"]
        if not isinstance(index, int) or not 0 <= index < len(self.reports):
            raise ValueError(f"bad counters index {index!r}")
        return record_to_run(record, counters=self.reports[index])


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
