"""Parallel sweep executor with a content-addressed result cache.

Every figure of the paper re-runs a (workload x size x mode x
iteration) grid. Because each run is seeded purely from its
coordinates (:func:`repro.core.experiment.run_seed`), the grid is
*embarrassingly pure*: any cell can run anywhere, in any order, and
produce bit-identical results. This module exploits that:

* :class:`RunSpec` - one grid cell as a small, picklable value object;
* :func:`expand_grid` - flatten a figure sweep into a spec list;
* :class:`ResultCache` - a content-addressed, on-disk memo of finished
  runs (key = stable hash of spec + program structure + hardware model
  + calibration + code-version salt), reusing the
  :mod:`repro.harness.store` record schema;
* :class:`SweepExecutor` - fans specs out over a process pool and
  fills cache hits without re-simulating, preserving input order;
* :class:`WorkerPool` - the live pool a long-lived caller reuses
  across sweeps, replaced only when a worker crashes or hangs.

Determinism contract: for any spec list, ``SweepExecutor(jobs=1)``,
``SweepExecutor(jobs=N)`` and a warm-cache replay all
return byte-identical serialized :class:`~repro.core.results.RunResult`
sequences. ``tests/harness/test_executor.py`` pins this down.

Resilience contract (:mod:`repro.harness.resilience`): one raising,
hanging, or crashing spec never takes the sweep down. Each spec
resolves to a :class:`~repro.harness.resilience.SpecOutcome`; failures
retry per :class:`~repro.harness.resilience.RetryPolicy` with
deterministic backoff; hung process workers are timed out and their
pool replaced; ``BrokenProcessPool`` requeues survivors and quarantines
poison specs; terminal outcomes checkpoint to a
:class:`~repro.harness.resilience.SweepJournal` so interrupted sweeps
resume. ``tests/harness/test_resilience.py`` proves all of this with
the deterministic fault plans of :mod:`repro.harness.faults`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import operator
import os
import signal
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.configs import ALL_MODES, TransferMode
from ..core.execution import (compile_program, derive_compiled, engine_spec,
                              execute_program, iter_phase_cells,
                              program_structure_key)
from ..core.experiment import run_seed, seed_words
from ..core.results import ModeComparison, RunResult, RunSet
from ..sim.calibration import Calibration, default_calibration
from ..sim.hardware import SystemSpec, default_system
from ..sim.hostmem import place_host_data
from ..sim.phasecache import phase_memo_for
from ..sim.vecgrid import (FamilyRerouted, compile_family,
                           prewarm_phase_memo, replay_family)
from ..workloads.sizes import SizeClass
from . import faults
from .resilience import (DEFAULT_RETRY_POLICY, RetryPolicy, SpecOutcome,
                         SpecStatus, SweepFailure, SweepInterrupted,
                         SweepJournal, SweepOutcome)
from .store import pack_runs, runs_to_pack

#: Bump when the simulator's semantics change in ways the hashed inputs
#: (program structure, hardware spec, calibration constants) cannot
#: see, to invalidate every previously cached result.
CODE_VERSION = "executor-v2"

#: Environment knobs picked up as defaults (CI's parallel leg sets
#: ``REPRO_JOBS=2`` so the whole tier-1 suite exercises the pool path).
JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_jobs() -> int:
    """Worker count: the ``REPRO_JOBS`` env var, else 1 (serial).

    Invalid values (non-integers, zero, negatives) raise a clear
    :class:`ValueError` instead of silently falling back to serial — a
    CI leg that typos ``REPRO_JOBS=two`` should fail loudly, not
    quietly stop exercising the pool path.
    """
    raw = os.environ.get(JOBS_ENV)
    if raw is None or not raw.strip():
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/results``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "results"


# ----------------------------------------------------------------------
# RunSpec: one pure grid cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One simulated run, identified purely by its coordinates.

    A spec carries everything needed to reproduce the run bit-exactly:
    grid coordinates (workload, size, mode, iteration), the sweep's
    base seed, and the optional launch-geometry / shared-memory
    overrides the sensitivity studies use. ``seed_salt`` is appended
    to the workload token of the per-run seed so that geometry sweeps
    keep their historical seed stream (``"<name>:sweep"``).
    """

    workload: str
    size: str
    mode: TransferMode
    iteration: int = 0
    base_seed: int = 1234
    blocks: Optional[int] = None
    threads: Optional[int] = None
    smem_carveout_bytes: Optional[int] = None
    seed_salt: str = ""

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        SizeClass.from_label(self.size)  # validates the label
        if isinstance(self.mode, str):  # tolerate labels
            object.__setattr__(self, "mode",
                               TransferMode.from_label(self.mode))

    @property
    def size_class(self) -> SizeClass:
        return SizeClass.from_label(self.size)

    @property
    def has_geometry(self) -> bool:
        return self.blocks is not None or self.threads is not None

    def seed_sequence(self) -> np.random.SeedSequence:
        """Same seed stream as :class:`~repro.core.experiment.Experiment`."""
        return run_seed(self.base_seed, self.workload + self.seed_salt,
                        self.size, self.mode, self.iteration)

    def seed_words(self) -> Tuple[int, int, int, int]:
        """The four entropy words this spec's family shares (all of
        :meth:`seed_sequence`'s but the iteration)."""
        return seed_words(self.base_seed, self.workload + self.seed_salt,
                          self.size, self.mode)

    def build_program(self):
        """The (immutable) device program this spec runs."""
        from ..workloads.registry import get_workload
        subject = get_workload(self.workload)
        if self.has_geometry:
            builder = getattr(subject, "program_with_geometry", None)
            if builder is None:
                raise ValueError(
                    f"workload {self.workload!r} does not support launch-"
                    "geometry overrides (no program_with_geometry)")
            return builder(self.size_class, blocks=self.blocks,
                           threads=self.threads)
        return subject.program(self.size_class)

    def supported(self) -> bool:
        from ..workloads.registry import get_workload
        return get_workload(self.workload).supports(self.size_class)

    @property
    def family(self) -> Tuple:
        """The sweep family: every field but ``iteration``."""
        return _family_id(self)

    def members(self, iterations: Iterable[int]) -> List["RunSpec"]:
        """This spec's family at each of ``iterations``, in order.

        Each member equals (and hashes equal to)
        ``dataclasses.replace(self, iteration=i)``.  The template was
        validated when it was built and only ``iteration`` differs, so
        each member is a copy of its field dict, not a second
        ``__post_init__``.
        """
        fields = dict(self.__dict__)
        new = object.__new__
        setattr_ = object.__setattr__
        cls = type(self)
        specs = []
        for iteration in iterations:
            if iteration < 0:
                raise ValueError("iteration must be >= 0")
            fields["iteration"] = iteration
            spec = new(cls)
            # Set one attribute first, so the instance keeps the class's
            # shared-key dict (see RunResult.replayed): ~220 bytes a
            # spec instead of ~340.
            setattr_(spec, "workload", self.workload)
            spec.__dict__.update(fields)
            specs.append(spec)
        return specs


#: A spec's sweep family: every field but ``iteration``.
_family_id = operator.attrgetter(*(
    f.name for f in dataclasses.fields(RunSpec) if f.name != "iteration"))


def expand_grid(workloads: Sequence[str],
                sizes: Sequence[Union[SizeClass, str]],
                modes: Sequence[TransferMode] = ALL_MODES,
                iterations: int = 1,
                base_seed: int = 1234,
                skip_unsupported: bool = True,
                **overrides) -> List[RunSpec]:
    """Flatten a sweep into specs, in deterministic nested order.

    Order is size-major, then workload, mode, iteration - the order
    the serial figure loops have always used. Workloads that decline a
    size (:meth:`Workload.supports`) are skipped when
    ``skip_unsupported`` (the paper's omitted Mega cells); otherwise
    the executor will raise when the cell runs.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    specs: List[RunSpec] = []
    for size in sizes:
        label = size.label if isinstance(size, SizeClass) else \
            SizeClass.from_label(size).label
        for name in workloads:
            spec0 = RunSpec(workload=name, size=label, mode=modes[0],
                            base_seed=base_seed, **overrides)
            if skip_unsupported and not spec0.supported():
                continue
            for mode in modes:
                specs.extend(dataclasses.replace(spec0, mode=mode)
                             .members(range(iterations)))
    return specs


# ----------------------------------------------------------------------
# Content-addressed cache keys
# ----------------------------------------------------------------------
#: Per type: the field names ``canonical`` walks for a dataclass
#: instance, ``None`` for any other value.  ``dataclasses.fields`` and
#: ``is_dataclass`` then run once per type, not once per node.
_CANONICAL_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}

#: Values ``canonical`` returns as they are (exact types only: an enum
#: that subclasses ``int`` or ``str`` still canonicalizes to its value).
_CANONICAL_PLAIN = frozenset((str, int, float, bool, type(None)))


def canonical(obj):
    """Recursively normalize a value into a JSON-stable structure.

    Dataclasses become ``{"__type__": name, fields...}`` so that two
    different spec types with the same field values cannot collide;
    enums become their value; dicts are sorted by stringified key.
    """
    cls = type(obj)
    if cls in _CANONICAL_PLAIN:
        return obj
    try:
        names = _CANONICAL_FIELDS[cls]
    except KeyError:
        names = _CANONICAL_FIELDS[cls] = (
            tuple(f.name for f in dataclasses.fields(obj))
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            else None)
    if names is not None:
        out = {"__type__": cls.__name__}
        for name in names:
            out[name] = canonical(getattr(obj, name))
        return out
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, dict):
        return {str(canonical(key)): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def fingerprint(obj) -> str:
    """Stable SHA-256 hex digest of a canonicalized value."""
    payload = json.dumps(canonical(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Program structure changes rarely relative to sweep width; memoize its
# fingerprint per coordinates so warm-cache lookups stay O(file read).
_PROGRAM_FP_CACHE: Dict[Tuple, str] = {}

# Programs themselves are immutable (frozen dataclasses all the way
# down), so the *objects* memoize too: within a sweep, every iteration
# of the same coordinates shares one build.  Bounded because darknet
# programs are large; FIFO eviction is fine at this population.
_PROGRAM_MEMO: Dict[Tuple, object] = {}
_PROGRAM_MEMO_CAP = 256


def spec_coords(spec: RunSpec) -> Tuple:
    """The coordinates that determine a spec's program (not its seed)."""
    return (spec.workload, spec.size, spec.blocks, spec.threads)


def program_for(spec: RunSpec):
    """The (immutable, shared) program for a spec's coordinates.

    One :meth:`RunSpec.build_program` per distinct coordinates per
    process — iterations and modes reuse the same object, which is safe
    because programs are frozen and the runtime never mutates them.
    """
    coords = spec_coords(spec)
    program = _PROGRAM_MEMO.get(coords)
    if program is None:
        program = spec.build_program()
        if len(_PROGRAM_MEMO) >= _PROGRAM_MEMO_CAP:
            _PROGRAM_MEMO.pop(next(iter(_PROGRAM_MEMO)))
        _PROGRAM_MEMO[coords] = program
    return program


def clear_program_memo() -> None:
    """Drop memoized programs (tests that count build_program calls)."""
    _PROGRAM_MEMO.clear()


def program_fingerprint(spec: RunSpec) -> str:
    """Fingerprint of the program the spec runs (descriptor + buffers).

    Editing any workload descriptor (kernel geometry, tile sizes,
    instruction mix, buffer directions...) changes this digest, which
    invalidates every cached result for the workload - rule 2 of
    docs/EXECUTOR.md.
    """
    coords = spec_coords(spec)
    cached = _PROGRAM_FP_CACHE.get(coords)
    if cached is None:
        cached = fingerprint(program_for(spec))
        _PROGRAM_FP_CACHE[coords] = cached
    return cached


def cache_key(spec: RunSpec,
              system: Optional[SystemSpec] = None,
              calib: Optional[Calibration] = None,
              env_fingerprint: Optional[str] = None) -> str:
    """Content-addressed key for one run.

    The key covers everything the result depends on: the full spec,
    the structure of the program it executes, the hardware model, the
    calibration constants, and a code-version salt. Any perturbation
    of any field produces a different key (property-tested in
    ``tests/harness/test_cache_key.py``), and keys are stable across
    processes and interpreter restarts (no ``hash()`` anywhere).
    """
    if env_fingerprint is None:
        env_fingerprint = environment_fingerprint(system, calib)
    payload = {
        "code": CODE_VERSION,
        "spec": canonical(spec),
        "program": program_fingerprint(spec),
        "environment": env_fingerprint,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Stands in for ``iteration`` in a family's serialized key payload.
_ITERATION_SLOT = "\x00iteration\x00"


def family_keys(specs: Sequence[RunSpec], env_fingerprint: str) -> List[str]:
    """:func:`cache_key` of every spec, serialized once per family.

    Specs of one family differ only in ``iteration``, so their key
    payloads differ in one JSON field.  Each family's payload is
    serialized once with a sentinel in that field and split there;
    a member's key hashes ``head + str(iteration) + tail``.  A family
    whose serialization does not split in exactly two (a field that
    contains the sentinel) and a non-``int`` iteration fall back to
    :func:`cache_key`.  Keys are byte-identical to :func:`cache_key`
    (pinned by ``tests/harness/test_cache_key.py``).
    """
    keys: List[str] = [""] * len(specs)
    families: Dict[Tuple, List[int]] = {}
    family = members = None
    for position, spec in enumerate(specs):
        # Members are usually contiguous: hash a family once per run.
        spec_family = _family_id(spec)
        if spec_family != family:
            family = spec_family
            members = families.setdefault(family, [])
        members.append(position)
    sha256 = hashlib.sha256
    for positions in families.values():
        spec0 = specs[positions[0]]
        template = canonical(spec0)
        template["iteration"] = _ITERATION_SLOT
        payload = {
            "code": CODE_VERSION,
            "spec": template,
            "program": program_fingerprint(spec0),
            "environment": env_fingerprint,
        }
        parts = json.dumps(payload, sort_keys=True, separators=(",", ":")
                           ).split(json.dumps(_ITERATION_SLOT))
        for position in positions:
            spec = specs[position]
            iteration = spec.iteration
            if len(parts) == 2 and type(iteration) is int:
                keys[position] = sha256(
                    f"{parts[0]}{iteration}{parts[1]}".encode("utf-8")
                ).hexdigest()
            else:
                keys[position] = cache_key(spec,
                                           env_fingerprint=env_fingerprint)
    return keys


def environment_fingerprint(system: Optional[SystemSpec] = None,
                            calib: Optional[Calibration] = None) -> str:
    """One digest for the (hardware model, calibration) pair."""
    return fingerprint({
        "system": system or default_system(),
        "calib": calib or default_calibration(),
    })


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`.

    ``corrupt`` counts entries that *existed* but failed to parse —
    each such entry is also a miss, and its file is quarantined to
    ``<key>.corrupt`` (see :meth:`ResultCache.get`) so the same broken
    record can never be re-counted on every lookup forever.

    ``duplicates`` counts :meth:`ResultCache.put` calls that lost the
    first-commit-wins race: another writer (a concurrent sweep thread,
    a fabric worker, a fenced zombie) published the entry first, so
    this write committed nothing and is *not* a store.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    duplicates: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0
        self.corrupt = self.duplicates = 0


class ResultCache:
    """Content-addressed on-disk memo of completed runs.

    Layout: ``<root>/<key[:2]>/<key>.json``, one directory entry per
    key. An entry is a hard link to a *pack* (:func:`~repro.harness.
    store.runs_to_pack`): the runs of every key published together, as
    columns plus one float64 block, with each distinct per-kernel
    counter list (the Fig. 9/10 payload) stored once. A sweep family —
    the specs that differ only in ``iteration`` — publishes as one
    pack, so a cold pass makes one new file per family, not per spec,
    and a warm pass decodes it once, straight to results. Packs are
    written to a temp file and linked into place, so concurrent
    workers and interrupted sweeps can never publish a torn record;
    corrupt or unreadable entries degrade to cache misses and are
    quarantined.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.stats = CacheStats()
        # Entry paths are built as strings on the per-key hot paths
        # (a pathlib join costs ~20x a format).
        self._root = os.fspath(self.root)
        # (st_dev, st_ino, st_size, st_mtime_ns) of the last pack
        # decoded, and its decode: sibling keys of one pack are read
        # back to back, and all share the one decode.
        self._memo: Optional[Tuple[Tuple, Dict[str, RunResult]]] = None

    def path_for(self, key: str) -> Path:
        return Path(self._entry(key))

    def _entry(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        entry = self._entry(key)
        pack = None
        try:
            # Stat first: a sibling of the last pack decoded is served
            # from its memo without opening the entry.
            st = os.stat(entry)
            stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
            memo = self._memo
            if memo is not None and memo[0] == stamp:
                pack = memo[1]
            else:
                with open(entry, "rb") as stream:
                    # The stamp of the file actually read (the entry
                    # may have been replaced since the stat).
                    st = os.fstat(stream.fileno())
                    stamp = (st.st_dev, st.st_ino, st.st_size,
                             st.st_mtime_ns)
                    data = stream.read()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            if pack is None:
                pack = pack_runs(json.loads(data))
                self._memo = (stamp, pack)
            run = pack[key]
        except (ValueError, KeyError, TypeError):
            # The entry exists but cannot be parsed (torn write, stale
            # schema, bit rot, a pack without this key or whose row for
            # it fails a check): quarantine it
            # to <key>.corrupt so the re-executed run can publish a
            # clean record, and count it separately from ordinary
            # misses. Two readers can race to quarantine the same
            # entry; only the one whose rename wins counts it, so a
            # shared cache tallies each corruption once.
            if self._quarantine(Path(entry)):
                self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return run

    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt entry aside (best effort) as ``<key>.corrupt``.

        Returns whether *this* process performed the quarantine. A
        concurrent reader of the same corrupt entry may win the rename
        first; the loser's ``FileNotFoundError`` is the expected race
        outcome, not an error — it reports ``False`` so callers don't
        double-count the corruption.
        """
        try:
            path.replace(path.with_suffix(".corrupt"))
            return True
        except FileNotFoundError:
            return False  # a concurrent reader already quarantined it
        except OSError:  # pragma: no cover - cross-device/permission edge
            try:
                path.unlink()
                return True
            except FileNotFoundError:
                return False
            except OSError:
                return False

    def put(self, key: str, run: RunResult) -> bool:
        """Publish one record; returns whether this call committed it."""
        return self.put_many([(key, run)]) == 1

    def put_many(self, items: Iterable[Tuple[str, RunResult]]) -> int:
        """Publish records as one pack; first commit wins per key.

        The pack is written once to a private temp file under the root
        and *linked* to every key's entry. Two workers finishing the
        same spec concurrently (fabric speculative re-dispatch, or
        plain thread races) must yield exactly one committed entry and
        one accounting: ``os.link`` fails with ``EEXIST`` when another
        writer already committed, so the loser counts a ``duplicate``,
        not a store, and never rewrites the winner's bytes (results
        are bit-identical anyway, but mtime churn and double-counted
        ``stores`` are how a rename-overwrite path lies). Returns how
        many keys *this* call committed.

        Filesystems without hard links degrade to one one-key pack per
        key, published by atomic rename (still torn-write-safe, last
        writer wins).
        """
        items = list(items)
        if not items:
            return 0
        blob = json.dumps(runs_to_pack(items))
        tmp = f"{self._root}/.pack.{os.getpid()}.{threading.get_ident()}.tmp"
        self._in_dir(self._root, Path(tmp).write_text, blob)
        committed = 0
        try:
            for position, (key, _run) in enumerate(items):
                try:
                    # Atomic publish; EEXIST = lost the race.
                    self._in_dir(f"{self._root}/{key[:2]}", os.link, tmp,
                                 self._entry(key))
                    committed += 1
                except FileExistsError:
                    pass
                except OSError:  # no-hardlink filesystem
                    for rest in items[position:]:
                        self._rename_into(*rest)
                        committed += 1
                    break
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        self.stats.stores += committed
        self.stats.duplicates += len(items) - committed
        return committed

    @staticmethod
    def _in_dir(directory: str, write: Callable, *args) -> None:
        """``write(*args)`` into ``directory``, creating it on demand.

        A missing directory (first write to a shard, or one that
        vanished under a cache cleared from outside) surfaces as
        ``FileNotFoundError``: make it and retry once. Existing
        directories cost no ``mkdir`` call.
        """
        try:
            write(*args)
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            write(*args)

    def _rename_into(self, key: str, run: RunResult) -> None:
        shard = f"{self._root}/{key[:2]}"
        tmp = f"{shard}/.{key}.json.{os.getpid()}.{threading.get_ident()}.tmp"
        self._in_dir(shard, Path(tmp).write_text,
                     json.dumps(runs_to_pack([(key, run)])))
        os.replace(tmp, self._entry(key))

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._memo = None
        return removed


#: Extra read attempts absorbed before a flaky cache read degrades to a
#: miss (the entry is then recomputed, never served torn).
CACHE_READ_RETRIES = 2


def cache_read(cache: ResultCache, spec: RunSpec, key: str,
               plan: Optional[faults.FaultPlan]) -> Optional[RunResult]:
    """One cache lookup, resilient to transient read errors.

    A read that raises :class:`OSError` (real filesystem flake or an
    injected ``flaky_io`` fault) is retried up to
    :data:`CACHE_READ_RETRIES` times, then degrades to a miss — a flaky
    disk can cost a re-simulation but can never fail a spec or surface
    a partial record.  ``plan`` is the caller's fault plan: with none
    installed, no read can meet an injected fault, and
    :meth:`ResultCache.get` already counts a real read error as a miss.
    """
    if plan is None:
        return cache.get(key)
    for _ in range(CACHE_READ_RETRIES + 1):
        try:
            faults.maybe_flaky_io(spec)
            return cache.get(key)
        except OSError:
            continue
    cache.stats.misses += 1
    return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
# SeedSequence construction (entropy hashing over the five coordinate
# words) costs ~20us — more than an entire vector-engine replay — yet
# is a pure function of the spec's seed coordinates.  The per-spec
# engine path memoizes the *SeedSequence objects* (building a Generator
# from a reused sequence is deterministic — generate_state is pure).
# The fused family replay instead derives a whole family's PCG64 state
# dicts at once (:func:`family_rng_states`) and restores them onto one
# shared bit generator.
_SEED_SEQ_MEMO: Dict[Tuple, np.random.SeedSequence] = {}
_SEED_SEQ_MEMO_CAP = 65536


def _seed_key(spec: RunSpec) -> Tuple:
    return (spec.base_seed, spec.workload, spec.seed_salt, spec.size,
            spec.mode.value, spec.iteration)


def rng_for_spec(spec: RunSpec) -> np.random.Generator:
    """A fresh, deterministic :class:`~numpy.random.Generator` for a spec.

    Bit-identical stream to ``np.random.default_rng(spec.seed_sequence())``
    on every call — the memo only skips re-deriving the entropy pool.
    """
    key = _seed_key(spec)
    seq = _SEED_SEQ_MEMO.get(key)
    if seq is None:
        if len(_SEED_SEQ_MEMO) >= _SEED_SEQ_MEMO_CAP:
            _SEED_SEQ_MEMO.clear()
        seq = spec.seed_sequence()
        _SEED_SEQ_MEMO[key] = seq
    return np.random.default_rng(seq)


# numpy's SeedSequence (pool size 4) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# SeedSequence's entropy pool after the four family-constant words
# (base seed, workload, size and mode tokens) and the all-pairs mix
# (16 hashmix calls), keyed by those words.
_POOL_PREFIX_MEMO: Dict[Tuple, Tuple[int, ...]] = {}


def _pool_prefix(words: Tuple[int, ...]) -> Tuple[int, ...]:
    pool = _POOL_PREFIX_MEMO.get(words)
    if pool is not None:
        return pool
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    if len(_POOL_PREFIX_MEMO) >= _SEED_SEQ_MEMO_CAP:
        _POOL_PREFIX_MEMO.clear()
    pool = _POOL_PREFIX_MEMO[words] = tuple(pool)
    return pool


def _hash_consts(init: int, mult: int, skip: int, count: int) -> np.ndarray:
    """SeedSequence hash constants ``skip`` through ``skip + count`` as
    a uint64 column: call ``i`` xors with row ``i`` and multiplies by
    row ``i + 1``."""
    consts = [init]
    for _ in range(skip + count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts[skip:], dtype=np.uint64)[:, None]


def family_rng_states(words: Sequence[int],
                      iterations: Sequence[int]) -> List[dict]:
    """``np.random.PCG64(SeedSequence([*words, i])).state`` for each
    iteration ``i``, bit-exactly, in one pass over the family.

    Only the fifth entropy word varies inside a family, so
    SeedSequence's pool after the first four words is one memoized
    constant.  The fifth word's mixing, ``generate_state(4, uint64)``
    and PCG64's two-step seeding then run as uint64-lane array
    arithmetic over all the iterations (the 128-bit steps on Python
    ints).  A word outside ``[0, 2**32)``, which SeedSequence would
    split into several words, falls back to numpy.
    """
    words = tuple(words)
    fits = len(words) == 4 and all(
        type(word) is int and 0 <= word <= _MASK32 for word in words)
    states: List[Optional[dict]] = [None] * len(iterations)
    lanes = []
    for position, iteration in enumerate(iterations):
        if fits and type(iteration) is int and 0 <= iteration <= _MASK32:
            lanes.append(position)
        else:
            states[position] = np.random.PCG64(
                np.random.SeedSequence([*words, iteration])).state
    if not lanes:
        return states  # type: ignore[return-value]
    mix = _hash_consts(_INIT_A, _MULT_A, 16, 4)  # the fifth word's hashmix
    gen = _hash_consts(_INIT_B, _MULT_B, 0, 8)   # generate_state's words
    pool = np.array(_pool_prefix(words), dtype=np.uint64)[:, None]
    value = np.array([iterations[p] for p in lanes], dtype=np.uint64)
    # Row d: pool word d mixed with hashmix(iteration), on uint32 lanes.
    value = ((value ^ mix[:-1]) * mix[1:]) & _MASK32
    value ^= value >> 16
    value = (pool * _MIX_MULT_L - value * _MIX_MULT_R) & _MASK32
    value ^= value >> 16
    # generate_state(4, uint64): eight 32-bit words cycled off the pool.
    value = ((value[[0, 1, 2, 3, 0, 1, 2, 3]] ^ gen[:-1]) * gen[1:]) & _MASK32
    value ^= value >> 16
    for position, s0, s1, s2, s3, s4, s5, s6, s7 in zip(
            lanes, *value.tolist()):
        seed = (s0 | s1 << 32) << 64 | s2 | s3 << 32
        inc = (((s4 | s5 << 32) << 64 | s6 | s7 << 32) << 1 | 1) & _MASK128
        states[position] = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128,
                      "inc": inc},
            "has_uint32": 0, "uinteger": 0}
    return states  # type: ignore[return-value]


def execute_spec(spec: RunSpec,
                 system: Optional[SystemSpec] = None,
                 calib: Optional[Calibration] = None,
                 attempt: int = 1,
                 engine: str = "reference") -> RunResult:
    """Run one spec cold. Bit-identical to ``Experiment.run_one``.

    ``attempt`` (1-based) only feeds the test-only fault-injection
    hook (:func:`repro.harness.faults.fire`, with this process's
    :func:`~repro.harness.faults.active_plan`); the simulation itself
    is seeded purely from the spec, so retried attempts produce
    byte-identical results.

    ``engine`` selects the simulation engine
    (:data:`repro.core.execution.ENGINES`); an unknown name raises
    before any work.  Analytic engines additionally bind the
    process-local kernel-phase memo
    (:func:`repro.sim.phasecache.phase_memo_for`) — neither leg can
    change results (the differential battery in
    ``tests/harness/test_differential.py`` pins this).
    """
    return _execute_entry((spec, system, calib, attempt, engine,
                           faults.active_plan()))


def _execute_entry(entry: Tuple) -> RunResult:
    """Module-level worker so ProcessPoolExecutor can pickle it.

    ``entry`` is ``(spec, system, calib, attempt, engine, plan)``.
    ``plan`` is the coordinator's fault plan (or ``None``) at submit
    time: a pool worker outlives any one plan, so the task carries the
    plan it must fire instead of the worker reading whatever plan its
    environment held when it started.
    """
    spec, system, calib, attempt, engine, plan = entry
    analytic = engine_spec(engine).analytic
    faults.fire(plan, spec, attempt)
    program = program_for(spec)
    rng = rng_for_spec(spec)
    system = system or default_system()
    calib = calib or default_calibration()
    phase_memo = None
    if analytic:
        phase_memo = phase_memo_for(system, calib)
    return execute_program(
        program, spec.mode,
        system=system,
        calib=calib,
        rng=rng,
        seed=spec.iteration,
        smem_carveout_bytes=spec.smem_carveout_bytes,
        size_label=spec.size,
        engine=engine,
        phase_memo=phase_memo,
    )


def _grid_entry(entry: Tuple) -> Tuple:
    """Module-level grid replay task for an isolated sweep's worker.

    ``entry`` is ``(specs, system, calib, engine)``.  Runs
    :meth:`SweepExecutor._precompute_grid` in the worker, against its
    own program and phase memos, and returns ``(rows, stats)``: the
    replayed results in spec order (``None`` for rows the grid leaves)
    and the :class:`SweepStats` holding the grid tallies the
    coordinator's ``[sweep]`` summary reports.
    """
    specs, system, calib, engine = entry
    executor = SweepExecutor(jobs=1, system=system, calib=calib,
                             engine=engine)
    sweep = executor._sweep
    sweep.phase_memo = phase_memo_for(system or default_system(),
                                      calib or default_calibration())
    executor._precompute_grid(specs)
    return [sweep.grid.get(spec) for spec in specs], sweep.stats


@dataclass
class SweepStats:
    """Accounting for the most recent :meth:`SweepExecutor.run`."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0
    jobs: int = 1
    failed: int = 0
    timed_out: int = 0
    skipped: int = 0
    retries: int = 0
    crashes: int = 0
    engine: str = "reference"
    phase_hits: int = 0
    phase_misses: int = 0
    grid_groups: int = 0
    grid_specs: int = 0
    families_fused: int = 0
    families_rerouted: int = 0
    #: reroute counts keyed by the classifier rule that fired
    #: (``FamilyRerouted.rule``), plus ``"residual-guard"`` for fused
    #: rows whose per-spec guards failed.
    reroute_rules: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "SweepStats") -> None:
        """Add ``other``'s counts to this one's; ``jobs`` and ``engine``
        describe the sweep and stay."""
        for name in _SUMMED_STATS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for rule, count in other.reroute_rules.items():
            self.count_reroute(rule, count)

    def count_reroute(self, rule: str, count: int = 1) -> None:
        """Tally ``count`` reroutes under the classifier ``rule``."""
        self.reroute_rules[rule] = self.reroute_rules.get(rule, 0) + count

    @property
    def phase_lookups(self) -> int:
        return self.phase_hits + self.phase_misses

    @property
    def phase_hit_rate(self) -> float:
        return self.phase_hits / self.phase_lookups if self.phase_lookups \
            else 0.0

    def summary(self) -> str:
        parts = [f"{self.total} runs", f"{self.cache_hits} cache hits",
                 f"{self.executed} executed in {self.elapsed_s:.2f}s"]
        if self.engine != "reference":
            parts.append(f"{self.engine} engine")
        if self.phase_lookups:
            parts.append(
                f"phase memo {self.phase_hits}/{self.phase_lookups} hits "
                f"({self.phase_hit_rate:.0%})")
        if self.grid_specs:
            parts.append(f"{self.grid_specs} grid-replayed "
                         f"({self.grid_groups} compiled groups)")
        if self.families_fused:
            parts.append(f"{self.families_fused} families fused")
        if self.families_rerouted or self.reroute_rules:
            rules = ", ".join(f"{rule}:{count}" for rule, count
                              in sorted(self.reroute_rules.items()))
            label = f"{self.families_rerouted} families rerouted"
            parts.append(f"{label} ({rules})" if rules else label)
        if self.executed and self.jobs > 1:
            parts.append(f"{self.jobs} workers")
        for label, count in (("failed", self.failed),
                             ("timed out", self.timed_out),
                             ("skipped", self.skipped),
                             ("retries", self.retries),
                             ("worker crashes", self.crashes)):
            if count:
                parts.append(f"{count} {label}")
        return "[sweep] " + ", ".join(parts)


#: The :class:`SweepStats` fields :meth:`SweepStats.merge` adds up.
_SUMMED_STATS = tuple(stats_field.name
                      for stats_field in dataclasses.fields(SweepStats)
                      if stats_field.name not in ("jobs", "engine",
                                                  "reroute_rules"))


class _Sweep:
    """The sweep in flight.

    Holds its outcome slots in spec order, how many have settled, its
    strictness and fault plan, the grid-replayed results (spec ->
    :class:`RunResult`), the phase memo its hit counts are read from,
    and the :class:`SweepStats` it accumulates.
    """

    def __init__(self, total: int = 0, strict: bool = False,
                 plan: Optional[faults.FaultPlan] = None,
                 stats: Optional[SweepStats] = None):
        self.outcomes: List[Optional[SpecOutcome]] = [None] * total
        self.strict = strict
        self.plan = plan
        self.done = 0
        self.grid: Dict[RunSpec, RunResult] = {}
        self.stats = stats if stats is not None else SweepStats()
        self.phase_memo = None
        self.memo_before = (0, 0)


ProgressFn = Callable[[int, int, RunSpec], None]


def _axis_split(cell_map: Dict[Tuple, List["RunSpec"]]) -> List[List[Tuple]]:
    """Partition one family's coordinate cells into one-axis runs.

    ``cell_map`` maps ``(coords, mode, carveout)`` group keys to their
    member specs; all cells already share ``(workload, mode,
    base_seed, seed_salt)``.  A fusable *axis run* varies along at
    most one of the four sensitivity axes (size, blocks, threads,
    carveout) — the shape of every figure sweep.  When several axes
    vary (a full-factorial grid), the most-varying axis fuses and the
    remaining coordinates split the family, so each run is still a
    single sensitivity axis.
    """
    def axes_of(group_key: Tuple) -> Tuple:
        (coords, _mode, carveout) = group_key
        return (coords[1], coords[2], coords[3], carveout)

    items = list(cell_map.items())
    distinct: List[set] = [set(), set(), set(), set()]
    for group_key, _ in items:
        for axis, value in enumerate(axes_of(group_key)):
            distinct[axis].add(value)
    varying = [axis for axis, values in enumerate(distinct)
               if len(values) > 1]
    if len(varying) <= 1:
        return [items]
    fused = max(varying, key=lambda axis: len(distinct[axis]))
    runs: Dict[Tuple, List[Tuple]] = {}
    for group_key, members in items:
        axes = axes_of(group_key)
        rest = tuple(value for axis, value in enumerate(axes)
                     if axis != fused)
        runs.setdefault(rest, []).append((group_key, members))
    return list(runs.values())


class SweepExecutor:
    """Runs spec lists, in parallel, through the result cache.

    * ``jobs=1`` executes inline (no pool, no pickling) - the
      reference serial order.
    * ``jobs>1`` fans cache misses out over a
      :class:`ProcessPoolExecutor` (specs travel pickled, which
      RunSpecs are). An analytic engine first replays the whole grid
      in this process; workers get only the specs it leaves.
    * ``isolate=True`` runs every spec in a pool worker: the grid
      replay goes to a worker as one task, and the specs it leaves
      follow one task each.

    Results always come back in spec order regardless of completion
    order, so downstream grouping never depends on scheduling.

    Resilience: :meth:`run_outcomes` isolates every spec behind a
    :class:`SpecOutcome` (retrying/timing out per ``retry``), journals
    terminal outcomes when a ``journal`` is attached, skips journaled
    permanent failures when ``resume`` is set, and — unless ``strict``
    — returns partial sweeps instead of raising. :meth:`run` is the
    historical strict facade: all-or-raise, in spec order.

    Workers: given a :class:`WorkerPool`, pooled sweeps run on its live
    pool and leave it running for the next caller; otherwise each
    pooled sweep builds a private one and closes it on return.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 system: Optional[SystemSpec] = None,
                 calib: Optional[Calibration] = None,
                 progress: Optional[ProgressFn] = None,
                 retry: Optional[RetryPolicy] = None,
                 journal: Optional[SweepJournal] = None,
                 resume: bool = False,
                 strict: bool = False,
                 engine: str = "reference",
                 isolate: bool = False,
                 pool: Optional["WorkerPool"] = None,
                 env_fingerprint: Optional[str] = None):
        engine_spec(engine)  # unknown names raise the canonical error
        if jobs is None:
            jobs = default_jobs()
        else:
            jobs = int(jobs)
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.system = system
        self.calib = calib
        self.progress = progress
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.journal = journal
        self.resume = resume
        self.strict = strict
        self.engine = engine
        # ``isolate`` forces the pool path even for a single pending
        # spec, and runs the grid replay as a task on a pool worker, so
        # no simulation runs in this process: a crash fault (SIGKILL)
        # can never take down the coordinating process — the
        # containment contract a long-lived server (repro.service)
        # needs for every batch it dispatches.
        self.isolate = isolate
        # A caller-owned pool outlives this executor (one per service
        # slot); without one, each pooled sweep builds and closes its own.
        self.pool = pool
        self.last = SweepStats()
        self.last_outcome: Optional[SweepOutcome] = None
        # A caller that already holds ``environment_fingerprint(system,
        # calib)`` (the service, per batch) hands it in; keys are the
        # same either way.
        self._env_fp: Optional[str] = env_fingerprint
        # RunSpecs are frozen/hashable and the environment is fixed
        # per executor, so keys memoize safely; warm replays of the
        # same grid then skip re-canonicalizing every spec.
        self._key_memo: Dict[RunSpec, str] = {}
        self._sweep = _Sweep()

    # ------------------------------------------------------------------
    def key_for(self, spec: RunSpec) -> str:
        key = self._key_memo.get(spec)
        if key is None:
            if self._env_fp is None:
                self._env_fp = environment_fingerprint(self.system,
                                                       self.calib)
            key = cache_key(spec, self.system, self.calib,
                            env_fingerprint=self._env_fp)
            self._key_memo[spec] = key
        return key

    def _batch_keys(self, specs: Sequence[RunSpec]) -> List[str]:
        """Every spec's key in spec order, through the key memo.

        Specs the memo lacks get their keys from :func:`family_keys`
        (one payload serialization per family) and join the memo.
        """
        if self._env_fp is None:
            self._env_fp = environment_fingerprint(self.system, self.calib)
        memo = self._key_memo
        keys = ([memo.get(spec) for spec in specs] if memo
                else [None] * len(specs))
        missing = [position for position, key in enumerate(keys)
                   if key is None]
        if missing:
            derived = family_keys([specs[p] for p in missing], self._env_fp)
            for position, key in zip(missing, derived):
                keys[position] = memo[specs[position]] = key
        return keys  # type: ignore[return-value]

    def _tick(self, done: int, total: int, spec: RunSpec) -> None:
        if self.progress is not None:
            self.progress(done, total, spec)

    def prewarm(self, specs: Sequence[RunSpec]) -> int:
        """Hoist per-spec setup shared across the sweep.

        Builds each distinct program once (via :func:`program_for`),
        fills its fingerprint, and resolves the environment fingerprint
        — so the per-spec loop never rebuilds a program that another
        coordinate already built (``tests/harness/test_executor.py``
        asserts no redundant ``build_program`` calls).  Returns the
        number of distinct program coordinates seen.
        """
        if self._env_fp is None and (self.cache is not None
                                     or self.journal is not None):
            self._env_fp = environment_fingerprint(self.system, self.calib)
        seen = set()
        for spec in specs:
            coords = spec_coords(spec)
            if coords in seen:
                continue
            seen.add(coords)
            if self.cache is not None or self.journal is not None:
                program_fingerprint(spec)  # builds + fingerprints once
            else:
                program_for(spec)  # builds once; no digest needed
        return len(seen)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; order-preserving; cache-aware.

        The historical all-or-nothing facade: any permanently failed
        spec raises :class:`SweepFailure` (chaining the worker's
        exception), after retries per ``self.retry``. Callers that can
        use partial grids should call :meth:`run_outcomes` instead.
        """
        return self.run_outcomes(specs, strict=True).results  # type: ignore[return-value]

    def run_outcomes(self, specs: Sequence[RunSpec],
                     strict: Optional[bool] = None,
                     fresh: bool = True,
                     keys: Optional[Sequence[Optional[str]]] = None
                     ) -> SweepOutcome:
        """Execute every spec through the resilience layer.

        Returns a :class:`SweepOutcome` in spec order; failed,
        timed-out and skipped specs appear as non-``ok`` outcomes (with
        exception text + traceback) instead of raising. Under
        ``strict`` (argument, else ``self.strict``) the first
        *permanent* failure raises :class:`SweepFailure`. Ctrl-C and
        SIGTERM checkpoint the journal and raise
        :class:`SweepInterrupted` carrying the partial outcome.

        ``fresh=False`` keeps the attached journal's existing records
        (no clear-on-start): :meth:`run_dag` executes one DAG layer at
        a time through this method, and all layers of one sweep share
        one checkpoint.

        ``keys`` are cache keys the caller already holds, in spec order
        (``None`` where it has none): the service derives every
        request's keys before it batches them.  They join the key memo,
        so only the rest are derived here.
        """
        specs = list(specs)
        if keys is not None:
            for spec, key in zip(specs, keys):
                if key is not None:
                    self._key_memo[spec] = key
        started = time.perf_counter()
        total = len(specs)
        # The fault plan is read once per sweep: with none installed, no
        # cache read can meet an injected fault and no grid hit can raise.
        plan = faults.active_plan()
        sweep = self._sweep = _Sweep(
            total, self.strict if strict is None else strict, plan,
            SweepStats(jobs=self.jobs, engine=self.engine))
        outcomes = sweep.outcomes
        self.prewarm(specs)
        if engine_spec(self.engine).analytic:
            # Bind the coordinator-side memo so the grid replay and
            # serial sweeps report hit/miss deltas in the summary (pool
            # workers keep private memos the coordinator cannot see).
            sweep.phase_memo = phase_memo_for(
                self.system or default_system(),
                self.calib or default_calibration())
            sweep.memo_before = sweep.phase_memo.stats()

        need_keys = self.cache is not None or self.journal is not None
        keys = self._batch_keys(specs) if need_keys else [None] * total

        # The workers of this sweep: the caller's live pool, else a
        # private one (started only if a task needs it).
        pools = self.pool if self.pool is not None else WorkerPool()
        restore = self._install_sigterm_handler()
        try:
            # Resume pass: skip specs the journal marks permanently
            # failed; completed specs are already covered by the cache.
            if self.journal is not None and self.resume:
                journaled = self.journal.failed_keys()
                for index, spec in enumerate(specs):
                    status = journaled.get(keys[index] or "")
                    if status is not None:
                        self._settle(SpecOutcome(
                            spec=spec, index=index,
                            status=SpecStatus.SKIPPED,
                            error=f"skipped on resume (journaled {status})",
                            key=keys[index]), journal=False, store=False)
            elif self.journal is not None and fresh:
                self.journal.clear()  # fresh sweep, fresh checkpoint

            # Cache pass.  A hit settles in place (no journal or cache
            # write, no strict check can fire), in spec order.
            if self.cache is not None:
                for index, spec in enumerate(specs):
                    if outcomes[index] is not None:
                        continue
                    key = keys[index]
                    hit = cache_read(self.cache, spec, key, plan)
                    if hit is not None:
                        outcomes[index] = SpecOutcome.settled_ok(
                            spec, index, hit, key, from_cache=True)
                        sweep.done += 1
                        self._tick(sweep.done, total, spec)

            pending = [(index, spec, keys[index])
                       for index, spec in enumerate(specs)
                       if outcomes[index] is None]
            if pending and engine_spec(self.engine).analytic:
                # Grid-level batching *before* spec fan-out: compile
                # each distinct program structure once, batch-warm the
                # phase memo across every group in one array program,
                # and replay all cache-miss specs analytically.  Pool
                # workers then get only what the grid leaves.  Under a
                # fault plan every spec must reach a worker to meet its
                # faults, so a pooled sweep would discard the grid.
                # An isolated sweep replays the grid on a worker.
                grid_specs = [spec for _, spec, _ in pending]
                if not self.isolate and (self.jobs == 1 or plan is None):
                    self._precompute_grid(grid_specs)
                elif self.isolate and plan is None:
                    self._grid_in_worker(pools, grid_specs)
            if pending and sweep.grid and plan is None:
                # Bulk-settle: with no fault plan installed, a grid hit
                # cannot raise inside ``_execute_local``, so the
                # per-spec retry loop is pure overhead for precomputed
                # results — publish them directly and leave only the
                # misses to the per-spec path.
                remaining: List[Tuple[int, RunSpec, Optional[str]]] = []
                self._settle_in_families(self._replayed(pending, remaining))
                pending = remaining
            if pending:
                if self.isolate or (self.jobs > 1 and len(pending) > 1):
                    self._run_pool(pending, pools)
                else:
                    self._settle_in_families(
                        self._attempt(index, spec, key)
                        for index, spec, key in pending)
        except SweepFailure as failure:
            failure.partial = self._finalize(specs, started,
                                             "aborted by strict mode")
            raise
        except KeyboardInterrupt:
            partial = self._finalize(specs, started, "interrupted")
            raise SweepInterrupted(partial) from None
        finally:
            if restore is not None:
                try:
                    signal.signal(signal.SIGTERM, restore)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            if pools is not self.pool:
                pools.close()
        return self._finalize(specs, started, "not scheduled")

    def run_dag(self, dag, strict: Optional[bool] = None) -> SweepOutcome:
        """Execute a compiled :class:`repro.fabric.SpecDAG` in-process.

        This is the *serial reference semantics* of the distributed
        fabric: nodes run layer by layer in the DAG's deterministic
        topological order, a node never starting before every parent
        finished. Prewarm nodes execute inline (program build + phase
        memo batch-warm for their group); run nodes go through the
        normal cache/retry/journal machinery. The returned
        :class:`SweepOutcome` is ordered by the DAG's *run nodes* —
        for a flat grid compiled with
        :func:`repro.fabric.compile_grid`, that is node-for-node the
        same sweep (and byte-identical results) as calling
        :meth:`run_outcomes` on the original spec list.
        """
        dag.validate()
        layers = dag.layers()
        merged: List[Optional[SpecOutcome]] = [None] * dag.run_count
        stats: List[SweepStats] = []
        succeeded: set = set()  # node ids whose work committed
        first = True
        for layer in layers:
            run_nodes = []
            for node in layer:
                if not node.is_run:
                    self.prewarm([s for s in (node.prewarm_specs or ())])
                    succeeded.add(node.node_id)
                elif all(parent in succeeded for parent in node.parents):
                    run_nodes.append(node)
                else:
                    # Same policy as the distributed fabric: a node
                    # whose parent never committed is never dispatched
                    # (a failed size-search probe does not fan out its
                    # mode grid).
                    merged[node.run_index] = SpecOutcome(
                        spec=node.spec, index=node.run_index,
                        status=SpecStatus.SKIPPED,
                        error="skipped: parent node failed")
            if not run_nodes:
                continue
            outcome = self.run_outcomes([node.spec for node in run_nodes],
                                        strict=strict, fresh=first)
            first = False
            stats.append(self.last)
            for node, spec_outcome in zip(run_nodes, outcome.outcomes):
                if spec_outcome.ok:
                    succeeded.add(node.node_id)
                merged[node.run_index] = dataclasses.replace(
                    spec_outcome, index=node.run_index)
        filled = [outcome if outcome is not None else SpecOutcome(
                      spec=dag.nodes[0].spec, index=position,
                      status=SpecStatus.SKIPPED, error="not scheduled")
                  for position, outcome in enumerate(merged)]
        sweep = SweepOutcome(outcomes=filled)
        if len(stats) > 1:
            # Collapse the per-layer stats into one sweep's accounting.
            self.last = SweepStats(jobs=self.jobs, engine=self.engine)
            for layer_stats in stats:
                self.last.merge(layer_stats)
        self.last_outcome = sweep
        return sweep

    def summary(self) -> str:
        return self.last.summary()

    # ------------------------------------------------------------------
    # Shared per-spec finalization
    # ------------------------------------------------------------------
    def _settle(self, outcome: SpecOutcome, journal: bool = True,
                store: bool = True) -> None:
        """Publish one terminal outcome: cache, journal, tick, strict."""
        sweep = self._sweep
        sweep.outcomes[outcome.index] = outcome
        if (store and outcome.ok and not outcome.from_cache
                and self.cache is not None and outcome.key is not None
                and outcome.result is not None):
            self.cache.put(outcome.key, outcome.result)
            if faults.should_corrupt_cache(outcome.spec):
                # Chaos hook: tear the freshly written record, as a
                # crash between write and rename would. The entry may
                # link a pack shared with sibling keys, so replace the
                # link with a fresh torn file rather than writing
                # through it and tearing every sibling too.
                path = self.cache.path_for(outcome.key)
                path.unlink(missing_ok=True)
                path.write_text('{"torn":')
        if (journal and self.journal is not None
                and outcome.key is not None and not outcome.from_cache
                and outcome.status is not SpecStatus.SKIPPED):
            self.journal.record(outcome.key, outcome.status,
                                spec=outcome.spec,
                                attempts=outcome.attempts,
                                error=outcome.error)
        sweep.done += 1
        self._tick(sweep.done, len(sweep.outcomes), outcome.spec)
        if sweep.strict and outcome.status in (SpecStatus.FAILED,
                                               SpecStatus.TIMED_OUT):
            raise SweepFailure(outcome)

    def _settle_in_families(self, outcomes: Iterable[SpecOutcome]) -> None:
        """Settle in-process outcomes in spec order, publishing per family.

        Fresh OK outcomes settle and tick per spec, while their cache
        and journal writes go out per sweep family (contiguous in spec
        order): one pack and one journal append each.  Publishing per
        family rather than per batch bounds the payload held in memory.
        A failure, and every outcome under a fault plan (its cache chaos
        acts per ``put``), settles alone; it and any exit flush the
        family first.
        """
        sweep = self._sweep
        slots = sweep.outcomes
        total = len(slots)
        progress = self.progress
        batch = sweep.plan is None
        publish = self.cache is not None or self.journal is not None
        family: List[SpecOutcome] = []
        family_id = None
        try:
            for outcome in outcomes:
                if not batch or not outcome.ok:
                    self._publish_family(family)
                    family, family_id = [], None
                    self._settle(outcome)
                    continue
                spec = outcome.spec
                if publish:
                    spec_family = _family_id(spec)
                    if spec_family != family_id:
                        self._publish_family(family)
                        family, family_id = [], spec_family
                    family.append(outcome)
                slots[outcome.index] = outcome
                sweep.done += 1
                if progress is not None:
                    progress(sweep.done, total, spec)
        finally:
            self._publish_family(family)

    def _publish_family(self, family: Sequence[SpecOutcome]) -> None:
        """Cache and journal a run of fresh OK outcomes in one write each."""
        if not family:
            return
        if self.cache is not None:
            self.cache.put_many([(outcome.key, outcome.result)
                                 for outcome in family])
        if self.journal is not None:
            self.journal.record_many([
                (outcome.key, SpecStatus.OK, outcome.spec, outcome.attempts)
                for outcome in family])

    def _replayed(self, pending: List[Tuple[int, RunSpec, Optional[str]]],
                  remaining: List) -> Iterable[SpecOutcome]:
        """OK outcomes for the pending specs the grid replayed, in spec
        order; the specs it left join ``remaining``."""
        grid_get = self._sweep.grid.get
        settled_ok = SpecOutcome.settled_ok
        for item in pending:
            index, spec, key = item
            hit = grid_get(spec)
            if hit is None:
                remaining.append(item)
            else:
                yield settled_ok(spec, index, hit, key)

    def _retry_or_fail(self, index: int, spec: RunSpec, key: Optional[str],
                       attempt: int, error: Optional[BaseException],
                       queue: Optional[List] = None
                       ) -> Optional[SpecOutcome]:
        """One attempt raised ``error``, or outlived ``retry.timeout_s``
        (``error`` is ``None``).

        While attempts remain, counts a retry, schedules it after its
        backoff (queued for the pool, else slept off in place) and
        returns ``None``.  Otherwise returns the spec's FAILED or
        TIMED_OUT outcome for the caller to settle.
        """
        policy = self.retry
        if attempt < policy.max_attempts:
            self._sweep.stats.retries += 1
            delay = policy.delay_s(spec, attempt)
            if queue is not None:
                queue.append((index, spec, key, attempt + 1,
                              time.monotonic() + delay))
            elif delay > 0:
                time.sleep(delay)
            return None
        if error is None:
            return SpecOutcome(
                spec=spec, index=index, status=SpecStatus.TIMED_OUT,
                error=(f"exceeded {policy.timeout_s:g}s wall-clock "
                       f"budget on attempt {attempt}"),
                attempts=attempt, key=key)
        return SpecOutcome(
            spec=spec, index=index, status=SpecStatus.FAILED,
            error=f"{type(error).__name__}: {error}",
            traceback=self._format_traceback(error),
            attempts=attempt, key=key)

    @staticmethod
    def _format_traceback(error: BaseException) -> str:
        return "".join(traceback_module.format_exception(
            type(error), error, error.__traceback__))

    def _finalize(self, specs: Sequence[RunSpec], started: float,
                  gap_reason: str) -> SweepOutcome:
        sweep = self._sweep
        filled: List[SpecOutcome] = []
        for index, spec in enumerate(specs):
            outcome = sweep.outcomes[index]
            if outcome is None:
                outcome = SpecOutcome(spec=spec, index=index,
                                      status=SpecStatus.SKIPPED,
                                      error=gap_reason)
            filled.append(outcome)
        outcome = SweepOutcome(outcomes=filled)
        counts = outcome.counts()
        hits = sum(1 for spec_outcome in filled if spec_outcome.from_cache)
        phase_hits = phase_misses = 0
        if sweep.phase_memo is not None:
            phase_hits = sweep.phase_memo.hits - sweep.memo_before[0]
            phase_misses = sweep.phase_memo.misses - sweep.memo_before[1]
        self.last = dataclasses.replace(
            sweep.stats, total=len(filled), cache_hits=hits,
            executed=len(filled) - hits - counts["skipped"],
            elapsed_s=time.perf_counter() - started,
            failed=counts["failed"], timed_out=counts["timed_out"],
            skipped=counts["skipped"], phase_hits=phase_hits,
            phase_misses=phase_misses, grid_specs=len(sweep.grid),
            reroute_rules=dict(sweep.stats.reroute_rules))
        self.last_outcome = outcome
        return outcome

    def _install_sigterm_handler(self):
        """SIGTERM -> KeyboardInterrupt for the sweep's duration, so
        ``kill <pid>`` checkpoints exactly like Ctrl-C. Main thread
        only (``signal.signal`` raises elsewhere)."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):  # pragma: no cover - signal path
            raise KeyboardInterrupt

        try:
            return signal.signal(signal.SIGTERM, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            return None

    # ------------------------------------------------------------------
    # Whole-grid precompute (analytic engine; on a worker when isolated)
    # ------------------------------------------------------------------
    def _precompute_grid(self, specs: Sequence[RunSpec]) -> None:
        """Compile each cell's program structure once; replay every spec.

        Specs sharing ``(workload, mode, base_seed, seed_salt)`` form
        a seed family, and the family's specs sharing ``(coords, mode,
        carveout)`` form a coordinate cell.  Each cell compiles one
        tape, shared by every family that holds the cell; the phase
        memo is batch-warmed across every distinct cell in one array
        program before any compile runs.  A family's cells
        varying along at most one sensitivity axis fuse:
        one compile per cell (siblings derived from the head cell's
        tape when the program structure matches), one classifier proof
        and one vectorized replay for the whole family
        (:func:`repro.sim.vecgrid.replay_family`).

        Anything that cannot be fused falls back a tier: a rerouted
        family fuses cell by cell, and a cell that still reroutes, a
        row that fails a residual guard or a compile error is left out
        of the sweep's grid for the per-spec path.  This method can only
        accelerate, never change, a sweep's results.  Reroutes are
        tallied into the sweep's stats for the ``[sweep]`` summary.
        """
        system = self.system or default_system()
        calib = self.calib or default_calibration()
        sweep = self._sweep
        memo = sweep.phase_memo
        kernel_sim = memo.simulate if memo is not None else None
        # Cells split by seed family: a batch may hold the same
        # coordinates under several base seeds (two served requests),
        # and a fused replay draws one stream per iteration.
        families: Dict[Tuple, Dict[Tuple, List[RunSpec]]] = {}
        cell_heads: Dict[Tuple, RunSpec] = {}
        for spec in specs:
            group_key = (spec_coords(spec), spec.mode,
                         spec.smem_carveout_bytes)
            fam_key = (spec.workload, spec.mode, spec.base_seed,
                       spec.seed_salt)
            families.setdefault(fam_key, {}).setdefault(
                group_key, []).append(spec)
            cell_heads.setdefault(group_key, spec)
        try:
            if memo is not None:
                # One cross-group batch: every phase cell the whole
                # sweep will request, evaluated in a single vectorized
                # pass before any compile runs.
                cells: List[Tuple] = []
                for (_, mode, carveout), spec0 in cell_heads.items():
                    cells.extend(iter_phase_cells(program_for(spec0),
                                                  mode, carveout, system))
                prewarm_phase_memo(memo, cells)
            # A cell's tape does not depend on the seed: a cell held by
            # several families (one grid under two base seeds) compiles
            # once, and only its draws differ per family.  Only those
            # cells' tapes outlive their family's replay.
            held: Dict[Tuple, int] = {}
            for cell_map in families.values():
                for group_key in cell_map:
                    held[group_key] = held.get(group_key, 0) + 1
            tapes: Dict[Tuple, object] = {}
            for cell_map in families.values():
                for run in _axis_split(cell_map):
                    # Compile every cell of the axis run; siblings with
                    # the head's program structure derive their tape
                    # instead of re-driving the process generators.
                    fused_cells = []  # (group_key, members, compiled)
                    head = None       # (compiled, structure_key)
                    for group_key, members in run:
                        compiled = tapes.get(group_key)
                        if compiled is not None:
                            fused_cells.append((group_key, members,
                                                compiled))
                            continue
                        (_, mode, carveout) = group_key
                        program = program_for(members[0])
                        try:
                            if (head is not None
                                    and program_structure_key(program)
                                    == head[1]):
                                compiled = derive_compiled(
                                    head[0], program, system, calib,
                                    smem_carveout_bytes=carveout,
                                    kernel_sim=kernel_sim)
                            if compiled is None:
                                compiled = compile_program(
                                    program, mode, system, calib,
                                    smem_carveout_bytes=carveout,
                                    kernel_sim=kernel_sim)
                                if head is None:
                                    head = (compiled,
                                            program_structure_key(program))
                        except Exception:
                            continue  # per-spec path handles this cell
                        if held[group_key] > 1:
                            tapes[group_key] = compiled
                        sweep.stats.grid_groups += 1
                        fused_cells.append((group_key, members, compiled))
                    if not fused_cells:
                        continue
                    fam = self._compile_family(fused_cells, calib)
                    if fam is not None:
                        self._replay_fused(fam, fused_cells, system, calib)
                    elif len(fused_cells) > 1:
                        # A rerouted family fuses cell by cell.
                        for cell in fused_cells:
                            fam = self._compile_family([cell], calib)
                            if fam is not None:
                                self._replay_fused(fam, [cell], system,
                                                   calib)
        except Exception:  # pragma: no cover - defensive
            # A broken precompute must never take the sweep down; the
            # per-spec path recomputes anything missing or partial.
            sweep.grid.clear()
            sweep.stats.grid_groups = 0

    def _grid_in_worker(self, pools: "WorkerPool",
                        specs: List[RunSpec]) -> None:
        """:meth:`_precompute_grid` as one task on a pool worker.

        Fills the sweep's grid and tallies from the worker's replay (:func:`_grid_entry`).  A task that breaks the pool or
        outlives ``retry.timeout_s`` discards the pool and leaves the
        grid empty, so every spec takes the per-spec path; the task is
        no one spec's, so none is credited with the crash.
        """
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout
        try:
            future = pools.get(self.jobs).submit(
                _grid_entry, (specs, self.system, self.calib, self.engine))
            pools.tasks += 1
            rows, stats = future.result(timeout=self.retry.timeout_s)
        except (BrokenExecutor, FuturesTimeout):
            pools.discard()
            return
        except Exception:  # pragma: no cover - defensive, as in-process
            return
        except BaseException:
            pools.discard()
            raise
        grid = self._sweep.grid
        for spec, run in zip(specs, rows):
            if run is not None:
                grid[spec] = run
        self._sweep.stats.merge(stats)

    def _compile_family(self, fused_cells, calib):
        """The family's array program, or ``None`` (reroute tallied)."""
        stats = self._sweep.stats
        try:
            fam = compile_family([c for _, _, c in fused_cells], calib)
        except FamilyRerouted as rerouted:
            stats.families_rerouted += 1
            stats.count_reroute(rerouted.rule)
            return None
        stats.families_fused += 1
        return fam

    def _replay_fused(self, fam, fused_cells, system, calib) -> None:
        """One vectorized replay for a whole family's specs.

        Mirrors the scalar draw order exactly: per draw stream,
        restore its PCG64 state (derived for the whole family by
        :func:`family_rng_states`) onto one shared generator,
        draw the host placement, then fill that stream's row of the
        standard-normal matrix (``standard_normal(n)`` is
        prefix-stable, so ``cols`` draws match the head of the scalar
        path's ``draws`` batch).  The per-spec seed key does not
        include the fused axis, so specs that differ only along it
        share an identical stream — each distinct ``(size, iteration,
        spill footprint)`` is drawn once and gathered onto its rows.
        Rows whose per-spec residual guards fail stay out of the
        sweep's grid and take the per-spec path.
        """
        noise = calib.noise
        cpu = system.cpu
        chip_bytes = cpu.dram_chip_bytes
        headroom = noise.spill_threshold
        cols = fam.cols
        count = sum(len(members) for _, members, _ in fused_cells)
        cell_index = np.repeat(
            np.arange(len(fused_cells), dtype=np.intp),
            [len(members) for _, members, _ in fused_cells])
        # Below the spill threshold the placement is deterministic
        # (multiplier 1.0, zero RNG consumption); above it the stream
        # depends on the footprint.  Same float predicate as
        # place_host_data.
        cell_fp = []
        for _, _, compiled in fused_cells:
            footprint = compiled.footprint_bytes
            spills = not (footprint / chip_bytes <= headroom)
            cell_fp.append((spills, footprint,
                            footprint if spills else None))
        # When neither the size nor the spill class varies across
        # cells, the stream key collapses to the iteration alone.
        uniform = (len({fp for _, _, fp in cell_fp}) == 1
                   and len({m[0].size for _, m, _ in fused_cells}) == 1)
        draw_index: Dict = {}
        draws: List[Tuple[RunSpec, bool, int]] = []  # (spec, spills, fp)
        gather = np.empty(count, dtype=np.intp)
        row = 0
        for cell_pos, (_, members, _) in enumerate(fused_cells):
            spills, footprint, fp_key = cell_fp[cell_pos]
            for spec in members:
                key = (spec.iteration if uniform
                       else (spec.size, spec.iteration, fp_key))
                index = draw_index.get(key)
                if index is None:
                    index = len(draws)
                    draw_index[key] = index
                    draws.append((spec, spills, footprint))
                gather[row] = index
                row += 1
        mult = np.ones(len(draws), dtype=np.float64)
        z = np.empty((len(draws), cols), dtype=np.float64)
        shared = np.random.Generator(np.random.PCG64())
        bitgen = shared.bit_generator
        # One family_rng_states call per run of same-family draws (a
        # family shares its seed words; a fused axis spans families).
        states: List[dict] = []
        for _, group in itertools.groupby(
                (spec for spec, spills, _ in draws if cols or spills),
                key=_family_id):
            group = list(group)
            states.extend(family_rng_states(
                group[0].seed_words(), [spec.iteration for spec in group]))
        next_state = iter(states).__next__
        for index, (spec, spills, footprint) in enumerate(draws):
            if cols or spills:
                bitgen.state = next_state()
            if spills:
                mult[index] = place_host_data(
                    footprint, cpu, noise, shared).time_multiplier
            if cols:
                shared.standard_normal(out=z[index])
        rep = replay_family(fam, cell_index, mult[gather], z[gather])
        valid = rep.valid.tolist()
        alloc = rep.alloc_ns.tolist()
        memcpy = rep.memcpy_ns.tolist()
        kernel = rep.kernel_ns.tolist()
        wall = rep.wall_ns.tolist()
        busy = rep.gpu_busy.tolist()
        # The range checks stand in for RunResult's __post_init__ (see
        # RunResult.replayed); a negative component re-routes like any
        # other guard failure.  One vectorized precheck skips the
        # per-row tests on the (overwhelmingly common) clean replay.
        checks = not (rep.valid.all()
                      and not (rep.alloc_ns < 0.0).any()
                      and not (rep.memcpy_ns < 0.0).any()
                      and not (rep.kernel_ns < 0.0).any()
                      and not (rep.wall_ns < 0.0).any())
        grid = self._sweep.grid
        replayed = RunResult.replayed
        invalid = 0
        row = 0
        for _, members, compiled in fused_cells:
            name = compiled.name
            counters = compiled.counters
            occupancy = compiled.occupancy
            for spec in members:
                i = row
                row += 1
                a = alloc[i]
                m = memcpy[i]
                k = kernel[i]
                w = wall[i]
                if checks and (not valid[i] or a < 0.0 or m < 0.0
                               or k < 0.0 or w < 0.0):
                    invalid += 1
                    continue
                grid[spec] = replayed(name, spec.mode, spec.size,
                                      spec.iteration, a, m, k, w, counters,
                                      occupancy, busy[i])
        if invalid:
            self._sweep.stats.count_reroute("residual-guard", invalid)

    def _execute_local(self, spec: RunSpec, attempt: int) -> RunResult:
        """One in-process attempt: grid-precomputed result, else cold.

        The fault-injection hook still fires first so resilience tests
        exercise retry/timeout paths identically on every engine.
        """
        hit = self._sweep.grid.get(spec)
        if hit is not None:
            faults.maybe_fire(spec, attempt)
            return hit
        # Late module-level lookup, not a direct execute_spec call:
        # tests monkeypatch _execute_entry as the serial choke point.
        return _execute_entry((spec, self.system, self.calib, attempt,
                               self.engine, faults.active_plan()))

    def _attempt(self, index: int, spec: RunSpec,
                 key: Optional[str]) -> SpecOutcome:
        """Run one spec in this process, retrying with backoff, to its
        terminal outcome (the serial ``jobs=1`` path)."""
        attempt = 0
        while True:
            attempt += 1
            try:
                run = self._execute_local(spec, attempt)
            except Exception as error:
                failed = self._retry_or_fail(index, spec, key, attempt, error)
                if failed is not None:
                    return failed
                continue
            return SpecOutcome(spec=spec, index=index, status=SpecStatus.OK,
                               result=run, attempts=attempt, key=key)

    # ------------------------------------------------------------------
    # Pooled execution: submit/wait with failure isolation
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[Tuple[int, RunSpec, Optional[str]]],
                  pools: "WorkerPool") -> None:
        """submit()/wait() loop with per-spec isolation.

        Unlike the old ``pool.map``, every spec gets its own future, so
        one raising spec cannot poison its chunk-mates; per-future
        deadlines time out hung workers; and
        ``BrokenProcessPool`` rebuilds the pool, requeues survivors,
        and quarantines poison specs after ``retry.max_crashes``
        crashes. Results still land in spec order via ``outcomes``.

        Poison identification: the first pool break cannot tell which
        in-flight spec killed the worker, so every victim gets one
        crash credit and becomes a *suspect*. Suspects then run in
        isolation — at most one in flight at a time — and a later
        break with a suspect in flight credits only that suspect, so
        an innocent bystander can never accumulate enough credits to
        be quarantined alongside the real poison.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
        from concurrent.futures import wait as futures_wait
        policy = self.retry
        workers = min(self.jobs, len(pending))
        use_deadline = policy.timeout_s is not None
        # queue items: (index, spec, key, attempt, not_before)
        queue: List[Tuple[int, RunSpec, Optional[str], int, float]] = [
            (index, spec, key, 1, 0.0) for index, spec, key in pending]
        crashes: Dict[int, int] = {}
        in_flight: Dict = {}
        pool = pools.get(self.jobs)
        try:
            while queue or in_flight:
                now = time.monotonic()
                victims: List[Tuple] = []

                # 1. Fill free slots with eligible (not backing-off) work.
                # Suspects (specs with crash credit) run one at a time.
                while len(in_flight) < workers and not victims:
                    suspect_in_flight = any(meta[0] in crashes
                                            for meta in in_flight.values())
                    slot = next((position for position, item
                                 in enumerate(queue)
                                 if item[4] <= now
                                 and (item[0] not in crashes
                                      or not suspect_in_flight)),
                                None)
                    if slot is None:
                        break
                    index, spec, key, attempt, _ = queue.pop(slot)
                    try:
                        future = pool.submit(
                            _execute_entry,
                            (spec, self.system, self.calib, attempt,
                             self.engine, faults.active_plan()))
                    except BrokenExecutor:
                        victims.append((index, spec, key, attempt))
                        break
                    pools.tasks += 1
                    deadline = (now + policy.timeout_s
                                if use_deadline else None)
                    in_flight[future] = (index, spec, key, attempt, deadline)

                if victims:
                    pool = self._rebuild_after_crash(
                        pools, victims, in_flight, queue, crashes)
                    continue

                if not in_flight:
                    # Everything queued is backing off; sleep to the
                    # soonest eligibility.
                    soonest = min(item[4] for item in queue)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue

                # 2. Wait for a completion, the nearest deadline, or the
                # next backoff eligibility — whichever comes first.
                # (Only *schedulable* queue items count toward the
                # eligibility wait: a suspect blocked behind another
                # in-flight suspect must not spin the loop hot.)
                wait_s = None
                deadlines = [meta[4] for meta in in_flight.values()
                             if meta[4] is not None]
                if deadlines:
                    wait_s = max(0.0, min(deadlines) - now)
                if queue and len(in_flight) < workers:
                    suspect_in_flight = any(meta[0] in crashes
                                            for meta in in_flight.values())
                    etas = [item[4] for item in queue
                            if item[0] not in crashes
                            or not suspect_in_flight]
                    if etas:
                        eta = max(0.0, min(etas) - now)
                        wait_s = eta if wait_s is None else min(wait_s, eta)
                done, _ = futures_wait(set(in_flight), timeout=wait_s,
                                       return_when=FIRST_COMPLETED)

                # 3. Harvest completions; collect crash victims.
                self._harvest(done, in_flight, queue, crashes, victims)
                if victims:
                    pool = self._rebuild_after_crash(
                        pools, victims, in_flight, queue, crashes)
                    continue

                # 4. Expire hung workers.
                if use_deadline:
                    now = time.monotonic()
                    expired = [future for future, meta in in_flight.items()
                               if meta[4] is not None and now >= meta[4]
                               and not future.done()]
                    if expired:
                        pool = self._expire_and_rebuild(
                            pools, expired, in_flight, queue, crashes)
        except BaseException:
            pools.discard()
            raise

    def _harvest(self, futures: Iterable, in_flight: Dict, queue: List,
                 crashes: Dict[int, int], victims: List[Tuple]) -> None:
        """Take ``futures`` out of ``in_flight`` and settle the finished.

        A result settles OK; completing exonerates a suspect, which
        leaves isolation scheduling.  A raised attempt retries or
        fails.  A future the pool broke under, or one still running,
        joins ``victims``.
        """
        from concurrent.futures import BrokenExecutor
        for future in futures:
            index, spec, key, attempt, _ = in_flight.pop(future)
            error = (future.exception() if future.done() else
                     BrokenExecutor("in flight at pool crash"))
            if isinstance(error, BrokenExecutor):
                victims.append((index, spec, key, attempt))
            elif error is not None:
                failed = self._retry_or_fail(index, spec, key, attempt,
                                             error, queue)
                if failed is not None:
                    self._settle(failed)
            else:
                self._settle(SpecOutcome(
                    spec=spec, index=index, status=SpecStatus.OK,
                    result=future.result(), attempts=attempt,
                    crashes=crashes.pop(index, 0), key=key))

    def _rebuild_after_crash(self, pools: "WorkerPool",
                             victims: List[Tuple], in_flight: Dict,
                             queue: List, crashes: Dict[int, int]):
        """A worker process died (``BrokenProcessPool``): salvage any
        futures that finished before the crash, requeue the rest,
        credit the likeliest culprits, quarantine specs that crossed
        ``max_crashes``, and hand back the replacement pool.

        Crediting: if a known suspect (prior crash credit) was in
        flight, only suspects are credited — the scheduler runs at
        most one suspect at a time, so the blame is precise and
        innocent co-victims are requeued free. On a first break (no
        suspects yet) every victim is credited; they all become
        suspects and are subsequently isolated.
        """
        self._sweep.stats.crashes += 1
        self._harvest(list(in_flight), in_flight, queue, crashes, victims)
        pools.discard()
        now = time.monotonic()
        suspects_present = any(index in crashes
                               for index, _, _, _ in victims)
        for index, spec, key, attempt in victims:
            if suspects_present and index not in crashes:
                # An identified suspect was in flight; this innocent
                # bystander is requeued without a crash credit.
                queue.append((index, spec, key, attempt, now))
                continue
            crashes[index] = crashes.get(index, 0) + 1
            if crashes[index] >= self.retry.max_crashes:
                self._settle(SpecOutcome(
                    spec=spec, index=index, status=SpecStatus.FAILED,
                    error=("worker process crashed; quarantined as poison "
                           f"after {crashes[index]} pool crash(es)"),
                    attempts=attempt, crashes=crashes[index], key=key))
            else:
                # A crash is not a failed *attempt* — the spec never
                # finished running — so requeue at the same attempt.
                queue.append((index, spec, key, attempt, now))
        return pools.get(self.jobs)

    def _expire_and_rebuild(self, pools: "WorkerPool", expired: List,
                            in_flight: Dict, queue: List,
                            crashes: Dict[int, int]):
        """Per-spec deadlines tripped: the workers running them are
        stuck, so retry/fail the hung specs, salvage finished futures,
        requeue the innocent in-flight ones, and replace the pool
        (terminating the stuck workers)."""
        for future in expired:
            index, spec, key, attempt, _ = in_flight.pop(future)
            failed = self._retry_or_fail(index, spec, key, attempt, None,
                                         queue)
            if failed is not None:
                self._settle(failed)
        stranded: List[Tuple] = []
        self._harvest(list(in_flight), in_flight, queue, crashes, stranded)
        now = time.monotonic()
        queue.extend((index, spec, key, attempt, now)
                     for index, spec, key, attempt in stranded)
        pools.discard()
        return pools.get(self.jobs)


# ----------------------------------------------------------------------
# Worker pools that outlive one sweep
# ----------------------------------------------------------------------
#: Seconds :meth:`WorkerPool.close` waits for a worker to exit before
#: killing it.
_CLOSE_GRACE_S = 5.0


#: Modules the forkserver imports before it forks any worker: this one
#: (which imports the simulator and the vector engine), the workload
#: registry that builds each spec's program, and NumPy's lazily loaded
#: ``numpy.random`` that seeds each run.  A worker's first task then
#: imports nothing.
FORKSERVER_PRELOAD = (__name__, "repro.workloads.registry", "numpy.random")


def _pool_processes(pool) -> list:
    return list((getattr(pool, "_processes", None) or {}).values())


class WorkerPool:
    """The live worker pool behind one executor slot.

    :meth:`get` builds a pool on first use and hands the same one out
    until it breaks, so a long-lived caller (a ``repro serve``
    scheduler slot) starts its workers once and they keep their phase
    and program memos warm across sweeps. A pool is replaced only when
    a worker died — mid-spec or while idle — or after :meth:`discard`
    (a worker hung past its deadline). ``spawns`` counts the pools
    built, ``tasks`` the tasks executors submitted to them.
    """

    def __init__(self):
        self.spawns = 0
        self.tasks = 0
        self._pool = None
        self._size = 0
        self._closed = False

    @property
    def broken(self) -> bool:
        """Whether the live pool lost a worker (``False`` if none).

        Checks the workers themselves too: a worker killed while idle
        breaks the pool before its manager thread notices.
        """
        pool = self._pool
        if pool is None:
            return False
        return bool(pool._broken) or any(
            not process.is_alive() for process in _pool_processes(pool))

    def get(self, workers: int):
        """A pool of at least ``workers`` workers, healthy at hand-out."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._pool is not None and (self._size < workers or self.broken):
            self.discard()
        if self._pool is None:
            # Workers fork from one forkserver that has this module
            # imported: they start with the simulator loaded and hold
            # none of the coordinator's threads, sockets or signal
            # handlers (a long-lived worker forked from a server would
            # keep its clients' connections open).
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(list(FORKSERVER_PRELOAD))
            self._pool = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=context)
            self._size = workers
            self.spawns += 1
        return self._pool

    def pids(self) -> List[int]:
        """Process ids of the live pool's workers."""
        return [process.pid for process in _pool_processes(self._pool)]

    def discard(self) -> None:
        """Drop the live pool without joining: cancel queued work and
        terminate its workers (a hung worker never joins)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = _pool_processes(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Shut the live pool down for good and reap its workers."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = _pool_processes(pool)
        pool.shutdown(wait=not processes, cancel_futures=True)
        for process in processes:
            process.join(_CLOSE_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()


# ----------------------------------------------------------------------
# Regrouping executor output into the classic result containers
# ----------------------------------------------------------------------
def collect_runsets(results: Iterable[RunResult]
                    ) -> Dict[Tuple[str, str, TransferMode], RunSet]:
    """Group flat results into RunSets keyed (workload, size, mode).

    Insertion order follows first appearance, so a grid expanded with
    :func:`expand_grid` regroups into the same iteration order the
    serial loops produced.
    """
    grouped: Dict[Tuple[str, str, TransferMode], RunSet] = {}
    for run in results:
        key = (run.workload, run.size, run.mode)
        if key not in grouped:
            grouped[key] = RunSet(workload=run.workload, mode=run.mode,
                                  size=run.size)
        grouped[key].add(run)
    return grouped


def collect_comparisons(results: Iterable[RunResult]
                        ) -> Dict[Tuple[str, str], ModeComparison]:
    """Group flat results into ModeComparisons keyed (workload, size)."""
    comparisons: Dict[Tuple[str, str], ModeComparison] = {}
    for key, runs in collect_runsets(results).items():
        workload, size, _ = key
        if (workload, size) not in comparisons:
            comparisons[(workload, size)] = ModeComparison(
                workload=workload, size=size)
        comparisons[(workload, size)].add(runs)
    return comparisons


def ensure_executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    """The caller's executor, or a fresh default (serial, no cache,
    ``REPRO_JOBS`` honored)."""
    return executor if executor is not None else SweepExecutor()
