"""Kernel-phase memoization.

:func:`repro.sim.timing.simulate_kernel` is a *pure* function of
``(descriptor, flags, system, calibration, carveout, residency)`` — it
draws no randomness and mutates nothing — so caching its results is
result-preserving by construction.  Sweeps re-simulate the same kernel
phase thousands of times (every iteration of every spec sharing a
workload/geometry hits the identical arguments); a :class:`PhaseMemo`
lets all of them share one evaluation.

A memo instance is *bound* to one ``(system, calibration)`` pair: the
pair cannot participate in the dict key because :class:`Calibration`
holds unhashable mapping fields.  Binding by equality (not identity) is
deliberate — ``default_system()`` returns a fresh instance per call.
Calls against a different environment fall through to the real
simulator (counted as ``bypasses``), so a mismatched memo can never
return a stale phase.

Invalidation rules (documented in docs/PERFORMANCE.md): a memo is only
ever valid for the environment it was created with, and both
:class:`~repro.sim.kernel.KernelDescriptor` and
:class:`~repro.sim.timing.ConfigFlags` are frozen dataclasses whose
*values* key the memo — editing a workload produces different
descriptors and therefore different entries, never stale hits.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from .calibration import Calibration
from .hardware import SystemSpec
from .timing import simulate_kernel


class PhaseMemo:
    """In-process memo over :func:`simulate_kernel` for one environment.

    ``simulate`` is call-compatible with :func:`simulate_kernel` and is
    injected into :class:`~repro.sim.runtime.CudaRuntime` via its
    ``kernel_sim`` hook.  Thread-safe under CPython: the table is a
    plain dict (atomic get/set under the GIL); a racing miss at worst
    re-simulates a phase, never corrupts an entry, because every stored
    value is a frozen :class:`~repro.sim.timing.KernelExecution` equal
    to what any other thread would store.
    """

    def __init__(self, system: SystemSpec, calib: Calibration,
                 maxsize: int = 4096):
        self.system = system
        self.calib = calib
        self.maxsize = maxsize
        self._table: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.seeded = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Tuple) -> bool:
        """Whether a ``(desc, flags, carveout, residency)`` key is cached."""
        return key in self._table

    def seed(self, key: Tuple, execution) -> None:
        """Insert a precomputed phase (the vector engine's grid batcher).

        ``key`` must be the exact memo key shape ``(desc, flags,
        smem_carveout_bytes, resident_fraction)`` and ``execution`` must
        equal what :func:`simulate_kernel` would return for it —
        :func:`repro.sim.vecgrid.simulate_phase_grid` guarantees this
        bitwise (pinned by ``tests/sim/test_vecgrid_properties.py``).
        Seeds count separately from misses so sweep summaries can
        report grid-batched cells.
        """
        if len(self._table) >= self.maxsize:
            self._table.clear()
        self._table[key] = execution
        self.seeded += 1

    def matches(self, system: SystemSpec, calib: Calibration) -> bool:
        """Whether this memo is valid for the given environment."""
        return ((system is self.system or system == self.system)
                and (calib is self.calib or calib == self.calib))

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Tuple[int, int]:
        """(hits, misses) snapshot, for delta accounting."""
        return self.hits, self.misses

    def simulate(self, desc, flags, system, calib,
                 smem_carveout_bytes=None, resident_fraction: float = 0.0):
        """Memoized :func:`simulate_kernel`."""
        if not self.matches(system, calib):
            # Foreign environment: never serve from this memo.
            self.bypasses += 1
            return simulate_kernel(
                desc, flags, system, calib,
                smem_carveout_bytes=smem_carveout_bytes,
                resident_fraction=resident_fraction)
        key = (desc, flags, smem_carveout_bytes, resident_fraction)
        execution = self._table.get(key)
        if execution is not None:
            self.hits += 1
            return execution
        self.misses += 1
        execution = simulate_kernel(
            desc, flags, system, calib,
            smem_carveout_bytes=smem_carveout_bytes,
            resident_fraction=resident_fraction)
        if len(self._table) >= self.maxsize:
            # Sweeps see a few hundred distinct phases at most; a full
            # table means pathological churn, so start over rather than
            # tracking recency on the hot path.
            self._table.clear()
        self._table[key] = execution
        return execution


# ----------------------------------------------------------------------
# Process-local memo registry
# ----------------------------------------------------------------------
# Pool workers cannot share a coordinator-owned memo (pickling a memo
# per task would defeat it), so each process resolves its memo here by
# environment equality.  Bounded: sweeps use one environment almost
# always, sensitivity studies a handful.
_MEMOS: list = []
_MEMOS_CAP = 8
_MEMOS_LOCK = threading.Lock()


def phase_memo_for(system: SystemSpec, calib: Calibration) -> PhaseMemo:
    """The process-local :class:`PhaseMemo` for an environment."""
    for memo in _MEMOS:
        if memo.matches(system, calib):
            return memo
    with _MEMOS_LOCK:
        for memo in _MEMOS:  # re-check under the lock
            if memo.matches(system, calib):
                return memo
        memo = PhaseMemo(system, calib)
        if len(_MEMOS) >= _MEMOS_CAP:
            _MEMOS.pop(0)
        _MEMOS.append(memo)
        return memo


def clear_phase_memos() -> None:
    """Drop every process-local memo (tests and benchmarks)."""
    with _MEMOS_LOCK:
        _MEMOS.clear()
