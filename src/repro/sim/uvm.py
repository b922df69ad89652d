"""Unified-virtual-memory state tracking.

Keeps the residency bookkeeping the UVM driver would: which fraction
of each managed allocation currently lives in GPU memory, which pages
are dirty on the device, and how much data each operation (demand
fault storm, bulk prefetch, host read-back) has to move. The *costs*
of those movements live in :mod:`repro.sim.pcie` and
:mod:`repro.sim.timing`; this module decides the byte volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .hardware import UvmSpec


class UvmError(RuntimeError):
    """Illegal managed-memory operation."""


def migration_blocks(num_bytes: float, spec: UvmSpec) -> int:
    """Driver vablocks covering ``num_bytes`` (ceil at block granularity).

    Shared by the residency tracker (:class:`ManagedSpace`), the kernel
    timing model (:func:`repro.sim.timing.simulate_kernel`'s fault-stall
    term), and the runtime's migration DMA trains, so all three agree
    on how many blocks — and therefore fault batches — a byte volume
    implies.
    """
    if num_bytes <= 0:
        return 0
    return math.ceil(num_bytes / spec.migration_block_bytes)


def fault_batches(num_bytes: float, spec: UvmSpec) -> int:
    """Fault batches the driver services to migrate ``num_bytes``.

    The GPU raises far faults per vablock; the driver coalesces
    ``fault_batch_size`` of them per servicing batch.  Each batch is
    one burst on the link, which is why migration transfers stream as
    trains of this length (:meth:`repro.sim.runtime.CudaRuntime.launch`).
    """
    blocks = migration_blocks(num_bytes, spec)
    if blocks == 0:
        return 0
    return math.ceil(blocks / spec.fault_batch_size)


@dataclass
class ManagedAllocation:
    """One cudaMallocManaged range."""

    name: str
    size_bytes: int
    resident_fraction: float = 0.0   # share currently in GPU memory
    device_dirty_fraction: float = 0.0  # share written by GPU, not yet on host

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise UvmError(f"allocation {self.name!r} must have positive size")

    @property
    def resident_bytes(self) -> int:
        return int(self.size_bytes * self.resident_fraction)


@dataclass
class MigrationPlan:
    """Bytes a UVM operation must move, block-aligned."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    fault_blocks: int = 0

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes


class ManagedSpace:
    """Residency tracker for every managed allocation of one run."""

    def __init__(self, spec: UvmSpec, gpu_capacity_bytes: int):
        self.spec = spec
        self.gpu_capacity_bytes = gpu_capacity_bytes
        self.allocations: Dict[str, ManagedAllocation] = {}

    # ------------------------------------------------------------------
    # Allocation lifecycle
    # ------------------------------------------------------------------
    def allocate(self, name: str, size_bytes: int) -> ManagedAllocation:
        if name in self.allocations:
            raise UvmError(f"allocation {name!r} already exists")
        allocation = ManagedAllocation(name=name, size_bytes=size_bytes)
        self.allocations[name] = allocation
        return allocation

    def free(self, name: str) -> None:
        if name not in self.allocations:
            raise UvmError(f"free of unknown allocation {name!r}")
        del self.allocations[name]

    def __getitem__(self, name: str) -> ManagedAllocation:
        try:
            return self.allocations[name]
        except KeyError:
            raise UvmError(f"unknown managed allocation {name!r}") from None

    @property
    def resident_bytes(self) -> int:
        return sum(a.resident_bytes for a in self.allocations.values())

    def oversubscribed(self) -> bool:
        total = sum(a.size_bytes for a in self.allocations.values())
        return total > self.gpu_capacity_bytes

    # ------------------------------------------------------------------
    # Data movement planning
    # ------------------------------------------------------------------
    def _blocks(self, num_bytes: float) -> int:
        return migration_blocks(num_bytes, self.spec)

    def demand_access(self, name: str, touched_fraction: float) -> MigrationPlan:
        """GPU touches ``touched_fraction`` of an allocation on demand.

        Pages not yet resident fault over; already-resident pages cost
        nothing. Residency grows to cover the touched range.
        """
        if not 0.0 < touched_fraction <= 1.0:
            raise UvmError("touched_fraction must be in (0, 1]")
        allocation = self[name]
        missing = max(0.0, touched_fraction - allocation.resident_fraction)
        moved = int(allocation.size_bytes * missing)
        allocation.resident_fraction = max(allocation.resident_fraction,
                                           touched_fraction)
        return MigrationPlan(h2d_bytes=moved, fault_blocks=self._blocks(moved))

    def prefetch(self, name: str, fraction: float = 1.0) -> MigrationPlan:
        """cudaMemPrefetchAsync of a managed range to the device."""
        if not 0.0 < fraction <= 1.0:
            raise UvmError("prefetch fraction must be in (0, 1]")
        allocation = self[name]
        missing = max(0.0, fraction - allocation.resident_fraction)
        moved = int(allocation.size_bytes * missing)
        allocation.resident_fraction = max(allocation.resident_fraction, fraction)
        return MigrationPlan(h2d_bytes=moved)

    def device_wrote(self, name: str, fraction: float) -> None:
        """Mark a device-side write (pages become host-stale)."""
        allocation = self[name]
        if not 0.0 <= fraction <= 1.0:
            raise UvmError("written fraction must be in [0, 1]")
        allocation.device_dirty_fraction = max(allocation.device_dirty_fraction,
                                               fraction)
        allocation.resident_fraction = max(allocation.resident_fraction, fraction)

    def host_read(self, name: str, fraction: float) -> MigrationPlan:
        """Host touches results: dirty device pages migrate back.

        Only the intersection of the host-read range and the dirty
        range has to move (UVM migrates at page granularity on host
        faults).
        """
        allocation = self[name]
        if not 0.0 <= fraction <= 1.0:
            raise UvmError("host read fraction must be in [0, 1]")
        migrate = min(fraction, allocation.device_dirty_fraction)
        moved = int(allocation.size_bytes * migrate *
                    self.spec.writeback_fraction)
        allocation.device_dirty_fraction -= migrate
        return MigrationPlan(d2h_bytes=moved, fault_blocks=self._blocks(moved))

    def evict(self, name: str, fraction: float) -> MigrationPlan:
        """Evict resident pages (prefetching another range displaced them).

        Dirty pages must be written back; clean pages are dropped.
        Used to model the paper's nw anomaly, where prefetching data
        for one kernel displaces the shared working set of the next.
        """
        allocation = self[name]
        if not 0.0 <= fraction <= 1.0:
            raise UvmError("evict fraction must be in [0, 1]")
        evicted = min(fraction, allocation.resident_fraction)
        dirty_out = min(evicted, allocation.device_dirty_fraction)
        allocation.resident_fraction -= evicted
        allocation.device_dirty_fraction -= dirty_out
        return MigrationPlan(d2h_bytes=int(allocation.size_bytes * dirty_out))
