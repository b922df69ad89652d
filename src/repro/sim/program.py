"""Workload program representation.

A :class:`Program` is the device-facing description of one benchmark:
the buffers it allocates, and the ordered kernel phases it launches.
Workloads build programs; the execution layer replays them under each
of the five data-transfer configurations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from .kernel import KernelDescriptor


class BufferDirection(enum.Enum):
    """How a buffer crosses the host-device boundary."""

    IN = "in"          # host-produced, device-consumed
    OUT = "out"        # device-produced, host-consumed
    INOUT = "inout"    # both
    SCRATCH = "scratch"  # device-only temporary

    @property
    def host_to_device(self) -> bool:
        return self in (BufferDirection.IN, BufferDirection.INOUT)

    @property
    def device_to_host(self) -> bool:
        return self in (BufferDirection.OUT, BufferDirection.INOUT)


@dataclass(frozen=True)
class BufferSpec:
    """One allocation of the workload."""

    name: str
    size_bytes: int
    direction: BufferDirection = BufferDirection.IN
    # Fraction of the buffer the device actually touches (drives UVM
    # demand-migration volume).
    device_touched_fraction: float = 1.0
    # Fraction of a device-produced buffer the host reads afterwards
    # (drives UVM write-back volume; explicit configs copy the whole
    # buffer back regardless, which is the paper's uvm memcpy saving).
    host_read_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"buffer {self.name!r}: size must be positive")
        if not 0.0 < self.device_touched_fraction <= 1.0:
            raise ValueError(
                f"buffer {self.name!r}: device_touched_fraction outside (0, 1]"
            )
        if not 0.0 <= self.host_read_fraction <= 1.0:
            raise ValueError(
                f"buffer {self.name!r}: host_read_fraction outside [0, 1]"
            )


@dataclass(frozen=True)
class KernelPhase:
    """A kernel launched ``count`` times in sequence.

    ``fresh_data`` marks phases whose every invocation streams new
    data from the host (otherwise repeats hit data already resident
    on the device under UVM). ``host_sync_bytes`` is the intermediate
    device-to-host traffic the *explicit-copy* implementation performs
    across the whole phase (per-iteration result copies in Rodinia's
    standard versions); managed configurations keep that data resident
    and skip it.
    """

    descriptor: KernelDescriptor
    count: int = 1
    fresh_data: bool = False
    host_sync_bytes: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(
                f"phase {self.descriptor.name!r}: count must be >= 1"
            )
        if self.host_sync_bytes < 0:
            raise ValueError(
                f"phase {self.descriptor.name!r}: negative host_sync_bytes"
            )


@dataclass(frozen=True)
class Program:
    """A complete benchmark program."""

    name: str
    buffers: Tuple[BufferSpec, ...]
    phases: Tuple[KernelPhase, ...]

    def __post_init__(self) -> None:
        if not self.buffers:
            raise ValueError(f"program {self.name!r} declares no buffers")
        if not self.phases:
            raise ValueError(f"program {self.name!r} declares no kernel phases")
        names = [b.name for b in self.buffers]
        if len(set(names)) != len(names):
            raise ValueError(f"program {self.name!r} has duplicate buffer names")

    # ------------------------------------------------------------------
    # Aggregate sizes
    # ------------------------------------------------------------------
    @property
    def footprint_bytes(self) -> int:
        return sum(b.size_bytes for b in self.buffers)

    @property
    def h2d_bytes(self) -> int:
        """Bytes an explicit-copy configuration ships host-to-device."""
        return sum(b.size_bytes for b in self.buffers if b.direction.host_to_device)

    @property
    def d2h_bytes(self) -> int:
        """Bytes an explicit-copy configuration ships device-to-host."""
        return sum(b.size_bytes for b in self.buffers if b.direction.device_to_host)

    @property
    def managed_input_bytes(self) -> int:
        """Bytes UVM must migrate in (only what the device touches)."""
        return sum(int(b.size_bytes * b.device_touched_fraction)
                   for b in self.buffers if b.direction.host_to_device)

    @property
    def managed_writeback_bytes(self) -> int:
        """Bytes UVM migrates back (only what the host reads)."""
        return sum(int(b.size_bytes * b.host_read_fraction)
                   for b in self.buffers if b.direction.device_to_host)

    @property
    def total_kernel_launches(self) -> int:
        return sum(phase.count for phase in self.phases)

    def descriptors(self) -> List[KernelDescriptor]:
        return [phase.descriptor for phase in self.phases]


def simple_program(name: str, descriptor: KernelDescriptor,
                   in_bytes: int, out_bytes: int,
                   host_read_fraction: float = 0.1,
                   device_touched_fraction: float = 1.0,
                   iterations: int = 1) -> Program:
    """Convenience builder for single-kernel microbenchmarks."""
    buffers = [
        BufferSpec("input", in_bytes, BufferDirection.IN,
                   device_touched_fraction=device_touched_fraction),
        BufferSpec("output", out_bytes, BufferDirection.OUT,
                   host_read_fraction=host_read_fraction),
    ]
    return Program(
        name=name,
        buffers=tuple(buffers),
        phases=(KernelPhase(descriptor, count=iterations),),
    )
