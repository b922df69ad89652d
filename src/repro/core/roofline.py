"""Roofline classification of the benchmark suite.

The paper's guidance hinges on whether a workload is bottlenecked by
CPU-DRAM -> global-memory transfer, global -> shared-memory staging, or
compute (Sec. 1's questions (a)-(c)). This module computes, per
workload, the modeled arithmetic intensity and the three candidate
bottleneck times, and names the binding stage - the quantitative
backing for the advisor's choices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..sim.calibration import Calibration, default_calibration
from ..sim.hardware import SystemSpec, default_system
from ..sim.pcie import PcieLink, TransferKind
from ..sim.engine import Environment
from ..sim.program import Program
from ..sim.timing import ConfigFlags, simulate_kernel
from ..workloads.registry import all_workloads
from ..workloads.sizes import SizeClass


class Bottleneck(enum.Enum):
    """The pipeline stage that binds a workload end-to-end."""

    HOST_TRANSFER = "host_transfer"    # U1: CPU DRAM -> global memory
    STAGING = "staging"                # A2.1: global -> shared memory
    COMPUTE = "compute"                # A2.2 + math
    ALLOCATION = "allocation"          # cudaMalloc/cudaFree


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's position against the machine's rooflines."""

    workload: str
    arithmetic_intensity: float    # useful flops per staged byte
    host_transfer_ns: float
    staging_ns: float
    compute_ns: float
    allocation_ns: float
    bottleneck: Bottleneck

    @property
    def total_ns(self) -> float:
        # Host transfer and staging overlap at best; the dominant
        # transfer term plus compute bounds the optimized pipeline.
        return max(self.host_transfer_ns, self.staging_ns,
                   self.compute_ns) + self.allocation_ns

    def recommendation_hint(self) -> str:
        return {
            Bottleneck.HOST_TRANSFER:
                "bound by CPU-GPU transfer: UVM prefetch attacks this "
                "stage (U1)",
            Bottleneck.STAGING:
                "bound by global->shared staging: Async Memcpy attacks "
                "this stage (A2.1)",
            Bottleneck.COMPUTE:
                "compute-bound: transfer configuration moves little",
            Bottleneck.ALLOCATION:
                "allocation-bound: only the Sec. 6 inter-job pipeline "
                "helps",
        }[self.bottleneck]


def roofline_point(program: Program,
                   system: Optional[SystemSpec] = None,
                   calib: Optional[Calibration] = None) -> RooflinePoint:
    """Classify one program against the pipeline-stage rooflines."""
    system = system or default_system()
    calib = calib or default_calibration()

    link = PcieLink(Environment(), system, calib)
    host_ns = (link.duration_ns(TransferKind.H2D, program.h2d_bytes)
               + link.duration_ns(TransferKind.D2H, program.d2h_bytes))

    staging_ns = 0.0
    compute_ns = 0.0
    flops = 0.0
    staged_bytes = 0.0
    for phase in program.phases:
        execution = simulate_kernel(
            phase.descriptor, ConfigFlags(), system, calib,
            smem_carveout_bytes=system.gpu.default_shared_mem_bytes,
            resident_fraction=1.0)
        staging_ns += execution.load_ns * phase.count
        compute_ns += execution.compute_ns * phase.count
        flops += phase.descriptor.compute_cycles * 128.0 * phase.count
        staged_bytes += phase.descriptor.load_bytes * phase.count

    alloc = calib.alloc
    allocation_ns = sum(
        alloc.device_base_ns + alloc.device_per_byte_ns * buf.size_bytes
        + alloc.free_base_ns + alloc.free_per_byte_ns * buf.size_bytes
        for buf in program.buffers)

    stages = {
        Bottleneck.HOST_TRANSFER: host_ns,
        Bottleneck.STAGING: staging_ns,
        Bottleneck.COMPUTE: compute_ns,
        Bottleneck.ALLOCATION: allocation_ns,
    }
    bottleneck = max(stages, key=stages.get)
    return RooflinePoint(
        workload=program.name,
        arithmetic_intensity=flops / max(staged_bytes, 1.0),
        host_transfer_ns=host_ns,
        staging_ns=staging_ns,
        compute_ns=compute_ns,
        allocation_ns=allocation_ns,
        bottleneck=bottleneck,
    )


def suite_roofline(size: SizeClass = SizeClass.SUPER,
                   names: Optional[Sequence[str]] = None,
                   system: Optional[SystemSpec] = None,
                   calib: Optional[Calibration] = None
                   ) -> Dict[str, RooflinePoint]:
    """Roofline points for (a subset of) the whole suite."""
    workloads = all_workloads()
    if names is not None:
        wanted = set(names)
        workloads = [w for w in workloads if w.name in wanted]
    return {
        workload.name: roofline_point(workload.program(size),
                                      system=system, calib=calib)
        for workload in workloads
    }


def render_roofline(points: Dict[str, RooflinePoint]) -> str:
    """ASCII table of roofline points with their binding stages."""
    from ..harness.report import render_table
    rows = []
    for name, point in points.items():
        rows.append((
            name,
            f"{point.arithmetic_intensity:.2f}",
            f"{point.host_transfer_ns / 1e6:.1f}",
            f"{point.staging_ns / 1e6:.1f}",
            f"{point.compute_ns / 1e6:.1f}",
            f"{point.allocation_ns / 1e6:.1f}",
            point.bottleneck.value,
        ))
    return render_table(
        ("workload", "flops/byte", "host xfer (ms)", "staging (ms)",
         "compute (ms)", "allocation (ms)", "bottleneck"), rows,
        title="Pipeline-stage roofline (Sec. 1 questions a-c)")
