"""Multi-GPU scaling extension.

Sec. 2.1 notes that UVM lets applications "easily leverage the combined
memory resources of multiple GPUs". This module extends the simulator
in that direction: a program's grid and buffers are sharded across N
devices, each with its own PCIe link and SM array, all fed by the one
host allocator thread. Useful for studying how the five transfer
configurations scale when the transfer pipeline is replicated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..sim.calibration import Calibration, default_calibration
from ..sim.engine import Environment, Resource
from ..sim.hardware import SystemSpec, default_system
from ..sim.kernel import KernelDescriptor
from ..sim.program import KernelPhase, Program
from ..sim.runtime import CudaRuntime
from .configs import TransferMode
from .execution import _explicit_process, _managed_process


def shard_descriptor(desc: KernelDescriptor, gpus: int) -> KernelDescriptor:
    """One device's 1/N share of a kernel launch.

    Blocks (and hence traffic, compute, and footprint) divide across
    devices; per-block behaviour is unchanged.
    """
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    blocks = max(1, math.ceil(desc.blocks / gpus))
    share = blocks / desc.blocks
    footprint = (None if desc.data_footprint_bytes is None
                 else max(1, int(desc.data_footprint_bytes * share)))
    return dataclasses.replace(
        desc,
        blocks=blocks,
        write_bytes=max(0, int(desc.write_bytes * share)),
        data_footprint_bytes=footprint,
    )


def shard_program(program: Program, gpus: int, shard: int) -> Program:
    """The sub-program one device executes."""
    if not 0 <= shard < gpus:
        raise ValueError(f"shard {shard} outside [0, {gpus})")
    buffers = tuple(
        dataclasses.replace(buf,
                            size_bytes=max(1, buf.size_bytes // gpus))
        for buf in program.buffers
    )
    phases = tuple(
        KernelPhase(shard_descriptor(phase.descriptor, gpus),
                    count=phase.count, fresh_data=phase.fresh_data,
                    host_sync_bytes=phase.host_sync_bytes // gpus)
        for phase in program.phases
    )
    return Program(name=f"{program.name}@gpu{shard}", buffers=buffers,
                   phases=phases)


@dataclass
class MultiGpuResult:
    """Outcome of one sharded run."""

    mode: TransferMode
    gpus: int
    wall_ns: float
    per_gpu_totals_ns: List[float] = field(default_factory=list)

    @property
    def max_gpu_total_ns(self) -> float:
        return max(self.per_gpu_totals_ns)


def run_multi_gpu(program: Program, mode: TransferMode, gpus: int = 2,
                  system: Optional[SystemSpec] = None,
                  calib: Optional[Calibration] = None,
                  seed: int = 0) -> MultiGpuResult:
    """Execute a program sharded across ``gpus`` devices concurrently.

    Each device has its own link and SM array; the host allocator
    thread is shared (allocations serialize on the CPU, which is what
    limits scaling for allocation-heavy configurations).
    """
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    system = system or default_system()
    calib = calib or default_calibration()
    env = Environment()
    host_cpu = Resource(env, capacity=1, name="host_cpu")

    runtimes: List[CudaRuntime] = []
    for shard in range(gpus):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, shard]))
        sub_program = shard_program(program, gpus, shard)
        rt = CudaRuntime(system, calib, rng,
                         footprint_bytes=sub_program.footprint_bytes,
                         env=env, host_cpu=host_cpu)
        if mode.managed:
            process = _managed_process(rt, sub_program, mode)
        else:
            process = _explicit_process(rt, sub_program, mode)
        env.process(process, name=f"gpu{shard}")
        runtimes.append(rt)

    env.run()
    per_gpu = [sum(rt.timeline.breakdown().values()) for rt in runtimes]
    wall = max((rt.timeline.span()[1] for rt in runtimes
                if rt.timeline.events), default=0.0)
    return MultiGpuResult(mode=mode, gpus=gpus, wall_ns=wall,
                          per_gpu_totals_ns=per_gpu)


def scaling_study(program: Program, mode: TransferMode,
                  gpu_counts=(1, 2, 4, 8),
                  system: Optional[SystemSpec] = None,
                  calib: Optional[Calibration] = None,
                  seed: int = 0) -> Dict[int, Dict[str, float]]:
    """Wall time and scaling efficiency across device counts."""
    results = {count: run_multi_gpu(program, mode, count, system=system,
                                    calib=calib, seed=seed)
               for count in gpu_counts}
    baseline = results[gpu_counts[0]].wall_ns * gpu_counts[0]
    return {
        count: {
            "wall_ns": result.wall_ns,
            "speedup": results[gpu_counts[0]].wall_ns / result.wall_ns,
            "efficiency": baseline / (count * result.wall_ns),
        }
        for count, result in results.items()
    }
