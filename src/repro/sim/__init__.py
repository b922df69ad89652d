"""Discrete-event simulator of a CPU-GPU heterogeneous system.

This package is the substrate substituting for the paper's A100
testbed: hardware description, event engine, memory/interconnect
models, the UVM driver model, the cp.async pipeline model, and a
CUDA-like runtime that executes workload programs while recording the
paper's three-way time breakdown and CUPTI-style counters.
"""

from .calibration import Calibration, default_calibration
from .cache import MissRates, l1_miss_rates
from .counters import CounterReport, KernelCounters
from .engine import (Deadline, Environment, Event, Process, Resource,
                     SimulationError, Timeout)
from .export import export_chrome_trace, timeline_to_trace_events
from .phasecache import PhaseMemo, clear_phase_memos, phase_memo_for
from .hardware import (CpuSpec, GpuSpec, LinkSpec, SystemSpec, UvmSpec,
                       default_system, GIB, KIB, MIB)
from .hostmem import HostPlacement, place_host_data
from .kernel import (AccessPattern, AsyncMechanism, InstructionMix,
                     KernelDescriptor)
from .pagesim import (PageSimResult, fault_study, generate_access_trace,
                      replay_trace)
from .pcie import MAX_TRAIN_CHUNKS, PcieLink, TransferKind
from .program import (BufferDirection, BufferSpec, KernelPhase, Program,
                      simple_program)
from .runtime import CudaRuntime
from .streams import CudaStream, device_synchronize
from .sm import Occupancy, occupancy_for, pipeline_fits, smem_per_block
from .timing import ConfigFlags, KernelExecution, simulate_kernel
from .trace import Timeline, TraceEvent
from .uvm import (ManagedAllocation, ManagedSpace, MigrationPlan, UvmError,
                  fault_batches, migration_blocks)
from .vecgrid import (AnalyticRuntime, CompiledProgram, ContentionDetected,
                      VecStats, prewarm_phase_memo, simulate_phase_grid,
                      vec_stats)

__all__ = [
    "AccessPattern", "AsyncMechanism", "BufferDirection", "BufferSpec", "Calibration",
    "ConfigFlags", "CounterReport", "CpuSpec", "CudaRuntime", "Deadline",
    "Environment",
    "Event", "GIB", "GpuSpec", "HostPlacement", "InstructionMix",
    "KernelCounters", "KernelDescriptor", "KernelExecution", "KernelPhase",
    "KIB", "LinkSpec", "ManagedAllocation", "ManagedSpace",
    "MAX_TRAIN_CHUNKS", "MIB",
    "MigrationPlan", "MissRates", "Occupancy", "PcieLink", "Process",
    "Program", "Resource", "SimulationError", "SystemSpec", "Timeline",
    "TraceEvent", "TransferKind", "UvmError", "UvmSpec",
    "default_calibration", "default_system", "fault_batches",
    "l1_miss_rates", "migration_blocks",
    "occupancy_for", "pipeline_fits", "place_host_data", "simple_program",
    "simulate_kernel", "smem_per_block", "export_chrome_trace",
    "timeline_to_trace_events", "PageSimResult", "fault_study",
    "generate_access_trace", "replay_trace", "CudaStream",
    "device_synchronize", "PhaseMemo", "Timeout",
    "clear_phase_memos", "phase_memo_for",
    "AnalyticRuntime", "CompiledProgram", "ContentionDetected", "VecStats",
    "prewarm_phase_memo", "simulate_phase_grid", "vec_stats",
]
