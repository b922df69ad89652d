"""Discrete-event simulator of a CPU-GPU heterogeneous system.

This package is the substrate substituting for the paper's A100
testbed: hardware description, event engine, memory/interconnect
models, the UVM driver model, the cp.async pipeline model, and a
CUDA-like runtime that executes workload programs while recording the
paper's three-way time breakdown and CUPTI-style counters.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".calibration": ("Calibration", "default_calibration"),
    ".cache": ("MissRates", "l1_miss_rates"),
    ".counters": ("CounterReport", "KernelCounters"),
    ".engine": ("Deadline", "Environment", "Event", "Process", "Resource",
                "SimulationError", "Timeout"),
    ".export": ("export_chrome_trace", "timeline_to_trace_events"),
    ".phasecache": ("PhaseMemo", "clear_phase_memos", "phase_memo_for"),
    ".hardware": ("CpuSpec", "GpuSpec", "LinkSpec", "SystemSpec", "UvmSpec",
                  "default_system", "GIB", "KIB", "MIB"),
    ".hostmem": ("HostPlacement", "place_host_data"),
    ".kernel": ("AccessPattern", "AsyncMechanism", "InstructionMix",
                "KernelDescriptor"),
    ".pagesim": ("PageSimResult", "fault_study", "generate_access_trace",
                 "replay_trace"),
    ".pcie": ("MAX_TRAIN_CHUNKS", "PcieLink", "TransferKind"),
    ".program": ("BufferDirection", "BufferSpec", "KernelPhase", "Program",
                 "simple_program"),
    ".runtime": ("CudaRuntime",),
    ".streams": ("CudaStream", "device_synchronize"),
    ".sm": ("Occupancy", "occupancy_for", "pipeline_fits", "smem_per_block"),
    ".timing": ("ConfigFlags", "KernelExecution", "simulate_kernel"),
    ".trace": ("Timeline", "TraceEvent"),
    ".uvm": ("ManagedAllocation", "ManagedSpace", "MigrationPlan",
             "UvmError", "fault_batches", "migration_blocks"),
    ".vecgrid": ("AnalyticRuntime", "CompiledProgram", "ContentionDetected",
                 "VecStats", "prewarm_phase_memo", "simulate_phase_grid",
                 "vec_stats"),
})

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
