"""Lint rules over the workload IR (programs + kernel descriptors).

Every rule inspects one :class:`LintContext` - a program paired with
one transfer mode on one system - and yields diagnostics. Rules are
registered on :data:`DEFAULT_REGISTRY`; ``repro lint`` and the
``validate=True`` hook in :mod:`repro.core.execution` both run the
enabled subset.

The catalog (see ``docs/LINTING.md`` for rationale and examples):

========  =======================  ========
id        name                     severity
========  =======================  ========
K101      smem-overflow            error
K102      smem-carveout-spill      warning
K103      register-file-overflow   error
K104      thread-geometry          error
K105      async-copy-coverage      error
K106      retile-drift             warning
K107      warp-alignment           info
K108      grid-underutilization    info
K109      async-serialized         info
P201      hbm-capacity             error/info
P202      uncovered-input          warning
P203      footprint-exceeds-buffers error
P204      fresh-data-reuse         warning
P205      scratch-host-fraction    warning
S301-303  stream graph rules       see streamcheck
========  =======================  ========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from ..sim.hardware import SystemSpec, default_system
from ..sim.kernel import KernelDescriptor
from ..sim.program import BufferDirection, KernelPhase, Program
from ..sim.sm import BYTES_PER_REGISTER, smem_per_block
from ..sim.timing import ConfigFlags
from .diagnostics import Diagnostic, Rule, RuleRegistry, Severity

#: fraction of HBM the UVM driver leaves usable for managed data
#: (mirrors ``repro.core.execution.UVM_USABLE_HBM_FRACTION`` without
#: importing the core layer).
UVM_USABLE_HBM_FRACTION = 0.95

MIB = float(1024 * 1024)


@dataclass(frozen=True)
class LintContext:
    """One (program, transfer-mode, system) lint subject."""

    program: Program
    mode_label: str
    flags: ConfigFlags
    system: SystemSpec
    smem_carveout_bytes: int

    @classmethod
    def build(cls, program: Program, mode, system: SystemSpec = None,
              smem_carveout_bytes: int = None) -> "LintContext":
        """Build a context from a ``TransferMode``-like object.

        ``mode`` needs ``kernel_flags()`` and a ``value`` label - duck
        typed so the analysis layer stays independent of
        :mod:`repro.core`.
        """
        system = system or default_system()
        if smem_carveout_bytes is None:
            smem_carveout_bytes = system.gpu.default_shared_mem_bytes
        return cls(program=program, mode_label=getattr(mode, "value", str(mode)),
                   flags=mode.kernel_flags(), system=system,
                   smem_carveout_bytes=smem_carveout_bytes)

    def phases(self) -> Iterator[Tuple[int, KernelPhase, KernelDescriptor]]:
        for index, phase in enumerate(self.program.phases):
            yield index, phase, phase.descriptor

    @staticmethod
    def kernel_loc(index: int, desc: KernelDescriptor) -> str:
        return f"phase[{index}]/kernel:{desc.name}"


DEFAULT_REGISTRY = RuleRegistry()


def _attach(diag: Diagnostic, ctx: LintContext) -> Diagnostic:
    """Stamp the context's workload/mode onto a rule diagnostic."""
    return Diagnostic(rule=diag.rule, severity=diag.severity,
                      message=diag.message, location=diag.location,
                      fix_hint=diag.fix_hint,
                      workload=ctx.program.name, mode=ctx.mode_label)


# ----------------------------------------------------------------------
# K1xx - kernel geometry and shared-memory rules
# ----------------------------------------------------------------------
@DEFAULT_REGISTRY.rule(
    "K101", "smem-overflow", Severity.ERROR,
    "Per-block shared memory (static + staging buffers, 2x under async "
    "double-buffering) exceeds the device's maximum shared-memory "
    "carveout; real CUDA rejects the launch.")
def check_smem_overflow(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    for index, _phase, desc in ctx.phases():
        need = smem_per_block(desc, use_async=ctx.flags.use_async)
        if need > gpu.max_shared_mem_bytes:
            buffers = "2x (double-buffered)" if ctx.flags.use_async else "1x"
            yield rule.diag(
                f"block needs {need / 1024:.1f} KiB shared memory "
                f"({desc.smem_static_bytes} static + {buffers} "
                f"{desc.tile_bytes}-byte tile) but the device caps the "
                f"carveout at {gpu.max_shared_mem_bytes // 1024} KiB",
                location=ctx.kernel_loc(index, desc),
                fix_hint="shrink tile_bytes or smem_static_bytes, or "
                         "split the tile across more blocks")


@DEFAULT_REGISTRY.rule(
    "K102", "smem-carveout-spill", Severity.WARNING,
    "Per-block shared memory fits the device maximum but not the "
    "configured carveout: occupancy clamps to one block per SM and, "
    "under cp.async, the double buffer gains no overlap (Takeaway 5).")
def check_smem_carveout_spill(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    for index, _phase, desc in ctx.phases():
        need = smem_per_block(desc, use_async=ctx.flags.use_async)
        if gpu.max_shared_mem_bytes >= need > ctx.smem_carveout_bytes:
            consequence = ("cp.async degenerates to copy cost without "
                           "overlap" if ctx.flags.use_async
                           else "block residency clamps to 1 per SM")
            yield rule.diag(
                f"block needs {need / 1024:.1f} KiB shared memory but the "
                f"carveout is {ctx.smem_carveout_bytes / 1024:.0f} KiB; "
                + consequence,
                location=ctx.kernel_loc(index, desc),
                fix_hint="raise the carveout (smem_carveout_bytes) or "
                         "shrink tile_bytes")


@DEFAULT_REGISTRY.rule(
    "K103", "register-file-overflow", Severity.ERROR,
    "registers_per_thread x threads_per_block exceeds the SM register "
    "file: not even one block can be resident, the launch is "
    "impossible.")
def check_register_file(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    for index, _phase, desc in ctx.phases():
        need = (desc.registers_per_thread * desc.threads_per_block
                * BYTES_PER_REGISTER)
        if need > gpu.register_file_bytes:
            yield rule.diag(
                f"one block needs {need // 1024} KiB of registers "
                f"({desc.registers_per_thread}/thread x "
                f"{desc.threads_per_block} threads) but the register file "
                f"holds {gpu.register_file_bytes // 1024} KiB",
                location=ctx.kernel_loc(index, desc),
                fix_hint="reduce registers_per_thread or "
                         "threads_per_block")


@DEFAULT_REGISTRY.rule(
    "K104", "thread-geometry", Severity.ERROR,
    "threads_per_block exceeds the device block or SM thread caps "
    "(guards re-targeted SystemSpecs; the descriptor only validates "
    "the default 1024 cap).")
def check_thread_geometry(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    for index, _phase, desc in ctx.phases():
        cap = min(gpu.max_threads_per_block, gpu.max_threads_per_sm)
        if desc.threads_per_block > cap:
            yield rule.diag(
                f"threads_per_block={desc.threads_per_block} exceeds the "
                f"device cap of {cap}",
                location=ctx.kernel_loc(index, desc),
                fix_hint=f"launch at most {cap} threads per block")


@DEFAULT_REGISTRY.rule(
    "K105", "async-copy-coverage", Severity.ERROR,
    "The declared cp.async copies cannot stage the tile: "
    "async_copies() x 16 B x threads_per_block < tile_bytes, so part "
    "of the tile would never reach shared memory.")
def check_async_copy_coverage(ctx: LintContext, rule: Rule, config: dict):
    if not ctx.flags.use_async:
        return
    per_copy = int(config.get("bytes_per_copy", 16))
    for index, _phase, desc in ctx.phases():
        staged = desc.async_copies() * per_copy * desc.threads_per_block
        if staged < desc.tile_bytes:
            yield rule.diag(
                f"{desc.async_copies()} cp.async copies x {per_copy} B x "
                f"{desc.threads_per_block} threads stage {staged} B per "
                f"tile but tile_bytes={desc.tile_bytes}",
                location=ctx.kernel_loc(index, desc),
                fix_hint="raise async_copies_per_tile to at least "
                         f"ceil(tile_bytes / {per_copy} / threads)")


@DEFAULT_REGISTRY.rule(
    "K106", "retile-drift", Severity.WARNING,
    "Rounding a retiling of this descriptor onto the probe geometries "
    "(the Fig. 11 sweep) would change total traffic by more than the "
    "tolerance: the tiling is too coarse to re-gear, and "
    "with_geometry() will refuse it.",
    tolerance=0.01, probe_blocks=None)
def check_retile_drift(ctx: LintContext, rule: Rule, config: dict):
    tolerance = float(config.get("tolerance", 0.01))
    probes = config.get("probe_blocks")
    if not probes:
        sm_count = ctx.system.gpu.sm_count
        probes = (sm_count, 4 * sm_count)
    for index, _phase, desc in ctx.phases():
        total = desc.load_bytes
        bad = []
        for blocks in probes:
            tiles = max(1, round(desc.total_tiles / blocks))
            tile_bytes = max(1, round(total / (blocks * tiles)))
            drift = abs(blocks * tiles * tile_bytes - total) / total
            if drift > tolerance:
                bad.append((blocks, drift))
        if len(bad) == len(list(probes)):
            worst = max(drift for _b, drift in bad)
            yield rule.diag(
                f"retiling onto {[b for b, _d in bad]} blocks drifts "
                f"total traffic by up to {worst * 100:.1f} % "
                f"(> {tolerance * 100:.0f} % tolerance)",
                location=ctx.kernel_loc(index, desc),
                fix_hint="choose blocks x tiles_per_block that divide "
                         "the total byte count")


@DEFAULT_REGISTRY.rule(
    "K107", "warp-alignment", Severity.INFO,
    "threads_per_block is not a multiple of the warp size; the last "
    "warp runs partially masked on every instruction.")
def check_warp_alignment(ctx: LintContext, rule: Rule, config: dict):
    warp = ctx.system.gpu.warp_size
    for index, _phase, desc in ctx.phases():
        if desc.threads_per_block % warp:
            yield rule.diag(
                f"threads_per_block={desc.threads_per_block} is not a "
                f"multiple of the warp size ({warp})",
                location=ctx.kernel_loc(index, desc),
                fix_hint=f"round up to {((desc.threads_per_block // warp) + 1) * warp}")


@DEFAULT_REGISTRY.rule(
    "K108", "grid-underutilization", Severity.INFO,
    "The grid launches fewer blocks than the device has SMs, leaving "
    "SMs idle for the whole kernel (the flat region of Fig. 11).",
    min_fraction=0.5)
def check_grid_underutilization(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    threshold = int(gpu.sm_count * float(config.get("min_fraction", 0.5)))
    for index, _phase, desc in ctx.phases():
        if desc.blocks < threshold:
            yield rule.diag(
                f"grid has {desc.blocks} blocks for {gpu.sm_count} SMs "
                f"({gpu.sm_count - desc.blocks} SMs idle)",
                location=ctx.kernel_loc(index, desc),
                fix_hint="split the work across more blocks if the "
                         "algorithm allows")


@DEFAULT_REGISTRY.rule(
    "K109", "async-serialized", Severity.INFO,
    "The kernel barriers per copy batch (async_serializes): under an "
    "async mode cp.async pays its control cost without gaining any "
    "overlap, regardless of buffer capacity.")
def check_async_serialized(ctx: LintContext, rule: Rule, config: dict):
    if not ctx.flags.use_async:
        return
    for index, _phase, desc in ctx.phases():
        if desc.async_serializes:
            yield rule.diag(
                "staging loop barriers per copy batch; cp.async adds "
                f"{desc.async_copies()} control ops/tile with no overlap",
                location=ctx.kernel_loc(index, desc),
                fix_hint="restructure the halo exchange to batch "
                         "copies across stages, or keep sync staging")


# ----------------------------------------------------------------------
# P2xx - program-level rules
# ----------------------------------------------------------------------
@DEFAULT_REGISTRY.rule(
    "P201", "hbm-capacity", Severity.ERROR,
    "Program footprint vs device memory: explicit-mode overflow is an "
    "error (cudaMalloc would fail); managed-mode oversubscription is "
    "legal but thrash-prone and reported as info.")
def check_hbm_capacity(ctx: LintContext, rule: Rule, config: dict):
    gpu = ctx.system.gpu
    footprint = ctx.program.footprint_bytes
    if ctx.flags.managed:
        usable = gpu.hbm_bytes * UVM_USABLE_HBM_FRACTION
        if footprint > usable:
            yield rule.diag(
                f"managed footprint {footprint / 2**30:.1f} GiB "
                f"oversubscribes the usable {usable / 2**30:.1f} GiB of "
                f"HBM ({footprint / usable:.2f}x); expect re-fault "
                "thrashing on every pass",
                location="program",
                fix_hint="expected for oversubscription studies; "
                         "otherwise shrink the size class",
                severity=Severity.INFO)
    elif footprint > gpu.hbm_bytes:
        yield rule.diag(
            f"explicit footprint {footprint / 2**30:.1f} GiB exceeds "
            f"{gpu.hbm_bytes / 2**30:.0f} GiB of HBM; cudaMalloc would "
            "fail on the real device",
            location="program",
            fix_hint="use a managed (UVM) mode to oversubscribe, or "
                     "shrink the size class")


@DEFAULT_REGISTRY.rule(
    "P202", "uncovered-input", Severity.WARNING,
    "Host-to-device buffer bytes no kernel phase ever reads: the "
    "program ships data the kernels never touch, inflating memcpy "
    "time against every managed mode.",
    tolerance=0.25)
def check_uncovered_input(ctx: LintContext, rule: Rule, config: dict):
    tolerance = float(config.get("tolerance", 0.25))
    declared = sum(b.size_bytes for b in ctx.program.buffers
                   if b.direction.host_to_device)
    if declared <= 0:
        return
    covered = 0.0
    for _i, phase, desc in ctx.phases():
        # fresh_data phases stream new bytes on every launch; resident
        # phases only ever read their footprint once.
        launches = phase.count if phase.fresh_data else 1
        covered += desc.footprint_bytes * desc.touched_fraction * launches
    uncovered = declared - covered
    if uncovered > tolerance * declared:
        yield rule.diag(
            f"{uncovered / MIB:.1f} MiB of {declared / MIB:.1f} MiB "
            f"declared input is not covered by any phase's read traffic "
            f"({uncovered / declared * 100:.0f} % > "
            f"{tolerance * 100:.0f} % tolerance)",
            location="program",
            fix_hint="drop the unread buffer bytes or raise the "
                     "kernels' data_footprint_bytes")


@DEFAULT_REGISTRY.rule(
    "P203", "footprint-exceeds-buffers", Severity.ERROR,
    "A kernel's unique data footprint (data_footprint_bytes, or "
    "load_bytes/reuse) exceeds every byte the program allocates: the "
    "kernel claims to read memory that does not exist.",
    slack=0.01)
def check_footprint_exceeds_buffers(ctx: LintContext, rule: Rule,
                                    config: dict):
    slack = float(config.get("slack", 0.01))
    allocated = ctx.program.footprint_bytes
    for index, _phase, desc in ctx.phases():
        footprint = desc.footprint_bytes * desc.touched_fraction
        if footprint > allocated * (1.0 + slack):
            yield rule.diag(
                f"kernel touches {footprint / MIB:.1f} MiB of unique "
                f"data but the program allocates only "
                f"{allocated / MIB:.1f} MiB",
                location=ctx.kernel_loc(index, desc),
                fix_hint="fix data_footprint_bytes (or reuse) to match "
                         "the declared buffers")


@DEFAULT_REGISTRY.rule(
    "P204", "fresh-data-reuse", Severity.WARNING,
    "A fresh_data phase (every launch streams new host data) whose "
    "kernel claims reuse > 1 contradicts itself: freshly streamed "
    "bytes cannot already be cache-resident.")
def check_fresh_data_reuse(ctx: LintContext, rule: Rule, config: dict):
    for index, phase, desc in ctx.phases():
        if phase.fresh_data and desc.reuse > 1.0:
            yield rule.diag(
                f"phase streams fresh data every launch but the kernel "
                f"declares reuse={desc.reuse:g}",
                location=ctx.kernel_loc(index, desc),
                fix_hint="set reuse=1 for fresh_data phases, or drop "
                         "fresh_data")


@DEFAULT_REGISTRY.rule(
    "P205", "scratch-host-fraction", Severity.WARNING,
    "A SCRATCH (device-only) buffer sets host-facing fractions "
    "(device_touched_fraction / host_read_fraction): the host never "
    "sees a scratch buffer, so the fractions are dead configuration.")
def check_scratch_host_fraction(ctx: LintContext, rule: Rule, config: dict):
    for buf in ctx.program.buffers:
        if buf.direction is not BufferDirection.SCRATCH:
            continue
        odd = []
        if buf.device_touched_fraction != 1.0:
            odd.append(f"device_touched_fraction={buf.device_touched_fraction:g}")
        if buf.host_read_fraction != 1.0:
            odd.append(f"host_read_fraction={buf.host_read_fraction:g}")
        if odd:
            yield rule.diag(
                f"scratch buffer sets {', '.join(odd)} but never crosses "
                "the host-device boundary",
                location=f"buffer:{buf.name}",
                fix_hint="remove the fractions or change the buffer "
                         "direction")


# ----------------------------------------------------------------------
# S3xx - stream graph rules
# ----------------------------------------------------------------------
# Catalog entries only (check=None): :mod:`repro.analysis.streamcheck`
# runs them on stream graphs, not programs.  They are registered here so
# the catalog is complete without importing the analyzer.
STREAM_RULES = (
    Rule("S301", "stream-race", Severity.ERROR,
         "Unsynchronized cross-stream access to the same buffer with at "
         "least one writer (e.g. a kernel consuming a buffer while an "
         "H2D copy to it is still in flight on another stream)."),
    Rule("S302", "stream-cycle", Severity.ERROR,
         "The happens-before graph has a dependency cycle: every "
         "operation on it deadlocks at run time."),
    Rule("S303", "dead-sync", Severity.WARNING,
         "A synchronize() that waits on nothing: the stream is empty, "
         "already drained, or was just synchronized."),
)
for _rule in STREAM_RULES:
    DEFAULT_REGISTRY.register(_rule)


def run_rules(ctx: LintContext,
              registry: RuleRegistry = None) -> Iterator[Diagnostic]:
    """Run every enabled program rule against one context."""
    registry = registry or DEFAULT_REGISTRY
    for rule in registry.enabled_rules():
        if rule.check is None:
            continue
        effective = registry.effective_rule(rule.id)
        config = registry.config_for(rule.id)
        for diag in rule.check(ctx, effective, config):
            yield _attach(diag, ctx)
