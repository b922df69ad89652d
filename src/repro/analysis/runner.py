"""Lint entry points: one program, one workload, or the whole registry.

``repro lint`` and the test suite's registry smoke both funnel through
:func:`lint_registry`; :func:`lint_program` is the building block the
``validate=True`` fast-fail hook in :mod:`repro.core.execution` uses.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..sim.hardware import SystemSpec
from ..sim.program import Program
from .diagnostics import LintReport, RuleRegistry
from .rules import DEFAULT_REGISTRY, LintContext, run_rules


class LintError(ValueError):
    """Raised by fast-fail validation when a program lints with errors."""

    def __init__(self, report: LintReport):
        self.report = report
        errors = report.errors
        lines = "\n".join(d.format() for d in errors)
        super().__init__(
            f"program failed static validation with {len(errors)} "
            f"error(s):\n{lines}")


def lint_program(program: Program, mode, *,
                 system: Optional[SystemSpec] = None,
                 smem_carveout_bytes: Optional[int] = None,
                 registry: Optional[RuleRegistry] = None) -> LintReport:
    """Lint one program under one transfer mode."""
    ctx = LintContext.build(program, mode, system=system,
                            smem_carveout_bytes=smem_carveout_bytes)
    report = LintReport(run_rules(ctx, registry or DEFAULT_REGISTRY))
    report.contexts = 1
    return report


def validate_program(program: Program, mode, *,
                     system: Optional[SystemSpec] = None,
                     smem_carveout_bytes: Optional[int] = None,
                     registry: Optional[RuleRegistry] = None) -> LintReport:
    """Fast-fail lint: raise :class:`LintError` on any error finding."""
    report = lint_program(program, mode, system=system,
                          smem_carveout_bytes=smem_carveout_bytes,
                          registry=registry)
    if report.has_errors:
        raise LintError(report)
    return report


def lint_workload(workload, size, modes: Optional[Iterable] = None, *,
                  system: Optional[SystemSpec] = None,
                  registry: Optional[RuleRegistry] = None) -> LintReport:
    """Lint one workload at one size class under the given modes."""
    from ..core.configs import ALL_MODES  # late: keeps analysis core-free
    report = LintReport()
    program = workload.program(size)
    for mode in (modes or ALL_MODES):
        report.merge(lint_program(program, mode, system=system,
                                  registry=registry))
    return report


def lint_registry(names: Optional[Sequence[str]] = None,
                  sizes: Optional[Sequence] = None,
                  modes: Optional[Iterable] = None, *,
                  system: Optional[SystemSpec] = None,
                  registry: Optional[RuleRegistry] = None) -> LintReport:
    """Lint registered workloads across sizes and transfer modes.

    Defaults: every registered workload, the paper's Super size class,
    all five transfer modes. Workloads that do not support a requested
    size are skipped at that size (matching the experiment harness).
    """
    from ..workloads.registry import ALL_NAMES, get_workload
    from ..workloads.sizes import SizeClass
    names = list(names) if names else list(ALL_NAMES)
    sizes = list(sizes) if sizes else [SizeClass.SUPER]
    report = LintReport()
    for name in names:
        workload = get_workload(name)
        for size in sizes:
            if not workload.supports(size):
                continue
            report.merge(lint_workload(workload, size, modes,
                                       system=system, registry=registry))
    return report
