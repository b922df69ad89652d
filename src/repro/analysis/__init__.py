"""Static analysis for the simulator: model linter + source analyzer.

The paper's conclusions only hold for structurally *valid* kernel and
transfer configurations - real CUDA rejects launches that overflow the
shared-memory carveout, and UVM silently degrades when footprints are
mis-declared. This package catches such problems before a simulation
burns cycles:

* :mod:`repro.analysis.diagnostics` - ``Diagnostic`` records, the
  ``LintReport`` container (text + JSON), and the ``RuleRegistry`` with
  per-rule enable/disable and configuration.
* :mod:`repro.analysis.rules` - the K1xx/P2xx lint rules over programs
  and kernel descriptors.
* :mod:`repro.analysis.streamcheck` - the S3xx happens-before analyzer
  over recorded ``CudaStream`` ledgers (races, cycles, dead syncs).
* :mod:`repro.analysis.runner` - lint one program, one workload, or
  the whole registry; ``validate_program`` is the fast-fail hook.

And, since the caches of PRs 2-4 rest on purity and key-completeness
assumptions, a second *source-level* analyzer (``repro lint --static``)
proves those assumptions over the Python source itself:

* :mod:`repro.analysis.astlint` - source scanning, project call graph,
  the D4xx/F5xx/A0xx rule catalog, and the orchestrator
  :func:`run_static_analysis`.
* :mod:`repro.analysis.purity` - D4xx determinism rules with
  call-graph taint propagation onto the declared pure roots.
* :mod:`repro.analysis.fingerprints` - F5xx fingerprint-completeness
  rules cross-checking dataclass schemas against cache-key functions.
* :mod:`repro.analysis.suppress` - shared ``# repro: allow[RULE]``
  pragmas and the checked-in baseline, for *all* rule families.
* :mod:`repro.analysis.sarif` - SARIF 2.1.0 output for GitHub code
  scanning.

See ``docs/LINTING.md`` for the rule catalog.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".astlint": ("SOURCE_REGISTRY", "run_static_analysis", "scan_package"),
    ".diagnostics": ("Diagnostic", "LintReport", "Rule", "RuleRegistry",
                     "Severity"),
    ".rules": ("DEFAULT_REGISTRY", "LintContext", "run_rules"),
    ".runner": ("LintError", "lint_program", "lint_registry",
                "lint_workload", "validate_program"),
    ".sarif": ("to_sarif",),
    ".streamcheck": ("GraphOp", "StreamGraph", "analyze_records"),
    ".suppress": ("Baseline", "Suppressions"),
})

__all__ = [
    "Baseline", "DEFAULT_REGISTRY", "Diagnostic", "GraphOp", "LintContext",
    "LintError", "LintReport", "Rule", "RuleRegistry", "SOURCE_REGISTRY",
    "Severity", "StreamGraph", "Suppressions", "analyze_records",
    "lint_program", "lint_registry", "lint_workload", "run_rules",
    "run_static_analysis", "scan_package", "to_sarif", "validate_program",
]
