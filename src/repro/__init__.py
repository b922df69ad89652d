"""repro: reproduction of "Performance Implications of Async Memcpy and
UVM: A Tale of Two Data Transfer Modes" (IISWC 2023).

The package has four layers:

* :mod:`repro.sim` - a discrete-event simulator of the CPU-GPU
  heterogeneous system (the substitute for the paper's A100 testbed).
* :mod:`repro.workloads` - the 21-benchmark suite of Table 2, each with
  a functional NumPy implementation and a kernel characterization.
* :mod:`repro.core` - the study framework: the five transfer
  configurations, experiment runner, statistics, the Sec. 6 inter-job
  pipeline model, and the configuration advisor.
* :mod:`repro.harness` - regenerators for every table and figure.
* :mod:`repro.analysis` - static validation: the model linter
  (``repro lint``) and the stream/event-graph race checker.

Quickstart::

    from repro import compare_workload, SizeClass
    comparison = compare_workload("vector_seq", SizeClass.SUPER,
                                  iterations=10)
    for mode in comparison.modes():
        print(mode.value, comparison.normalized_total(mode))

Package exports are lazy (PEP 562): ``import repro`` loads no
submodule, and each public name imports its submodule on first use.
"""


def _lazy_exports(package, table):
    """PEP 562 ``(__getattr__, __dir__)`` for a package's public names.

    ``table`` maps each submodule (relative to ``package``) to the
    names it exports.  A name is imported from its submodule on first
    access and then bound on the package, so ``import package`` loads
    no submodule and later lookups cost what an eager export did.
    """
    import importlib
    import sys

    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    ".analysis": ("LintError", "LintReport", "StreamGraph", "lint_program",
                  "lint_registry", "validate_program"),
    ".core": ("ALL_MODES", "Experiment", "ModeComparison", "Recommendation",
              "RunResult", "RunSet", "TransferMode", "compare_workload",
              "execute_program", "interjob_speedup", "recommend_mode",
              "run_job_batch", "run_workload", "section6_shares"),
    ".harness.executor": ("ResultCache", "RunSpec", "SweepExecutor",
                          "expand_grid"),
    ".sim": ("AccessPattern", "Calibration", "CudaRuntime",
             "KernelDescriptor", "Program", "SystemSpec",
             "default_calibration", "default_system"),
    ".workloads.registry": ("ALL_NAMES", "APP_NAMES", "MICRO_NAMES",
                            "all_workloads", "app_workloads",
                            "get_workload", "micro_workloads",
                            "workloads_by_suite"),
    ".workloads.sizes": ("STABLE_SIZES", "SizeClass"),
})

__version__ = "1.0.0"

__all__ = [
    "ALL_MODES", "ALL_NAMES", "APP_NAMES", "AccessPattern", "Calibration",
    "CudaRuntime", "Experiment", "KernelDescriptor", "LintError",
    "LintReport", "MICRO_NAMES", "ModeComparison", "Program",
    "Recommendation", "ResultCache", "RunResult", "RunSet", "RunSpec",
    "STABLE_SIZES", "SizeClass",
    "StreamGraph", "SweepExecutor", "SystemSpec", "TransferMode",
    "all_workloads", "expand_grid",
    "app_workloads", "compare_workload", "default_calibration",
    "default_system", "execute_program", "get_workload",
    "interjob_speedup", "lint_program", "lint_registry",
    "micro_workloads", "recommend_mode", "run_job_batch", "run_workload",
    "section6_shares", "validate_program", "workloads_by_suite",
    "__version__",
]
