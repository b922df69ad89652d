"""repro.fabric — distributed sweep fabric over a shared filesystem.

Compiles flat :class:`~repro.harness.executor.RunSpec` grids into
dependency DAGs (:mod:`repro.fabric.dag`), then executes them either
serially (:meth:`repro.harness.executor.SweepExecutor.run_dag`) or
across N crash-prone worker processes coordinated purely through a
shared directory: fenced heartbeat leases (:mod:`repro.fabric.leases`),
a durable journal as the coordination log, the content-addressed
result cache as the store, and a coordinator that abandons dead
workers' leases and speculatively re-dispatches stragglers
(:mod:`repro.fabric.coordinator`). Any interleaving of crashes,
stalls, partitions and re-executions yields results bit-identical to
the serial sweep — see ``docs/FABRIC.md``.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".dag": ("SpecDAG", "SpecNode", "compile_figure_grid", "compile_grid",
             "compile_sensitivity_grid", "compile_size_search_grid",
             "compile_sweep", "family_key", "find_children", "find_parents",
             "group_key", "walk_program", "STRUCTURES"),
    ".layout": ("FabricMeta", "FabricRoot"),
    ".leases": ("Lease", "LeaseDir"),
    ".state": ("FabricState", "NodeState", "expired_leases", "reduce_state",
               "straggler_nodes"),
    ".worker": ("FabricWorker", "WorkerCrashed"),
    ".coordinator": ("Coordinator", "CoordinatorStats", "FabricTimeout",
                     "run_fabric"),
    ".status": ("fabric_state", "render_status"),
})

__all__ = [
    "SpecDAG", "SpecNode", "compile_grid", "compile_figure_grid",
    "compile_sensitivity_grid", "compile_size_search_grid",
    "compile_sweep", "walk_program", "find_parents", "find_children",
    "group_key", "family_key", "STRUCTURES",
    "FabricMeta", "FabricRoot",
    "Lease", "LeaseDir",
    "FabricState", "NodeState", "reduce_state", "straggler_nodes",
    "expired_leases",
    "FabricWorker", "WorkerCrashed",
    "Coordinator", "CoordinatorStats", "FabricTimeout", "run_fabric",
    "fabric_state", "render_status",
]
