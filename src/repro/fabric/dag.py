"""Spec-DAG compiler: sweeps as dependency graphs, not flat lists.

Today a sweep is a flat ``RunSpec`` list; the fabric makes it a
*program*, in the style of numpywren's ``lpcompile`` pipeline: compile
the grid into a :class:`SpecDAG` of :class:`SpecNode` s, introspect it
with :func:`walk_program` / :func:`find_parents` /
:func:`find_children`, and schedule it deterministically — serially
through :meth:`repro.harness.executor.SweepExecutor.run_dag`, or
across worker processes through :mod:`repro.fabric.coordinator`.

Compilers encode the structure each sweep family actually has:

* :func:`compile_grid` — the degenerate case: one run node per spec,
  no edges, one layer. Executing it is node-for-node identical to
  today's flat sweep (property-tested in
  ``tests/fabric/test_dag_properties.py``).
* :func:`compile_figure_grid` — still edge-free, but nodes carry the
  compile-once vector-engine *group* coordinate ``(program coords,
  mode, carveout)``; the fabric scheduler keeps a worker on one group
  while it can, so each worker compiles each tape once.
* :func:`compile_sensitivity_grid` — inserts one *prewarm* node per
  group as a shared prefix: the phase-memo batch-warm and program
  build run once before any of the group's cells.
* :func:`compile_size_search_grid` — each size's *probe* cell (first
  mode, iteration 0) is a parent of every other cell at that size:
  a size whose probe fails never fans out its full mode grid.

Dependencies are pure *scheduling* structure: every run node's result
is still a pure function of its spec, so any topological execution
order — serial, threaded, or distributed with crashes and speculative
re-execution — produces bit-identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..harness.executor import RunSpec, spec_coords

#: Node kinds. ``run`` nodes carry a spec and publish a result;
#: ``prewarm`` nodes are pure scheduling prefixes (program build +
#: phase-memo warm) that commit no cache entry.
KIND_RUN = "run"
KIND_PREWARM = "prewarm"


@dataclass(frozen=True)
class SpecNode:
    """One vertex of a compiled sweep program.

    ``node_id`` doubles as the node's index in :attr:`SpecDAG.nodes`;
    ``run_index`` is the node's position among *run* nodes only (the
    order results are collected in — input spec order for every
    compiler here). ``group`` is the compile-once coordinate the
    vector engine batches by; nodes sharing a group share one tape.
    """

    node_id: int
    kind: str = KIND_RUN
    spec: Optional[RunSpec] = None
    parents: Tuple[int, ...] = ()
    group: Tuple = ()
    #: Axis-fusion coordinate (``family_key``): all nodes sharing it
    #: belong to one fusable sweep family, which the executor can
    #: replay as a single array program.  Workers prefer leasing
    #: within their current family so whole families settle on one
    #: worker (one compile + one fused replay instead of per-cell).
    family: Tuple = ()
    run_index: int = -1
    role: str = ""  # "" | "probe" | "prewarm"

    def __post_init__(self) -> None:
        if self.kind not in (KIND_RUN, KIND_PREWARM):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == KIND_RUN and self.spec is None:
            raise ValueError("run nodes need a spec")
        if self.kind == KIND_PREWARM and self.spec is None:
            raise ValueError(
                "prewarm nodes need a representative spec to build from")

    @property
    def is_run(self) -> bool:
        return self.kind == KIND_RUN

    @property
    def prewarm_specs(self) -> Tuple[RunSpec, ...]:
        """Specs a prewarm node hoists setup for (its representative)."""
        return (self.spec,) if self.spec is not None else ()

    def describe(self) -> str:
        spec = self.spec
        label = (f"{spec.workload}@{spec.size} "
                 f"{getattr(spec.mode, 'value', spec.mode)}"
                 f"#{spec.iteration}" if spec is not None else "-")
        role = f" [{self.role}]" if self.role else ""
        return f"n{self.node_id} {self.kind}{role} {label}"


class SpecDAG:
    """An immutable dependency graph over sweep cells.

    Nodes are stored in a deterministic order (``node_id`` == index);
    every structural query — :meth:`walk`, :meth:`layers`,
    :meth:`ready` — resolves ties by ``node_id``, so two processes
    compiling the same grid agree on the schedule bit-for-bit.
    """

    def __init__(self, nodes: Sequence[SpecNode]):
        self.nodes: Tuple[SpecNode, ...] = tuple(nodes)
        for index, node in enumerate(self.nodes):
            if node.node_id != index:
                raise ValueError(
                    f"node_id {node.node_id} at position {index}; "
                    "node_id must equal the node's index")
            for parent in node.parents:
                if not 0 <= parent < len(self.nodes):
                    raise ValueError(
                        f"node {index} references unknown parent {parent}")
        self._children: Dict[int, List[int]] = {
            node.node_id: [] for node in self.nodes}
        for node in self.nodes:
            for parent in node.parents:
                self._children[parent].append(node.node_id)

    # ------------------------------------------------------------------
    # Introspection (the walk_program / find_parents surface)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SpecNode]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> SpecNode:
        return self.nodes[node_id]

    @property
    def run_nodes(self) -> List[SpecNode]:
        return [node for node in self.nodes if node.is_run]

    @property
    def run_count(self) -> int:
        return sum(1 for node in self.nodes if node.is_run)

    @property
    def specs(self) -> List[RunSpec]:
        """Run-node specs in ``run_index`` order (input spec order)."""
        ordered = sorted(self.run_nodes, key=lambda node: node.run_index)
        return [node.spec for node in ordered]

    def validate(self) -> None:
        """Raise :class:`ValueError` on a cycle (walk covers all nodes)."""
        seen = sum(1 for _ in self.walk())
        if seen != len(self.nodes):
            raise ValueError(
                f"cyclic DAG: topological walk reached {seen} of "
                f"{len(self.nodes)} nodes")

    def walk(self) -> Iterator[Tuple[SpecNode, int]]:
        """Deterministic topological walk: yields ``(node, layer)``.

        Kahn's algorithm with the ready set kept sorted by
        ``node_id`` — the fabric's canonical schedule, mirrored after
        numpywren's ``walk_program``. A node's layer is
        ``1 + max(parent layers)`` (0 for roots).
        """
        remaining = {node.node_id: len(node.parents)
                     for node in self.nodes}
        layer_of: Dict[int, int] = {}
        ready = sorted(node_id for node_id, count in remaining.items()
                       if count == 0)
        while ready:
            node_id = ready.pop(0)
            node = self.nodes[node_id]
            layer = (max((layer_of[parent] for parent in node.parents),
                         default=-1) + 1)
            layer_of[node_id] = layer
            yield node, layer
            released = []
            for child in self._children[node_id]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    released.append(child)
            if released:
                ready = sorted(ready + released)

    def layers(self) -> List[List[SpecNode]]:
        """Nodes grouped by topological layer, each layer id-sorted."""
        grouped: Dict[int, List[SpecNode]] = {}
        for node, layer in self.walk():
            grouped.setdefault(layer, []).append(node)
        return [grouped[layer] for layer in sorted(grouped)]

    def ready(self, committed: set) -> List[int]:
        """Uncommitted node ids whose parents are all committed."""
        return [node.node_id for node in self.nodes
                if node.node_id not in committed
                and all(parent in committed for parent in node.parents)]

    # ------------------------------------------------------------------
    # Manifest round-trip (the coordinator writes dag.json; workers load)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "version": 1,
            "nodes": [{
                "node_id": node.node_id, "kind": node.kind,
                "parents": list(node.parents),
                "group": list(node.group),
                "family": list(node.family),
                "run_index": node.run_index,
                "role": node.role,
                "spec": _spec_to_json(node.spec),
            } for node in self.nodes],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SpecDAG":
        data = json.loads(payload)
        # ``family`` is absent from pre-axis-fusion manifests; default
        # to no affinity rather than rejecting the manifest.
        return cls([SpecNode(
            node_id=entry["node_id"], kind=entry["kind"],
            spec=_spec_from_json(entry["spec"]),
            parents=tuple(entry["parents"]),
            group=tuple(_rehydrate_group(entry["group"])),
            family=tuple(_rehydrate_group(entry.get("family", []))),
            run_index=entry["run_index"], role=entry.get("role", ""),
        ) for entry in data["nodes"]])


def _spec_to_json(spec: Optional[RunSpec]) -> Optional[Dict]:
    if spec is None:
        return None
    return {"workload": spec.workload, "size": spec.size,
            "mode": getattr(spec.mode, "value", spec.mode),
            "iteration": spec.iteration, "base_seed": spec.base_seed,
            "blocks": spec.blocks, "threads": spec.threads,
            "smem_carveout_bytes": spec.smem_carveout_bytes,
            "seed_salt": spec.seed_salt}


def _spec_from_json(data: Optional[Dict]) -> Optional[RunSpec]:
    if data is None:
        return None
    return RunSpec(**data)


def _rehydrate_group(group: Sequence) -> List:
    # JSON turns nested tuples into lists; normalize back so group
    # equality survives the manifest round-trip.
    return [tuple(_rehydrate_group(item)) if isinstance(item, list)
            else item for item in group]


# ----------------------------------------------------------------------
# numpywren-style free functions
# ----------------------------------------------------------------------
def walk_program(dag: SpecDAG) -> List[Tuple[int, int]]:
    """``[(node_id, layer), ...]`` in the canonical topological order."""
    return [(node.node_id, layer) for node, layer in dag.walk()]


def find_parents(dag: SpecDAG, node_id: int) -> List[int]:
    """Direct parents of one node (sorted)."""
    return sorted(dag[node_id].parents)


def find_children(dag: SpecDAG, node_id: int) -> List[int]:
    """Direct children of one node (sorted)."""
    return sorted(dag._children[node_id])


# ----------------------------------------------------------------------
# Compilers
# ----------------------------------------------------------------------
def group_key(spec: RunSpec) -> Tuple:
    """The compile-once vector-engine coordinate of one spec.

    Matches the executor's coordinate cell (``(spec_coords, mode,
    carveout)``): all specs sharing it replay from one compiled tape
    (the whole-grid precompute compiles it once per seed family).
    """
    return (spec_coords(spec), getattr(spec.mode, "value", spec.mode),
            spec.smem_carveout_bytes)


def family_key(spec: RunSpec) -> Tuple:
    """The axis-fusion coordinate of one spec.

    Matches the executor's family grouping (``(workload, mode,
    base_seed, seed_salt)``): all cells sharing it vary along
    sensitivity axes only and are candidates for one fused array
    replay (:func:`repro.sim.vecgrid.compile_family`).  A family is a
    union of :func:`group_key` groups.
    """
    return (spec.workload, getattr(spec.mode, "value", spec.mode),
            spec.base_seed, spec.seed_salt)


def compile_grid(specs: Sequence[RunSpec]) -> SpecDAG:
    """Flat grid -> degenerate single-layer DAG, node-for-node.

    The identity compilation: one run node per spec in input order,
    no parents, ``run_index == node_id``. Executing this DAG is
    exactly today's flat sweep.
    """
    return SpecDAG([SpecNode(node_id=index, spec=spec, run_index=index,
                             group=group_key(spec),
                             family=family_key(spec))
                    for index, spec in enumerate(specs)])


def compile_figure_grid(specs: Sequence[RunSpec]) -> SpecDAG:
    """Figure grid: edge-free, grouped by compile-once coordinates.

    Structurally identical to :func:`compile_grid` (figures have no
    inter-cell dependencies); the value is the ``group`` annotation
    the fabric scheduler uses for tape-affinity — a worker drains one
    group before hopping to the next, so each group's program
    compiles once per worker instead of once per cell.
    """
    return compile_grid(specs)


def compile_sensitivity_grid(specs: Sequence[RunSpec]) -> SpecDAG:
    """Sensitivity sweep: shared phase-memo-prewarm prefix per group.

    Every distinct group (sweep point x mode) gets one prewarm node;
    the group's run cells all depend on it. The prewarm does the
    work the executor's ``prewarm()`` hoists today — program build +
    fingerprint + phase-memo batch-warm — once per group, before any
    cell of the group is dispatched anywhere.
    """
    nodes: List[SpecNode] = []
    prewarm_of: Dict[Tuple, int] = {}
    pending: List[Tuple[int, RunSpec]] = []  # (run_index, spec)
    for run_index, spec in enumerate(specs):
        key = group_key(spec)
        if key not in prewarm_of:
            prewarm_of[key] = len(nodes)
            nodes.append(SpecNode(node_id=len(nodes), kind=KIND_PREWARM,
                                  spec=spec, group=key,
                                  family=family_key(spec),
                                  role="prewarm"))
        pending.append((run_index, spec))
    for run_index, spec in pending:
        key = group_key(spec)
        nodes.append(SpecNode(node_id=len(nodes), spec=spec,
                              parents=(prewarm_of[key],), group=key,
                              family=family_key(spec),
                              run_index=run_index))
    return SpecDAG(nodes)


def compile_size_search_grid(specs: Sequence[RunSpec]) -> SpecDAG:
    """Size search: every cell of a size depends on the size's probe.

    The probe is the size's first cell in input order (first mode,
    iteration 0 — the cheapest question to ask of an untested size).
    Only after the probe commits does the size's full
    mode x iteration grid fan out, so a size that is broken or wildly
    mis-scaled costs one cell, not a grid.
    """
    nodes: List[SpecNode] = []
    probe_of: Dict[Tuple[str, str], int] = {}
    for run_index, spec in enumerate(specs):
        size_key = (spec.workload, spec.size)
        probe = probe_of.get(size_key)
        if probe is None:
            probe_of[size_key] = len(nodes)
            nodes.append(SpecNode(node_id=len(nodes), spec=spec,
                                  run_index=run_index,
                                  group=group_key(spec),
                                  family=family_key(spec),
                                  role="probe"))
        else:
            nodes.append(SpecNode(node_id=len(nodes), spec=spec,
                                  parents=(probe,),
                                  run_index=run_index,
                                  group=group_key(spec),
                                  family=family_key(spec)))
    return SpecDAG(nodes)


#: Named structures ``repro fabric run --structure`` selects between.
STRUCTURES = {
    "flat": compile_grid,
    "figure": compile_figure_grid,
    "sensitivity": compile_sensitivity_grid,
    "sizesearch": compile_size_search_grid,
}


def compile_sweep(specs: Sequence[RunSpec],
                  structure: str = "figure") -> SpecDAG:
    """Compile a spec list under one of the named structures."""
    try:
        compiler = STRUCTURES[structure]
    except KeyError:
        raise ValueError(
            f"unknown structure {structure!r}; expected one of "
            f"{', '.join(STRUCTURES)}") from None
    return compiler(specs)


def renumber(dag: SpecDAG, keep: Sequence[int]) -> SpecDAG:
    """A sub-DAG over ``keep`` (parents outside the cut are dropped)."""
    keep_set = set(keep)
    mapping = {old: new for new, old in enumerate(sorted(keep_set))}
    nodes = []
    for old in sorted(keep_set):
        node = dag[old]
        nodes.append(replace(
            node, node_id=mapping[old],
            parents=tuple(mapping[parent] for parent in node.parents
                          if parent in keep_set)))
    return SpecDAG(nodes)
