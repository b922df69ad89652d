"""Spec-DAG compiler: structure, introspection, serial execution."""

import json

import pytest

from repro.fabric import (SpecDAG, SpecNode, compile_figure_grid,
                         compile_grid, compile_sensitivity_grid,
                         compile_size_search_grid, compile_sweep,
                         family_key, find_children, find_parents,
                         group_key, walk_program)
from repro.fabric.dag import KIND_PREWARM, renumber
from repro.harness.executor import ResultCache, SweepExecutor, expand_grid
from repro.harness.resilience import SpecStatus
from repro.harness.store import run_to_record


def grid(iterations=2, workloads=("vector_seq",), sizes=("small",)):
    return expand_grid(list(workloads), list(sizes), iterations=iterations)


class TestCompileGrid:
    def test_degenerate_single_layer(self):
        specs = grid()
        dag = compile_grid(specs)
        dag.validate()
        layers = dag.layers()
        assert len(layers) == 1
        assert len(layers[0]) == len(specs)

    def test_node_for_node_input_order(self):
        specs = grid()
        dag = compile_grid(specs)
        assert dag.run_count == len(specs)
        assert dag.specs == list(specs)
        for index, node in enumerate(dag.nodes):
            assert node.node_id == index
            assert node.run_index == index
            assert node.spec == specs[index]
            assert node.parents == ()

    def test_figure_grid_annotates_groups(self):
        specs = grid(workloads=("vector_seq", "saxpy"))
        dag = compile_figure_grid(specs)
        assert dag.specs == list(specs)
        groups = {node.group for node in dag.nodes}
        assert len(groups) > 1
        for node in dag.nodes:
            assert node.group == group_key(node.spec)


class TestFamilyAnnotations:
    """Axis-fusion families: the affinity coordinate workers lease by."""

    def test_nodes_carry_family_key(self):
        specs = []
        for threads in (64, 256):
            specs += expand_grid(["vector_seq"], ["small"], iterations=2,
                                 blocks=64, threads=threads)
        specs += expand_grid(["saxpy"], ["small"], iterations=2)
        dag = compile_figure_grid(specs)
        for node in dag.nodes:
            assert node.family == family_key(node.spec)
        # A family unions compile-groups: both thread points of
        # vector_seq share one family but keep distinct groups.
        vs = [n for n in dag.nodes if n.spec.workload == "vector_seq"
              and n.spec.mode.value == "standard"]
        assert len({n.family for n in vs}) == 1
        assert len({n.group for n in vs}) == 2

    @pytest.mark.parametrize("compiler", [
        compile_grid, compile_sensitivity_grid, compile_size_search_grid])
    def test_every_compiler_annotates_families(self, compiler):
        dag = compiler(grid(workloads=("vector_seq", "saxpy")))
        for node in dag.nodes:
            assert node.family == family_key(node.spec)

    def test_manifest_without_family_still_loads(self):
        """Pre-axis-fusion manifests lack the family field; loading
        one must degrade to no affinity, not reject the sweep."""
        dag = compile_grid(grid())
        data = json.loads(dag.to_json())
        for entry in data["nodes"]:
            del entry["family"]
        clone = SpecDAG.from_json(json.dumps(data))
        assert [n.spec for n in clone.nodes] == [n.spec for n in dag.nodes]
        assert all(n.family == () for n in clone.nodes)


class TestCompileSensitivity:
    def test_prewarm_prefix_per_group(self):
        specs = grid(iterations=3)
        dag = compile_sensitivity_grid(specs)
        dag.validate()
        prewarm = [n for n in dag.nodes if not n.is_run]
        run = [n for n in dag.nodes if n.is_run]
        assert len(run) == len(specs)
        assert {n.group for n in prewarm} == {n.group for n in run}
        for node in run:
            assert len(node.parents) == 1
            parent = dag[node.parents[0]]
            assert parent.kind == KIND_PREWARM
            assert parent.group == node.group

    def test_layers_prewarm_first(self):
        dag = compile_sensitivity_grid(grid())
        layers = dag.layers()
        assert len(layers) == 2
        assert all(not n.is_run for n in layers[0])
        assert all(n.is_run for n in layers[1])


class TestCompileSizeSearch:
    def test_probe_parents(self):
        specs = grid(iterations=2, sizes=("tiny", "small"))
        dag = compile_size_search_grid(specs)
        dag.validate()
        probes = [n for n in dag.nodes if n.role == "probe"]
        assert len(probes) == 2  # one per (workload, size)
        for node in dag.nodes:
            if node.role == "probe":
                assert node.parents == ()
            else:
                (parent,) = node.parents
                probe = dag[parent]
                assert probe.role == "probe"
                assert probe.spec.size == node.spec.size

    def test_probe_is_first_cell_of_size(self):
        specs = grid(iterations=2, sizes=("tiny", "small"))
        dag = compile_size_search_grid(specs)
        first_of_size = {}
        for spec in specs:
            first_of_size.setdefault((spec.workload, spec.size), spec)
        for node in dag.nodes:
            if node.role == "probe":
                key = (node.spec.workload, node.spec.size)
                assert node.spec == first_of_size[key]


class TestIntrospection:
    def test_walk_program_topological(self):
        dag = compile_size_search_grid(grid(sizes=("tiny", "small")))
        order = walk_program(dag)
        seen = set()
        for node_id, _layer in order:
            for parent in find_parents(dag, node_id):
                assert parent in seen
            seen.add(node_id)
        assert len(order) == len(dag)

    def test_find_parents_children_symmetry(self):
        dag = compile_sensitivity_grid(grid())
        for node in dag:
            for parent in find_parents(dag, node.node_id):
                assert node.node_id in find_children(dag, parent)
            for child in find_children(dag, node.node_id):
                assert node.node_id in find_parents(dag, child)

    def test_cycle_detected(self):
        spec = grid()[0]
        nodes = [
            SpecNode(node_id=0, spec=spec, parents=(1,), run_index=0),
            SpecNode(node_id=1, spec=spec, parents=(0,), run_index=1),
        ]
        dag = SpecDAG(nodes)
        with pytest.raises(ValueError, match="cyclic"):
            dag.validate()

    def test_bad_node_ids_rejected(self):
        spec = grid()[0]
        with pytest.raises(ValueError, match="node_id"):
            SpecDAG([SpecNode(node_id=5, spec=spec, run_index=0)])
        with pytest.raises(ValueError, match="unknown parent"):
            SpecDAG([SpecNode(node_id=0, spec=spec, parents=(7,),
                              run_index=0)])

    def test_node_kind_contract(self):
        spec = grid()[0]
        with pytest.raises(ValueError, match="kind"):
            SpecNode(node_id=0, kind="mystery", spec=spec)
        with pytest.raises(ValueError, match="need a spec"):
            SpecNode(node_id=0, spec=None)

    def test_ready_frontier(self):
        dag = compile_size_search_grid(grid(sizes=("tiny",)))
        probe = next(n.node_id for n in dag if n.role == "probe")
        assert dag.ready(set()) == [probe]
        rest = dag.ready({probe})
        assert probe not in rest
        assert len(rest) == len(dag) - 1

    def test_renumber_subgraph(self):
        dag = compile_size_search_grid(grid(sizes=("tiny", "small")))
        keep = [n.node_id for n in dag
                if n.spec.size == "tiny"]
        sub = renumber(dag, keep)
        sub.validate()
        assert len(sub) == len(keep)
        assert all(n.spec.size == "tiny" for n in sub)


class TestManifestRoundTrip:
    @pytest.mark.parametrize("compiler", [
        compile_grid, compile_figure_grid, compile_sensitivity_grid,
        compile_size_search_grid])
    def test_json_round_trip_exact(self, compiler):
        dag = compiler(grid(workloads=("vector_seq", "saxpy")))
        clone = SpecDAG.from_json(dag.to_json())
        assert clone.to_json() == dag.to_json()
        assert clone.nodes == dag.nodes

    def test_manifest_is_deterministic_json(self):
        dag = compile_grid(grid())
        assert json.loads(dag.to_json())["version"] == 1
        assert dag.to_json() == compile_grid(grid()).to_json()

    def test_compile_sweep_named_structures(self):
        specs = grid()
        assert compile_sweep(specs, "flat").run_count == len(specs)
        with pytest.raises(ValueError, match="unknown structure"):
            compile_sweep(specs, "banana")


class TestRunDag:
    """run_dag is the serial reference semantics of the fabric."""

    def executor(self, tmp_path, **kwargs):
        return SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             engine="vector", **kwargs)

    def test_flat_dag_matches_run_outcomes(self, tmp_path):
        specs = grid()
        ref = self.executor(tmp_path / "a").run_outcomes(specs)
        out = self.executor(tmp_path / "b").run_dag(compile_grid(specs))
        assert len(out) == len(ref)
        for got, want in zip(out, ref):
            assert got.status is want.status
            assert got.index == want.index
            assert run_to_record(got.result, with_counters=True) == \
                run_to_record(want.result, with_counters=True)

    def test_sensitivity_dag_matches_flat(self, tmp_path):
        specs = grid(iterations=3)
        ref = self.executor(tmp_path / "a").run_outcomes(specs)
        out = self.executor(tmp_path / "b").run_dag(
            compile_sensitivity_grid(specs))
        assert [run_to_record(o.result) for o in out] == \
            [run_to_record(o.result) for o in ref]

    def test_failed_probe_skips_descendants(self, tmp_path):
        from repro.harness import faults
        specs = grid(iterations=2, sizes=("tiny",))
        dag = compile_size_search_grid(specs)
        probe = next(n for n in dag if n.role == "probe")
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(probe.spec, kind=faults.KIND_FAIL,
                                  attempts=()),))
        with faults.inject(plan):
            out = self.executor(tmp_path).run_dag(dag)
        by_index = {o.index: o for o in out}
        assert by_index[probe.run_index].status is SpecStatus.FAILED
        skipped = [o for o in out if o.status is SpecStatus.SKIPPED]
        assert len(skipped) == len(specs) - 1
        assert all("parent" in (o.error or "") for o in skipped)
