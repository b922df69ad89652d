"""Inline fabric worker/coordinator tests.

Everything here runs workers in-process (threads or direct calls, the
``crash_hook`` standing in for SIGKILL) so the protocol code is
visible to coverage; the subprocess battery lives in
``test_fabric_chaos.py``.
"""

import threading
import time

import pytest

from repro.fabric import (Coordinator, FabricMeta, FabricRoot,
                         FabricWorker, WorkerCrashed, compile_grid,
                         compile_sensitivity_grid,
                         compile_size_search_grid, reduce_state,
                         run_fabric, straggler_nodes)
from repro.fabric.state import COMMITTED, FAILED, LEASED, READY, SKIPPED
from repro.harness import faults
from repro.harness.executor import (ResultCache, SweepExecutor,
                                    expand_grid)
from repro.harness.resilience import SpecStatus
from repro.harness.store import run_to_record


def small_grid(iterations=2, workloads=("vector_seq",)):
    return expand_grid(list(workloads), ["small"], iterations=iterations)


def make_root(tmp_path, specs, compiler=compile_grid, **meta_kwargs):
    meta_kwargs.setdefault("engine", "vector")
    meta_kwargs.setdefault("lease_s", 30.0)
    meta_kwargs.setdefault("poll_s", 0.005)
    return FabricRoot.init(tmp_path / "fab", compiler(specs),
                           meta=FabricMeta(**meta_kwargs))


def records(outcome):
    return [run_to_record(o.result, with_counters=True) for o in outcome]


class TestSingleWorker:
    def test_one_worker_drains_the_dag(self, tmp_path):
        specs = small_grid()
        fabric = make_root(tmp_path, specs)
        worker = FabricWorker(fabric, "w1")
        committed = worker.run()
        assert committed == len(specs)
        state = worker.snapshot()
        assert state.complete
        assert all(n.status == COMMITTED for n in state.nodes.values())

    def test_results_bit_identical_to_serial(self, tmp_path):
        specs = small_grid()
        fabric = make_root(tmp_path, specs)
        FabricWorker(fabric, "w1").run()
        coordinator = Coordinator(fabric, workers=1, spawn="thread")
        outcome = coordinator.collect()
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                               engine="vector").run_outcomes(specs)
        assert records(outcome) == records(serial)

    def test_prewarm_nodes_commit_without_cache_entries(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs,
                           compiler=compile_sensitivity_grid)
        worker = FabricWorker(fabric, "w1")
        dag = fabric.load_dag()
        assert worker.run() == len(dag)  # run + prewarm nodes
        state = worker.snapshot()
        assert state.complete
        # Prewarm commits are events without cache keys.
        assert len(fabric.cache()) == len(specs)

    def test_worker_resumes_partial_sweep(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs)
        FabricWorker(fabric, "w1").run(max_nodes=4)
        worker2 = FabricWorker(fabric, "w2")
        committed = worker2.run()
        assert committed == len(specs) - 4
        assert worker2.snapshot().complete


class TestFailureRecovery:
    def test_crashed_worker_leaves_reclaimable_lease(self, tmp_path):
        specs = small_grid()
        fabric = make_root(tmp_path, specs, lease_s=0.05)
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0],
                                  kind=faults.KIND_WORKER_CRASH,
                                  attempts=(1,)),))

        def crash():
            raise WorkerCrashed("inline SIGKILL")

        with faults.inject(plan):
            victim = FabricWorker(fabric, "w1", crash_hook=crash)
            with pytest.raises(WorkerCrashed):
                victim.run()
            # The node's lease dangles with no heartbeat...
            assert fabric.leases().read(0) is not None
            time.sleep(0.08)
            # ...until a second worker claims over the expired lease
            # with a higher fencing token and finishes everything.
            rescuer = FabricWorker(fabric, "w2", crash_hook=crash)
            rescuer.run()
        state = rescuer.snapshot()
        assert state.complete
        assert state.nodes[0].status == COMMITTED
        assert state.nodes[0].token >= 2
        assert state.nodes[0].committed_by == "w2"

    def test_coordinator_logs_abandon_for_expired_lease(self, tmp_path):
        specs = small_grid()
        fabric = make_root(tmp_path, specs, lease_s=0.05)
        lease = fabric.leases().claim(0, "w1", 0.05)
        assert lease is not None
        time.sleep(0.08)
        coordinator = Coordinator(fabric, workers=1, spawn="thread")
        coordinator.monitor_once()
        events = [e for e in fabric.journal().events()
                  if e["event"] == "abandon"]
        assert len(events) == 1
        assert events[0]["node"] == 0
        assert events[0]["worker"] == "w1"
        # Idempotent: a second pass does not duplicate the abandon.
        coordinator.monitor_once()
        assert len([e for e in fabric.journal().events()
                    if e["event"] == "abandon"]) == 1

    def test_partitioned_zombie_commit_is_fenced(self, tmp_path):
        specs = small_grid(iterations=1)
        fabric = make_root(tmp_path, specs, lease_s=0.1)
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0], kind=faults.KIND_PARTITION,
                                  attempts=(1,)),))
        with faults.inject(plan):
            zombie = FabricWorker(fabric, "w1")
            barrier = threading.Event()
            original = FabricWorker._run_spec_node

            def stalled(self, node, lease, prior_errors):
                if faults.fabric_fault(node.spec, lease.token):
                    barrier.wait(timeout=5.0)  # hold mid-computation
                return original(self, node, lease, prior_errors)

            zombie._run_spec_node = stalled.__get__(zombie)
            thread = threading.Thread(
                target=lambda: zombie.run(max_nodes=1), daemon=True)
            thread.start()
            deadline = time.time() + 5.0
            while fabric.leases().read(0) is None \
                    and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.15)  # heartbeats muted -> lease expires
            rescuer = FabricWorker(fabric, "w2")
            rescuer.run()
            barrier.set()  # zombie wakes, tries to commit, is fenced
            thread.join(timeout=10.0)
        events = fabric.journal().events()
        commits = [e for e in events
                   if e["event"] == "commit" and e["node"] == 0]
        fenced = [e for e in events
                  if e["event"] == "fenced" and e["node"] == 0]
        assert len(commits) == 1
        assert commits[0]["worker"] == "w2"
        assert fenced and fenced[0]["worker"] == "w1"

    def test_failed_node_fails_sweep_and_skips_children(self, tmp_path):
        specs = small_grid(iterations=2)
        fabric = make_root(tmp_path, specs,
                           compiler=compile_size_search_grid,
                           max_errors=1)
        probe_spec = specs[0]
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(probe_spec, kind=faults.KIND_FAIL,
                                  attempts=()),))
        with faults.inject(plan):
            worker = FabricWorker(fabric, "w1")
            worker.run()
        state = worker.snapshot()
        assert state.complete
        assert state.nodes[0].status == FAILED
        assert all(node.status == SKIPPED
                   for node_id, node in state.nodes.items() if node_id)
        outcome = Coordinator(fabric, workers=1,
                              spawn="thread").collect()
        assert outcome.outcomes[0].status is SpecStatus.FAILED
        assert "InjectedFault" in outcome.outcomes[0].error
        assert all(o.status is SpecStatus.SKIPPED
                   for o in outcome.outcomes[1:])

    def test_transient_error_retries_under_max_errors(self, tmp_path):
        specs = small_grid(iterations=1)
        fabric = make_root(tmp_path, specs, max_errors=3, lease_s=0.5)
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0], kind=faults.KIND_FAIL,
                                  attempts=(1,)),))  # first claim only
        with faults.inject(plan):
            worker = FabricWorker(fabric, "w1")
            worker.run()
        state = worker.snapshot()
        assert state.complete
        assert state.nodes[0].status == COMMITTED
        assert state.nodes[0].errors == 1  # one failed claim, then clean


class TestFamilyAffinity:
    def test_worker_drains_family_before_hopping(self, tmp_path):
        """When the current compile-group is exhausted, the worker
        prefers another group of the same fusion family over the
        first claimable node — whole families settle on one worker."""
        from repro.core.configs import TransferMode
        specs = []
        specs += expand_grid(["vector_seq"], ["small"],
                             [TransferMode.STANDARD], iterations=2,
                             blocks=64, threads=64)
        specs += expand_grid(["saxpy"], ["small"],
                             [TransferMode.STANDARD], iterations=2)
        specs += expand_grid(["vector_seq"], ["small"],
                             [TransferMode.STANDARD], iterations=2,
                             blocks=64, threads=256)
        fabric = make_root(tmp_path, specs)
        FabricWorker(fabric, "w1").run()
        commits = [e["node"] for e in fabric.journal().events()
                   if e["event"] == "commit"]
        # Starts at node 0 (first claimable), drains its group (0, 1),
        # then jumps the saxpy nodes (2, 3) to finish the vector_seq
        # family's other thread point (4, 5) first.
        assert commits == [0, 1, 4, 5, 2, 3]


class TestStragglerRedispatch:
    def test_straggler_is_redispatched_and_fenced(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs, lease_s=5.0,
                           straggler_min_s=0.2,
                           straggler_min_samples=2)
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0],
                                  kind=faults.KIND_LEASE_STALL,
                                  attempts=(1,), hang_s=30.0),))
        with faults.inject(plan):
            coordinator = Coordinator(fabric, workers=2, spawn="thread",
                                      monitor_s=0.05)
            outcome = coordinator.run(timeout_s=60.0)
        assert outcome.complete
        assert coordinator.stats.redispatches >= 1
        events = fabric.journal().events()
        redispatches = [e for e in events if e["event"] == "redispatch"]
        assert any(e["node"] == 0 for e in redispatches)
        commits = [e for e in events if e["event"] == "commit"
                   and e["node"] == 0]
        assert len(commits) == 1
        assert commits[0]["token"] > 1  # the speculative claim won
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                               engine="vector").run_outcomes(specs)
        assert records(outcome) == records(serial)

    def test_straggler_detection_uses_group_median(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs, lease_s=60.0)
        dag = fabric.load_dag()
        journal = fabric.journal()
        leases = fabric.leases()
        # Three committed nodes at ~10ms runtime, one leased for ages.
        for node_id in (1, 2, 3):
            journal.append_event("commit", node=node_id, worker="w1",
                                 token=1, runtime_s=0.01)
        lease = leases.claim(0, "w2", 60.0)
        state = reduce_state(dag, journal.events(), leases.all_leases(),
                             60.0)
        state.now = lease.acquired_ts + 10.0  # elapsed >> 4 x median
        found = straggler_nodes(dag, state, straggler_factor=4.0,
                                straggler_min_s=0.1, min_samples=3)
        assert found == [(0, lease.token)]
        # Under min_samples there is no baseline: nothing straggles.
        assert straggler_nodes(dag, state, min_samples=5) == []


class TestFleet:
    def test_thread_fleet_matches_serial(self, tmp_path):
        specs = small_grid(iterations=3, workloads=("vector_seq", "saxpy"))
        outcome = run_fabric(
            specs, tmp_path / "fab", workers=3, spawn="thread",
            meta=FabricMeta(engine="vector", lease_s=2.0, poll_s=0.005),
            timeout_s=120.0)
        assert outcome.complete
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                               engine="vector").run_outcomes(specs)
        assert records(outcome) == records(serial)
        stats = outcome.fabric_stats
        assert stats.workers_spawned == 3
        assert stats.elapsed_s > 0

    def test_crashed_thread_is_replaced_not_multiplied(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs, lease_s=0.3)
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0],
                                  kind=faults.KIND_WORKER_CRASH,
                                  attempts=(1,)),))
        coordinator = Coordinator(fabric, workers=2, spawn="thread",
                                  monitor_s=0.02)
        with faults.inject(plan):
            outcome = coordinator.run(timeout_s=60.0)
        assert outcome.complete
        stats = coordinator.stats
        assert stats.workers_respawned >= 1
        assert stats.workers_spawned == 2 + stats.workers_respawned
        # A respawned worker replaces its dead handle: the fleet keeps
        # its size instead of gaining a worker on every monitor pass.
        assert len(coordinator._handles) == 2

    def test_one_commit_event_per_node(self, tmp_path):
        specs = small_grid(iterations=3)
        fabric = make_root(tmp_path, specs, lease_s=2.0)
        Coordinator(fabric, workers=3, spawn="thread",
                    monitor_s=0.05).run(timeout_s=60.0)
        commits = [e["node"] for e in fabric.journal().events()
                   if e["event"] == "commit"]
        assert sorted(commits) == sorted(set(commits))
        assert len(commits) == len(specs)

    def test_no_dangling_lease_after_completion(self, tmp_path):
        specs = small_grid(iterations=2)
        fabric = make_root(tmp_path, specs, lease_s=2.0)
        Coordinator(fabric, workers=2, spawn="thread",
                    monitor_s=0.05).run(timeout_s=60.0)
        assert fabric.leases().all_leases() == {}

    def test_fabric_root_refuses_a_different_sweep(self, tmp_path):
        specs = small_grid()
        make_root(tmp_path, specs)
        with pytest.raises(ValueError, match="different"):
            FabricRoot.init(tmp_path / "fab",
                            compile_grid(specs[:3]))

    def test_stale_engine_in_meta_fails_once_at_start(self, tmp_path):
        """A root whose meta.json names a retired engine is refused
        when the fleet starts, not node by node inside its workers."""
        specs = small_grid()
        fabric = make_root(tmp_path, specs)
        fabric.meta_path.write_text(
            fabric.meta_path.read_text().replace('"vector"', '"fast"'))
        with pytest.raises(ValueError, match="unknown engine 'fast'"):
            fabric.load_meta()
        with pytest.raises(ValueError, match="unknown engine 'fast'"):
            run_fabric(fabric.load_dag(), fabric.root, workers=1,
                       spawn="thread")

    def test_rerun_on_same_root_replays_from_cache(self, tmp_path):
        specs = small_grid()
        fabric = make_root(tmp_path, specs)
        FabricWorker(fabric, "w1").run()
        first = Coordinator(fabric, workers=1, spawn="thread").collect()
        # A second fleet on the same root finds every node committed.
        worker = FabricWorker(fabric, "w2")
        assert worker.run() == 0
        second = Coordinator(fabric, workers=1, spawn="thread").collect()
        assert records(first) == records(second)


class TestStateReducer:
    def test_status_render_shows_redispatch_and_heartbeats(self, tmp_path):
        from repro.fabric import render_status
        specs = small_grid()
        fabric = make_root(tmp_path, specs, lease_s=60.0)
        journal = fabric.journal()
        lease = fabric.leases().claim(0, "w1", 60.0)
        journal.append_event("claim", node=0, worker="w1",
                             token=lease.token)
        journal.append_event("redispatch", node=0, token=lease.token)
        text = render_status(fabric.root)
        assert "speculative re-dispatches: 1" in text
        assert "n0" in text
        assert "w1" in text
        assert "[re-dispatched]" in text
        assert "leased" in text

    def test_ready_vs_pending_vs_leased(self, tmp_path):
        specs = small_grid(iterations=2)
        fabric = make_root(tmp_path, specs,
                           compiler=compile_size_search_grid)
        dag = fabric.load_dag()
        journal = fabric.journal()
        leases = fabric.leases()
        state = reduce_state(dag, journal.events(), leases.all_leases(),
                             30.0)
        assert state.nodes[0].status == READY  # the probe
        assert all(state.nodes[n.node_id].status == "pending"
                   for n in dag if n.parents)
        lease = leases.claim(0, "w1", 30.0)
        journal.append_event("claim", node=0, worker="w1",
                             token=lease.token)
        state = reduce_state(dag, journal.events(), leases.all_leases(),
                             30.0)
        assert state.nodes[0].status == LEASED
        assert state.heartbeat_ages()["w1"] < 30.0
        journal.append_event("commit", node=0, worker="w1",
                             token=lease.token, runtime_s=0.01)
        leases.release(lease)
        state = reduce_state(dag, journal.events(), leases.all_leases(),
                             30.0)
        assert state.nodes[0].status == COMMITTED
        assert all(state.nodes[n.node_id].status == READY
                   for n in dag if n.parents)

    def test_collect_orders_by_run_index(self, tmp_path):
        specs = small_grid(iterations=2)
        fabric = make_root(tmp_path, specs,
                           compiler=compile_sensitivity_grid)
        FabricWorker(fabric, "w1").run()
        outcome = Coordinator(fabric, workers=1,
                              spawn="thread").collect()
        assert [o.index for o in outcome] == list(range(len(specs)))
        assert [o.spec for o in outcome] == list(specs)


class TestDuplicateCommit:
    def test_double_publish_one_store_one_duplicate(self, tmp_path):
        """Two workers finishing the same spec: one entry, one store."""
        specs = small_grid(iterations=1)
        fabric = make_root(tmp_path, specs)
        worker = FabricWorker(fabric, "w1")
        spec = specs[0]
        from repro.harness.executor import cache_key, execute_spec
        key = cache_key(spec)
        result = execute_spec(spec, engine="vector")
        cache = fabric.cache()
        assert cache.put(key, result) is True
        assert cache.put(key, result) is False  # zombie's late publish
        assert cache.stats.stores == 1
        assert cache.stats.duplicates == 1
        entry = run_to_record(cache.get(key), with_counters=True)
        assert entry == run_to_record(result, with_counters=True)
        assert worker._cache_get(spec, key) is not None


class TestCommitFence:
    def test_steal_between_check_and_commit_commits_once(self, tmp_path):
        """Both holders pass the fence check: the zombie's check passes,
        then a steal lands and the stealer commits first. The commit
        marker admits one of them, so the node gets one commit event
        and the zombie journals ``fenced``."""
        specs = small_grid(iterations=1)
        fabric = make_root(tmp_path, specs)
        zombie = FabricWorker(fabric, "w1")
        commit = zombie.leases.commit
        stolen_nodes = []

        def steal_then_commit(lease):
            if not stolen_nodes:
                rescuer = FabricWorker(fabric, "w2")
                stolen = rescuer.leases.claim(
                    lease.node_id, "w2", rescuer.meta.lease_s,
                    beyond_token=lease.token)
                assert stolen is not None and stolen.token > lease.token
                rescuer._run_node(rescuer.dag[lease.node_id], stolen)
                stolen_nodes.append(lease.node_id)
            return commit(lease)

        zombie.leases.commit = steal_then_commit
        zombie.run()
        [node_id] = stolen_nodes
        events = fabric.journal().events()
        commits = [e for e in events if e["event"] == "commit"]
        assert sorted(e["node"] for e in commits) == list(range(len(
            zombie.dag)))
        [stolen_commit] = [e for e in commits if e["node"] == node_id]
        assert stolen_commit["worker"] == "w2"
        assert [e["worker"] for e in events if e["event"] == "fenced"
                and e["node"] == node_id] == ["w1"]

    def test_crash_between_commit_and_journal_does_not_block_node(
            self, tmp_path):
        """A worker killed after taking the commit marker but before
        its journal ``commit`` record leaves a marker with no commit.
        The next claim over its expired lease clears it, so the sweep
        completes with one commit per node."""
        specs = small_grid(iterations=2)
        fabric = make_root(tmp_path, specs, lease_s=0.05)
        victim = FabricWorker(fabric, "w1")

        def crash(key, result):
            raise WorkerCrashed("inline SIGKILL after the commit marker")

        victim.cache.put = crash
        with pytest.raises(WorkerCrashed):
            victim.run()
        assert fabric.leases().committer(0) == 1
        time.sleep(0.08)  # the victim's lease expires
        rescuer = FabricWorker(fabric, "w2")
        rescuer.run(deadline_s=30.0)
        state = rescuer.snapshot()
        assert state.complete
        assert state.nodes[0].committed_by == "w2"
        events = fabric.journal().events()
        commits = [e["node"] for e in events if e["event"] == "commit"]
        assert sorted(commits) == list(range(len(specs)))
        [reclaim] = [e for e in events if e["event"] == "reclaim"]
        assert (reclaim["node"], reclaim["committer"],
                reclaim["token"]) == (0, 1, 2)
        assert not [e for e in events if e["event"] == "fenced"]
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                               engine="vector").run_outcomes(specs)
        outcome = Coordinator(fabric, workers=1, spawn="thread").collect()
        assert records(outcome) == records(serial)

    def test_journaled_commit_keeps_its_marker(self, tmp_path):
        """A claimant acting on a snapshot taken before a node's commit
        claims the released node, finds the commit in the journal,
        keeps the marker and is fenced."""
        specs = small_grid(iterations=1)
        fabric = make_root(tmp_path, specs)
        FabricWorker(fabric, "w1").run()
        late = FabricWorker(fabric, "w2")
        lease = late.leases.claim(0, "w2", late.meta.lease_s)
        assert lease is not None and lease.token == 2
        late._reclaim_commit(lease)
        assert late.leases.committer(0) == 1
        late._run_node(late.dag[0], lease)
        events = fabric.journal().events()
        assert [e["worker"] for e in events
                if e["event"] == "commit" and e["node"] == 0] == ["w1"]
        assert [e["worker"] for e in events
                if e["event"] == "fenced" and e["node"] == 0] == ["w2"]
        assert not [e for e in events if e["event"] == "reclaim"]
