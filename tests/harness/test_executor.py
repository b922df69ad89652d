"""Determinism battery for the parallel sweep executor.

The executor's contract: serial, pooled and warm-cache replays of the
same spec list all produce byte-identical serialized RunResults, in
spec order.
"""

import json
import shutil
import threading
import time

import pytest

from repro.core.configs import ALL_MODES, TransferMode
from repro.core.experiment import Experiment
from repro.harness import faults
from repro.harness.executor import (CacheStats, ResultCache, RunSpec,
                                    SweepExecutor, WorkerPool,
                                    collect_comparisons, collect_runsets,
                                    expand_grid)
# Aliased: pyproject collects `bench_*` callables as tests.
from repro.harness.resilience import RetryPolicy, SweepJournal
from repro.harness.sensitivity import sweep_specs
from repro.harness.store import run_to_record
from repro.sim.calibration import default_calibration
from repro.sim.hardware import default_system
from repro.workloads.registry import MICRO_NAMES
from repro.workloads.sizes import SizeClass

GRID = dict(workloads=("vector_seq", "saxpy"),
            sizes=(SizeClass.TINY, SizeClass.SMALL),
            modes=ALL_MODES, iterations=3)


def serialize(runs):
    """Canonical byte-level serialization of a result sequence."""
    return [json.dumps(run_to_record(run, with_counters=True),
                       sort_keys=True) for run in runs]


@pytest.fixture(scope="module")
def specs():
    return expand_grid(**GRID)


@pytest.fixture(scope="module")
def serial_results(specs):
    return SweepExecutor(jobs=1).run(specs)


class TestParallelDeterminism:
    def test_process_pool_matches_serial(self, specs, serial_results):
        results = SweepExecutor(jobs=4).run(specs)
        assert serialize(results) == serialize(serial_results)

    def test_pooled_vector_sweep_fuses_in_the_coordinator(self,
                                                          monkeypatch):
        """jobs=2 replays fig. 12's whole vector grid in this process:
        every spec is grid-replayed and no worker pool is built."""
        specs = sweep_specs("fig12", iterations=30)
        serial = SweepExecutor(jobs=1, engine="vector").run(specs)

        def refuse(pool, workers):
            raise AssertionError("a fully fused sweep built a worker pool")

        monkeypatch.setattr(WorkerPool, "get", refuse)
        executor = SweepExecutor(jobs=2, engine="vector")
        pooled = executor.run(specs)
        assert executor.last.grid_specs == executor.last.total == len(specs)
        assert serialize(pooled) == serialize(serial)

    def test_pooled_sweep_under_a_fault_plan_sends_every_spec(self):
        """A fault must meet its spec in a worker, so a pooled sweep
        under a plan replays no grid (and reports none)."""
        specs = sweep_specs("fig12", iterations=2)
        serial = SweepExecutor(jobs=1, engine="vector").run(specs)
        plan = faults.FaultPlan(faults=(faults.Fault.for_spec(
            specs[5], kind=faults.KIND_FAIL, attempts=(1,)),))
        executor = SweepExecutor(
            jobs=2, engine="vector",
            retry=RetryPolicy(retries=1, backoff_s=0.0))
        with faults.inject(plan):
            pooled = executor.run(specs)
        assert executor.last.grid_specs == 0
        # The fault keys on (workload, size, mode, iteration), which
        # the grid's six thread points share: each fails once.
        assert executor.last.retries == 6
        assert serialize(pooled) == serialize(serial)

    def test_matches_experiment_runner(self):
        """The executor is bit-identical to the classic Experiment."""
        experiment = Experiment(workload="saxpy", size=SizeClass.SMALL,
                                iterations=3)
        old = experiment.run_mode(TransferMode.UVM_PREFETCH)
        specs = expand_grid(("saxpy",), (SizeClass.SMALL,),
                            (TransferMode.UVM_PREFETCH,), iterations=3)
        new = SweepExecutor(jobs=4).run(specs)
        assert serialize(new) == serialize(old.runs)

    def test_results_in_spec_order(self, specs, serial_results):
        for spec, run in zip(specs, serial_results):
            assert (run.workload, run.size, run.mode, run.seed) == \
                (spec.workload, spec.size, spec.mode, spec.iteration)


class TestCache:
    def test_replay_equals_cold(self, tmp_path, specs, serial_results):
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=2, cache=cache)
        cold = executor.run(specs)
        assert executor.last.cache_hits == 0
        assert executor.last.executed == len(specs)
        warm = executor.run(specs)
        assert executor.last.cache_hits == len(specs)
        assert executor.last.executed == 0
        assert serialize(cold) == serialize(warm) == serialize(serial_results)

    def test_counters_survive_the_cache(self, tmp_path):
        """Fig. 9/10 payloads replay exactly from cache."""
        spec = RunSpec(workload="gemm", size="small",
                       mode=TransferMode.ASYNC)
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        cold = executor.run([spec])[0]
        warm = executor.run([spec])[0]
        assert warm.counters.instructions == cold.counters.instructions
        assert warm.counters.mean_miss_rates() == \
            cold.counters.mean_miss_rates()
        assert [k.kernel_name for k in warm.counters.kernels] == \
            [k.kernel_name for k in cold.counters.kernels]

    def test_hit_miss_stats(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run(specs)
        assert cache.stats.misses == len(specs)
        assert cache.stats.stores == len(specs)
        executor.run(specs)
        assert cache.stats.hits == len(specs)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == len(specs)

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        spec = RunSpec(workload="saxpy", size="tiny",
                       mode=TransferMode.STANDARD)
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        first = executor.run([spec])[0]
        key = executor.key_for(spec)
        cache.path_for(key).write_text("{torn record")
        again = executor.run([spec])[0]
        assert serialize([first]) == serialize([again])
        # and the corrupt entry was repaired in place
        assert serialize([cache.get(key)]) == serialize([first])

    def test_clear(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run(specs[:5])
        assert cache.clear() == 5
        assert len(cache) == 0

    def test_stats_reset(self):
        stats = CacheStats(hits=3, misses=1, stores=1)
        stats.reset()
        assert stats.lookups == 0 and stats.hit_rate == 0.0


PACK_GRID = dict(workloads=("gemm",), sizes=(SizeClass.TINY,),
                 modes=(TransferMode.STANDARD, TransferMode.ASYNC),
                 iterations=3)


class TestPacks:
    """One pack file per sweep family, one hard link per key."""

    @pytest.fixture(scope="class")
    def family(self):
        """Three iterations of one family, and one run of another."""
        specs = expand_grid(**PACK_GRID)
        runs = SweepExecutor(jobs=1, engine="vector").run(specs)
        return runs[:3], runs[3]

    @staticmethod
    def keys(count, tag="e"):
        return [f"{index:02x}" + tag * 62 for index in range(count)]

    def test_family_keys_share_one_inode(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache, engine="vector")
        specs = expand_grid(**PACK_GRID)
        executor.run(specs)
        stats = [cache.path_for(executor.key_for(spec)).stat()
                 for spec in specs]
        for family in (stats[:3], stats[3:]):
            assert len({st.st_ino for st in family}) == 1
            assert all(st.st_nlink == 3 for st in family)
        assert stats[0].st_ino != stats[3].st_ino
        assert cache.stats.stores == len(specs) == len(cache)

    def test_partly_published_family_counts_one_duplicate(self, tmp_path,
                                                          family):
        runs, _ = family
        keys = self.keys(3)
        ResultCache(tmp_path).put(keys[1], runs[1])
        before = ResultCache(tmp_path).path_for(keys[1]).stat()
        time.sleep(0.02)
        cache = ResultCache(tmp_path)
        assert cache.put_many(zip(keys, runs)) == 2
        assert cache.stats.stores == 2
        assert cache.stats.duplicates == 1
        after = cache.path_for(keys[1]).stat()
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)
        assert cache.path_for(keys[0]).stat().st_ino == \
            cache.path_for(keys[2]).stat().st_ino != after.st_ino
        assert serialize(cache.get(key) for key in keys) == serialize(runs)

    def test_vanished_directories_are_remade(self, tmp_path, family):
        runs, _ = family
        keys = self.keys(2)
        cache = ResultCache(tmp_path / "cache")
        assert cache.put(keys[0], runs[0]) is True
        shutil.rmtree(cache.root)  # cleared from outside mid-sweep
        assert cache.put_many(zip(keys, runs)) == 2
        assert serialize(cache.get(key) for key in keys) == \
            serialize(runs[:2])

    def test_memo_never_serves_stale_entries(self, tmp_path, family):
        runs, other = family
        keys = self.keys(3)
        cache = ResultCache(tmp_path)
        cache.put_many(zip(keys, runs))
        assert serialize([cache.get(keys[0])]) == serialize(runs[:1])
        # A sibling torn as a fresh file quarantines; the memoized pack
        # is never served in its place.
        torn = cache.path_for(keys[1])
        torn.unlink()
        torn.write_text('{"torn":')
        assert cache.get(keys[1]) is None
        assert cache.stats.corrupt == 1
        assert cache.get(keys[1]) is None  # quarantined: a plain miss
        assert cache.stats.corrupt == 1
        # An entry replaced by another pack serves the new record.
        cache.path_for(keys[2]).unlink()
        assert cache.put(keys[2], other) is True
        assert serialize([cache.get(keys[2])]) == serialize([other])
        assert serialize([cache.get(keys[0])]) == serialize(runs[:1])

    def test_pack_hits_share_one_counter_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache, engine="vector")
        specs = expand_grid(**PACK_GRID)[:3]
        executor.run(specs)
        reader = ResultCache(tmp_path)
        warm = [reader.get(executor.key_for(spec)) for spec in specs]
        assert warm[0].counters.kernels
        assert warm[0].counters is warm[1].counters is warm[2].counters
        fresh = SweepExecutor(jobs=1, engine="vector").run(specs)
        assert serialize(warm) == serialize(fresh)

    def test_threads_racing_overlapping_families_commit_once(self, tmp_path,
                                                             family):
        runs, other = family
        items = list(zip(self.keys(4), [*runs, other]))
        families = [items[:3], items[1:], items[::2], items] * 2
        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(len(families))
        committed = []

        def racer(batch):
            barrier.wait()
            committed.append(cache.put_many(batch))

        threads = [threading.Thread(target=racer, args=(batch,))
                   for batch in families]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(committed) == len(items)
        reader = ResultCache(tmp_path)
        assert serialize(reader.get(key) for key, _ in items) == \
            serialize(run for _, run in items)
        assert reader.stats.corrupt == 0
        assert not list(tmp_path.glob(".*.tmp"))


class TestPublishPaths:
    """A cold sweep publishes alike on both settle paths: the grid's
    bulk settle (``vector``) and the per-spec serial loop
    (``reference``) each write one pack and one journal append per
    family, under the same entry names and journal lines."""

    def publish(self, root, engine, monkeypatch):
        appends = []
        record_many = SweepJournal.record_many

        def counting(journal, items):
            items = list(items)
            appends.append([item[0] for item in items])
            return record_many(journal, items)

        cache = ResultCache(root)
        executor = SweepExecutor(jobs=1, cache=cache, engine=engine,
                                 journal=SweepJournal(root / "journal"))
        specs = expand_grid(**PACK_GRID)
        with monkeypatch.context() as patch:
            patch.setattr(SweepJournal, "record_many", counting)
            executor.run(specs)
        families = [[executor.key_for(spec) for spec in specs[:3]],
                    [executor.key_for(spec) for spec in specs[3:]]]
        inodes = [{cache.path_for(key).stat().st_ino for key in family}
                  for family in families]
        assert [len(family) for family in inodes] == [1, 1]
        assert inodes[0] != inodes[1]
        assert appends == families
        names = sorted(str(path.relative_to(root))
                       for path in root.rglob("*") if path.is_file())
        lines = [json.loads(line) for line in
                 (root / "journal").read_text().splitlines()]
        for line in lines:
            del line["ts"]
        return executor.last, names, lines

    def test_bulk_settle_and_serial_publish_alike(self, tmp_path,
                                                  monkeypatch):
        vector, names, lines = self.publish(tmp_path / "vector", "vector",
                                            monkeypatch)
        reference, *published = self.publish(tmp_path / "reference",
                                             "reference", monkeypatch)
        assert vector.grid_specs == vector.total
        assert reference.grid_specs == 0
        assert published == [names, lines]


class TestInvalidation:
    SPEC = RunSpec(workload="vector_seq", size="tiny",
                   mode=TransferMode.UVM)

    def test_hardware_change_invalidates(self):
        base = SweepExecutor()
        shrunk = SweepExecutor(
            system=default_system().with_gpu(hbm_bytes=16 * 1024 ** 3))
        assert base.key_for(self.SPEC) != shrunk.key_for(self.SPEC)

    def test_calibration_change_invalidates(self):
        import dataclasses
        calib = default_calibration()
        tweaked = dataclasses.replace(
            calib, kernel=dataclasses.replace(calib.kernel,
                                              launch_ns=9_999.0))
        assert SweepExecutor().key_for(self.SPEC) != \
            SweepExecutor(calib=tweaked).key_for(self.SPEC)

    def test_geometry_change_invalidates(self):
        import dataclasses
        base = SweepExecutor()
        other = dataclasses.replace(self.SPEC, blocks=64, threads=128)
        assert base.key_for(self.SPEC) != base.key_for(other)


class TestExpandGrid:
    def test_nested_order(self):
        specs = expand_grid(("vector_seq",), (SizeClass.TINY,),
                            (TransferMode.STANDARD, TransferMode.UVM),
                            iterations=2)
        flat = [(s.mode, s.iteration) for s in specs]
        assert flat == [(TransferMode.STANDARD, 0),
                        (TransferMode.STANDARD, 1),
                        (TransferMode.UVM, 0), (TransferMode.UVM, 1)]

    def test_skips_unsupported_cells(self):
        # gemm declines Mega (explicit allocation exceeds HBM)
        specs = expand_grid(("gemm", "vector_seq"), (SizeClass.MEGA,),
                            (TransferMode.STANDARD,), iterations=1)
        assert [s.workload for s in specs] == ["vector_seq"]

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="iterations"):
            expand_grid(("saxpy",), (SizeClass.TINY,), iterations=0)
        with pytest.raises(ValueError, match="unknown size"):
            RunSpec(workload="saxpy", size="gigantic",
                    mode=TransferMode.UVM)
        with pytest.raises(ValueError, match="iteration"):
            RunSpec(workload="saxpy", size="tiny",
                    mode=TransferMode.UVM, iteration=-1)

    def test_mode_labels_accepted(self):
        spec = RunSpec(workload="saxpy", size="tiny", mode="uvm")
        assert spec.mode is TransferMode.UVM

    def test_geometry_requires_support(self):
        spec = RunSpec(workload="lud", size="tiny",
                       mode=TransferMode.STANDARD, blocks=32)
        with pytest.raises(ValueError, match="geometry"):
            spec.build_program()


class TestGrouping:
    def test_collect_runsets_preserves_grid_order(self, specs,
                                                  serial_results):
        grouped = collect_runsets(serial_results)
        assert all(len(runs) == GRID["iterations"]
                   for runs in grouped.values())
        assert len(grouped) == 2 * 2 * len(ALL_MODES)

    def test_collect_comparisons_has_baseline(self, specs, serial_results):
        comparisons = collect_comparisons(serial_results)
        for comparison in comparisons.values():
            assert comparison.baseline().mode is TransferMode.STANDARD

    def test_executor_rejects_bad_backend(self):
        # Pooled sweeps have one worker kind; no option selects another.
        for backend in ("thread", "process"):
            with pytest.raises(TypeError, match="backend"):
                SweepExecutor(backend=backend)
        with pytest.raises(TypeError):
            WorkerPool("thread")


class TestWarmCacheCounters:
    def test_fig7_style_warm_sweep_executes_nothing(self, tmp_path,
                                                    monkeypatch):
        """Acceptance: a repeated fig7/fig8 sweep with a warm cache is
        served wholly from the cache — every spec a hit, none simulated
        — and returns exactly the cold results."""
        import repro.core.execution as execution_module
        import repro.harness.executor as executor_module
        specs = expand_grid(MICRO_NAMES, (SizeClass.SMALL,), ALL_MODES,
                            iterations=10, skip_unsupported=False)
        executor = SweepExecutor(cache=ResultCache(tmp_path / "cache"))
        cold = executor.run(specs)
        assert executor.last.executed == len(specs)

        def refuse(*_args, **_kwargs):
            raise AssertionError("warm pass simulated a spec")

        monkeypatch.setattr(executor_module, "_execute_entry", refuse)
        monkeypatch.setattr(executor_module, "execute_program", refuse)
        monkeypatch.setattr(execution_module, "execute_program", refuse)
        warm = executor.run(specs)
        assert executor.last.executed == 0
        assert executor.last.cache_hits == len(specs)
        assert serialize(warm) == serialize(cold)
