"""Unit battery for the in-memory hot LRU result cache."""

import dataclasses
import threading

import pytest

from repro.core.configs import TransferMode
from repro.harness import executor as executor_module
from repro.harness.executor import (RunSpec, SweepExecutor, cache_key,
                                    environment_fingerprint, execute_spec)
from repro.harness.store import run_to_record
from repro.service import HotCache, ReproService, ServiceConfig
from repro.sim.counters import CounterReport


class TestBasics:
    def test_miss_then_store_then_hit(self):
        cache = HotCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", "run-1")
        assert cache.get("k1") == "run-1"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_len_and_contains(self):
        cache = HotCache(capacity=4)
        cache.put("k1", "run-1")
        assert len(cache) == 1
        assert "k1" in cache
        assert "k2" not in cache
        cache.clear()
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            HotCache(capacity=-1)


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = HotCache(capacity=2)
        cache.put("k1", "run-1")
        cache.put("k2", "run-2")
        assert cache.get("k1") == "run-1"  # freshen k1
        cache.put("k3", "run-3")  # evicts k2, the stale one
        assert "k2" not in cache
        assert cache.get("k1") == "run-1"
        assert cache.get("k3") == "run-3"
        assert cache.stats.evictions == 1

    def test_overwrite_freshens_without_eviction(self):
        cache = HotCache(capacity=2)
        cache.put("k1", "run-1")
        cache.put("k2", "run-2")
        cache.put("k1", "run-1b")  # overwrite, not a new entry
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put("k3", "run-3")  # now k2 is the LRU victim
        assert "k2" not in cache
        assert cache.get("k1") == "run-1b"

    def test_capacity_zero_disables_the_layer(self):
        cache = HotCache(capacity=0)
        cache.put("k1", "run-1")
        assert cache.get("k1") is None
        assert len(cache) == 0
        assert cache.stats.stores == 0


class TestThreadSafety:
    def test_concurrent_mixed_traffic_stays_consistent(self):
        cache = HotCache(capacity=32)

        def hammer(worker):
            for i in range(200):
                key = f"k{(worker * 7 + i) % 48}"
                cache.put(key, i)
                cache.get(key)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 32
        assert cache.stats.lookups == 800


class TestSharedCounters:
    """Entries of one sweep family share one counter report."""

    @staticmethod
    def family_runs(iterations=3, base_seed=1234):
        specs = [RunSpec(workload="vector_seq", size="tiny", mode="uvm",
                         iteration=i, base_seed=base_seed)
                 for i in range(iterations)]
        return [(spec, execute_spec(spec, engine="vector"))
                for spec in specs]

    def test_shared_report_is_value_equal_to_each_entrys_own(self):
        cache = HotCache(capacity=8)
        runs = self.family_runs()
        for spec, run in runs:
            cache.put(f"k{spec.iteration}", run, family=spec.family)
        stored = [cache.get(f"k{spec.iteration}") for spec, _ in runs]
        assert all(entry.counters is stored[0].counters
                   for entry in stored)
        for entry, (_, run) in zip(stored, runs):
            assert entry.counters == run.counters
            assert run_to_record(entry, with_counters=True) \
                == run_to_record(run, with_counters=True)

    def test_unequal_report_keeps_its_own(self):
        cache = HotCache(capacity=8)
        (spec, first), (other_spec, second) = self.family_runs(2)
        odd = dataclasses.replace(second, counters=CounterReport())
        cache.put("k0", first, family=spec.family)
        cache.put("k1", odd, family=other_spec.family)
        assert cache.get("k0").counters == first.counters
        assert cache.get("k1").counters == CounterReport()

    def test_evicting_a_family_frees_its_report(self):
        cache = HotCache(capacity=2)
        for seed in (1, 2, 3):
            (spec, run), = self.family_runs(1, base_seed=seed)
            cache.put(f"s{seed}", run, family=spec.family)
        assert len(cache) == 2
        assert len(cache._families) == 2
        cache.clear()
        assert not cache._families


class TestKeyMemo:
    def test_server_key_memo_stays_within_hot_capacity(self, tmp_path):
        service = ReproService(ServiceConfig(port=0, cache_dir=tmp_path,
                                             hot_capacity=8))
        specs = [RunSpec(workload="saxpy", size="tiny", mode="standard",
                         iteration=i) for i in range(20)]
        keys = service._keys_for(specs)
        assert len(service._key_memo) <= 8
        env = environment_fingerprint()
        assert keys == [cache_key(spec, env_fingerprint=env)
                        for spec in specs]
        assert service._keys_for(specs) == keys
        assert len(service._key_memo) <= 8

    def test_batch_executor_reuses_the_request_keys(self, tmp_path,
                                                    monkeypatch):
        service = ReproService(ServiceConfig(port=0, cache_dir=tmp_path))
        specs = RunSpec("saxpy", "tiny", TransferMode.STANDARD).members(
            range(6))
        # Warm the disk cache, so the batch below starts no worker.
        SweepExecutor(jobs=1, cache=service.disk_cache,
                      engine="vector").run(specs)
        keys = service._keys_for(specs)
        derived = []
        real = executor_module.family_keys
        monkeypatch.setattr(executor_module, "family_keys",
                            lambda batch, env: (derived.append(len(batch)),
                                                real(batch, env))[1])
        outcome = service._execute_batch(specs, "vector")
        assert derived == []
        assert [o.key for o in outcome.outcomes] == keys
        assert all(o.from_cache for o in outcome.outcomes)
