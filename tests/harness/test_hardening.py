"""Hardening satellites of the service PR.

Covers: the ``delay`` / ``flaky_io`` fault kinds, the executor's
flaky-read retry, the quarantine-race fix in
:class:`~repro.harness.executor.ResultCache`, the durable journal with
explicit torn-tail salvage, the ``isolate`` crash-containment flag,
and the :class:`~repro.harness.executor.WorkerPool` that keeps process
workers alive across sweeps.
"""

import json
import logging
import os
import time

import pytest

from repro.harness import faults
from repro.harness.executor import (ResultCache, RunSpec, SweepExecutor,
                                    WorkerPool)
from repro.harness.resilience import (RetryPolicy, SpecOutcome, SpecStatus,
                                      SweepJournal)
from repro.harness.store import run_to_record

FAST = RetryPolicy(retries=0, backoff_s=0.0)


def spec_for(iteration=0, workload="saxpy", size="tiny", mode="standard"):
    return RunSpec(workload=workload, size=size, mode=mode,
                   iteration=iteration)


def serialize(run):
    return json.dumps(run_to_record(run, with_counters=True),
                      sort_keys=True)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# delay faults
# ----------------------------------------------------------------------
class TestDelayFault:
    def test_delay_sleeps_then_runs_normally(self):
        spec = spec_for(workload="vector_seq")
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_DELAY,
                                  attempts=(1,), delay_s=0.08),)))
        executor = SweepExecutor(jobs=1, retry=FAST)
        started = time.perf_counter()
        outcome = executor.run_outcomes([spec])
        elapsed = time.perf_counter() - started
        assert outcome.complete
        assert elapsed >= 0.08  # the spec ran, but slowly

    def test_delayed_result_is_bit_identical(self):
        spec = spec_for(workload="vector_seq")
        clean = SweepExecutor(jobs=1, retry=FAST).run([spec])
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_DELAY,
                                  attempts=(), delay_s=0.01),)))
        slow = SweepExecutor(jobs=1, retry=FAST).run([spec])
        assert serialize(clean[0]) == serialize(slow[0])

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay_s"):
            faults.Fault(kind=faults.KIND_DELAY, workload="saxpy",
                         size="tiny", mode="standard", delay_s=-0.1)

    def test_json_roundtrip_carries_delay(self):
        plan = faults.FaultPlan(faults=(
            faults.Fault(kind=faults.KIND_DELAY, workload="saxpy",
                         size="tiny", mode="standard", delay_s=0.7),))
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_json_without_delay_field_defaults(self):
        # Pre-upgrade payloads (no delay_s key) must still parse.
        payload = json.dumps([{
            "kind": faults.KIND_FAIL, "workload": "saxpy",
            "size": "tiny", "mode": "standard", "iteration": 0,
            "attempts": [1], "hang_s": 30.0}])
        plan = faults.FaultPlan.from_json(payload)
        assert plan.faults[0].delay_s == 0.05


# ----------------------------------------------------------------------
# flaky_io faults + the executor's read retry
# ----------------------------------------------------------------------
class TestFlakyIOFault:
    def test_injected_error_is_an_oserror(self):
        assert issubclass(faults.InjectedIOError, OSError)

    def test_fires_on_scheduled_read_counts(self):
        spec = spec_for()
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=(2,)),)))
        faults.maybe_flaky_io(spec)  # read 1: fine
        with pytest.raises(faults.InjectedIOError):
            faults.maybe_flaky_io(spec)  # read 2: scheduled failure
        faults.maybe_flaky_io(spec)  # read 3: fine again

    def test_empty_attempts_means_every_read_fails(self):
        spec = spec_for()
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=()),)))
        for _ in range(3):
            with pytest.raises(faults.InjectedIOError):
                faults.maybe_flaky_io(spec)

    def test_other_specs_unaffected(self):
        spec = spec_for()
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=()),)))
        faults.maybe_flaky_io(spec_for(iteration=5))  # no raise

    def test_maybe_fire_ignores_flaky_io(self):
        spec = spec_for()
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=()),)))
        faults.maybe_fire(spec, 1)  # execution path: no raise

    def test_install_resets_read_counters(self):
        spec = spec_for()
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=(1,)),))
        faults.install(plan)
        with pytest.raises(faults.InjectedIOError):
            faults.maybe_flaky_io(spec)
        faults.install(plan)  # fresh battery, fresh counters
        with pytest.raises(faults.InjectedIOError):
            faults.maybe_flaky_io(spec)


class TestFlakyReadRetry:
    def _warm(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        first = SweepExecutor(jobs=1, cache=cache, retry=FAST).run([spec])
        return cache, serialize(first[0])

    def test_transient_error_still_served_from_cache(self, tmp_path):
        spec = spec_for(workload="vector_seq")
        cache, baseline = self._warm(tmp_path, spec)
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=(1,)),)))
        executor = SweepExecutor(jobs=1, cache=cache, retry=FAST)
        outcome = executor.run_outcomes([spec])
        assert outcome.outcomes[0].from_cache  # one retry absorbed it
        assert serialize(outcome.outcomes[0].result) == baseline

    def test_permanent_error_degrades_to_recompute(self, tmp_path):
        spec = spec_for(workload="vector_seq")
        cache, baseline = self._warm(tmp_path, spec)
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_FLAKY_IO,
                                  attempts=()),)))
        executor = SweepExecutor(jobs=1, cache=cache, retry=FAST)
        outcome = executor.run_outcomes([spec])
        assert outcome.complete
        assert not outcome.outcomes[0].from_cache  # degraded to a miss
        # ... but determinism makes the recomputed result identical.
        assert serialize(outcome.outcomes[0].result) == baseline


# ----------------------------------------------------------------------
# quarantine race (ResultCache)
# ----------------------------------------------------------------------
class TestQuarantineRace:
    KEY = "ab" + "0" * 62

    def _corrupt_entry(self, root):
        cache = ResultCache(root)
        path = cache.path_for(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"torn":')
        return cache, path

    def test_winner_quarantines_and_counts(self, tmp_path):
        cache, path = self._corrupt_entry(tmp_path / "cache")
        assert cache.get(self.KEY) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_race_loser_counts_nothing(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path / "cache")

        def lose_the_race(_self, _target):
            raise FileNotFoundError("another reader renamed it first")

        monkeypatch.setattr(type(path), "replace", lose_the_race)
        assert cache.get(self.KEY) is None  # degrades to a miss
        assert cache.stats.corrupt == 0  # the *winner* counts, not us
        assert cache.stats.misses == 1

    def test_sequential_readers_count_once_total(self, tmp_path):
        root = tmp_path / "cache"
        first, _ = self._corrupt_entry(root)
        second = ResultCache(root)
        assert first.get(self.KEY) is None
        assert second.get(self.KEY) is None  # entry already moved aside
        assert first.stats.corrupt + second.stats.corrupt == 1

    def test_unlink_fallback_reports_win(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path / "cache")

        def cross_device(_self, _target):
            raise OSError("EXDEV: cross-device rename")

        monkeypatch.setattr(type(path), "replace", cross_device)
        assert cache.get(self.KEY) is None
        assert cache.stats.corrupt == 1  # unlinked instead; still a win
        assert not path.exists()


# ----------------------------------------------------------------------
# put races: first commit wins on the *write* path too
# ----------------------------------------------------------------------
class TestPutRace:
    """The PR-8 quarantine-race discipline, extended to ``put``."""

    def _run(self, workload="vector_seq"):
        spec = spec_for(workload=workload)
        return SweepExecutor(jobs=1, retry=FAST).run([spec])[0]

    def test_first_commit_wins(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run = self._run()
        key = "cd" + "0" * 62
        assert cache.put(key, run) is True
        assert cache.put(key, run) is False
        assert cache.stats.stores == 1
        assert cache.stats.duplicates == 1
        assert run_to_record(cache.get(key), with_counters=True) == \
            run_to_record(run, with_counters=True)

    def test_loser_never_rewrites_winner_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run = self._run()
        key = "cd" + "1" * 62
        cache.put(key, run)
        path = cache.path_for(key)
        stat_before = path.stat()
        time.sleep(0.02)
        cache.put(key, run)  # duplicate publish
        stat_after = path.stat()
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        assert stat_after.st_ino == stat_before.st_ino

    def test_threads_racing_put_commit_exactly_once(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path / "cache")
        run = self._run()
        key = "cd" + "2" * 62
        outcomes = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            outcomes.append(cache.put(key, run))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(True) == 1
        assert outcomes.count(False) == 7
        assert cache.stats.stores == 1
        assert cache.stats.duplicates == 7
        # The entry parses cleanly — no interleaved bytes.
        assert cache.get(key) is not None
        assert cache.stats.corrupt == 0

    def test_no_tmp_litter_after_races(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run = self._run()
        key = "cd" + "3" * 62
        for _ in range(3):
            cache.put(key, run)
        litter = [p for p in cache.path_for(key).parent.iterdir()
                  if p.name != cache.path_for(key).name]
        assert litter == []

    def test_no_hardlink_fallback_still_atomic(self, tmp_path,
                                               monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        run = self._run()
        key = "cd" + "4" * 62

        def no_links(_src, _dst):
            raise OSError("EPERM: filesystem without hard links")

        monkeypatch.setattr(os, "link", no_links)
        assert cache.put(key, run) is True  # degrades to rename
        assert cache.stats.stores == 1
        assert run_to_record(cache.get(key), with_counters=True) == \
            run_to_record(run, with_counters=True)


    def test_chaos_tear_hits_one_key_of_a_pack(self, tmp_path):
        specs = [spec_for(iteration=i) for i in range(3)]
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, cache=cache, engine="vector",
                                 retry=FAST)
        runs = executor.run(specs)
        keys = [executor.key_for(spec) for spec in specs]
        assert len({cache.path_for(key).stat().st_ino for key in keys}) == 1
        plan = faults.FaultPlan(faults=(faults.Fault.for_spec(
            specs[1], kind=faults.KIND_CORRUPT_CACHE),))
        with faults.inject(plan):
            executor._settle(SpecOutcome(
                spec=specs[1], index=0, status=SpecStatus.OK,
                result=runs[1], attempts=1, key=keys[1]), journal=False)
        reader = ResultCache(cache.root)
        assert reader.get(keys[1]) is None
        assert reader.stats.corrupt == 1
        assert cache.path_for(keys[1]).with_suffix(".corrupt").exists()
        assert [serialize(reader.get(key)) for key in (keys[0], keys[2])] \
            == [serialize(runs[0]), serialize(runs[2])]
        assert reader.stats.hits == 2


# ----------------------------------------------------------------------
# durable journal + salvage
# ----------------------------------------------------------------------
class TestDurableJournal:
    def test_durable_fsyncs_every_record(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        journal = SweepJournal(tmp_path / "j.jsonl", durable=True)
        journal.record("k1", SpecStatus.OK)
        journal.record("k2", SpecStatus.FAILED, error="boom")
        assert len(synced) == 2

    def test_durable_record_many_fsyncs_once_per_call(self, tmp_path,
                                                      monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        journal = SweepJournal(tmp_path / "j.jsonl", durable=True)
        assert journal.record_many(
            [(f"k{i}", SpecStatus.OK) for i in range(5)]) == 5
        assert journal.record_many(
            [(f"j{i}", SpecStatus.OK) for i in range(3)]) == 3
        assert len(synced) == 2

    def test_record_many_appends_every_line_in_one_open(self, tmp_path,
                                                        monkeypatch):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("k0", SpecStatus.FAILED, error="boom")
        opened = []
        real_open = type(journal.path).open
        monkeypatch.setattr(type(journal.path), "open",
                            lambda path, *args, **kwargs: (
                                opened.append(path),
                                real_open(path, *args, **kwargs))[1])
        spec = spec_for(iteration=4)
        assert journal.record_many(
            [(f"k{i}", SpecStatus.OK, spec, 1) for i in range(1, 5)]) == 4
        assert opened == [journal.path]
        monkeypatch.undo()
        assert len(journal.path.read_text().splitlines()) == 5
        entries = journal.latest_entries()
        assert journal.load() == {"k0": "failed", "k1": "ok", "k2": "ok",
                                  "k3": "ok", "k4": "ok"}
        assert entries["k3"]["spec"]["iteration"] == 4
        assert entries["k3"]["attempts"] == 1

    def test_default_journal_does_not_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("k1", SpecStatus.OK)
        assert not synced

    def test_beside_passes_durable_through(self, tmp_path):
        journal = SweepJournal.beside(tmp_path, durable=True)
        assert journal.durable
        assert not SweepJournal.beside(tmp_path).durable

    def test_accepts_string_statuses(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("k1", "pending")
        journal.record("k2", SpecStatus.OK)
        assert journal.load() == {"k1": "pending", "k2": "ok"}
        assert journal.failed_keys() == {}  # pending is not terminal

    def test_spec_payload_carries_full_coordinates(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        spec = RunSpec(workload="vector_seq", size="tiny",
                       mode="standard", iteration=3, base_seed=77,
                       blocks=4, threads=128, seed_salt=":sweep")
        journal.record("k1", "pending", spec=spec)
        payload = journal.latest_entries()["k1"]["spec"]
        assert payload == {
            "workload": "vector_seq", "size": "tiny",
            "mode": "standard", "iteration": 3, "base_seed": 77,
            "blocks": 4, "threads": 128, "smem_carveout_bytes": None,
            "seed_salt": ":sweep"}


class TestJournalSalvage:
    def _line(self, key, status="ok"):
        return json.dumps({"key": key, "status": status}) + "\n"

    def test_truncated_final_line_salvaged_with_warning(self, tmp_path,
                                                        caplog):
        path = tmp_path / "j.jsonl"
        path.write_text(self._line("k1") + self._line("k2")
                        + '{"key": "k3", "sta')  # torn mid-append
        journal = SweepJournal(path)
        with caplog.at_level(logging.WARNING,
                             logger="repro.harness.resilience"):
            loaded = journal.load()
        assert loaded == {"k1": "ok", "k2": "ok"}
        assert journal.last_salvaged == 1
        assert "truncated final line" in caplog.text

    def test_midfile_corruption_flagged_as_bit_rot(self, tmp_path,
                                                   caplog):
        path = tmp_path / "j.jsonl"
        path.write_text(self._line("k1") + "garbage not json\n"
                        + self._line("k2"))
        journal = SweepJournal(path)
        with caplog.at_level(logging.WARNING,
                             logger="repro.harness.resilience"):
            loaded = journal.load()
        assert loaded == {"k1": "ok", "k2": "ok"}
        assert journal.last_salvaged == 1
        assert "bit rot" in caplog.text
        assert "line 2" in caplog.text

    def test_clean_file_salvages_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(self._line("k1") + self._line("k2", "failed"))
        journal = SweepJournal(path)
        assert len(journal.load()) == 2
        assert journal.last_salvaged == 0

    def test_missing_file_loads_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl")
        assert journal.latest_entries() == {}
        assert journal.last_salvaged == 0


# ----------------------------------------------------------------------
# isolate: crash containment for single-spec dispatch
# ----------------------------------------------------------------------
class TestIsolate:
    def test_default_stays_inline(self):
        assert SweepExecutor(jobs=1).isolate is False

    def test_single_crash_spec_cannot_kill_coordinator(self, tmp_path):
        # Without isolate, a jobs=1 single-spec sweep runs *inline*: a
        # crash fault would SIGKILL this very process. isolate=True is
        # the service's containment contract — the spec is quarantined,
        # the coordinator survives.
        spec = spec_for(workload="vector_seq")
        faults.install(faults.FaultPlan(faults=(
            faults.Fault.for_spec(spec, kind=faults.KIND_CRASH,
                                  attempts=()),)))
        executor = SweepExecutor(
            jobs=1, isolate=True,
            retry=RetryPolicy(retries=0, backoff_s=0.0, max_crashes=2))
        outcome = executor.run_outcomes([spec], strict=False)
        assert outcome.outcomes[0].status is SpecStatus.FAILED
        assert "quarantined" in (outcome.outcomes[0].error or "")


# ----------------------------------------------------------------------
# WorkerPool: one live pool reused across sweeps
# ----------------------------------------------------------------------
class TestWorkerPool:
    @staticmethod
    def isolated(pool, **retry):
        return SweepExecutor(
            jobs=1, isolate=True, pool=pool,
            retry=RetryPolicy(retries=0, backoff_s=0.0, **retry))

    def test_sweeps_reuse_one_pool(self):
        pool = WorkerPool()
        try:
            pids = []
            for iteration in range(3):
                spec = spec_for(iteration)
                outcome = self.isolated(pool).run_outcomes([spec])
                assert serialize(outcome.results[0]) == serialize(
                    SweepExecutor(jobs=1).run([spec])[0])
                pids.append(pool.pids())
            assert pool.spawns == 1
            assert pids[0] == pids[1] == pids[2]
        finally:
            pool.close()

    def test_one_crash_replaces_the_pool_once(self):
        poison = spec_for(1)
        pool = WorkerPool()
        try:
            self.isolated(pool).run_outcomes([spec_for(0)])
            assert pool.spawns == 1
            faults.install(faults.FaultPlan(faults=(
                faults.Fault.for_spec(poison, kind=faults.KIND_CRASH,
                                      attempts=()),)))
            executor = self.isolated(pool, max_crashes=1)
            outcome = executor.run_outcomes([poison, spec_for(2)])
            assert executor.last.crashes == 1
            assert "quarantined" in outcome.outcomes[0].error
            assert outcome.outcomes[1].ok
            assert pool.spawns == 2
            faults.clear()
            self.isolated(pool).run_outcomes([spec_for(3)])
            assert pool.spawns == 2
        finally:
            pool.close()

    def test_closed_pool_hands_out_nothing(self):
        pool = WorkerPool()
        pool.get(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.get(1)
