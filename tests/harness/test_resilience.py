"""Resilient-execution battery: isolation, retry, timeout, crash,
journal/resume, interruption, and the end-to-end chaos acceptance run.

Everything here is deterministic: faults come from a declarative
:class:`~repro.harness.faults.FaultPlan` keyed on spec coordinates and
attempt numbers, and retry jitter is seeded from each spec's own seed
stream — so the battery replays bit-identically serial or pooled.
"""

import json

import pytest

from repro.core.configs import ALL_MODES
from repro.harness import faults
from repro.harness.executor import (ResultCache, RunSpec, SweepExecutor,
                                    expand_grid)
from repro.harness.resilience import (RetryPolicy, SpecOutcome, SpecStatus,
                                      SweepFailure, SweepInterrupted,
                                      SweepJournal, SweepOutcome,
                                      describe_spec)
from repro.harness.store import run_to_record
from repro.workloads.sizes import SizeClass

GRID = dict(workloads=("vector_seq", "saxpy"), sizes=(SizeClass.TINY,),
            modes=ALL_MODES, iterations=3)  # 30 specs


def serialize(runs):
    return [json.dumps(run_to_record(run, with_counters=True),
                       sort_keys=True) if run is not None else None
            for run in runs]


def fail_fault(spec, attempts=()):
    return faults.Fault.for_spec(spec, kind=faults.KIND_FAIL,
                                 attempts=attempts)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def specs():
    return expand_grid(**GRID)


@pytest.fixture(scope="module")
def clean_results(specs):
    return SweepExecutor(jobs=1).run(specs)


FAST = RetryPolicy(retries=0, backoff_s=0.0)
FAST_RETRY = RetryPolicy(retries=2, backoff_s=0.0)


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestIsolation:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_failure_does_not_abort_the_sweep(self, specs,
                                                  clean_results, jobs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[7]),))
        executor = SweepExecutor(jobs=jobs, retry=FAST)
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs)
        assert not outcome.complete
        assert outcome.outcomes[7].status is SpecStatus.FAILED
        assert "InjectedFault" in outcome.outcomes[7].error
        assert outcome.outcomes[7].traceback  # full worker traceback kept
        survivors = [run for index, run in enumerate(outcome.results)
                     if index != 7]
        expected = [run for index, run in enumerate(clean_results)
                    if index != 7]
        assert serialize(survivors) == serialize(expected)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_worker_exception_detail_reaches_the_outcome(self, specs, jobs):
        """The worker's exception, traceback included, reaches the
        outcome, serial or pooled."""
        plan = faults.FaultPlan(faults=(fail_fault(specs[0]),))
        executor = SweepExecutor(jobs=jobs, retry=FAST)
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:5])
        failed = outcome.outcomes[0]
        assert failed.status is SpecStatus.FAILED
        assert "injected failure" in failed.error
        assert "InjectedFault" in failed.traceback
        assert executor.last.failed == 1

    def test_results_keep_spec_order_with_gaps(self, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[2]),
                                        fail_fault(specs[9])))
        executor = SweepExecutor(jobs=4, retry=FAST)
        with faults.inject(plan):
            results = executor.run_outcomes(specs[:12]).results
        assert results[2] is None and results[9] is None
        for index, run in enumerate(results):
            if run is None:
                continue
            spec = specs[index]
            assert (run.workload, run.size, run.mode, run.seed) == \
                (spec.workload, spec.size, spec.mode, spec.iteration)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(retries=-1), dict(backoff_s=-0.1), dict(backoff_factor=0.5),
        dict(jitter=1.5), dict(timeout_s=0.0), dict(max_crashes=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_max_attempts(self):
        assert RetryPolicy().max_attempts == 1
        assert RetryPolicy(retries=3).max_attempts == 4

    def test_delay_is_deterministic_per_spec(self, specs):
        policy = RetryPolicy(retries=3, backoff_s=0.1)
        for attempt in (1, 2, 3):
            assert policy.delay_s(specs[0], attempt) == \
                policy.delay_s(specs[0], attempt)
        # different specs draw different jitter from their own streams
        assert policy.delay_s(specs[0], 1) != policy.delay_s(specs[1], 1)

    def test_backoff_grows_exponentially_without_jitter(self, specs):
        policy = RetryPolicy(retries=3, backoff_s=0.1, jitter=0.0)
        assert policy.delay_s(specs[0], 1) == pytest.approx(0.1)
        assert policy.delay_s(specs[0], 2) == pytest.approx(0.2)
        assert policy.delay_s(specs[0], 3) == pytest.approx(0.4)

    def test_jitter_stays_within_band(self, specs):
        policy = RetryPolicy(retries=5, backoff_s=0.1, jitter=0.25)
        for spec in specs[:10]:
            delay = policy.delay_s(spec, 1)
            assert 0.075 <= delay <= 0.125

    def test_zero_backoff_means_no_sleep(self, specs):
        assert RetryPolicy(backoff_s=0.0).delay_s(specs[0], 1) == 0.0


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_transient_failure_recovered(self, specs, clean_results, jobs):
        plan = faults.FaultPlan(
            faults=(fail_fault(specs[3], attempts=(1, 2)),))
        executor = SweepExecutor(jobs=jobs, retry=FAST_RETRY)
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs)
        assert outcome.complete
        assert outcome.outcomes[3].attempts == 3
        assert executor.last.retries == 2
        # retried attempts are bit-identical to never-failed runs
        assert serialize(outcome.results) == serialize(clean_results)

    def test_permanent_failure_exhausts_attempts(self, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[0]),))
        executor = SweepExecutor(jobs=1, retry=FAST_RETRY)
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:2])
        assert outcome.outcomes[0].status is SpecStatus.FAILED
        assert outcome.outcomes[0].attempts == FAST_RETRY.max_attempts
        assert executor.last.retries == FAST_RETRY.retries


# ----------------------------------------------------------------------
# Strict mode
# ----------------------------------------------------------------------
class TestStrict:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_strict_raises_at_first_permanent_failure(self, specs, jobs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[4]),))
        executor = SweepExecutor(jobs=jobs, retry=FAST, strict=True)
        with faults.inject(plan):
            with pytest.raises(SweepFailure) as excinfo:
                executor.run_outcomes(specs)
        assert excinfo.value.outcome.status is SpecStatus.FAILED
        assert excinfo.value.partial is not None
        assert describe_spec(specs[4]) in str(excinfo.value)

    def test_legacy_run_facade_is_strict(self, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[0]),))
        with faults.inject(plan):
            with pytest.raises(SweepFailure):
                SweepExecutor(jobs=1, retry=FAST).run(specs[:3])

    def test_strict_argument_overrides_executor_default(self, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[0]),))
        executor = SweepExecutor(jobs=1, retry=FAST, strict=True)
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:3], strict=False)
        assert not outcome.complete  # tolerated despite executor default


# ----------------------------------------------------------------------
# Timeouts and worker crashes (pooled sweeps)
# ----------------------------------------------------------------------
class TestProcessBackendChaos:
    def test_hung_worker_is_killed_and_retried(self, specs, clean_results):
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[1], kind=faults.KIND_HANG,
                                  attempts=(1,), hang_s=30.0),))
        executor = SweepExecutor(
            jobs=2,
            retry=RetryPolicy(retries=1, backoff_s=0.0, timeout_s=1.0))
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:4])
        assert outcome.complete
        assert outcome.outcomes[1].attempts == 2
        assert serialize(outcome.results) == serialize(clean_results[:4])

    def test_permanent_hang_times_out(self, specs):
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[1], kind=faults.KIND_HANG,
                                  attempts=(), hang_s=30.0),))
        executor = SweepExecutor(
            jobs=2,
            retry=RetryPolicy(retries=0, backoff_s=0.0, timeout_s=1.0))
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:4])
        hung = outcome.outcomes[1]
        assert hung.status is SpecStatus.TIMED_OUT
        assert "wall-clock budget" in hung.error
        assert [o.status for o in outcome.outcomes].count(SpecStatus.OK) == 3

    def test_worker_crash_is_quarantined_as_poison(self, specs,
                                                   clean_results):
        """Satellite (d): a SIGKILLed worker mid-spec does not take the
        sweep down; the poison spec is quarantined after max_crashes."""
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[2], kind=faults.KIND_CRASH,
                                  attempts=()),))
        executor = SweepExecutor(
            jobs=2,
            retry=RetryPolicy(retries=0, backoff_s=0.0, max_crashes=2))
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs[:6])
        poisoned = outcome.outcomes[2]
        assert poisoned.status is SpecStatus.FAILED
        assert "poison" in poisoned.error
        assert poisoned.crashes >= 2
        assert executor.last.crashes >= 2
        survivors = [r for i, r in enumerate(outcome.results) if i != 2]
        expected = [r for i, r in enumerate(clean_results[:6]) if i != 2]
        assert serialize(survivors) == serialize(expected)


# ----------------------------------------------------------------------
# Journal + resume
# ----------------------------------------------------------------------
class TestJournalResume:
    def make_executor(self, tmp_path, **kwargs):
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal.beside(cache.root)
        kwargs.setdefault("retry", FAST)
        return SweepExecutor(jobs=1, cache=cache, journal=journal, **kwargs)

    def test_journal_records_terminal_outcomes(self, tmp_path, specs):
        executor = self.make_executor(tmp_path)
        plan = faults.FaultPlan(faults=(fail_fault(specs[1]),))
        with faults.inject(plan):
            executor.run_outcomes(specs[:4])
        entries = executor.journal.load()
        assert len(entries) == 4
        assert sorted(entries.values()) == ["failed", "ok", "ok", "ok"]
        assert executor.journal.failed_keys() == \
            {executor.key_for(specs[1]): "failed"}

    def test_resume_skips_journaled_failures_and_replays_cache(
            self, tmp_path, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[1]),))
        first = self.make_executor(tmp_path)
        with faults.inject(plan):
            cold = first.run_outcomes(specs[:5])
        resumed = self.make_executor(tmp_path, resume=True)
        warm = resumed.run_outcomes(specs[:5])  # no plan: fault is gone
        # the journaled failure is skipped, not re-attempted
        assert warm.outcomes[1].status is SpecStatus.SKIPPED
        assert "journaled failed" in warm.outcomes[1].error
        # everything else replays bit-identically from the cache
        assert resumed.last.executed == 0
        assert resumed.last.cache_hits == 4
        assert serialize(warm.results) == serialize(cold.results)

    def test_fresh_sweep_clears_stale_journal(self, tmp_path, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[1]),))
        first = self.make_executor(tmp_path)
        with faults.inject(plan):
            first.run_outcomes(specs[:3])
        assert first.journal.failed_keys()
        second = self.make_executor(tmp_path)  # resume=False (default)
        outcome = second.run_outcomes(specs[:3])  # fault cleared
        assert outcome.complete  # the failed cell was re-attempted
        assert not second.journal.failed_keys()

    def test_journal_tolerates_torn_tail(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record("aaaa", SpecStatus.OK, attempts=1)
        journal.record("bbbb", SpecStatus.FAILED, error="boom")
        with journal.path.open("a") as stream:
            stream.write('{"key": "cccc", "status"')  # SIGKILL mid-write
        assert journal.load() == {"aaaa": "ok", "bbbb": "failed"}
        assert journal.failed_keys() == {"bbbb": "failed"}

    def test_later_journal_lines_win(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record("aaaa", SpecStatus.FAILED, error="flaky")
        journal.record("aaaa", SpecStatus.OK, attempts=2)
        assert journal.failed_keys() == {}


# ----------------------------------------------------------------------
# Interruption (Ctrl-C / SIGTERM)
# ----------------------------------------------------------------------
class TestInterruption:
    def test_interrupt_flushes_journal_and_carries_partial(
            self, tmp_path, specs, monkeypatch):
        import repro.harness.executor as executor_module
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, cache=cache,
                                 journal=SweepJournal.beside(cache.root))
        real_entry = executor_module._execute_entry
        target = specs[3]
        fired = []

        def interrupting_entry(entry):
            if entry[0] == target and not fired:
                fired.append(True)  # one-shot: the resumed run is clean
                raise KeyboardInterrupt
            return real_entry(entry)

        monkeypatch.setattr(executor_module, "_execute_entry",
                            interrupting_entry)
        with pytest.raises(SweepInterrupted) as excinfo:
            executor.run_outcomes(specs[:6])
        partial = excinfo.value.partial
        assert sum(1 for o in partial.outcomes if o.ok) == 3
        # finished cells were journaled + cached before the interrupt,
        # so a resumed sweep replays them without re-executing
        assert len(executor.journal) == 3
        resumed = SweepExecutor(jobs=1, cache=ResultCache(cache.root),
                                journal=SweepJournal.beside(cache.root),
                                resume=True)
        outcome = resumed.run_outcomes(specs[:6])
        assert outcome.complete
        assert resumed.last.cache_hits == 3
        assert resumed.last.executed == 3


# ----------------------------------------------------------------------
# Cache corruption
# ----------------------------------------------------------------------
class TestCorruptCache:
    def test_torn_write_is_quarantined_and_reexecuted(self, tmp_path,
                                                      specs,
                                                      clean_results):
        cache = ResultCache(tmp_path / "cache")
        plan = faults.FaultPlan(faults=(
            faults.Fault.for_spec(specs[0],
                                  kind=faults.KIND_CORRUPT_CACHE),))
        executor = SweepExecutor(jobs=1, cache=cache)
        with faults.inject(plan):
            executor.run_outcomes(specs[:3])  # writes a torn record
        warm = SweepExecutor(jobs=1, cache=cache)
        outcome = warm.run_outcomes(specs[:3])
        assert outcome.complete
        assert cache.stats.corrupt == 1
        assert warm.last.cache_hits == 2 and warm.last.executed == 1
        # the broken record was moved aside, then a clean one published
        key = warm.key_for(specs[0])
        assert cache.path_for(key).with_suffix(".corrupt").exists()
        assert serialize(outcome.results) == serialize(clean_results[:3])


# ----------------------------------------------------------------------
# Outcome bookkeeping
# ----------------------------------------------------------------------
class TestOutcomeReporting:
    def test_failure_summary_counts_and_limits(self, specs):
        outcome = SweepOutcome(outcomes=[
            SpecOutcome(spec=specs[i], index=i,
                        status=(SpecStatus.FAILED if i < 12
                                else SpecStatus.OK),
                        error="boom" if i < 12 else None)
            for i in range(15)])
        summary = outcome.failure_summary(limit=10)
        assert "12 of 15 specs missing" in summary
        assert "12 failed" in summary
        assert "... and 2 more" in summary
        assert outcome.counts()["failed"] == 12

    def test_complete_outcome_has_empty_summary(self, specs):
        outcome = SweepOutcome(outcomes=[
            SpecOutcome(spec=specs[0], index=0, status=SpecStatus.OK)])
        assert outcome.complete
        assert outcome.failure_summary() == ""

    def test_stats_summary_mentions_failures(self, specs):
        plan = faults.FaultPlan(faults=(fail_fault(specs[0]),))
        executor = SweepExecutor(jobs=1, retry=RetryPolicy(retries=1,
                                                           backoff_s=0.0))
        with faults.inject(plan):
            executor.run_outcomes(specs[:3])
        summary = executor.summary()
        assert "1 failed" in summary
        assert "1 retries" in summary


# ----------------------------------------------------------------------
# Chaos acceptance: the ISSUE's end-to-end scenario
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosAcceptance:
    def test_30_spec_sweep_survives_3_failures_and_a_crash(
            self, tmp_path, specs, clean_results):
        """30 specs, 3 injected permanent failures, plus 1 crashing
        worker: the other 26 complete, and a --resume replay is
        bit-identical without re-executing anything."""
        assert len(specs) == 30
        doomed = (4, 13, 22)
        crasher = 8
        plan = faults.FaultPlan(faults=tuple(
            [fail_fault(specs[i]) for i in doomed]
            + [faults.Fault.for_spec(specs[crasher],
                                     kind=faults.KIND_CRASH,
                                     attempts=())]))
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(
            jobs=2, cache=cache,
            journal=SweepJournal.beside(cache.root),
            retry=RetryPolicy(retries=1, backoff_s=0.0, max_crashes=2))
        with faults.inject(plan):
            outcome = executor.run_outcomes(specs)

        counts = outcome.counts()
        assert counts["ok"] == 26
        assert counts["failed"] == 4  # 3 injected + the crasher
        for index in doomed:
            assert outcome.outcomes[index].attempts == 2  # retried once
        assert "poison" in outcome.outcomes[crasher].error
        assert executor.last.crashes >= 2
        survivors = [r for i, r in enumerate(outcome.results)
                     if i not in (*doomed, crasher)]
        expected = [r for i, r in enumerate(clean_results)
                    if i not in (*doomed, crasher)]
        assert serialize(survivors) == serialize(expected)

        # --resume: journaled failures are skipped, the 26 completed
        # cells replay from cache, results bit-identical, 0 executed.
        resumed = SweepExecutor(
            jobs=2, cache=ResultCache(cache.root),
            journal=SweepJournal.beside(cache.root), resume=True)
        with faults.inject(plan):
            replay = resumed.run_outcomes(specs)
        assert resumed.last.executed == 0
        assert resumed.last.cache_hits == 26
        assert serialize(replay.results) == serialize(outcome.results)
        for index in (*doomed, crasher):
            assert replay.outcomes[index].status is SpecStatus.SKIPPED


# ----------------------------------------------------------------------
# Journal compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def _journal(self, tmp_path):
        return SweepJournal(tmp_path / "journal.jsonl")

    def _spec(self):
        return RunSpec(workload="vector_seq", size="tiny",
                       mode="standard", iteration=0)

    def test_latest_key_record_survives(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = self._spec()
        journal.record("k1", SpecStatus.FAILED, spec, attempts=1,
                       error="boom")
        journal.record("k1", SpecStatus.OK, spec, attempts=2)
        journal.record("k2", SpecStatus.FAILED, spec, attempts=3,
                       error="dead")
        view_before = journal.load()
        stats = journal.compact()
        assert stats.records_before == 3
        assert stats.records_after == 2
        assert stats.dropped == 1
        assert journal.load() == view_before
        assert journal.load() == {"k1": "ok", "k2": "failed"}

    def test_first_commit_wins_duplicates_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_event("commit", node=0, worker="w1", token=1,
                             runtime_s=0.5)
        journal.append_event("commit", node=0, worker="w2", token=2,
                             runtime_s=0.7)  # zombie's late duplicate
        journal.compact()
        commits = [e for e in journal.events() if e["event"] == "commit"]
        assert len(commits) == 1
        assert commits[0]["worker"] == "w1"
        assert commits[0]["token"] == 1

    def test_ephemeral_chatter_folds_behind_commit(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_event("claim", node=0, worker="w1", token=1)
        for _ in range(20):
            journal.append_event("renew", node=0, worker="w1", token=1)
        journal.append_event("commit", node=0, worker="w1", token=1,
                             runtime_s=0.1)
        # An *uncommitted* node keeps its latest chatter and abandons.
        journal.append_event("claim", node=1, worker="w2", token=1)
        journal.append_event("renew", node=1, worker="w2", token=1)
        journal.append_event("renew", node=1, worker="w2", token=1)
        journal.append_event("abandon", node=1, worker="w2", token=1)
        journal.append_event("claim", node=1, worker="w3", token=2)
        stats = journal.compact()
        events = journal.events()
        node0 = [e for e in events if e.get("node") == 0]
        assert [e["event"] for e in node0] == ["commit"]
        node1 = [e["event"] for e in events if e.get("node") == 1]
        assert node1.count("abandon") == 1  # abandons always kept
        assert node1.count("claim") == 1    # only the latest claim
        assert node1.count("renew") == 1    # only the latest renew
        assert stats.records_after < stats.records_before

    def test_torn_tail_salvaged_during_compaction(self, tmp_path,
                                                  caplog):
        import logging

        journal = self._journal(tmp_path)
        spec = self._spec()
        journal.record("k1", SpecStatus.OK, spec, attempts=1)
        with journal.path.open("a") as stream:
            stream.write('{"key": "k2", "status": "fai')  # torn append
        with caplog.at_level(logging.WARNING):
            stats = journal.compact()
        assert stats.salvaged == 1
        assert "truncated final line" in caplog.text
        # The rewrite is fully decodable; the torn line is gone.
        for line in journal.path.read_text().splitlines():
            json.loads(line)
        assert journal.load() == {"k1": "ok"}
        assert journal.last_salvaged == 0  # clean after the rewrite

    def test_compaction_is_idempotent(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = self._spec()
        journal.record("k1", SpecStatus.OK, spec, attempts=2)
        journal.record("k1", SpecStatus.OK, spec, attempts=1)
        journal.append_event("claim", node=0, worker="w1", token=1)
        journal.append_event("commit", node=0, worker="w1", token=1)
        journal.compact()
        first = journal.path.read_text()
        second_stats = journal.compact()
        assert journal.path.read_text() == first
        assert second_stats.dropped == 0
        assert second_stats.records_before == second_stats.records_after

    def test_missing_journal_is_a_noop(self, tmp_path):
        journal = self._journal(tmp_path)
        stats = journal.compact()
        assert stats.records_before == 0
        assert stats.bytes_before == 0
        assert not journal.path.exists()

    def test_no_tmp_file_left_behind(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record("k1", SpecStatus.OK, self._spec(), attempts=1)
        journal.compact()
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]

    def test_summary_mentions_shrink(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = self._spec()
        journal.record("k1", SpecStatus.FAILED, spec, attempts=1,
                       error="x")
        journal.record("k1", SpecStatus.OK, spec, attempts=2)
        stats = journal.compact()
        text = stats.summary()
        assert "2 -> 1 records" in text
        assert "salvaged" in text
