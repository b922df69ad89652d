"""CLI surface of the fabric: ``repro fabric run|worker|status`` and
``repro sweep --compact-journal``."""

import pytest

from repro.cli import main
from repro.fabric import FabricMeta, FabricRoot, compile_grid
from repro.harness.executor import ResultCache, SweepExecutor, expand_grid
from repro.harness.resilience import SweepJournal
from repro.harness.store import run_to_record


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.out + captured.err
    return captured.out


class TestFabricRun:
    def test_run_completes_and_reports(self, capsys, tmp_path):
        root = tmp_path / "fab"
        out = run_cli(capsys, "fabric", "run", "vector_seq",
                      "--sizes", "small", "--iterations", "2",
                      "--root", str(root), "--workers", "2",
                      "--lease", "2.0")
        assert "[fabric]" in out
        assert "COMPLETE" in out
        assert "workers" in out
        fabric = FabricRoot(root)
        events = fabric.journal().events()
        commits = [e for e in events if e["event"] == "commit"]
        assert len(commits) == fabric.load_dag().run_count

    def test_run_matches_serial_sweep(self, capsys, tmp_path):
        specs = expand_grid(["vector_seq"], ["small"], iterations=2)
        run_cli(capsys, "fabric", "run", "vector_seq",
                "--sizes", "small", "--iterations", "2",
                "--root", str(tmp_path / "fab"), "--workers", "2")
        fabric = FabricRoot(tmp_path / "fab")
        cache = fabric.cache()
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                               engine="vector").run_outcomes(specs)
        for outcome in serial:
            entry = run_to_record(cache.get(outcome.key),
                                  with_counters=True)
            assert entry == run_to_record(outcome.result,
                                          with_counters=True)

    def test_run_rejects_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fabric", "run", "banana",
                  "--root", str(tmp_path / "fab")])

    def test_structure_flag_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fabric", "run", "vector_seq", "--root",
                  str(tmp_path / "fab"), "--structure", "banana"])


class TestFabricWorkerStatus:
    def fabric(self, tmp_path):
        specs = expand_grid(["vector_seq"], ["small"], iterations=2)
        return FabricRoot.init(
            tmp_path / "fab", compile_grid(specs),
            meta=FabricMeta(engine="vector", lease_s=30.0))

    def test_worker_command_drains_root(self, capsys, tmp_path):
        fabric = self.fabric(tmp_path)
        out = run_cli(capsys, "fabric", "worker",
                      "--root", str(fabric.root), "--id", "cli-w1")
        assert "committed" in out
        status = run_cli(capsys, "fabric", "status",
                         "--root", str(fabric.root))
        assert "COMPLETE" in status
        assert "committed" in status

    def test_status_on_untouched_root(self, capsys, tmp_path):
        fabric = self.fabric(tmp_path)
        out = run_cli(capsys, "fabric", "status",
                      "--root", str(fabric.root))
        assert "ready" in out
        assert "0/" in out.replace(" ", "")

    def test_status_without_root_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fabric", "status", "--root",
                  str(tmp_path / "missing")])

    def test_worker_max_nodes(self, capsys, tmp_path):
        fabric = self.fabric(tmp_path)
        run_cli(capsys, "fabric", "worker", "--root", str(fabric.root),
                "--id", "w1", "--max-nodes", "1")
        status = run_cli(capsys, "fabric", "status",
                         "--root", str(fabric.root))
        assert "1/" in status.replace(" ", "")


class TestCompactJournalCLI:
    def test_compact_shrinks_and_preserves_resume_view(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        cache_root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_root))
        run_cli(capsys, "sweep", "vector_seq", "--sizes", "small",
                "--iterations", "2")
        journal = SweepJournal.beside(cache_root)
        # Bloat the journal with dead fabric chatter behind a commit.
        journal.append_event("commit", node=0, worker="w1", token=1,
                             runtime_s=0.01)
        for _ in range(25):
            journal.append_event("renew", node=0, worker="w1", token=1)
        before = journal.path.stat().st_size
        view_before = journal.load()
        out = run_cli(capsys, "sweep", "--compact-journal")
        assert "journal compacted" in out
        assert journal.path.stat().st_size < before
        assert journal.load() == view_before
        assert len([e for e in journal.events()
                    if e["event"] == "renew"]) == 0

    def test_compact_without_journal_is_a_noop(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
        out = run_cli(capsys, "sweep", "--compact-journal")
        assert "nothing to compact" in out

    def test_compact_rejects_no_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit, match="result cache"):
            main(["sweep", "--compact-journal", "--no-cache"])
