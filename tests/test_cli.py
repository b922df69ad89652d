"""CLI tests (``python -m repro``)."""

import re

import pytest

from repro.cli import (ARTIFACT_NAMES, COMMANDS, FABRIC_STRUCTURES,
                       _serve_config, build_parser, main)
from repro.core.execution import DEFAULT_ENGINE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestStaticCommands:
    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "vector_seq" in out
        assert "yolov3" in out

    def test_sizes(self, capsys):
        out = run_cli(capsys, "sizes")
        assert "Mega" in out

    def test_hardware(self, capsys):
        out = run_cli(capsys, "hardware")
        assert "A100" in out


class TestRunCommands:
    def test_run(self, capsys):
        out = run_cli(capsys, "run", "saxpy", "--size", "small",
                      "--iterations", "2", "--mode", "uvm")
        assert "gpu_kernel" in out
        assert "std/mean" in out

    def test_compare(self, capsys):
        out = run_cli(capsys, "compare", "saxpy", "--size", "small",
                      "--iterations", "2")
        assert "uvm_prefetch_async" in out
        assert "vs standard" in out

    def test_advise(self, capsys):
        out = run_cli(capsys, "advise", "nw")
        assert "recommended configuration" in out

    def test_interjob(self, capsys):
        out = run_cli(capsys, "interjob", "saxpy", "--size", "large",
                      "--jobs", "3", "--iterations", "2")
        assert "improvement" in out


class TestFigures:
    @pytest.mark.parametrize("figure", ["6", "9", "10", "13"])
    def test_figure_commands(self, capsys, figure):
        out = run_cli(capsys, "figure", figure, "--iterations", "2")
        assert out.strip()

    def test_unknown_figure_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "99", "--iterations", "2"])

    def test_figure_7a(self, capsys):
        out = run_cli(capsys, "figure", "7a", "--iterations", "2")
        assert "large" in out


class TestCounterFigureReplay:
    """Every figure renders the same bytes from a cold run, from the
    cache (each family pack decoded once, its counters shared) and
    uncached, at the paper's 30 runs a cell (one 30-member pack per
    family); the warm pass executes no spec.  Fig. 14 is an analytic model with no sweep: its three
    renders must agree all the same."""

    @pytest.mark.parametrize("figure", ["4", "5", "6", "7a", "7b", "8", "9",
                                        "10", "11", "12", "13", "14"])
    def test_cold_warm_and_uncached_identical(self, capsys, tmp_path,
                                              figure):
        argv = ("figure", figure, "--engine", "vector",
                "--iterations", "30", "--seed", "3")
        cache = ("--cache-dir", str(tmp_path / "cache"))

        def render(*extra):
            lines = run_cli(capsys, *argv, *extra).splitlines()
            summary = [line for line in lines if line.startswith("[sweep]")]
            table = [line for line in lines
                     if not line.startswith("[sweep]")]
            assert len(summary) == (0 if figure == "14" else 1)
            return table, "".join(summary)

        cold, cold_summary = render(*cache)
        warm, warm_summary = render(*cache)
        uncached, _ = render("--no-cache")
        if figure != "14":
            assert " 0 cache hits" in cold_summary
            assert " 0 executed" in warm_summary
        assert cold == warm == uncached


class TestSweep:
    def test_sweep_renders_comparison_and_summary(self, capsys, tmp_path):
        out = run_cli(capsys, "sweep", "saxpy", "vector_seq",
                      "--sizes", "tiny", "--iterations", "2",
                      "--cache-dir", str(tmp_path / "cache"))
        assert "sweep @ tiny" in out
        assert "geo-mean" in out
        assert "[sweep] 20 runs" in out
        assert "cache:" in out

    def test_sweep_warm_cache_reports_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                "--iterations", "2", "--cache-dir", cache_dir)
        out = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                      "--iterations", "2", "--cache-dir", cache_dir)
        assert "10 cache hits" in out
        assert "0 executed" in out

    def test_sweep_no_cache_and_jobs(self, capsys):
        out = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                      "--iterations", "2", "--no-cache", "--jobs", "2")
        assert "10 executed" in out
        assert "cache:" not in out

    def test_sweep_matches_compare_numbers(self, capsys):
        """The executor path reproduces the classic serial numbers."""
        sweep_out = run_cli(capsys, "sweep", "saxpy", "--sizes", "small",
                            "--iterations", "3", "--no-cache",
                            "--jobs", "4")
        compare_out = run_cli(capsys, "compare", "saxpy", "--size",
                              "small", "--iterations", "3")
        sweep_row = next(line for line in sweep_out.splitlines()
                         if line.startswith("saxpy"))
        normalized = sweep_row.split()[1:]
        for mode_label, value in zip(
                ("standard", "async", "uvm", "uvm_prefetch",
                 "uvm_prefetch_async"), normalized):
            compare_row = next(line for line in compare_out.splitlines()
                               if line.startswith(mode_label))
            assert value in compare_row

    def test_sweep_rejects_unknown_workload(self):
        with pytest.raises(SystemExit, match="quake3"):
            main(["sweep", "quake3", "--sizes", "tiny"])

    def test_figure_accepts_executor_flags(self, capsys, tmp_path):
        out = run_cli(capsys, "figure", "13", "--iterations", "2",
                      "--jobs", "2", "--cache-dir",
                      str(tmp_path / "cache"))
        assert "Fig. 13" in out
        assert "[sweep]" in out

    def test_sweep_fast_engine_matches_reference(self, capsys):
        """The default engine (the analytic fast path, ``vector``; the
        id predates the engine collapse and is kept stable) renders
        the exact same table as ``--engine reference`` and reports its
        memo accounting in the summary."""
        ref = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                      "--iterations", "2", "--no-cache",
                      "--engine", "reference")
        fast = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                       "--iterations", "2", "--no-cache")
        ref_table = [line for line in ref.splitlines()
                     if not line.startswith("[sweep]")]
        fast_table = [line for line in fast.splitlines()
                      if not line.startswith("[sweep]")]
        assert fast_table == ref_table
        assert f"{DEFAULT_ENGINE} engine" in fast
        assert "phase memo" in fast

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["sweep", "saxpy", "--sizes", "tiny",
                  "--engine", "warp"])

    @pytest.mark.parametrize("argv", [
        ["figure", "6", "--engine", "fast"],
        ["sweep", "saxpy", "--sizes", "tiny", "--engine", "fast"],
        ["serve", "--engine", "fast"],
        ["fabric", "run", "saxpy", "--root", "unused", "--engine", "fast"],
    ], ids=["figure", "sweep", "serve", "fabric-run"])
    def test_retired_fast_engine_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure", "6", "--backend", "thread"],
        ["sweep", "saxpy", "--sizes", "tiny", "--backend", "process"],
        ["serve", "--backend", "process"],
        ["serve", "--fabric-workers", "2"],
    ], ids=["figure", "sweep", "serve", "serve-fabric-workers"])
    def test_pool_kind_options_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_vector_engine_matches_reference(self, capsys):
        """--engine vector renders the exact same table and reports
        its grid-batching accounting in the summary."""
        ref = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                      "--iterations", "2", "--no-cache",
                      "--engine", "reference")
        vec = run_cli(capsys, "sweep", "saxpy", "--sizes", "tiny",
                      "--iterations", "2", "--no-cache",
                      "--engine", "vector")
        ref_table = [line for line in ref.splitlines()
                     if not line.startswith("[sweep]")]
        vec_table = [line for line in vec.splitlines()
                     if not line.startswith("[sweep]")]
        assert vec_table == ref_table
        assert "vector engine" in vec
        assert "phase memo" in vec
        assert "grid-replayed" in vec


class TestArtifact:
    def test_run_micro_shared(self, capsys):
        out = run_cli(capsys, "artifact", "run_micro_shared", "-i", "2")
        assert "figure13" in out

    def test_process_perf(self, capsys):
        out = run_cli(capsys, "artifact", "process_perf")
        assert "figure9" in out and "figure10" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake3"])

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "--check"]],
                             ids=["bench", "bench-check"])
    def test_deleted_bench_command_is_an_argparse_error(self, argv, capsys):
        """`repro bench` was deleted; perfbench is the timing harness."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_successive_mains_start_from_the_defaults(self, monkeypatch):
        """``main`` reuses one parser: an appended option of one call
        does not leak into the next."""
        seen = []
        monkeypatch.setitem(COMMANDS, "sweep",
                            lambda args: seen.append(args.sizes) or "")
        assert main(["sweep", "saxpy", "--sizes", "small",
                     "--sizes", "large"]) == 0
        assert main(["sweep", "saxpy"]) == 0
        assert seen == [["small", "large"], None]

    def test_literal_choices_match_the_registries(self):
        """The parser spells out these choices so that building it
        imports neither the fabric nor the artifact scripts; a new DAG
        structure or script must be added there too."""
        from repro.fabric.dag import STRUCTURES
        from repro.harness.artifact import ARTIFACT_SCRIPTS
        parser = build_parser()
        frun = parser.parse_args(["fabric", "run", "--root", "r"])
        assert frun.structure in STRUCTURES
        for structure in STRUCTURES:
            assert parser.parse_args(
                ["fabric", "run", "--root", "r", "--structure", structure]
            ).structure == structure
        for script in ARTIFACT_SCRIPTS:
            assert parser.parse_args(["artifact", script]).script == script
        assert FABRIC_STRUCTURES == tuple(STRUCTURES)
        assert ARTIFACT_NAMES == tuple(sorted(ARTIFACT_SCRIPTS))

    def test_serve_defaults_are_the_service_config(self):
        """``repro serve`` spells out ServiceConfig's and
        AdmissionLimits' defaults (building the parser imports no
        ``repro.service``); each must equal its field, and its help
        must state it."""
        from repro.service import ServiceConfig
        parser = build_parser()
        assert _serve_config(parser.parse_args(["serve"])) == ServiceConfig()
        serve = next(action for action in parser._actions
                     if action.dest == "command").choices["serve"]
        stated = 0
        for action in serve._actions:
            if action.dest == "help" or action.default is None \
                    or action.default is False:
                continue
            text = action.help % dict(vars(action), prog=serve.prog)
            assert re.search(rf"\(default: {re.escape(str(action.default))}"
                             r"[);]", text), (action.dest, text)
            stated += 1
        assert stated == 16


class TestRoofline:
    def test_roofline_subset(self, capsys):
        out = run_cli(capsys, "roofline", "lud", "gemm", "--size", "super")
        assert "staging" in out
        assert "compute" in out


class TestLint:
    """Exit-code contract: clean registry -> 0; injected structural
    error -> non-zero with machine-readable diagnostics."""

    def test_clean_registry_exits_zero(self, capsys):
        out = run_cli(capsys, "lint", "--min-severity", "warning")
        assert "0 error(s)" in out

    def test_json_format(self, capsys):
        import json
        out = run_cli(capsys, "lint", "vector_seq", "gemm",
                      "--format", "json")
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["contexts"] == 10  # 2 workloads x 5 modes
        assert payload["counts"]["error"] == 0

    def test_mode_subset(self, capsys):
        import json
        out = run_cli(capsys, "lint", "saxpy", "--mode", "uvm",
                      "--mode", "async", "--format", "json")
        assert json.loads(out)["contexts"] == 2

    def test_injected_error_exits_nonzero(self, capsys, monkeypatch):
        import json

        from repro.workloads.registry import get_workload

        real = get_workload("vector_seq")

        class BadWorkload:
            name = "vector_seq"

            @staticmethod
            def supports(size):
                return True

            @staticmethod
            def program(size):
                import dataclasses
                program = real.program(size)
                desc = dataclasses.replace(
                    program.phases[0].descriptor,
                    smem_static_bytes=200 * 1024)  # > 164 KiB device max
                phases = (dataclasses.replace(program.phases[0],
                                              descriptor=desc),)
                return dataclasses.replace(program, phases=phases)

        monkeypatch.setattr("repro.workloads.registry.get_workload",
                            lambda name: BadWorkload())
        code = main(["lint", "vector_seq", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["counts"]["error"] > 0
        assert {d["rule"] for d in payload["diagnostics"]
                if d["severity"] == "error"} == {"K101"}

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            main(["lint", "quake3"])


class TestResilienceFlags:
    """Exit-code contract of the resilient sweep path: 0 complete,
    3 partial (gaps annotated), 1 strict abort, 130 interrupted."""

    FIG6 = ("figure", "6", "--iterations", "4", "--no-cache")

    @staticmethod
    def fig6_fault(iteration, attempts=()):
        from repro.harness import faults
        return faults.FaultPlan(faults=(faults.Fault(
            kind=faults.KIND_FAIL, workload="vector_seq", size="mega",
            mode="standard", iteration=iteration, attempts=attempts),))

    def test_partial_figure_exits_3_with_annotated_gaps(self, capsys):
        from repro.harness import faults
        with faults.inject(self.fig6_fault(1)):
            code = main(list(self.FIG6))
        out = capsys.readouterr().out
        assert code == 3
        assert "[sweep] partial: 1 of 4" in out
        assert "vector_seq@mega standard#1: failed" in out
        assert "\n1    -" in out  # the failed run renders as a gap row

    def test_retries_recover_a_transient_fault(self, capsys):
        from repro.harness import faults
        with faults.inject(self.fig6_fault(1, attempts=(1,))):
            code = main([*self.FIG6, "--retries", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 retries" in out
        assert "partial" not in out

    def test_strict_aborts_with_exit_1(self, capsys):
        from repro.harness import faults
        with faults.inject(self.fig6_fault(1)):
            code = main([*self.FIG6, "--strict"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: vector_seq@mega standard#1: failed" in err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.harness.executor as executor_module

        def interrupt(entry):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_module, "_execute_entry", interrupt)
        # The vector engine serves fig. 6 from its grid replay, and
        # pool workers never see this process's patch: only the serial
        # per-spec path reaches the patched choke point.
        code = main([*self.FIG6, "--engine", "reference", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 130
        assert "--resume" in err  # points at the recovery path

    def test_resume_skips_journaled_failure(self, capsys, tmp_path):
        from repro.harness import faults
        cache_dir = str(tmp_path / "cache")
        with faults.inject(self.fig6_fault(1)):
            code = main(["figure", "6", "--iterations", "4",
                         "--cache-dir", cache_dir])
        assert code == 3
        capsys.readouterr()
        # fault cleared; --resume must skip the journaled failure and
        # replay the three completed cells from the cache
        code = main(["figure", "6", "--iterations", "4",
                     "--cache-dir", cache_dir, "--resume"])
        out = capsys.readouterr().out
        assert code == 3
        assert "3 cache hits" in out
        assert "0 executed" in out
        assert "skipped on resume (journaled failed)" in out

    def test_rerun_without_resume_retries_the_failure(self, capsys,
                                                      tmp_path):
        from repro.harness import faults
        cache_dir = str(tmp_path / "cache")
        with faults.inject(self.fig6_fault(1)):
            main(["figure", "6", "--iterations", "4",
                  "--cache-dir", cache_dir])
        capsys.readouterr()
        code = main(["figure", "6", "--iterations", "4",
                     "--cache-dir", cache_dir])  # no --resume, no fault
        out = capsys.readouterr().out
        assert code == 0
        assert "1 executed" in out  # only the failed cell reruns

    def test_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="positive integer"):
            main([*self.FIG6, "--jobs", "0"])

    def test_rejects_bad_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "three")
        with pytest.raises(SystemExit, match="REPRO_JOBS"):
            main(list(self.FIG6))

    def test_rejects_negative_retries(self):
        with pytest.raises(SystemExit, match="--retries"):
            main([*self.FIG6, "--retries", "-1"])

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(SystemExit, match="--timeout"):
            main([*self.FIG6, "--timeout", "0"])

    def test_resume_requires_the_cache(self):
        with pytest.raises(SystemExit, match="--resume needs"):
            main([*self.FIG6, "--resume"])
