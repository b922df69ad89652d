"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiment workflow (and the artifact
appendix's ``run_*`` scripts, see :mod:`repro.harness.artifact`):

* ``list``     - the Table 2 suite
* ``sizes``    - the Table 3 size classes
* ``hardware`` - the Table 1 platform
* ``run``      - one workload under one configuration
* ``compare``  - one workload under all five configurations
* ``figure``   - regenerate a figure (4-14) as text
* ``sweep``    - a full comparison grid through the parallel,
  cache-backed executor (``--jobs N``, ``--no-cache``)
* ``advise``   - configuration recommendation for a workload
* ``interjob`` - the Sec. 6 inter-job pipeline estimate
* ``lint``     - statically validate workload programs (exit 1 on errors)
* ``serve``    - the sweep-as-a-service HTTP server (admission
  control, deadlines, graceful SIGTERM drain; see docs/SERVICE.md)
* ``fabric``   - the distributed sweep fabric: compile a grid to a
  spec DAG and run it across N crash-tolerant worker processes
  coordinated through a shared directory (see docs/FABRIC.md)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.configs import ALL_MODES, TransferMode
from .core.execution import DEFAULT_ENGINE, ENGINES
from .core.experiment import Experiment
from .harness.executor import (ResultCache, SweepExecutor, default_cache_dir,
                               default_jobs)
from .harness.resilience import (RetryPolicy, SweepFailure, SweepJournal)
from .harness.figures import (comparison_sweep, fig4_distributions,
                              fig5_stability, fig6_mega_breakdown,
                              fig7_micro, fig8_apps, fig9_instruction_mix,
                              fig10_cache_miss, geomean_improvements,
                              render_comparison, render_counters,
                              render_fig5, render_fig6)
from .harness.report import format_ns, render_table
from .harness.sensitivity import (blocks_sensitivity, carveout_sensitivity,
                                  normalized_sweep, render_sweep,
                                  threads_sensitivity)
from .workloads.registry import ALL_NAMES, get_workload
from .workloads.sizes import SizeClass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", default="super",
                        choices=[s.label for s in SizeClass.ordered()])
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Sweep-executor knobs shared by grid-running commands."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; do not read or write "
                             "the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/results)")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-run a failed cell up to N extra times "
                             "with exponential backoff (default: 0)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell wall-clock budget in seconds "
                             "(pooled sweeps only; hung workers are "
                             "killed and the cell retried or marked "
                             "timed-out)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells the journal recorded as "
                             "permanently failed in an earlier run "
                             "(completed cells replay from the cache); "
                             "requires the cache")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast: abort the sweep at the first "
                             "permanent cell failure (exit 1) instead of "
                             "rendering gaps (exit 3)")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=tuple(ENGINES),
                        help="simulation engine (bit-identical results, "
                             "see docs/PERFORMANCE.md): "
                             + "; ".join(f"'{name}' {spec.summary}"
                                         for name, spec in ENGINES.items()))


def _progress_printer():
    """Coarse progress lines on stderr (~10 ticks per sweep)."""
    def tick(done: int, total: int, spec) -> None:
        step = max(1, total // 10)
        if done % step == 0 or done == total:
            print(f"  [{done}/{total}] {spec.workload}@{spec.size} "
                  f"{spec.mode.value}", file=sys.stderr)
    return tick


def _executor_from_args(args) -> SweepExecutor:
    cache = None
    if not getattr(args, "no_cache", False):
        root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        cache = ResultCache(root)
    resume = getattr(args, "resume", False)
    if resume and cache is None:
        raise SystemExit("--resume needs the result cache; "
                         "drop --no-cache to use it")
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit(f"--jobs must be a positive integer, "
                         f"got {args.jobs}")
    retries = getattr(args, "retries", 0)
    if retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {retries}")
    timeout = getattr(args, "timeout", None)
    if timeout is not None and timeout <= 0:
        raise SystemExit(f"--timeout must be positive, got {timeout:g}")
    try:
        jobs = args.jobs if args.jobs is not None else default_jobs()
        retry = RetryPolicy(retries=retries, timeout_s=timeout)
        journal = (SweepJournal.beside(cache.root)
                   if cache is not None else None)
        return SweepExecutor(jobs=jobs, cache=cache,
                             progress=_progress_printer(), retry=retry,
                             journal=journal, resume=resume,
                             strict=getattr(args, "strict", False),
                             engine=getattr(args, "engine", DEFAULT_ENGINE))
    except ValueError as error:
        raise SystemExit(str(error)) from error


#: Exit code for a sweep that completed with gaps (partial results).
EXIT_PARTIAL = 3
#: Exit code for a lint whose only findings are baseline-grandfathered:
#: distinguishable from clean (0) and from new errors (1) so CI can gate
#: on "no *new* findings" while a cleanup is in flight.
EXIT_BASELINE = 4
#: Exit code for an interrupted run (Ctrl-C / SIGTERM), per POSIX custom.
EXIT_INTERRUPTED = 130


def _finish_sweep(text: str, executor: SweepExecutor):
    """Append the timing + cache-stats summary to a command's output.

    Returns ``(text, exit_code)``: 0 when the sweep was complete, 3
    (:data:`EXIT_PARTIAL`) when cells are missing — their failure
    summary is appended so a partial table is never mistaken for a
    complete one.
    """
    summary = executor.summary()
    if executor.cache is not None:
        stats = executor.cache.stats
        summary += (f" (cache: {stats.hits} hits / {stats.misses} misses, "
                    f"{executor.cache.root})")
    code = 0
    outcome = executor.last_outcome
    if outcome is not None and not outcome.complete:
        summary += "\n" + outcome.failure_summary()
        code = EXIT_PARTIAL
    return text + "\n" + summary, code


def _cmd_list(_args) -> str:
    from .harness.tables import table2_suite
    return table2_suite()


def _cmd_sizes(_args) -> str:
    from .harness.tables import table3_sizes
    return table3_sizes()


def _cmd_hardware(_args) -> str:
    from .harness.tables import table1_hardware
    return table1_hardware()


def _cmd_run(args) -> str:
    size = SizeClass.from_label(args.size)
    mode = TransferMode.from_label(args.mode)
    experiment = Experiment(workload=args.workload, size=size,
                            modes=(mode,), iterations=args.iterations,
                            base_seed=args.seed)
    runs = experiment.run_mode(mode)
    breakdown = runs.mean_breakdown()
    rows = [
        ("total", format_ns(runs.mean_total_ns())),
        ("gpu_kernel", format_ns(breakdown["gpu_kernel"])),
        ("memcpy", format_ns(breakdown["memcpy"])),
        ("allocation", format_ns(breakdown["allocation"])),
        ("std/mean", f"{runs.cv():.4f}"),
    ]
    return render_table(
        ("metric", "value"), rows,
        title=f"{args.workload} @ {size.label} under {mode.value} "
              f"({args.iterations} runs)")


def _cmd_compare(args) -> str:
    size = SizeClass.from_label(args.size)
    experiment = Experiment(workload=args.workload, size=size,
                            iterations=args.iterations,
                            base_seed=args.seed)
    comparison = experiment.run()
    rows = []
    for mode in ALL_MODES:
        runs = comparison.by_mode[mode]
        rows.append((mode.value, format_ns(runs.mean_total_ns()),
                     f"{comparison.normalized_total(mode):.3f}",
                     f"{comparison.improvement_pct(mode):+.2f} %"))
    from .harness.plots import render_stacked_comparison
    table = render_table(
        ("config", "mean total", "vs standard", "improvement"), rows,
        title=f"{args.workload} @ {size.label} ({args.iterations} runs)")
    return table + "\n\n" + render_stacked_comparison(comparison)


def _cmd_figure(args):
    iterations = args.iterations
    figure = args.id
    executor = _executor_from_args(args)
    if figure == "4":
        data = fig4_distributions(iterations=iterations, executor=executor)
        return _finish_sweep(
            render_fig5(fig5_stability(data)) +
            "\n(see benchmarks/bench_fig4_size_distributions.py for the "
            "full per-run dump)", executor)
    if figure == "5":
        return _finish_sweep(render_fig5(fig5_stability(
            fig4_distributions(iterations=iterations, executor=executor))),
            executor)
    if figure == "6":
        return _finish_sweep(render_fig6(fig6_mega_breakdown(
            iterations=iterations, executor=executor)), executor)
    if figure in ("7", "7a", "7b"):
        size = SizeClass.LARGE if figure == "7a" else SizeClass.SUPER
        comparisons = fig7_micro(size=size, iterations=iterations,
                                 executor=executor)
        text = render_comparison(comparisons,
                                 f"Fig. 7: micro @ {size.label}")
        improvements = geomean_improvements(comparisons)
        return _finish_sweep(text + "\n" + "  ".join(
            f"{mode}={value:+.2f}%" for mode, value in improvements.items()),
            executor)
    if figure == "8":
        comparisons = fig8_apps(iterations=iterations, executor=executor)
        return _finish_sweep(
            render_comparison(comparisons, "Fig. 8: applications @ super"),
            executor)
    if figure == "9":
        return _finish_sweep(render_counters(
            fig9_instruction_mix(executor=executor),
            ("control", "integer"), "Fig. 9"), executor)
    if figure == "10":
        return _finish_sweep(render_counters(
            fig10_cache_miss(executor=executor),
            ("load_miss", "store_miss"), "Fig. 10"), executor)
    if figure == "11":
        data = blocks_sensitivity(iterations=iterations, executor=executor)
        return _finish_sweep(
            render_sweep(normalized_sweep(data), "#blocks", "Fig. 11"),
            executor)
    if figure == "12":
        data = threads_sensitivity(iterations=iterations, executor=executor)
        return _finish_sweep(
            render_sweep(normalized_sweep(data, baseline_key=1024),
                         "#threads", "Fig. 12"), executor)
    if figure == "13":
        data = carveout_sensitivity(iterations=iterations, executor=executor)
        return _finish_sweep(
            render_sweep(normalized_sweep(data, baseline_key=32),
                         "smem KB", "Fig. 13"), executor)
    if figure == "14":
        from .core.pipeline_model import interjob_speedup
        program = get_workload("vector_seq").program(SizeClass.SUPER)
        rows = []
        for mode in (TransferMode.STANDARD,
                     TransferMode.UVM_PREFETCH_ASYNC):
            entry = interjob_speedup(program, mode, jobs=8)
            rows.append((mode.value,
                         format_ns(entry["sequential_wall_ns"]),
                         format_ns(entry["pipelined_wall_ns"]),
                         f"{entry['improvement_pct']:.1f} %"))
        return render_table(("config", "sequential", "pipelined",
                             "improvement"), rows, title="Fig. 14")
    raise SystemExit(f"unknown figure {figure!r} (expected 4-14)")


def _cmd_sweep(args):
    """Full comparison grid through the parallel executor."""
    if getattr(args, "compact_journal", False):
        return _compact_journal(args)
    executor = _executor_from_args(args)
    workloads = args.workloads or list(ALL_NAMES)
    unknown = sorted(set(workloads) - set(ALL_NAMES))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)} "
                         f"(see `repro list`)")
    sizes = [SizeClass.from_label(label)
             for label in (args.sizes or ["super"])]
    pieces = []
    for size in sizes:
        names = [name for name in workloads
                 if get_workload(name).supports(size)]
        comparisons = comparison_sweep(names, size,
                                       iterations=args.iterations,
                                       base_seed=args.seed,
                                       executor=executor)
        pieces.append(render_comparison(
            comparisons, f"sweep @ {size.label} ({args.iterations} runs)"))
    return _finish_sweep("\n\n".join(pieces), executor)


def _compact_journal(args):
    """``repro sweep --compact-journal``: rewrite to the live suffix."""
    if getattr(args, "no_cache", False):
        raise SystemExit("--compact-journal needs the result cache "
                         "directory (the journal lives beside it); "
                         "drop --no-cache")
    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    journal = SweepJournal.beside(root)
    if not journal.path.exists():
        return f"no journal at {journal.path}; nothing to compact", 0
    stats = journal.compact()
    return f"{stats.summary()}\n  {journal.path}", 0


def _specs_for_grid(args):
    """Expand the (workloads x sizes x modes x iterations) spec grid."""
    from .harness.executor import expand_grid
    workloads = args.workloads or list(ALL_NAMES)
    unknown = sorted(set(workloads) - set(ALL_NAMES))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)} "
                         f"(see `repro list`)")
    sizes = [label for label in (args.sizes or ["small"])]
    return expand_grid(workloads, sizes, iterations=args.iterations,
                       base_seed=args.seed)


def _cmd_fabric(args):
    """``repro fabric run|worker|status`` — see docs/FABRIC.md."""
    from .fabric import FabricMeta, run_fabric
    from .fabric.status import render_status
    from .fabric.worker import main as worker_main
    if args.fabric_command == "worker":
        committed = worker_main(args.root, worker_id=args.id,
                                max_nodes=args.max_nodes,
                                deadline_s=args.deadline)
        return f"[fabric] worker done: {committed} node(s) committed", 0
    if args.fabric_command == "status":
        try:
            return render_status(args.root), 0
        except FileNotFoundError as error:
            raise SystemExit(str(error)) from error
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    specs = _specs_for_grid(args)
    if not specs:
        raise SystemExit("empty grid: no supported (workload, size) cells")
    meta = FabricMeta(engine=args.engine, lease_s=args.lease,
                      straggler_factor=args.straggler_factor)
    try:
        outcome = run_fabric(specs, args.root, workers=args.workers,
                             structure=args.structure, meta=meta,
                             timeout_s=args.timeout)
    except ValueError as error:
        raise SystemExit(str(error)) from error
    stats = getattr(outcome, "fabric_stats", None)
    counts = outcome.counts()
    pieces = [f"[fabric] {len(outcome)} specs: "
              + ", ".join(f"{counts[s]} {s}" for s in
                          ("ok", "failed", "timed_out", "skipped")
                          if counts[s])]
    if stats is not None:
        pieces.append(stats.summary())
    pieces.append(render_status(args.root))
    code = 0
    if not outcome.complete:
        pieces.append(outcome.failure_summary())
        code = EXIT_PARTIAL
    return "\n".join(pieces), code


def _cmd_advise(args) -> str:
    from .core.advisor import recommend_mode
    size = SizeClass.from_label(args.size)
    workload = get_workload(args.workload)
    program = workload.program(size)
    return recommend_mode(program).render()


def _cmd_interjob(args) -> str:
    from .core.pipeline_model import interjob_speedup
    size = SizeClass.from_label(args.size)
    program = get_workload(args.workload).program(size)
    mode = TransferMode.from_label(args.mode)
    entry = interjob_speedup(program, mode, jobs=args.jobs)
    return (f"{args.workload} @ {size.label}, {args.jobs} jobs, "
            f"{mode.value}:\n"
            f"  sequential {format_ns(entry['sequential_wall_ns'])}\n"
            f"  pipelined  {format_ns(entry['pipelined_wall_ns'])}\n"
            f"  improvement {entry['improvement_pct']:.2f} % "
            f"(speedup {entry['speedup']:.3f}x)")


#: ``repro fabric run --structure`` choices: ``tuple(STRUCTURES)`` of
#: :mod:`repro.fabric.dag`, spelled out so that building the parser
#: does not import the fabric (a test pins the two equal).
FABRIC_STRUCTURES = ("flat", "figure", "sensitivity", "sizesearch")
#: ``repro artifact`` choices: ``sorted(ARTIFACT_SCRIPTS)`` of
#: :mod:`repro.harness.artifact`, spelled out for the same reason.
ARTIFACT_NAMES = ("process_perf", "run_micro_all", "run_micro_sensitivity",
                  "run_micro_shared", "run_real_all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Performance Implications "
                    "of Async Memcpy and UVM' (IISWC 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="Table 2: the benchmark suite")
    sub.add_parser("sizes", help="Table 3: input-size classes")
    sub.add_parser("hardware", help="Table 1: the simulated platform")

    run = sub.add_parser("run", help="run one workload+configuration")
    run.add_argument("workload", choices=sorted(ALL_NAMES))
    run.add_argument("--mode", default="standard",
                     choices=[m.value for m in ALL_MODES])
    _add_common(run)

    compare = sub.add_parser("compare",
                             help="run one workload under all five configs")
    compare.add_argument("workload", choices=sorted(ALL_NAMES))
    _add_common(compare)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", help="4, 5, 6, 7a, 7b, 8, 9, 10, 11, 12, "
                                   "13, or 14")
    _add_common(figure)
    _add_executor_flags(figure)

    sweep = sub.add_parser("sweep",
                           help="run a (workload x size x mode x iteration) "
                                "grid through the parallel executor")
    sweep.add_argument("workloads", nargs="*",
                       help="subset of workloads (default: all 21)")
    sweep.add_argument("--sizes", action="append", default=None,
                       choices=[s.label for s in SizeClass.ordered()],
                       help="size classes to sweep (repeatable; "
                            "default: super)")
    sweep.add_argument("--iterations", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=1234)
    sweep.add_argument("--compact-journal", action="store_true",
                       help="compact the sweep journal beside the result "
                            "cache (drop superseded records and dead "
                            "coordination chatter) and exit without "
                            "sweeping")
    _add_executor_flags(sweep)

    fabric = sub.add_parser(
        "fabric",
        help="distributed sweep fabric: compile a grid to a spec DAG "
             "and run it across N crash-tolerant worker processes "
             "(see docs/FABRIC.md)")
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)
    frun = fabric_sub.add_parser(
        "run", help="compile a grid, spawn workers, collect results")
    frun.add_argument("workloads", nargs="*",
                      help="subset of workloads (default: all 21)")
    frun.add_argument("--root", required=True,
                      help="fabric directory (DAG manifest, journal, "
                           "leases, result cache); one sweep per root")
    frun.add_argument("--sizes", action="append", default=None,
                      choices=[s.label for s in SizeClass.ordered()],
                      help="size classes (repeatable; default: small)")
    frun.add_argument("--iterations", type=int, default=10)
    frun.add_argument("--seed", type=int, default=1234)
    frun.add_argument("--workers", type=int, default=3,
                      help="worker processes to spawn (default: 3)")
    frun.add_argument("--structure", default="figure",
                      choices=FABRIC_STRUCTURES,
                      help="DAG compilation structure (default: figure)")
    frun.add_argument("--engine", default=DEFAULT_ENGINE,
                      choices=tuple(ENGINES))
    frun.add_argument("--lease", type=float, default=5.0, metavar="S",
                      help="lease heartbeat expiry (default: 5s)")
    frun.add_argument("--straggler-factor", type=float, default=4.0,
                      help="re-dispatch at N x group median runtime")
    frun.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="abort the whole sweep after S seconds")
    fworker = fabric_sub.add_parser(
        "worker", help="join an existing fabric root as one worker")
    fworker.add_argument("--root", required=True)
    fworker.add_argument("--id", default=None,
                         help="worker name (default: worker-<pid>)")
    fworker.add_argument("--max-nodes", type=int, default=None,
                         help="exit after committing N nodes")
    fworker.add_argument("--deadline", type=float, default=None,
                         metavar="S", help="exit after S seconds")
    fstatus = fabric_sub.add_parser(
        "status", help="render live journal + lease state of a root")
    fstatus.add_argument("--root", required=True)

    advise = sub.add_parser("advise",
                            help="configuration recommendation "
                                 "(the paper's takeaways)")
    advise.add_argument("workload", choices=sorted(ALL_NAMES))
    _add_common(advise)

    interjob = sub.add_parser("interjob",
                              help="Sec. 6 inter-job pipeline estimate")
    interjob.add_argument("workload", choices=sorted(ALL_NAMES))
    interjob.add_argument("--mode", default="uvm_prefetch_async",
                          choices=[m.value for m in ALL_MODES])
    interjob.add_argument("--jobs", type=int, default=8)
    _add_common(interjob)

    sizesearch = sub.add_parser("sizesearch",
                                help="Sec. 3.3 input-size search")
    sizesearch.add_argument("workload", choices=sorted(ALL_NAMES))
    _add_common(sizesearch)
    _add_executor_flags(sizesearch)

    roofline = sub.add_parser("roofline",
                              help="pipeline-stage bottleneck table")
    roofline.add_argument("workloads", nargs="*",
                          help="subset of workloads (default: all 21)")
    _add_common(roofline)

    lint = sub.add_parser(
        "lint",
        help="statically validate workload programs or (--static) the "
             "Python source itself",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0   clean (or only suppressed/baselined findings)\n"
            "  1   active error findings (warnings never gate)\n"
            "  4   baseline-grandfathered findings only; with --strict\n"
            "      these count as active and exit 1\n"
            "\n"
            "suppressions: `# repro: allow[RULE] -- why` on the flagged\n"
            "line (or the comment line above it) silences that rule\n"
            "there; `# repro: allow-file[RULE] -- why` covers the file.\n"
            "The justification is required. For model rules\n"
            "(K1xx/P2xx/S30x) put a file-level pragma in the module\n"
            "defining the workload. The baseline file\n"
            "(.repro-lint-baseline.json) grandfathers known findings\n"
            "without editing the source; regenerate it with\n"
            "--write-baseline."))
    lint.add_argument("workloads", nargs="*",
                      help="subset of workloads (default: all 21)")
    lint.add_argument("--size", default="super",
                      choices=[s.label for s in SizeClass.ordered()])
    lint.add_argument("--all", action="store_true",
                      help="lint every supported size class, not just "
                           "--size")
    lint.add_argument("--mode", action="append",
                      choices=[m.value for m in ALL_MODES],
                      help="restrict to these transfer modes "
                           "(repeatable; default: all five)")
    lint.add_argument("--static", action="store_true",
                      help="run the source-level analyzer (D4xx "
                           "determinism + F5xx fingerprint completeness) "
                           "instead of the workload model linter")
    lint.add_argument("--path", metavar="DIR",
                      help="--static: package directory to analyze "
                           "(default: the installed repro package)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"))
    lint.add_argument("--min-severity", default="info",
                      choices=("info", "warning", "error"),
                      help="text output: hide findings below this level")
    lint.add_argument("--baseline", metavar="FILE",
                      help="baseline file (default: "
                           ".repro-lint-baseline.json at the project "
                           "root; missing file = empty baseline)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write all active findings to the baseline "
                           "file and exit 0")
    lint.add_argument("--strict", action="store_true",
                      help="baselined findings count as active (exit 1)")
    lint.add_argument("--update-manifest", action="store_true",
                      help="--static: regenerate the fingerprint "
                           "manifest before checking (acknowledges "
                           "schema drift)")
    lint.add_argument("--rules", action="store_true",
                      help="print the full rule catalog and exit")

    artifact = sub.add_parser("artifact",
                              help="run one of the paper appendix's "
                                   "experiment scripts")
    artifact.add_argument("script", choices=ARTIFACT_NAMES)
    artifact.add_argument("-i", "--iterations", type=int, default=10)
    artifact.add_argument("--seed", type=int, default=1234)
    artifact.add_argument("--profiling", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service HTTP server (POST /sweep; "
             "429 load shedding, per-request deadlines, SIGTERM drain "
             "with --resume; see docs/SERVICE.md)")
    # The defaults below are ServiceConfig's and AdmissionLimits'
    # (tests/test_cli.py checks each one); they are spelled out so that
    # building the parser does not import repro.service.
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port (default: %(default)s; 0 = pick a "
                            "free ephemeral port, announced on stdout)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="executor workers per batch "
                            "(default: %(default)s)")
    serve.add_argument("--engine", default=DEFAULT_ENGINE,
                       choices=tuple(ENGINES),
                       help="simulation engine (default: %(default)s); "
                            "non-reference engines fall back to "
                            "reference when the circuit breaker trips "
                            "(results stay bit-identical)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent executor batches "
                            "(default: %(default)s)")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="max specs per executor batch "
                            "(default: %(default)s)")
    serve.add_argument("--retries", type=int, default=1,
                       help="per-spec retries inside a batch "
                            "(default: %(default)s)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="per-spec wall-clock budget "
                            "(default: %(default)s)")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/results)")
    serve.add_argument("--resume", action="store_true",
                       help="on startup, re-enqueue specs the service "
                            "journal still marks pending (the SIGTERM-"
                            "drain checkpoint)")
    serve.add_argument("--max-pending", type=int, default=512,
                       help="global admitted-spec ceiling before 429s "
                            "(default: %(default)s)")
    serve.add_argument("--max-requests", type=int, default=64,
                       help="concurrent request ceiling "
                            "(default: %(default)s)")
    serve.add_argument("--max-tenant-pending", type=int, default=None,
                       help="per-tenant pending-spec cap (default: none)")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       metavar="S", help="Retry-After hint on 429s "
                                         "(default: %(default)s)")
    serve.add_argument("--deadline", type=float, default=60.0, metavar="S",
                       help="default per-request deadline when the "
                            "client sends none (default: %(default)s)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       metavar="S",
                       help="seconds running batches get to finish "
                            "during a SIGTERM drain (default: %(default)s)")
    serve.add_argument("--hot-capacity", type=int, default=4096,
                       help="in-memory hot-cache entries "
                            "(default: %(default)s; 0 disables)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive executed-spec failures that "
                            "trip the engine circuit breaker "
                            "(default: %(default)s)")
    serve.add_argument("--breaker-recovery", type=int, default=3,
                       help="reference-engine successes before probing "
                            "the configured engine again "
                            "(default: %(default)s)")
    return parser


def _cmd_roofline(args) -> str:
    from .core.roofline import render_roofline, suite_roofline
    size = SizeClass.from_label(args.size)
    names = args.workloads or None
    return render_roofline(suite_roofline(size, names=names))


def _cmd_sizesearch(args):
    from .harness.size_search import assess_sizes, render_size_search
    executor = _executor_from_args(args)
    assessments = assess_sizes(args.workload, iterations=args.iterations,
                               base_seed=args.seed, executor=executor)
    return _finish_sweep(render_size_search(args.workload, assessments),
                         executor)


def _lint_project_root() -> Path:
    """The repo root the baseline and report paths are relative to."""
    from .analysis.astlint import default_package_root
    parent = default_package_root().parent       # .../src (or site-packages)
    return parent.parent if parent.name == "src" else parent


def _render_lint(args, report) -> str:
    from .analysis import Severity, to_sarif
    from .analysis.astlint import SOURCE_REGISTRY
    from .analysis.rules import DEFAULT_REGISTRY
    if args.format == "json":
        return report.to_json(indent=2)
    if args.format == "sarif":
        return to_sarif(report, [DEFAULT_REGISTRY, SOURCE_REGISTRY],
                        min_severity=Severity.from_label(args.min_severity))
    return report.render_text(
        min_severity=Severity.from_label(args.min_severity))


def _cmd_lint(args):
    from .analysis import Severity, lint_registry
    from .analysis.astlint import (SOURCE_REGISTRY, default_package_root,
                                   run_static_analysis, scan_package)
    from .analysis.rules import DEFAULT_REGISTRY
    from .analysis.suppress import Baseline, Suppressions

    if args.rules:
        return (DEFAULT_REGISTRY.catalog() + "\n"
                + SOURCE_REGISTRY.catalog()), 0

    project_root = _lint_project_root()
    baseline_path = (Path(args.baseline) if args.baseline
                     else project_root / ".repro-lint-baseline.json")
    try:
        baseline = Baseline.load(baseline_path, project_root=project_root)
    except ValueError as error:
        raise SystemExit(str(error)) from error

    if args.static:
        if args.update_manifest:
            from .analysis.fingerprints import write_manifest
            print(f"manifest updated: {write_manifest()}", file=sys.stderr)
        package_root = (Path(args.path) if args.path
                        else default_package_root())
        if not package_root.is_dir():
            # A typo'd --path must not report "clean" to CI.
            raise SystemExit(f"--path: {package_root} is not a directory")
        report = run_static_analysis(package_root, project_root,
                                     baseline=baseline)
    else:
        names = args.workloads or None
        if args.all:
            sizes = list(SizeClass.ordered())
        else:
            sizes = [SizeClass.from_label(args.size)]
        modes = ([TransferMode.from_label(label) for label in args.mode]
                 if args.mode else None)
        report = lint_registry(names, sizes, modes)
        # Shared suppression + baseline mechanism (model rules are
        # suppressed by a file-level pragma in the workload's module).
        suppressions = Suppressions.from_modules(
            scan_package(default_package_root(), project_root))
        active, suppressed, pragma_diags = suppressions.filter(
            list(report.diagnostics), DEFAULT_REGISTRY)
        filtered, grandfathered = baseline.filter(active + pragma_diags)
        rebuilt = type(report)(filtered)
        rebuilt.contexts = report.contexts
        rebuilt.suppressed = suppressed
        rebuilt.baselined = grandfathered
        report = rebuilt

    if args.write_baseline:
        refreshed = Baseline.from_findings(
            list(report.diagnostics) + report.baselined, project_root)
        refreshed.save(baseline_path)
        return (f"baseline written: {baseline_path} "
                f"({len(refreshed.entries)} entr"
                f"{'y' if len(refreshed.entries) == 1 else 'ies'})"), 0

    if args.strict:
        report.diagnostics.extend(report.baselined)
        report.baselined = []

    code = 0
    if report.has_errors:
        code = 1
    elif any(d.severity is Severity.ERROR for d in report.baselined):
        code = EXIT_BASELINE
    return _render_lint(args, report), code


def _serve_config(args):
    """The :class:`~repro.service.ServiceConfig` of ``repro serve``'s
    parsed options."""
    from .service import AdmissionLimits, ServiceConfig
    return ServiceConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        engine=args.engine, slots=args.slots,
        batch_size=args.batch_size, retries=args.retries,
        timeout_s=args.timeout,
        limits=AdmissionLimits(
            max_pending_specs=args.max_pending,
            max_requests=args.max_requests,
            max_tenant_pending=args.max_tenant_pending,
            retry_after_s=args.retry_after),
        default_deadline_s=args.deadline,
        drain_grace_s=args.drain_grace,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        hot_capacity=args.hot_capacity, resume=args.resume,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery)


def _cmd_serve(args):
    """Run the sweep service until SIGTERM/SIGINT drains it."""
    import asyncio

    from .service import ReproService, serve
    try:
        config = _serve_config(args)
    except ValueError as error:
        raise SystemExit(str(error)) from error
    service = ReproService(config)

    def announce(svc: ReproService) -> None:
        # Scrapeable ready line (chaos harness + examples/sweep_client
        # read the ephemeral port from here).
        print(f"[serve] listening on http://{svc.config.host}:{svc.port} "
              f"(cache {svc.cache_root})", flush=True)

    flushed = asyncio.run(serve(service, on_ready=announce))
    text = (f"[serve] stopped; {flushed} queued spec(s) checkpointed "
            f"pending — restart with --resume to finish them"
            if flushed else "[serve] stopped; no pending work")
    return text, 0


def _cmd_artifact(args) -> str:
    from .harness.artifact import ARTIFACT_SCRIPTS, run_micro_all
    script = ARTIFACT_SCRIPTS[args.script]
    if script is run_micro_all:
        result = script(iterations=args.iterations, base_seed=args.seed,
                        profiling=args.profiling)
    elif args.script == "process_perf":
        result = script(base_seed=args.seed)
    else:
        result = script(iterations=args.iterations, base_seed=args.seed)
    return result.render()


COMMANDS = {
    "artifact": _cmd_artifact,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "sizesearch": _cmd_sizesearch,
    "roofline": _cmd_roofline,
    "list": _cmd_list,
    "sizes": _cmd_sizes,
    "hardware": _cmd_hardware,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "fabric": _cmd_fabric,
    "advise": _cmd_advise,
    "interjob": _cmd_interjob,
}


#: The parser ``main`` reuses; built on its first call.  Parsing reads
#: it without changing it, so each call starts from the same defaults.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
        # Handlers return either text (exit 0) or (text, exit_code):
        # ``lint`` exits 1 on errors, sweeps exit 3 when partial.
        text, code = (result if isinstance(result, tuple) else (result, 0))
        print(text)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0
    except KeyboardInterrupt:
        # SweepInterrupted lands here too: the executor has already
        # journaled finished cells, so a --resume replays them.
        print("interrupted; finished cells are journaled - rerun with "
              "--resume to continue", file=sys.stderr)
        return EXIT_INTERRUPTED
    except SweepFailure as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
