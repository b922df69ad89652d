"""Start-up gate: a command imports only what it runs.

Package exports are lazy (PEP 562), so ``import repro`` loads no
submodule and ``repro figure`` loads the grid path only: not the
linter, the fabric, the service or the Sec. 6 models.  The gate counts
modules in a fresh interpreter; it has no wall-clock threshold.

This module imports nothing from ``repro`` at the top: a pool worker
unpickling :func:`loaded_modules` imports it, and must not load the
modules whose preloading the worker test checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Ceiling on the ``repro`` modules a grid figure pass loads (60 when
#: the gate was set, against 91 with eager package exports).
MAX_FIGURE_MODULES = 62

#: Subsystems the grid path must never import.
NOT_ON_GRID_PATH = ("repro.analysis", "repro.fabric", "repro.service",
                    "repro.harness.regression", "repro.harness.artifact",
                    "repro.core.discussion")

LAZY_PACKAGES = ("repro", "repro.core", "repro.harness", "repro.sim",
                 "repro.analysis", "repro.fabric", "repro.service")


def loaded_modules(prefix: str = "repro") -> list:
    """The loaded modules under ``prefix``, or all of them for ``""``
    (runs in pool workers too)."""
    return sorted(name for name in sys.modules
                  if not prefix or name == prefix
                  or name.startswith(prefix + "."))


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_JOBS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_logging_and_no_service():
    """Only the journal's salvage path logs, and it imports ``logging``
    itself; the ``serve`` parser spells its defaults out."""
    out = fresh("import json, sys\n"
                "from repro.cli import build_parser\n"
                "build_parser()\n"
                "print(json.dumps(sorted(sys.modules)))")
    assert "logging" not in out
    assert "string" not in out
    assert not any(m.startswith("repro.service") for m in out)


def test_warm_figure_8_pass_leaves_numpy_random_unloaded(tmp_path):
    """A warm pass builds the darknet networks only to fingerprint
    them; their weight generators are created on the first weight
    read, which a cache hit never makes."""
    run = ("import contextlib, io, json, sys\n"
           "from repro.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()), \\\n"
           "        contextlib.redirect_stderr(io.StringIO()):\n"
           "    code = main(['figure', '8', '--iterations', '1',\n"
           "                 '--jobs', '1',\n"
           f"                 '--cache-dir', {str(tmp_path)!r}])\n"
           "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))")
    cold = fresh(run)
    warm = fresh(run)
    assert cold["code"] == warm["code"] == 0
    assert "numpy.random" in cold["modules"]  # the cold pass simulated
    assert not any(m.startswith("numpy.random") for m in warm["modules"])


def test_import_repro_loads_only_the_root():
    names = fresh("import json, sys, repro\n"
                  "print(json.dumps(sorted(n for n in sys.modules\n"
                  "                        if n.startswith('repro'))))")
    assert names == ["repro"]


def test_figure_pass_imports_only_the_grid_path():
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['figure', '12', '--iterations', '1',\n"
        "                 '--no-cache', '--jobs', '1'])\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))")
    assert out["code"] == 0
    modules = set(out["modules"])
    for name in NOT_ON_GRID_PATH:
        assert not any(m == name or m.startswith(name + ".")
                       for m in modules), name
    # A serial pass starts no pool, so it needs none of the pool's
    # standard library either.
    assert "multiprocessing" not in modules
    assert "concurrent.futures" not in modules
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= MAX_FIGURE_MODULES, ours


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_are_listed_and_bound_on_use(package):
    out = fresh(
        "import importlib, json, sys\n"
        f"package = importlib.import_module({package!r})\n"
        "before = sorted(n for n in sys.modules\n"
        f"                if n.startswith({package!r} + '.'))\n"
        "names = list(package.__all__)\n"
        "listed = set(names) <= set(dir(package))\n"
        "values = [getattr(package, name) for name in names]\n"
        "bound = all(name in vars(package) for name in names)\n"
        "print(json.dumps({'before': before, 'listed': listed,\n"
        "                  'bound': bound,\n"
        "                  'unknown': hasattr(package, 'no_such_name')}))")
    assert out["listed"] and out["bound"]
    assert not out["unknown"]
    if package != "repro":
        # Importing the package alone loads none of its submodules.
        assert out["before"] == []


def test_fresh_pool_worker_starts_with_the_first_task_imports():
    """The forkserver preloads what a worker's first grid task imports,
    so none of it lands on that task (``serve``'s first batch)."""
    from repro.harness.executor import (FORKSERVER_PRELOAD, WorkerPool,
                                        _grid_entry, expand_grid)

    specs = expand_grid(["vector_seq", "yolov3", "srad", "knn"], ["large"],
                        iterations=2, base_seed=7)
    pools = WorkerPool()
    try:
        pool = pools.get(1)
        before = set(pool.submit(loaded_modules, "").result(timeout=120))
        pool.submit(_grid_entry, (specs, None, None, "vector")).result(
            timeout=120)
        after = set(pool.submit(loaded_modules, "").result(timeout=120))
    finally:
        pools.close()
    assert set(FORKSERVER_PRELOAD) <= before
    for name in ("repro.harness.executor", "repro.sim.vecgrid",
                 "repro.sim.phasecache", "repro.workloads.registry",
                 "repro.workloads.darknet.models",
                 "repro.workloads.rodinia.srad",
                 "repro.workloads.micro.vectors"):
        assert name in before, name
    assert after == before, sorted(after - before)
