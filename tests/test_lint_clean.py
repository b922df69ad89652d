"""CI gate: the shipped registry lints clean, the Python sources
import nothing they never use, and (when available) they satisfy the
ruff configuration in pyproject.toml.

The registry sweep is the contract ``repro lint --all --format json``
enforces in CI: a workload characterization that overflows shared
memory, exceeds HBM under an explicit mode, or contradicts its own
buffer declarations must never ship.
"""

import ast
import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import lint_registry
from repro.cli import main
from repro.workloads.sizes import SizeClass

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistryClean:
    def test_super_size_has_no_errors_or_warnings(self):
        report = lint_registry()
        offenders = [d.format() for d in report.errors + report.warnings]
        assert not offenders, "\n".join(offenders)

    def test_all_sizes_have_no_errors(self):
        report = lint_registry(sizes=list(SizeClass))
        offenders = [d.format() for d in report.errors]
        assert not offenders, "\n".join(offenders)

    def test_sweep_is_fast_enough_for_ci(self):
        """The acceptance contract: the default sweep (21 workloads x
        5 modes) finishes in seconds, not minutes (budget well above
        the ~5 s observed, below any CI timeout)."""
        start = time.monotonic()
        report = lint_registry()
        elapsed = time.monotonic() - start
        assert report.contexts == 105
        assert elapsed < 60.0, f"lint sweep took {elapsed:.1f}s"

    def test_cli_all_json_contract(self, capsys):
        """`repro lint --all --format json` - the exact CI invocation."""
        code = main(["lint", "--all", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["counts"]["error"] == 0
        assert payload["contexts"] > 105  # multiple size classes


class TestStaticClean:
    """The D4xx/F5xx analyzer finds nothing unsuppressed in the repo.

    This is the acceptance gate for `repro lint --static` in CI: new
    wall-clock reads, unseeded RNG, or un-fingerprinted cache inputs
    anywhere under the pure roots fail this test before they can
    poison the result cache or the phase memo.
    """

    def test_repo_has_no_active_static_findings(self):
        from repro.analysis.astlint import run_static_analysis
        report = run_static_analysis()
        offenders = [d.format() for d in report.diagnostics]
        assert not offenders, "\n".join(offenders)

    def test_every_inline_suppression_is_used_and_justified(self):
        """Suppressed findings exist (the faults.py env-channel) but
        every pragma must be consumed: A001/A002 are findings too and
        would land in report.diagnostics above; here we pin the known
        suppression count so silent growth is visible in review."""
        from repro.analysis.astlint import run_static_analysis
        report = run_static_analysis()
        rules = sorted(d.rule for d in report.suppressed)
        # faults.py plan channel (D405/D409) + vecgrid's call-local
        # duration_parts memo key (D407).
        assert rules == ["D405", "D407", "D409"]

    def test_cli_static_gate_exit_zero(self, capsys):
        """`repro lint --static --strict` - the exact CI invocation."""
        code = main(["lint", "--static", "--strict"])
        capsys.readouterr()
        assert code == 0


def _annotation_names(tree: ast.AST) -> set:
    """Names inside string annotations (``x: "Dict[str, int]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations.extend(
                arg.annotation for arg in
                arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg]
                if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(name.id for name in ast.walk(parsed)
                             if isinstance(name, ast.Name))
    return names


def unused_imports(path: Path) -> list:
    """``(line, name)`` of each top-level import never referenced in its
    module: by name, in a string annotation, or in ``__all__``. Lines
    marked ``noqa`` are exempt, as under ruff's F401."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(entry.value for entry in ast.walk(node.value)
                        if isinstance(entry, ast.Constant))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and "noqa" not in lines[line - 1])


class TestNoUnusedImports:
    """F401 without ruff: tier-1 sees an unused import even where the
    ruff gate below self-skips. Package ``__init__`` modules re-export
    by importing, so they are exempt."""

    def test_sources_have_no_unused_top_level_imports(self):
        offenders = [
            f"{path.relative_to(REPO_ROOT)}:{line}: {name} imported "
            f"but unused"
            for root in ("src", "tests")
            for path in sorted((REPO_ROOT / root).rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in unused_imports(path)]
        assert not offenders, "\n".join(offenders)

    def test_detects_an_unused_import(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "import os\nimport sys as system\n"
            "from typing import Dict, List\n"
            "from json import dumps  # noqa: F401\n"
            "__all__ = ['List']\n"
            "def f(x: 'Dict[str, int]'):\n    return system.argv\n")
        assert unused_imports(module) == [(1, "os")]


class TestRuffClean:
    @pytest.mark.skipif(
        shutil.which("ruff") is None
        and importlib.util.find_spec("ruff") is None,
        reason="ruff is not installed in this environment")
    def test_sources_pass_ruff(self):
        """Gated style check: runs only where ruff exists; the
        [tool.ruff] table in pyproject.toml carries the config."""
        if shutil.which("ruff"):
            cmd = ["ruff", "check", "src", "tests"]
        else:
            cmd = [sys.executable, "-m", "ruff", "check", "src", "tests"]
        result = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True,
                                text=True)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_pyproject_declares_ruff_config(self):
        """Even without ruff installed, the config must ship so CI
        images that do have it pick up the same rules."""
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in text
        assert "[tool.ruff.lint]" in text
