"""The shipped examples must run end-to-end.

Each example is executed as a subprocess (the way a user runs it) with
reduced iteration counts, and its headline output is checked.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).parents[1] / "examples"


def run_example(name, *args, timeout=600):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--iterations", "2",
                          "--size", "large")
        assert "best configuration" in out
        assert "timeline" in out
        assert "uvm_prefetch_async" in out

    def test_quickstart_other_workload(self):
        out = run_example("quickstart.py", "--iterations", "2",
                          "--size", "large", "--workload", "lud")
        assert "lud @ large" in out

    def test_tune_a_kernel(self):
        out = run_example("tune_a_kernel.py")
        assert "Step 1" in out
        assert "recommended configuration" in out
        assert "nw" in out

    def test_ml_inference_service(self):
        out = run_example("ml_inference_service.py", "--iterations", "2")
        assert "yolov3-tiny" in out
        assert "Inter-job pipeline" in out
        assert "% faster" in out

    def test_irregular_workloads(self):
        out = run_example("irregular_workloads.py")
        assert "LU factorization" in out
        assert "control insts" in out

    def test_multi_gpu_scaling(self, tmp_path):
        out = run_example("multi_gpu_scaling.py", "--out", str(tmp_path))
        assert "8 GPUs" in out
        assert (tmp_path / "trace_upa.json").exists()

    def test_sweep_client(self):
        out = run_example("sweep_client.py", "--spawn",
                          "--iterations", "2")
        assert "healthz: 200" in out
        assert "cache tiers: {'hot': 20}" in out
        assert "mean wall time by mode" in out
        assert "server drained and stopped" in out

    def test_paper_walkthrough(self):
        out = run_example("paper_walkthrough.py", "--iterations", "2")
        for takeaway in ("TAKEAWAY 1", "TAKEAWAY 2", "TAKEAWAY 3",
                         "TAKEAWAY 4", "TAKEAWAY 5"):
            assert takeaway in out
