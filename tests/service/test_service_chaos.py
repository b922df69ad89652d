"""Chaos acceptance: a real ``repro serve`` process under fire.

The full operator story, end to end: launch the server as a
subprocess with a fault plan injected through the environment (worker
crashes, a hang that must be timed out and retried, flaky cache
reads), drive it over HTTP, SIGTERM it mid-grid, then restart with
``--resume`` and prove the stitched-together results are byte-for-byte
identical to an uninterrupted serial sweep. This is the service-level
analogue of the executor's chaos battery.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.harness import faults
from repro.harness.executor import RunSpec

from .harness import GRID, grid_specs, serial_records

pytestmark = pytest.mark.chaos

REPO = Path(__file__).resolve().parents[2]

#: Phase-2 payload: explicit specs on iterations the grid phase never
#: touches, so their delay faults cannot slow phase 1 down.
SLOW_SPECS = [{"workload": "vector_seq", "size": "tiny",
               "mode": "standard", "iteration": i}
              for i in range(5, 15)]


def chaos_plan():
    crash = RunSpec(workload="saxpy", size="tiny", mode="standard",
                    iteration=0)
    hang = RunSpec(workload="vector_seq", size="tiny", mode="uvm",
                   iteration=1)
    flaky = RunSpec(workload="saxpy", size="tiny", mode="uvm",
                    iteration=0)
    battery = [
        faults.Fault.for_spec(crash, kind=faults.KIND_CRASH,
                              attempts=()),
        faults.Fault.for_spec(hang, kind=faults.KIND_HANG,
                              attempts=(1,), hang_s=30.0),
        faults.Fault.for_spec(flaky, kind=faults.KIND_FLAKY_IO,
                              attempts=(1,)),
    ]
    for entry in SLOW_SPECS:
        battery.append(faults.Fault.for_spec(
            RunSpec(**entry), kind=faults.KIND_DELAY, attempts=(),
            delay_s=1.0))
    return faults.FaultPlan(faults=tuple(battery))


def launch(cache_dir, *, resume=False, fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan.to_json()
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(cache_dir), "--jobs", "1", "--slots", "1", "--batch-size", "4",
            "--retries", "1", "--timeout", "2", "--deadline", "120",
            "--drain-grace", "60"]
    if resume:
        argv.append("--resume")
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            bufsize=1)
    port = None
    for line in proc.stdout:
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.wait(timeout=10)
        raise AssertionError("server never announced a port")
    return proc, port


def request(port, method, path, body=None, timeout=120.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def wait_scheduler_idle(port, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, stats = request(port, "GET", "/stats", timeout=10.0)
        scheduler = stats["scheduler"]
        if scheduler["queued_jobs"] == 0 \
                and scheduler["running_batches"] == 0 \
                and scheduler["inflight_keys"] == 0:
            return stats
        time.sleep(0.2)
    raise AssertionError("scheduler never went idle after resume")


def drain_and_reap(proc, collected_output=None):
    proc.send_signal(signal.SIGTERM)
    output = proc.stdout.read()
    returncode = proc.wait(timeout=90)
    if collected_output is not None:
        collected_output.append(output)
    return returncode, output


def test_crash_hang_sigterm_resume_bit_identical(tmp_path):
    cache_dir = tmp_path / "svc-cache"
    proc, port = launch(cache_dir, fault_plan=chaos_plan())
    try:
        # ---- Phase 1: crash + hang + flaky faults are contained -----
        status, payload = request(port, "POST", "/sweep",
                                  {"tenant": "chaos", "grid": GRID})
        assert status == 206  # the crash cell is the only gap
        assert payload["counts"]["ok"] == 7
        assert payload["counts"]["failed"] == 1
        failed = [entry for entry in payload["specs"]
                  if entry["status"] == "failed"][0]
        assert (failed["workload"], failed["mode"],
                failed["iteration"]) == ("saxpy", "standard", 0)
        assert "quarantined" in failed["error"]
        hang_cell = [entry for entry in payload["specs"]
                     if entry["workload"] == "vector_seq"
                     and entry["mode"] == "uvm"
                     and entry["iteration"] == 1][0]
        assert hang_cell["status"] == "ok"
        assert hang_cell["attempts"] == 2  # timed out once, retried
        status, health = request(port, "GET", "/healthz", timeout=10.0)
        assert status == 200  # a SIGKILL'd worker is not our death

        # ---- Phase 2: SIGTERM mid-grid -------------------------------
        held = []

        def slow_request():
            try:
                held.append(request(port, "POST", "/sweep",
                                    {"tenant": "chaos",
                                     "specs": SLOW_SPECS,
                                     "deadline_s": None}))
            except (urllib.error.URLError, ConnectionError, OSError) as e:
                held.append(e)

        poster = threading.Thread(target=slow_request)
        poster.start()
        time.sleep(2.5)  # a batch is executing, the rest are queued
        returncode, output = drain_and_reap(proc)
        poster.join(timeout=90)
        assert returncode == 0, output
        assert "[serve] stopped" in output
        assert held, "held request never completed"
        assert not isinstance(held[0], Exception), held[0]
        status, payload = held[0]
        # The drain gave the held request an explicit partial response
        # with every flushed spec annotated, not a dropped socket.
        assert status == 206
        drained = [entry for entry in payload["specs"]
                   if entry["status"] == "skipped"]
        assert drained
        assert all("draining" in entry["error"] for entry in drained)
        assert "checkpointed pending" in output
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    # ---- Phase 3: restart --resume, no faults this time -------------
    proc, port = launch(cache_dir, resume=True)
    try:
        wait_scheduler_idle(port)
        status, grid_payload = request(port, "POST", "/sweep",
                                       {"tenant": "after",
                                        "grid": GRID})
        assert status == 200  # the crashing cell reruns cleanly now
        status, slow_payload = request(port, "POST", "/sweep",
                                       {"tenant": "after",
                                        "specs": SLOW_SPECS})
        assert status == 200
        assert all(entry["cache"] in ("hot", "disk")
                   for entry in slow_payload["specs"])
    finally:
        returncode, output = drain_and_reap(proc)
        assert returncode == 0, output

    # ---- The acceptance bar: bit-identical to a clean serial sweep --
    grid_records = [json.dumps(entry["record"], sort_keys=True)
                    for entry in grid_payload["specs"]]
    assert grid_records == serial_records(grid_specs())
    slow_records = [json.dumps(entry["record"], sort_keys=True)
                    for entry in slow_payload["specs"]]
    assert slow_records == serial_records(
        [RunSpec(**entry) for entry in SLOW_SPECS])
