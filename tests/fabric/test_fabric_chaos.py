"""Chaos acceptance: subprocess fleet vs. serial, bit for bit.

The ISSUE 9 acceptance gate: a 3-worker fabric sweep over a
fig12-scale grid, with one worker SIGKILLed mid-lease, another
stalled past the straggler threshold, and flaky cache IO sprinkled
in, must complete **byte-identical** to a serial sweep, with every
spec accounted for in the journal — no lost nodes, no
doubly-committed nodes, no dangling lease — and the speculative
re-dispatch visible in ``repro fabric status``.
"""

import json

import pytest

from repro import cli
from repro.core.configs import ALL_MODES
from repro.fabric import FabricMeta, FabricRoot, render_status, run_fabric
from repro.harness import faults
from repro.harness.executor import ResultCache, RunSpec, SweepExecutor
from repro.harness.sensitivity import (SWEEP_SEED_SALT, THREAD_SWEEP,
                                       THREAD_SWEEP_BLOCKS)
from repro.harness.store import run_to_record

pytestmark = pytest.mark.chaos


def fig12_grid(iterations=2, size="small"):
    """The Fig. 12 threads-sensitivity grid, exactly as ``_sweep``
    builds it: 6 thread counts x 5 modes x ``iterations``."""
    specs = []
    for count in THREAD_SWEEP:
        for mode in ALL_MODES:
            for iteration in range(iterations):
                specs.append(RunSpec(
                    workload="vector_seq", size=size, mode=mode,
                    iteration=iteration, base_seed=1234,
                    blocks=THREAD_SWEEP_BLOCKS, threads=count,
                    seed_salt=SWEEP_SEED_SALT))
    return specs


def sweep_bytes(outcomes):
    return json.dumps(
        [run_to_record(o.result, with_counters=True) for o in outcomes],
        sort_keys=True).encode()


def test_three_workers_one_crash_one_straggler_flaky_io(tmp_path, capsys):
    specs = fig12_grid()
    assert len(specs) == 60
    plan = faults.FaultPlan(faults=(
        # First claimant of spec 0 SIGKILLs itself while holding the
        # lease (a real subprocess death, not an exception).
        faults.Fault.for_spec(specs[0], kind=faults.KIND_WORKER_CRASH,
                              attempts=(1,)),
        # First claimant of spec 31 stalls far past the straggler
        # threshold while dutifully heartbeating.
        faults.Fault.for_spec(specs[31], kind=faults.KIND_LEASE_STALL,
                              attempts=(1,), hang_s=20.0),
        # Cache reads of spec 45 fail transiently.
        faults.Fault.for_spec(specs[45], kind=faults.KIND_FLAKY_IO,
                              attempts=(1,)),
    ))
    root = tmp_path / "fab"
    meta = FabricMeta(engine="vector", lease_s=1.0, straggler_factor=4.0,
                      straggler_min_s=0.3, straggler_min_samples=3,
                      poll_s=0.02)
    with faults.inject(plan):
        outcome = run_fabric(specs, root, workers=3, structure="figure",
                             meta=meta, spawn="process",
                             timeout_s=300.0)
    assert outcome.complete
    assert len(outcome.ok_results) == len(specs)

    # Byte-identical to a serial sweep into a fresh cache.
    serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                           engine="vector").run_outcomes(specs)
    assert sweep_bytes(outcome) == sweep_bytes(serial)

    fabric = FabricRoot(root)
    events = fabric.journal().events()

    # Every spec accounted for: exactly one commit event per node.
    commits = [e["node"] for e in events if e["event"] == "commit"]
    assert sorted(commits) == list(range(len(specs)))

    # The crash was a real worker death: the coordinator respawned.
    stats = outcome.fabric_stats
    assert stats.workers_spawned >= 3
    assert stats.workers_respawned >= 1

    # The straggler was speculatively re-dispatched, and the
    # re-dispatched claim (higher fencing token) committed node 31.
    redispatched = {e["node"] for e in events
                    if e["event"] == "redispatch"}
    assert 31 in redispatched
    commit31 = next(e for e in events
                    if e["event"] == "commit" and e["node"] == 31)
    assert commit31["token"] > 1

    # No dangling lease after completion.
    assert fabric.leases().all_leases() == {}
    assert list(root.glob("leases/*.json")) == []

    # The re-dispatch is observable in ``repro fabric status``.
    text = render_status(root)
    assert "speculative re-dispatches:" in text
    assert "n31" in text
    assert "COMPLETE" in text
    assert cli.main(["fabric", "status", "--root", str(root)]) == 0
    cli_text = capsys.readouterr().out
    assert "speculative re-dispatches:" in cli_text
    assert "60/60" in cli_text.replace(" ", "")


def test_crash_mid_lease_recovers_without_faults_left_over(tmp_path):
    """A smaller crash-only run: the journal replays clean afterwards."""
    specs = fig12_grid(iterations=1)[:15]
    plan = faults.FaultPlan(faults=(
        faults.Fault.for_spec(specs[2], kind=faults.KIND_WORKER_CRASH,
                              attempts=(1,)),))
    root = tmp_path / "fab"
    meta = FabricMeta(engine="vector", lease_s=0.5, straggler_min_s=0.2,
                      poll_s=0.02)
    with faults.inject(plan):
        outcome = run_fabric(specs, root, workers=2, structure="flat",
                             meta=meta, spawn="process", timeout_s=180.0)
    assert outcome.complete
    serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "ref"),
                           engine="vector").run_outcomes(specs)
    assert sweep_bytes(outcome) == sweep_bytes(serial)
    # The dead worker's claim is on record, and the node committed
    # under a strictly higher fencing token than the doomed claim.
    fabric = FabricRoot(root)
    events = fabric.journal().events()
    claims2 = [e for e in events
               if e["event"] == "claim" and e["node"] == 2]
    commit2 = [e for e in events
               if e["event"] == "commit" and e["node"] == 2]
    assert len(commit2) == 1
    assert len(claims2) >= 1
    assert commit2[0]["token"] >= max(e["token"] for e in claims2)
