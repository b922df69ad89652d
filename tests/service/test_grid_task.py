"""A served batch as one worker task and one journal write.

An isolated executor replays the vector grid on its slot's worker as
one pool task (``_grid_entry``); only the rows the grid leaves, or
every row when the grid task crashes or hangs, go to the worker one
spec at a time. The service journals a request's ``pending`` lines in
one append and each batch's terminal lines in one more. Assertions
count tasks, spawns and journal appends, never elapsed time.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.harness import executor as executor_module
from repro.harness.executor import SweepExecutor
from repro.harness.resilience import SweepJournal
from repro.service import ServiceConfig

from .harness import (grid_specs, live_service, response_records,
                      serial_records, sweep)

MODES = ["standard", "async", "uvm", "uvm_prefetch", "uvm_prefetch_async"]

#: The batch executor's shape at the ``repro serve`` defaults.
DEFAULTS = {name: getattr(ServiceConfig(), name)
            for name in ("jobs", "slots", "batch_size", "retries",
                         "timeout_s")}


def request_grid(base_seed):
    """25 specs (5 modes x 5 iterations) under a fresh base seed, so
    every request is a miss that must execute."""
    return {"workloads": ["vector_seq"], "sizes": ["tiny"], "modes": MODES,
            "iterations": 5, "base_seed": base_seed}


def crashing_grid_entry(entry):
    """Stands in for ``_grid_entry`` in the worker: SIGKILL itself."""
    os.kill(os.getpid(), signal.SIGKILL)


def hanging_grid_entry(entry):
    """Stands in for ``_grid_entry`` in the worker: outlive any deadline
    (the pool discard terminates it)."""
    time.sleep(600)


def recording_batches(service):
    """Wrap the scheduler's batch bridge; returns the outcome list."""
    outcomes = []
    execute = service.scheduler.execute_batch

    def recording(specs, engine):
        outcome = execute(specs, engine)
        outcomes.extend(outcome.outcomes)
        return outcome

    service.scheduler.execute_batch = recording
    return outcomes


# ----------------------------------------------------------------------
# Grid-task fallback: a crashed or hung grid task costs a pool, not specs
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestGridTaskFallback:
    @pytest.mark.parametrize("entry,timeout_s", [
        (crashing_grid_entry, 30.0),
        (hanging_grid_entry, 5.0),
    ], ids=["crash", "deadline"])
    def test_every_spec_takes_the_per_spec_path(self, tmp_path, monkeypatch,
                                                entry, timeout_s):
        grid = request_grid(41)

        async def scenario():
            async with live_service(tmp_path, jobs=1, slots=1,
                                    batch_size=25,
                                    timeout_s=timeout_s) as service:
                pool = service.worker_pools[0]
                status, _, _ = await sweep(service.port, "alice",
                                           grid=request_grid(40))
                assert status == 200
                spawns, tasks = pool.spawns, pool.tasks
                monkeypatch.setattr(executor_module, "_grid_entry", entry)
                outcomes = recording_batches(service)
                response = await sweep(service.port, "alice", grid=grid,
                                       deadline_s=120)
                return (response, outcomes, pool.spawns - spawns,
                        pool.tasks - tasks)

        (status, _, payload), outcomes, spawned, tasks = \
            asyncio.run(scenario())
        assert status == 200
        assert payload["counts"] == {"ok": 25}
        assert response_records(payload) == serial_records(grid_specs(grid))
        assert len(outcomes) == 25
        assert all(outcome.ok and outcome.crashes == 0
                   for outcome in outcomes)
        assert spawned == 1  # the grid task's pool, replaced once
        assert tasks == 1 + 25  # the grid task, then one task per spec


# ----------------------------------------------------------------------
# Containment: the grid replay never runs in the server process
# ----------------------------------------------------------------------
class TestGridRunsInAWorker:
    def test_server_side_precompute_is_never_called(self, tmp_path,
                                                    monkeypatch):
        grid = request_grid(51)

        def broken(self, specs):
            raise RuntimeError("grid replay ran in the server process")

        async def scenario():
            async with live_service(tmp_path, jobs=1, slots=2,
                                    batch_size=8) as service:
                monkeypatch.setattr(SweepExecutor, "_precompute_grid",
                                    broken)
                return await sweep(service.port, "alice", grid=grid)

        status, _, payload = asyncio.run(scenario())
        assert status == 200
        assert response_records(payload) == serial_records(grid_specs(grid))

    def test_a_miss_costs_one_task_per_batch(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, jobs=1, slots=2,
                                    batch_size=8) as service:
                before = service.snapshot()
                status, _, _ = await sweep(service.port, "alice",
                                           grid=request_grid(61))
                after = service.snapshot()
            return status, before, after

        status, before, after = asyncio.run(scenario())
        assert status == 200
        batches = (after["scheduler"]["batches"]
                   - before["scheduler"]["batches"])
        tasks = (after["worker_pools"]["tasks"]
                 - before["worker_pools"]["tasks"])
        assert batches == 4  # 25 specs at batch_size=8: 8 + 8 + 8 + 1
        assert tasks <= 4

    def test_a_miss_is_one_batch_at_the_defaults(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, **DEFAULTS) as service:
                before = service.snapshot()
                status, _, _ = await sweep(service.port, "alice",
                                           grid=request_grid(62))
                after = service.snapshot()
            return status, before, after

        status, before, after = asyncio.run(scenario())
        assert status == 200
        assert (after["scheduler"]["batches"]
                - before["scheduler"]["batches"]) == 1
        assert (after["worker_pools"]["tasks"]
                - before["worker_pools"]["tasks"]) <= 1

    def test_two_tenants_interleave_inside_one_batch(self, tmp_path):
        """Two 25-spec grids queued together share one batch at the
        default bound, alternating tenant by tenant."""
        grids = {"alice": request_grid(63), "bob": request_grid(64)}
        tenant_of = {grid["base_seed"]: tenant
                     for tenant, grid in grids.items()}
        gate = threading.Event()
        batches = []

        async def scenario():
            async with live_service(tmp_path, **DEFAULTS) as service:
                execute = service.scheduler.execute_batch

                def gated(specs, engine):
                    batches.append([tenant_of.get(spec.base_seed, "plug")
                                    for spec in specs])
                    gate.wait(30)
                    return execute(specs, engine)

                service.scheduler.execute_batch = gated
                # One single-spec request per slot holds both slots, so
                # the two grids queue before any batch is assembled.
                plugs = [asyncio.ensure_future(sweep(
                    service.port, "ops",
                    grid=dict(request_grid(seed), modes=["standard"],
                              iterations=1)))
                    for seed in (65, 66)]
                while len(batches) < DEFAULTS["slots"]:
                    await asyncio.sleep(0.01)
                requests = [asyncio.ensure_future(
                    sweep(service.port, tenant, grid=grid))
                    for tenant, grid in grids.items()]
                while service.scheduler.queued_jobs() < 50:
                    await asyncio.sleep(0.01)
                gate.set()
                await asyncio.gather(*plugs)
                return await asyncio.gather(*requests)

        responses = asyncio.run(scenario())
        for (tenant, grid), (status, _, payload) in zip(grids.items(),
                                                         responses):
            assert status == 200, tenant
            assert response_records(payload) == \
                serial_records(grid_specs(grid))
        assert batches[:2] == [["plug"], ["plug"]]
        assert batches[2:] == [["alice", "bob"] * 25]


# ----------------------------------------------------------------------
# Journal granularity: one append per request, one per batch
# ----------------------------------------------------------------------
class TestJournalGranularity:
    def test_one_pending_append_and_one_per_batch(self, tmp_path,
                                                  monkeypatch):
        appends = []
        append = SweepJournal._append

        def counting(self, text):
            appends.append(text)
            append(self, text)

        async def scenario():
            async with live_service(tmp_path, jobs=1, slots=2,
                                    batch_size=8) as service:
                monkeypatch.setattr(SweepJournal, "_append", counting)
                batches = service.scheduler.stats.batches
                status, _, payload = await sweep(service.port, "alice",
                                                 grid=request_grid(71))
                # Read before the drain: the terminal lines must already
                # be on disk when the response returns.
                lines = service.journal.path.read_text().splitlines()
                batches = service.scheduler.stats.batches - batches
            return status, payload, lines, batches

        status, payload, lines, batches = asyncio.run(scenario())
        assert status == 200
        assert batches == 4
        assert len(appends) == 1 + batches
        assert len(appends[0].splitlines()) == 25
        assert all(json.loads(line)["status"] == "pending"
                   for line in appends[0].splitlines())
        records = [json.loads(line) for line in lines]
        keys = {entry["key"] for entry in payload["specs"]}
        for key in keys:
            statuses = [record["status"] for record in records
                        if record["key"] == key]
            assert statuses == ["pending", "ok"], (key, statuses)
