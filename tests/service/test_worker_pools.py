"""Long-lived worker pools: one per scheduler slot, reused across batches.

A live service with one slot, so every batch
runs on the same :class:`~repro.harness.executor.WorkerPool`. The
assertions count pool spawns and crash credits, never elapsed time.
"""

import asyncio
import os
import signal
import time

from repro.harness import faults

from .harness import (grid_specs, live_service, response_records,
                      serial_records, sweep)


def small_grid(base_seed):
    """A one-batch grid (4 specs <= batch_size); a fresh base seed per
    call makes every request a miss that must execute."""
    return {"workloads": ["vector_seq", "saxpy"], "sizes": ["tiny"],
            "modes": ["standard", "uvm"], "iterations": 1,
            "base_seed": base_seed}


def one_slot(tmp_path):
    return live_service(tmp_path, jobs=1, slots=1, batch_size=8,
                        timeout_s=30.0)


async def wait_until(predicate, limit_s=30.0):
    """Poll ``predicate`` (no timing assertion: only a hang guard)."""
    give_up = time.monotonic() + limit_s
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0.01)


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestReuse:
    def test_batches_share_one_pool_and_drain_reaps_it(self, tmp_path):
        async def scenario():
            async with one_slot(tmp_path) as service:
                pool = service.worker_pools[0]
                payloads, pids = [], set()
                for seed in (11, 12, 13):
                    status, _, payload = await sweep(
                        service.port, "alice", grid=small_grid(seed))
                    assert status == 200
                    payloads.append(payload)
                    pids.update(pool.pids())
                spawns = pool.spawns
                stats = service.snapshot()["worker_pools"]
            return payloads, pids, spawns, stats

        payloads, pids, spawns, stats = asyncio.run(scenario())
        assert spawns == 1
        # one batch per request, one grid task per batch
        assert stats == {"slots": 1, "spawns": 1, "tasks": 3}
        assert len(pids) == 1  # jobs=1: one worker served all three
        for seed, payload in zip((11, 12, 13), payloads):
            assert response_records(payload) == serial_records(
                grid_specs(small_grid(seed)))
        # drain closed the slot's pool: no orphaned worker survives
        assert all(gone(pid) for pid in pids)


class TestFaultsOnALivePool:
    def test_plan_installed_after_the_pool_started_reaches_it(
            self, tmp_path):
        poison = grid_specs(small_grid(22))[0]

        async def scenario():
            async with one_slot(tmp_path) as service:
                status, _, _ = await sweep(service.port, "alice",
                                           grid=small_grid(21))
                assert status == 200
                assert service.worker_pools[0].pids()  # pool is live
                faults.install(faults.FaultPlan(faults=(
                    faults.Fault.for_spec(poison, kind=faults.KIND_CRASH,
                                          attempts=()),)))
                return await sweep(service.port, "alice",
                                   grid=small_grid(22), deadline_s=120)

        status, _, payload = asyncio.run(scenario())
        assert status == 206
        assert payload["counts"] == {"ok": 3, "failed": 1}
        failed = [entry for entry in payload["specs"]
                  if entry["status"] == "failed"]
        assert (failed[0]["workload"], failed[0]["mode"]) \
            == (poison.workload, poison.mode.value)
        assert "quarantined" in failed[0]["error"]

    def test_pool_killed_while_idle_costs_no_crash_credit(self, tmp_path):
        async def scenario():
            async with one_slot(tmp_path) as service:
                pool = service.worker_pools[0]
                status, _, _ = await sweep(service.port, "alice",
                                           grid=small_grid(31))
                assert status == 200
                for pid in pool.pids():
                    os.kill(pid, signal.SIGKILL)
                await wait_until(lambda: pool.broken)

                outcomes = []
                execute = service.scheduler.execute_batch

                def recording(specs, engine):
                    outcome = execute(specs, engine)
                    outcomes.extend(outcome.outcomes)
                    return outcome

                service.scheduler.execute_batch = recording
                response = await sweep(service.port, "alice",
                                       grid=small_grid(32))
                return response, outcomes, pool.spawns

        (status, _, payload), outcomes, spawns = asyncio.run(scenario())
        assert status == 200
        assert payload["counts"] == {"ok": 4}
        assert len(outcomes) == 4
        assert all(outcome.crashes == 0 for outcome in outcomes)
        assert spawns == 2  # the dead pool was replaced before use
        assert response_records(payload) == serial_records(
            grid_specs(small_grid(32)))
