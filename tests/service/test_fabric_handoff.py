"""Service -> fabric hand-off: ``fabric_workers > 0`` routes scheduler
batches through the distributed sweep fabric."""

import asyncio

import pytest

from repro.fabric import FabricRoot
from repro.service import ServiceConfig

from .harness import (GRID, grid_specs, live_service, response_records,
                      serial_records, sweep)


def fabric_roots(tmp_path):
    base = tmp_path / "svc-cache" / "fabric"
    return sorted(base.iterdir()) if base.exists() else []


def total_commits(roots):
    return sum(len([e for e in FabricRoot(root).journal().events()
                    if e["event"] == "commit"]) for root in roots)


def test_fabric_workers_validation():
    with pytest.raises(ValueError, match="fabric_workers"):
        ServiceConfig(fabric_workers=-1)
    assert ServiceConfig().fabric_workers == 0  # classic path default


def test_retired_engine_rejected_at_config():
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        ServiceConfig(engine="fast")


def test_sweep_through_fabric_is_bit_identical(tmp_path):
    async def scenario():
        async with live_service(tmp_path, fabric_workers=2,
                                batch_size=8) as service:
            return await sweep(service.port, "acme", grid=GRID)

    status, _, payload = asyncio.run(scenario())
    assert status == 200
    specs = grid_specs()
    assert response_records(payload) == serial_records(specs)

    # Every scheduler batch ran on its own fabric root under the
    # service cache; across the roots there is exactly one commit per
    # spec and no lease left behind.
    roots = fabric_roots(tmp_path)
    assert roots
    assert total_commits(roots) == len(specs)
    for root in roots:
        assert FabricRoot(root).leases().all_leases() == {}

    # Results were copied into the service's content-addressed disk
    # cache, the same path CLI sweeps read.
    entries = list((tmp_path / "svc-cache").glob("??/*.json"))
    assert len(entries) >= len(specs)


def test_identical_batch_replays_from_fabric_root(tmp_path):
    """Same batch content -> same fabric root -> journal replay."""
    async def scenario():
        async with live_service(tmp_path, fabric_workers=2,
                                batch_size=8, hot_capacity=0) as service:
            first = await sweep(service.port, "acme", grid=GRID)
        roots_after_first = fabric_roots(tmp_path)
        async with live_service(tmp_path, fabric_workers=2,
                                batch_size=8, hot_capacity=0) as service:
            second = await sweep(service.port, "acme", grid=GRID)
        return first, roots_after_first, second

    first, roots_after_first, second = asyncio.run(scenario())
    assert first[0] == 200 and second[0] == 200
    assert response_records(first[2]) == response_records(second[2])
    # Identical batch content -> identical digests -> the same fabric
    # roots are reused, and the replay commits nothing new.
    roots = fabric_roots(tmp_path)
    assert roots == roots_after_first
    assert total_commits(roots) == len(grid_specs())
