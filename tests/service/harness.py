"""Shared helpers for driving a live in-process :class:`ReproService`.

No third-party HTTP client and no pytest-asyncio: tests are plain sync
functions that ``asyncio.run`` a scenario coroutine. All HTTP goes
through :func:`http`, a minimal ``asyncio.open_connection`` client —
blocking clients (urllib & co) must never run on the event-loop thread
that is also serving the request (instant deadlock).
"""

import asyncio
import contextlib
import json

from repro.core.configs import TransferMode
from repro.harness.executor import SweepExecutor, expand_grid
from repro.harness.store import run_to_record
from repro.service import ReproService, ServiceConfig
from repro.service import drain as drain_service

#: Small but representative request grid: 2 workloads x 2 modes x 2
#: iterations = 8 specs.
GRID = {"workloads": ["vector_seq", "saxpy"], "sizes": ["tiny"],
        "modes": ["standard", "uvm"], "iterations": 2}


def grid_specs(grid=None):
    grid = grid or GRID
    return expand_grid(
        grid["workloads"], grid["sizes"],
        modes=[TransferMode.from_label(m) for m in grid["modes"]],
        iterations=grid["iterations"],
        base_seed=grid.get("base_seed", 1234))


def serial_records(specs):
    """The ground truth: a plain uncached single-process sweep."""
    runs = SweepExecutor(jobs=1).run(list(specs))
    return [json.dumps(run_to_record(run, with_counters=True),
                       sort_keys=True)
            for run in runs]


def response_records(payload):
    """Spec records from a /sweep response, canonically serialized."""
    return [json.dumps(entry["record"], sort_keys=True)
            for entry in payload["specs"]]


@contextlib.asynccontextmanager
async def live_service(cache_dir, **overrides):
    """A started service on an ephemeral port; drained on exit."""
    settings = dict(port=0, cache_dir=cache_dir / "svc-cache",
                    jobs=2, slots=2, batch_size=4,
                    retries=0, timeout_s=None, hot_capacity=256)
    settings.update(overrides)
    service = ReproService(ServiceConfig(**settings))
    await service.start()
    try:
        yield service
    finally:
        await drain_service(service)


async def http(port, method, path, body=None, raw=None):
    """One request against ``127.0.0.1:port``; returns
    ``(status, headers, json_payload)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if raw is None:
        raw = b"" if body is None else json.dumps(body).encode("utf-8")
    # One-shot: the response is read to EOF, so ask the server to close.
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                  "Connection: close\r\n"
                  f"Content-Length: {len(raw)}\r\n\r\n").encode("latin-1")
                 + raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, payload = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, (json.loads(payload) if payload else {})


async def sweep(port, tenant, grid=None, specs=None, deadline_s="unset"):
    body = {"tenant": tenant}
    if grid is not None:
        body["grid"] = grid
    if specs is not None:
        body["specs"] = specs
    if deadline_s != "unset":
        body["deadline_s"] = deadline_s
    return await http(port, "POST", "/sweep", body=body)
