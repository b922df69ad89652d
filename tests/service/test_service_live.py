"""Live battery: a real :class:`ReproService` on an ephemeral port.

Every test starts the actual asyncio server, talks to it over real
sockets, and asserts the contract ``docs/SERVICE.md`` documents:
bit-identical results, hot/disk cache behaviour, in-flight dedup,
fair-share scheduling, 429 load shedding, deadline partials, failure
containment, breaker fallback, drain/resume checkpointing, persistent
connections and the request-read limits.
"""

import asyncio
import json
import logging

import pytest

from repro.harness import faults
from repro.service import (AdmissionLimits, ReproService, ServiceConfig,
                           resume_pending)
from repro.service import drain as drain_service

from .harness import (GRID, grid_specs, http, live_service,
                      response_records, serial_records, sweep)


def plan_for(specs, kind, attempts=(), **kwargs):
    return faults.FaultPlan(faults=tuple(
        faults.Fault.for_spec(spec, kind=kind, attempts=attempts,
                              **kwargs) for spec in specs))


def test_retired_engine_rejected_at_config():
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        ServiceConfig(engine="fast")


def test_config_selects_no_pool_kind():
    # Every batch runs on its slot's worker processes: no backend and
    # no fabric hand-off to choose.
    for knob in ({"backend": "process"}, {"fabric_workers": 2}):
        with pytest.raises(TypeError):
            ServiceConfig(**knob)


# ----------------------------------------------------------------------
# Endpoints + request validation
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health_stats_and_client_errors(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                port = service.port
                status, _, payload = await http(port, "GET", "/healthz")
                assert (status, payload["status"]) == (200, "ok")
                assert payload["draining"] is False
                status, _, payload = await http(port, "GET", "/readyz")
                assert (status, payload["status"]) == (200, "ready")
                status, _, payload = await http(port, "GET", "/stats")
                assert status == 200
                assert payload["scheduler"]["breaker"]["state"] == "closed"
                assert payload["admission"]["pending_specs"] == 0

                status, _, _ = await http(port, "GET", "/nope")
                assert status == 404
                status, _, _ = await http(port, "DELETE", "/sweep")
                assert status == 405
                status, _, payload = await http(port, "POST", "/sweep",
                                                raw=b"{not json")
                assert status == 400
                assert "JSON" in payload["error"]
                status, _, payload = await sweep(
                    port, "t", grid={"workloads": ["saxpy"],
                                     "sizes": ["tiny"],
                                     "modes": ["warp_drive"]})
                assert status == 400
                assert "unknown transfer mode" in payload["error"]
                status, _, payload = await sweep(
                    port, "t", grid={"workloads": [], "sizes": []})
                assert status == 400
                status, _, payload = await sweep(
                    port, "t", grid={"workloads": ["saxpy"],
                                     "sizes": ["tiny"]},
                    deadline_s=-2)
                assert status == 400
                assert "deadline_s" in payload["error"]
                status, _, payload = await http(port, "POST", "/sweep",
                                                body={"tenant": "t"})
                assert status == 400
                assert "'specs' list or a 'grid'" in payload["error"]
                # A broken request never poisons the next one.
                status, _, _ = await http(port, "GET", "/healthz")
                assert status == 200

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Results: correctness + caches
# ----------------------------------------------------------------------
class TestSweepResults:
    def test_grid_sweep_is_bit_identical_to_serial_cli(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                status, _, payload = await sweep(service.port, "alice",
                                                 grid=GRID)
                assert status == 200
                assert payload["complete"] is True
                assert payload["counts"] == {"ok": 8}
                assert payload["deadline_expired"] is False
                assert len(payload["specs"]) == 8
                return payload

        payload = asyncio.run(scenario())
        # Byte-for-byte what a plain serial sweep computes, in the same
        # deterministic expansion order.
        assert response_records(payload) == serial_records(grid_specs())

    def test_repeat_request_is_served_from_the_hot_cache(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                first = await sweep(service.port, "alice", grid=GRID)
                second = await sweep(service.port, "bob", grid=GRID)
                _, _, stats = await http(service.port, "GET", "/stats")
                return first, second, stats

        (s1, _, p1), (s2, _, p2), stats = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert all(entry["cache"] == "hot" for entry in p2["specs"])
        assert response_records(p1) == response_records(p2)
        assert stats["scheduler"]["executed"] == 8  # nothing ran twice
        assert stats["hot_cache"]["hits"] == 8

    def test_explicit_specs_payload(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                return await sweep(service.port, "alice", specs=[
                    {"workload": "saxpy", "size": "tiny", "mode": "uvm",
                     "iteration": 5, "base_seed": 777}])

        status, _, payload = asyncio.run(scenario())
        assert status == 200
        entry = payload["specs"][0]
        assert (entry["workload"], entry["mode"],
                entry["iteration"]) == ("saxpy", "uvm", 5)

    def test_concurrent_identical_requests_dedup_in_flight(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                faults.install(plan_for(grid_specs(), faults.KIND_DELAY,
                                        delay_s=0.05))
                alice, bob = await asyncio.gather(
                    sweep(service.port, "alice", grid=GRID),
                    sweep(service.port, "bob", grid=GRID))
                _, _, stats = await http(service.port, "GET", "/stats")
                return alice, bob, stats

        (s1, _, p1), (s2, _, p2), stats = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert response_records(p1) == response_records(p2)
        # Both tenants were satisfied by ONE execution per spec: 16
        # requested slots, 8 executions, and every second touch of a
        # key either joined the in-flight job or hit the hot cache.
        assert stats["scheduler"]["executed"] == 8
        assert stats["scheduler"]["dedup_hits"] \
            + stats["hot_cache"]["hits"] == 8


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_429_when_the_spec_queue_is_full(self, tmp_path):
        async def scenario():
            limits = AdmissionLimits(max_pending_specs=8,
                                     retry_after_s=2.5)
            async with live_service(tmp_path, limits=limits,
                                    slots=1, jobs=1) as service:
                faults.install(plan_for(grid_specs(), faults.KIND_DELAY,
                                        delay_s=0.1))
                hog = asyncio.ensure_future(
                    sweep(service.port, "hog", grid=GRID))
                await asyncio.sleep(0.05)  # hog now owns all 8 slots
                shed = await sweep(service.port, "late", grid=GRID)
                hog_response = await hog
                _, _, stats = await http(service.port, "GET", "/stats")
                return shed, hog_response, stats

        (status, headers, payload), (hog_status, _, _), stats = \
            asyncio.run(scenario())
        assert status == 429
        assert headers["retry-after"] == "2.5"
        assert payload["retry_after_s"] == 2.5
        assert "queue depth" in payload["error"]
        assert stats["admission"]["shed"]["queue_full"] == 1
        assert hog_status == 200  # shedding never harms admitted work

    def test_429_when_too_many_concurrent_requests(self, tmp_path):
        async def scenario():
            limits = AdmissionLimits(max_requests=1)
            async with live_service(tmp_path, limits=limits,
                                    slots=1, jobs=1) as service:
                specs = grid_specs()
                faults.install(plan_for(specs, faults.KIND_DELAY,
                                        delay_s=0.1))
                hog = asyncio.ensure_future(
                    sweep(service.port, "hog", grid=GRID))
                await asyncio.sleep(0.05)
                shed = await sweep(service.port, "late", specs=[
                    {"workload": "saxpy", "size": "tiny",
                     "iteration": 9}])
                await hog
                return shed

        status, headers, payload = asyncio.run(scenario())
        assert status == 429
        assert "concurrent requests" in payload["error"]
        assert "retry-after" in headers


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_returns_an_annotated_partial(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, slots=1, jobs=1,
                                    batch_size=2) as service:
                specs = grid_specs()
                faults.install(plan_for(specs, faults.KIND_DELAY,
                                        delay_s=0.25))
                partial = await sweep(service.port, "alice", grid=GRID,
                                      deadline_s=0.2)
                # The work the deadline walked away from must not leak:
                # once idle, a faultless repeat completes fully.
                await service.scheduler.wait_idle(timeout=30)
                faults.clear()
                complete = await sweep(service.port, "alice", grid=GRID,
                                       deadline_s=None)
                return partial, complete

        (status, _, payload), (status2, _, payload2) = asyncio.run(scenario())
        assert status == 206  # the HTTP spelling of CLI exit code 3
        assert payload["complete"] is False
        assert payload["deadline_expired"] is True
        assert payload["counts"].get("skipped", 0) >= 1
        skipped = [entry for entry in payload["specs"]
                   if entry["status"] == "skipped"]
        assert skipped
        assert all("deadline" in entry["error"] for entry in skipped)
        assert status2 == 200
        assert payload2["complete"] is True

    def test_deadline_zero_point_is_still_a_response(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                return await sweep(service.port, "alice", grid=GRID,
                                   deadline_s=0.001)

        status, _, payload = asyncio.run(scenario())
        assert status in (200, 206)  # fast machines may finish anyway
        assert len(payload["specs"]) == 8


# ----------------------------------------------------------------------
# Fair share
# ----------------------------------------------------------------------
class TestFairShare:
    def test_bulk_tenant_cannot_starve_a_light_tenant(self, tmp_path):
        bulk_specs = [{"workload": "vector_seq", "size": "tiny",
                       "mode": "standard", "iteration": i}
                      for i in range(10)]
        light_specs = [{"workload": "saxpy", "size": "tiny",
                        "mode": "standard", "iteration": i}
                       for i in range(2)]

        async def scenario():
            async with live_service(tmp_path, slots=1, jobs=1,
                                    batch_size=2) as service:
                order = []
                forward = service.scheduler.on_settle

                def recorder(job, outcome):
                    order.append(job.tenant)
                    forward(job, outcome)

                service.scheduler.on_settle = recorder
                faults.install(plan_for(
                    service._parse_specs({"specs": bulk_specs}),
                    faults.KIND_DELAY, delay_s=0.03))
                bulk = asyncio.ensure_future(
                    sweep(service.port, "bulk", specs=bulk_specs))
                await asyncio.sleep(0.02)  # bulk is queued first
                light = await sweep(service.port, "light",
                                    specs=light_specs)
                bulk_response = await bulk
                return bulk_response, light, order

        (bulk_status, _, _), (light_status, _, light_payload), order = \
            asyncio.run(scenario())
        assert bulk_status == 200
        assert light_status == 200
        assert light_payload["complete"] is True
        # Round-robin: both light specs settle well before the bulk
        # tenant's 10-spec backlog is through — a bounded wait, not a
        # ride at the back of the bulk queue.
        light_positions = [i for i, tenant in enumerate(order)
                           if tenant == "light"]
        assert len(light_positions) == 2
        assert max(light_positions) < 8, order


# ----------------------------------------------------------------------
# Failure containment + degradation
# ----------------------------------------------------------------------
class TestContainment:
    def test_failing_spec_degrades_only_itself(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                specs = grid_specs()
                faults.install(faults.FaultPlan(faults=(
                    faults.Fault.for_spec(specs[0], kind=faults.KIND_FAIL,
                                          attempts=()),)))
                response = await sweep(service.port, "alice", grid=GRID)
                health = await http(service.port, "GET", "/healthz")
                return response, health

        (status, _, payload), (health_status, _, _) = asyncio.run(scenario())
        assert status == 206
        assert payload["counts"] == {"ok": 7, "failed": 1}
        failed = [entry for entry in payload["specs"]
                  if entry["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["iteration"] == 0
        assert failed[0]["error"]
        assert health_status == 200  # one bad spec, zero blast radius

    def test_crashing_spec_is_quarantined_not_fatal(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, jobs=1, slots=1,
                                    timeout_s=10.0,
                                    batch_size=8) as service:
                specs = grid_specs()
                faults.install(faults.FaultPlan(faults=(
                    faults.Fault.for_spec(specs[0],
                                          kind=faults.KIND_CRASH,
                                          attempts=()),)))
                response = await sweep(service.port, "alice", grid=GRID,
                                       deadline_s=120)
                health = await http(service.port, "GET", "/healthz")
                return response, health

        (status, _, payload), (health_status, _, _) = asyncio.run(scenario())
        assert status == 206
        assert health_status == 200  # SIGKILL hit a worker, not us
        by_status = payload["counts"]
        assert by_status.get("ok") == 7
        assert by_status.get("failed") == 1
        failed = [entry for entry in payload["specs"]
                  if entry["status"] == "failed"][0]
        assert "quarantined" in failed["error"]

    def test_breaker_trips_to_reference_and_recovers(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, engine="vector",
                                    breaker_threshold=2,
                                    breaker_recovery=1, slots=1,
                                    jobs=1, batch_size=2) as service:
                specs = grid_specs()
                faults.install(plan_for(specs, faults.KIND_FAIL))
                broken = await sweep(service.port, "alice", grid=GRID)
                tripped = service.breaker.snapshot()
                faults.clear()
                fresh = [{"workload": "saxpy", "size": "tiny",
                          "iteration": 20 + i} for i in range(4)]
                healed = await sweep(service.port, "alice", specs=fresh)
                return broken, tripped, healed, service.breaker.snapshot()

        (bs, _, bp), tripped, (hs, _, hp), recovered = asyncio.run(scenario())
        assert bs == 206
        assert bp["counts"] == {"failed": 8}
        assert tripped["state"] == "open"
        assert tripped["trips"] == 1
        assert tripped["serving"] == "reference"  # degraded, still up
        assert hs == 200
        assert hp["complete"] is True
        # Fallback successes re-arm the configured engine.
        assert recovered["state"] == "closed"
        assert recovered["serving"] == "vector"


# ----------------------------------------------------------------------
# Flaky disk + hot cache interplay
# ----------------------------------------------------------------------
class TestFlakyDisk:
    def test_transient_read_errors_are_retried_to_a_hit(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                first = await sweep(service.port, "alice", grid=GRID)
                service.hot.clear()  # force the disk path
                faults.install(plan_for(grid_specs(),
                                        faults.KIND_FLAKY_IO,
                                        attempts=(1,)))
                second = await sweep(service.port, "bob", grid=GRID)
                return first, second

        (s1, _, p1), (s2, _, p2) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert all(entry["cache"] == "disk" for entry in p2["specs"])
        assert response_records(p1) == response_records(p2)

    def test_permanent_read_errors_degrade_to_recompute(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                first = await sweep(service.port, "alice", grid=GRID)
                service.hot.clear()
                faults.install(plan_for(grid_specs(),
                                        faults.KIND_FLAKY_IO))
                second = await sweep(service.port, "bob", grid=GRID)
                return first, second

        (s1, _, p1), (s2, _, p2) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert all(entry["cache"] == "none" for entry in p2["specs"])
        # Recomputed, yet bit-identical: determinism is the backstop.
        assert response_records(p1) == response_records(p2)


# ----------------------------------------------------------------------
# Drain + resume
# ----------------------------------------------------------------------
class TestDrainResume:
    GRID6 = {"workloads": ["vector_seq", "saxpy"], "sizes": ["tiny"],
             "modes": ["standard"], "iterations": 3}

    def test_drain_checkpoints_and_resume_finishes_bit_identically(
            self, tmp_path):
        cache_dir = tmp_path / "svc-cache"

        async def interrupted():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=cache_dir, jobs=1,
                slots=1, batch_size=2, retries=0, timeout_s=None))
            await service.start()
            specs = grid_specs(self.GRID6)
            faults.install(plan_for(specs, faults.KIND_DELAY,
                                    delay_s=0.15))
            held = asyncio.ensure_future(
                sweep(service.port, "alice", grid=self.GRID6,
                      deadline_s=None))
            await asyncio.sleep(0.1)  # first batch in flight, rest queued
            flushed = await drain_service(service)
            status, _, payload = await held
            return flushed, status, payload

        flushed, status, payload = asyncio.run(interrupted())
        assert flushed >= 1
        assert status == 206  # held request got an explicit partial
        drained = [entry for entry in payload["specs"]
                   if entry["status"] == "skipped"]
        assert len(drained) == flushed
        assert all("draining" in entry["error"] for entry in drained)
        faults.clear()

        async def restarted():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=cache_dir, jobs=1,
                slots=1, batch_size=2, retries=0, timeout_s=None))
            await service.start()
            try:
                resumed = await resume_pending(service)
                assert await service.scheduler.wait_idle(timeout=30)
                status, _, payload = await sweep(service.port, "alice",
                                                 grid=self.GRID6)
                return resumed, status, payload
            finally:
                await drain_service(service)

        resumed, status, payload = asyncio.run(restarted())
        assert resumed == flushed  # exactly the checkpointed jobs
        assert status == 200
        assert payload["complete"] is True
        # Nothing re-executes: resume + the first life's work filled
        # the caches...
        assert all(entry["cache"] in ("hot", "disk")
                   for entry in payload["specs"])
        # ...and the stitched-together grid is byte-for-byte what an
        # uninterrupted serial sweep computes.
        assert response_records(payload) == \
            serial_records(grid_specs(self.GRID6))

    def test_draining_server_refuses_new_sweeps(self, tmp_path):
        async def scenario():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=tmp_path / "svc-cache", jobs=1))
            await service.start()
            try:
                await drain_service(service)
                # The listener is closed: readiness says so first.
                assert service.draining is True
                status, _, payload = await sweep(service.port, "alice",
                                                 grid=GRID)
            except (ConnectionError, OSError):
                return "refused"
            return status

        assert asyncio.run(scenario()) in ("refused", 503)


# ----------------------------------------------------------------------
# Persistent connections + request-read limits
# ----------------------------------------------------------------------
#: Bounds a read that must end; a hang guard, not a timing assertion.
HANG_GUARD_S = 60.0


async def send(writer, method, path, body=None, headers=(),
               version="HTTP/1.1"):
    raw = b"" if body is None else json.dumps(body).encode("utf-8")
    head = [f"{method} {path} {version}", "Host: test",
            f"Content-Length: {len(raw)}", *headers]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + raw)
    await writer.drain()


async def read_response(reader):
    """One response framed by its Content-Length (the connection stays
    open); returns ``(status, headers, json_payload)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                  HANG_GUARD_S)
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split()[1]), headers, json.loads(payload)


async def at_eof(reader):
    return await asyncio.wait_for(reader.read(), HANG_GUARD_S) == b""


class TestPersistentConnections:
    def test_one_socket_carries_two_sweeps_and_stats(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                body = {"tenant": "alice", "grid": GRID}
                answers = []
                for method, path, payload in (("POST", "/sweep", body),
                                              ("POST", "/sweep", body),
                                              ("GET", "/stats", None)):
                    await send(writer, method, path, payload)
                    answers.append(await read_response(reader))
                writer.close()
                return answers

        (s1, h1, p1), (s2, h2, p2), (s3, h3, stats) = asyncio.run(scenario())
        assert (s1, s2, s3) == (200, 200, 200)
        assert all("connection" not in h for h in (h1, h2, h3))
        assert all(entry["cache"] == "hot" for entry in p2["specs"])
        assert response_records(p1) == response_records(p2)
        assert stats["sweep_requests"] == 2

    @pytest.mark.parametrize("headers,version", [
        (("Connection: close",), "HTTP/1.1"),
        ((), "HTTP/1.0"),
    ], ids=["connection-close", "http-1.0"])
    def test_one_shot_requests_get_eof(self, tmp_path, headers, version):
        async def scenario():
            async with live_service(tmp_path) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                await send(writer, "GET", "/healthz", headers=headers,
                           version=version)
                answer = await read_response(reader)
                closed = await at_eof(reader)
                writer.close()
                return answer, closed

        (status, headers_out, _), closed = asyncio.run(scenario())
        assert status == 200
        assert headers_out["connection"] == "close"
        assert closed

    @pytest.mark.parametrize("garbage,error", [
        (b"NONSENSE\r\n\r\n", "malformed"),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n",
         "too long"),
        (b"POST /sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"0\r\n\r\n", "Transfer-Encoding"),
    ], ids=["request-line", "header-over-64KiB", "chunked-body"])
    def test_malformed_request_closes_only_its_connection(
            self, tmp_path, caplog, garbage, error):
        async def scenario():
            async with live_service(tmp_path) as service:
                good_reader, good_writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                await send(good_writer, "GET", "/healthz")
                first = await read_response(good_reader)
                bad_reader, bad_writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                bad_writer.write(garbage)
                await bad_writer.drain()
                bad = await read_response(bad_reader)
                bad_closed = await at_eof(bad_reader)
                await send(good_writer, "GET", "/healthz")
                second = await read_response(good_reader)
                good_writer.close()
                bad_writer.close()
                return first, bad, bad_closed, second

        with caplog.at_level(logging.WARNING):
            first, (status, headers, payload), bad_closed, second = \
                asyncio.run(scenario())
        assert status == 400
        assert error in payload["error"]
        assert headers["connection"] == "close"
        assert bad_closed
        assert first[0] == second[0] == 200
        assert not [record for record in caplog.records
                    if record.levelno >= logging.ERROR]

    def test_drain_closes_an_idle_connection_at_once(self, tmp_path,
                                                      caplog):
        async def scenario():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=tmp_path / "svc-cache", jobs=1))
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            await send(writer, "GET", "/healthz")
            answer = await read_response(reader)
            await drain_service(service)
            # close() returned with no handler left: it did not wait
            # out its grace on the idle connection.
            handlers_left = len(service._handlers)
            closed = await at_eof(reader)
            writer.close()
            return answer, handlers_left, closed

        with caplog.at_level(logging.WARNING):
            (status, headers, _), handlers_left, closed = \
                asyncio.run(scenario())
        assert status == 200
        assert "connection" not in headers
        assert handlers_left == 0
        assert closed
        assert not [record for record in caplog.records
                    if record.levelno >= logging.ERROR]

    def test_drain_begun_during_a_write_leaves_no_idle_connection(
            self, tmp_path):
        async def scenario():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=tmp_path / "svc-cache", jobs=1))
            await service.start()
            respond = service._respond
            drains = []

            async def respond_as_drain_begins(*args, **kwargs):
                # The response was framed keep-alive; the drain (and its
                # sweep of idle connections) runs before it is written.
                if not drains:
                    drains.append(asyncio.ensure_future(
                        drain_service(service)))
                    while not service._server or \
                            service._server.is_serving():
                        await asyncio.sleep(0)
                await respond(*args, **kwargs)

            service._respond = respond_as_drain_begins
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            await send(writer, "GET", "/healthz")
            answer = await read_response(reader)
            await drains[0]
            handlers_left = len(service._handlers)
            closed = await at_eof(reader)
            writer.close()
            return answer, closed, handlers_left

        (status, headers, _), closed, handlers_left = asyncio.run(scenario())
        assert status == 200
        assert "connection" not in headers  # framed before the drain
        assert closed
        assert handlers_left == 0  # close() did not wait out its grace

    def test_in_flight_request_is_answered_with_close(self, tmp_path):
        grid = TestDrainResume.GRID6

        async def scenario():
            service = ReproService(ServiceConfig(
                port=0, cache_dir=tmp_path / "svc-cache", jobs=1,
                slots=1, batch_size=2, retries=0, timeout_s=None))
            await service.start()
            specs = grid_specs(grid)
            faults.install(plan_for(specs, faults.KIND_DELAY,
                                    delay_s=0.15))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            await send(writer, "POST", "/sweep",
                       {"tenant": "alice", "grid": grid,
                        "deadline_s": None})
            while service.scheduler.stats.submitted < len(specs):
                await asyncio.sleep(0.01)  # the request is now held
            drain = asyncio.ensure_future(drain_service(service))
            answer = await read_response(reader)
            closed = await at_eof(reader)
            await drain
            writer.close()
            return answer, closed

        (status, headers, payload), closed = asyncio.run(scenario())
        assert status == 206  # queued specs settled as drained-skips
        assert len(payload["specs"]) == 6
        assert headers["connection"] == "close"
        assert closed

    def test_repeat_request_derives_no_keys(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path) as service:
                calls = []
                derive = service._keys_for

                def counted(specs, keys=None):
                    calls.append(len(specs))
                    return derive(specs, keys)

                service._keys_for = counted
                first = await sweep(service.port, "alice", grid=GRID)
                second = await sweep(service.port, "bob", grid=GRID)
                return first, second, calls

        (s1, _, p1), (s2, _, p2), calls = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert [entry["key"] for entry in p1["specs"]] \
            == [entry["key"] for entry in p2["specs"]]
        assert calls == [8]  # the repeat read every key on the loop


class TestRequestLimits:
    def test_oversized_body_gets_413_and_close(self, tmp_path):
        async def scenario():
            async with live_service(tmp_path, max_body_bytes=128) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                # Only the head: the server must answer from it alone.
                writer.write(b"POST /sweep HTTP/1.1\r\nHost: test\r\n"
                             b"Content-Length: 129\r\n\r\n")
                await writer.drain()
                answer = await read_response(reader)
                closed = await at_eof(reader)
                writer.close()
                within = await sweep(service.port, "t", grid={
                    "workloads": ["saxpy"], "sizes": ["tiny"]})
                return answer, closed, within

        (status, headers, payload), closed, (within, _, _) = \
            asyncio.run(scenario())
        assert status == 413
        assert "128-byte limit" in payload["error"]
        assert headers["connection"] == "close"
        assert closed
        assert within == 200  # a 68-byte body is under the limit

    def test_read_timeout_closes_silent_and_idle_connections(self,
                                                             tmp_path):
        async def scenario():
            async with live_service(tmp_path,
                                    request_read_timeout_s=0.2) as service:
                silent_reader, silent_writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                idle_reader, idle_writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                await send(idle_writer, "GET", "/healthz")
                answer = await read_response(idle_reader)
                closed = (await at_eof(silent_reader),
                          await at_eof(idle_reader))
                silent_writer.close()
                idle_writer.close()
                return answer, closed

        (status, headers, _), closed = asyncio.run(scenario())
        assert status == 200
        assert "connection" not in headers  # kept open, then idled out
        assert closed == (True, True)
