#!/usr/bin/env python3
"""Drive a `repro serve` sweep server over HTTP (docs/SERVICE.md).

A complete client for the sweep service: submits a grid under a tenant
name, backs off politely on 429 load shedding (honouring
``Retry-After``), treats a 206 partial as the annotated gap list it
is, then repeats the request to show the hot-cache round trip and
prints the per-mode wall-time summary from the returned records. Every
request goes over one persistent HTTP/1.1 connection.

Usage:
    python -m repro serve --port 8023 &
    python examples/sweep_client.py --port 8023

    python examples/sweep_client.py --spawn    # self-hosted demo:
        # launches its own server on an ephemeral port, runs the same
        # flow against it, and shuts it down with SIGTERM.
"""

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

GRID = {"workloads": ["vector_seq", "saxpy"], "sizes": ["tiny"],
        "iterations": 3}


def request(conn, method, path, body=None):
    """One JSON round trip on ``conn``; returns (status, headers, payload).

    Every status carries a JSON body, 4xx/5xx included.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    conn.request(method, path, body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.headers, json.loads(response.read())


def submit_sweep(conn, tenant, grid, deadline_s=60.0, max_attempts=5):
    """POST /sweep with polite 429 backoff; returns the final payload."""
    body = {"tenant": tenant, "grid": grid, "deadline_s": deadline_s}
    for attempt in range(1, max_attempts + 1):
        status, headers, payload = request(conn, "POST", "/sweep", body)
        if status != 429:
            return status, payload
        pause = float(headers.get("Retry-After", "1"))
        print(f"  shed (attempt {attempt}): {payload['error']}; "
              f"retrying in {pause:g}s")
        # The server closes a connection that idles past its read
        # timeout; retry on a fresh one rather than risk that.
        conn.close()
        time.sleep(pause)
    raise SystemExit("server still shedding load; giving up")


def summarize(payload):
    print(f"  complete={payload['complete']} "
          f"counts={payload['counts']} "
          f"elapsed={payload['elapsed_s']:.3f}s "
          f"engine={payload['engine']}")
    tiers = {}
    for entry in payload["specs"]:
        tiers[entry["cache"]] = tiers.get(entry["cache"], 0) + 1
    print(f"  cache tiers: {tiers}")
    for entry in payload["specs"]:
        if entry["status"] != "ok":  # 206: every gap is annotated
            print(f"  gap: {entry['workload']}/{entry['mode']}"
                  f"#{entry['iteration']}: {entry['status']} "
                  f"({entry.get('error', '')})")
    by_mode = {}
    for entry in payload["specs"]:
        if entry["status"] == "ok":
            by_mode.setdefault(entry["mode"], []).append(
                entry["record"]["wall_ns"])
    print("  mean wall time by mode:")
    for mode, times in sorted(by_mode.items()):
        mean_us = sum(times) / len(times) / 1000.0
        print(f"    {mode:>20}: {mean_us:10.1f} us "
              f"over {len(times)} runs")


def spawn_server():
    """Launch `repro serve` on an ephemeral port; returns (proc, port)."""
    # Keep the demo runnable from a plain checkout: make the spawned
    # interpreter see src/ even when repro isn't pip-installed.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        bufsize=1, env=env)
    for line in proc.stdout:
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    raise SystemExit("server never announced its port")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8023)
    parser.add_argument("--spawn", action="store_true",
                        help="launch a private server for the demo")
    parser.add_argument("--tenant", default="example")
    parser.add_argument("--iterations", type=int,
                        default=GRID["iterations"])
    args = parser.parse_args()

    proc = None
    port = args.port
    if args.spawn:
        proc, port = spawn_server()
        print(f"spawned repro serve on port {port}")
    grid = dict(GRID, iterations=args.iterations)
    # One connection for the whole session: the server keeps it open
    # between requests. http.client opens a new one after a response
    # that closed it or an explicit close(), but not after the server
    # dropped an idle one.
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300.0)

    try:
        status, _, health = request(conn, "GET", "/healthz")
        print(f"healthz: {status} {health}")

        print(f"cold sweep as tenant {args.tenant!r}:")
        status, payload = submit_sweep(conn, args.tenant, grid)
        print(f"  HTTP {status}" + (" (partial)" if status == 206 else ""))
        summarize(payload)

        print("same grid again (hot cache):")
        status, payload = submit_sweep(conn, args.tenant, grid)
        print(f"  HTTP {status}")
        summarize(payload)

        _, _, stats = request(conn, "GET", "/stats")
        print("server stats: "
              f"executed={stats['scheduler']['executed']} "
              f"dedup={stats['scheduler']['dedup_hits']} "
              f"hot_hits={stats['hot_cache']['hits']} "
              f"breaker={stats['scheduler']['breaker']['state']}")
    finally:
        if proc is not None:
            # The drain closes the still-open idle connection at once.
            proc.send_signal(signal.SIGTERM)
            proc.stdout.read()
            proc.wait(timeout=60)
            print("server drained and stopped")
        conn.close()


if __name__ == "__main__":
    main()
