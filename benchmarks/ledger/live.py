"""The operator path, measured from outside: ``repro serve`` as a
subprocess, fed by a separate writer process, queried over HTTP.

Three processes, as in a deployment: the **daemon** (the system under
test, started with the operator's command line — see
``product.serve_argv``), a **writer** that appends capture records to
the file the daemon tails, and this process, the one **client**. The
writer cuts record slices straight out of the in-memory epoch
(:meth:`traces.Epoch.records` — one numpy timestamp patch and one
``write`` per slice, no per-frame Python), so the load generator never
competes with the daemon for more than a sliver of a core.

Phase A is **open loop**: the writer appends at a fixed rate in 20 ms
slices for a fixed duration while the client issues ``GET
/api/counters``, ``/api/report``, ``/api/rollup`` in rotation at 10 Hz.
Each request is
timed from the moment it was *due*, so a stall is charged to every
request it delays; after each response ``/api/status`` (lock-free in
the daemon) gives ``consumed``, and freshness lag is the frames
appended but not yet consumed, in seconds of paced traffic. The
writer reports how late each slice ran.

Phase B is **closed loop**: one epoch at a time, no queries except
status polls. The writer stages the epoch as a complete capture file
while the daemon idles; renaming it over the tailed path (a capture
rotation, which the tail source follows) releases it all at once, so
a drain never waits for the generator. Repeated until the phase's
seconds are spent, each drain with its rate and the daemon tree's CPU
seconds; the caller takes capacity over the undisturbed drains.

Every drain ends on an epoch boundary (the first one completes the
epoch the paced phase left open). Then ``/metrics`` is scraped a few
times while ingest idles (under ingest the scrape calls
``export_metrics`` outside the daemon's lock and intermittently
answers 500 — a product defect this benchmark steers around rather
than counts, see README), ``POST /api/flush`` finalises every flow,
and the report and counters are returned for the caller to hold
against the batch oracle. SIGTERM must end the daemon with exit code 0.

The daemon speaks HTTP/1.0 (stdlib ``http.server`` default), so "one
connection" means one request in flight at a time, each on a fresh
connection.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

import measure
import product
import traces

QUERY_HZ = 10.0
SLICE_SECONDS = 0.02
REQUEST_TIMEOUT = 10.0
_ENDPOINTS = ("/api/counters", "/api/report", "/api/rollup")
_IDLE_SCRAPES = 5


def _writer(epoch: traces.Epoch, tail: str, commands: Any) -> None:
    """Writer process. Commands (each answered once):

    * ``("paced", start, rate, seconds)`` — append to ``tail`` at
      ``rate`` frames/s in slices; answers how late each slice ran.
    * ``("stage", start, count)`` — write ``count`` frames as a
      complete capture file next to ``tail``; the caller releases it to
      the daemon by renaming it over ``tail``.
    """
    while True:
        command = commands.recv()
        if command[0] == "stop":
            return
        if command[0] == "stage":
            _, start, count = command
            with open(tail + ".next", "wb") as fh:
                fh.write(traces.PCAP_GLOBAL_HEADER)
                epoch.write_records(fh, start, start + count)
            commands.send([])
            continue
        _, start, rate, seconds = command
        late = []
        with open(tail, "ab", buffering=0) as fh:
            began = time.perf_counter()
            sent = 0
            for i in range(1, paced_slices(seconds) + 1):
                due = began + i * SLICE_SECONDS
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                upto = int(rate * i * SLICE_SECONDS)
                epoch.write_records(fh, start + sent, start + upto)
                sent = upto
                late.append(time.perf_counter() - due)
        commands.send(late)


def paced_slices(seconds: float) -> int:
    return int(seconds / SLICE_SECONDS)


class Client:
    """One request at a time against the daemon's HTTP plane; counts
    what it attempted and what failed (error, timeout, non-200)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.attempted = 0
        self.failed = 0

    def request(self, method: str, path: str) -> tuple[int, bytes]:
        self.attempted += 1
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=REQUEST_TIMEOUT)
            try:
                conn.request(method, path)
                response = conn.getresponse()
                status, body = response.status, response.read()
            finally:
                conn.close()
        except OSError:
            status, body = 0, b""
        if status != 200:
            self.failed += 1
        return status, body

    def status(self) -> dict[str, Any]:
        """``/api/status`` — bookkeeping, not a measured query."""
        code, body = self.request("GET", "/api/status")
        return json.loads(body) if code == 200 else {"consumed": -1}


def start_daemon(bank_dir: Path, tail: Path, env: dict[str, str]
                 ) -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns (process, port, seconds from
    process start to the first ``/readyz`` 200)."""
    tail.write_bytes(traces.PCAP_GLOBAL_HEADER)
    began = time.perf_counter()
    process = subprocess.Popen(product.serve_argv(bank_dir, tail), env=env,
                               stderr=subprocess.PIPE, text=True)
    try:
        line = process.stderr.readline()
        if "http://127.0.0.1:" not in line:
            raise RuntimeError(f"repro serve did not bind: {line!r}"
                               f"{process.stderr.read()}")
        port = int(line.split("http://127.0.0.1:")[1].split()[0])
        client = Client(port)
        while client.request("GET", "/readyz")[0] != 200:
            if process.poll() is not None or \
                    time.perf_counter() - began > 60:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.01)
    except BaseException:
        process.kill()
        process.wait()
        raise
    return process, port, time.perf_counter() - began


def stop_daemon(process: subprocess.Popen) -> tuple[int, float]:
    """SIGTERM the daemon; returns (exit code, seconds to exit)."""
    began = time.perf_counter()
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        code = process.wait()
    process.stderr.close()
    return code, time.perf_counter() - began


def run(epoch: traces.Epoch, bank_dir: Path, work: Path,
        env: dict[str, str], paced_s: float, drain_s: float
        ) -> dict[str, Any]:
    """One live run: ``paced_s`` seconds of Phase A (0 skips it), then
    Phase B drains until ``drain_s`` seconds are spent (the warm-up and
    at least one timed drain). Returns every number it can see, for the
    caller to pick metrics from."""
    tail = work / "live.pcap"
    process, port, ready_s = start_daemon(bank_dir, tail, env)
    client = Client(port)
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    writer = ctx.Process(target=_writer, name="ledger-writer",
                         args=(replace(epoch, flows=[]), str(tail), theirs))
    try:
        writer.start()
        result, sent = _paced(epoch, process, client, ours, paced_s)
        result.update(_drains(epoch, process, client, ours, tail, sent,
                              drain_s))
        ours.send(("stop",))
        writer.join(timeout=30)
    finally:
        if writer.is_alive():
            writer.kill()
            writer.join()
        code, shutdown_s = stop_daemon(process)
    result.update(ready_s=ready_s, shutdown_s=shutdown_s, exit_code=code,
                  attempted=client.attempted, failed=client.failed)
    return result


def _paced(epoch: traces.Epoch, daemon: subprocess.Popen, client: Client,
           writer: Any, paced_s: float) -> tuple[dict[str, Any], int]:
    """Phase A — open loop at the trace's paced rate, queries at
    ``QUERY_HZ``. Returns its numbers and the frames appended."""
    if not paced_s:
        return {}, 0
    rate = epoch.spec.paced_pps
    writer.send(("paced", 0, rate, paced_s))
    latency: dict[str, list[float]] = {path: [] for path in _ENDPOINTS}
    lags, lag_frames = [], []
    began = time.perf_counter()
    for i in range(int(paced_s * QUERY_HZ)):
        due = began + i / QUERY_HZ
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        path = _ENDPOINTS[i % len(_ENDPOINTS)]
        client.request("GET", path)
        latency[path].append((time.perf_counter() - due) * 1e3)
        # Frames due by now on the open-loop schedule, not the writer's
        # (slice-quantised) progress.
        consumed = client.status()["consumed"]
        due_frames = min(paced_s, time.perf_counter() - began) * rate
        lag_frames.append(max(0.0, due_frames - consumed))
        lags.append(lag_frames[-1] / rate * 1e3)
    late = _reply(writer)
    elapsed = time.perf_counter() - began
    sent = int(rate * paced_slices(paced_s) * SLICE_SECONDS)
    _await_consumed(client, daemon, sent)
    queries = [ms for path in _ENDPOINTS for ms in latency[path]]
    return {
        "latency_ms": latency,
        "queries_ms": queries,
        "busy_share": sum(queries) / 1e3 / elapsed,
        "lag_ms": lags,
        "lag_frames_max": max(lag_frames),
        "late_ms": [value * 1e3 for value in late],
    }, sent


def _drains(epoch: traces.Epoch, daemon: subprocess.Popen, client: Client,
            writer: Any, tail: Path, sent: int, drain_s: float
            ) -> dict[str, Any]:
    """Phase B — one epoch at a time, closed loop, no queries. Each
    epoch is staged as a complete file while the daemon idles and
    released by renaming it over the tailed path (a capture rotation),
    so a drain never waits for the generator. The first drain is a
    discarded warm-up that also teaches ``_await_consumed`` the pace.
    A drain is clocked from the first frame the daemon takes (its idle
    tail poll sleeps up to 50 ms before noticing the rotation — a
    latency, not a capacity) until a counters read, which is a worker
    barrier, confirms every frame was processed."""
    tree = measure.process_tree(daemon.pid)
    rates: list[float] = []
    walls: list[float] = []
    cpu: list[float] = []  # the daemon tree's CPU seconds, per drain
    pace = 0.0             # fastest drain so far, seconds per frame
    began = time.perf_counter()
    # The warm-up drain completes the epoch the paced phase left open.
    count = epoch.frames - sent % epoch.frames
    while len(rates) < 2 or time.perf_counter() - began < drain_s:
        writer.send(("stage", sent, count))
        _reply(writer)
        cpu_before = measure.cpu_seconds(tree)
        os.replace(f"{tail}.next", tail)
        first = _await_consumed(client, daemon, sent + 1, pause=0.002)
        start = time.perf_counter()
        sent += count
        _await_consumed(client, daemon, sent, pace * count, pause=0.01)
        client.request("GET", "/api/counters")
        took = time.perf_counter() - start
        pace = min(pace or took / count, took / count)
        rates.append((sent - first) / took)
        walls.append(took)
        cpu.append(measure.cpu_seconds(tree) - cpu_before)
        count = epoch.frames
    del rates[0], walls[0], cpu[0]

    # Scrape while idle, finalise, read the results.
    scrapes = []
    for _ in range(_IDLE_SCRAPES):
        start = time.perf_counter()
        client.request("GET", "/metrics")
        scrapes.append((time.perf_counter() - start) * 1e3)
    client.request("POST", "/api/flush")
    _, report = client.request("GET", "/api/report")
    _, counters = client.request("GET", "/api/counters")
    rss = {pid: measure.peak_rss_mb([pid]) for pid in tree}
    daemon_pid = daemon.pid
    return {
        "epochs": sent // epoch.frames,
        "drain_pkt_per_s": rates,
        "drain_s": walls,
        "drain_cpu_s": cpu,
        "rss_parent_mb": rss[daemon_pid],
        "rss_workers_mb": sum(rss.values()) - rss[daemon_pid],
        "scrape_ms": scrapes,
        "report": report.decode(),
        "counters": json.loads(counters) if counters else {},
    }


def _reply(writer: Any) -> list[float]:
    """The writer's answer to the last command; a writer that died
    must fail the run, not hang it."""
    if not writer.poll(60.0):
        raise RuntimeError("trace writer process is not answering")
    return writer.recv()


def _await_consumed(client: Client, daemon: subprocess.Popen, target: int,
                    expected_s: float = 0.0, pause: float = 0.05) -> int:
    """Poll ``/api/status`` every ``pause`` seconds until ``target``
    frames are consumed; returns the count then seen. Every poll costs
    the daemon a thread and a slice of its interpreter lock, so most of
    a drain whose length is roughly known (``expected_s``) is slept
    through, unobserved. A daemon that died or stalled fails the run
    instead of hanging it."""
    time.sleep(0.9 * expected_s)
    deadline = time.perf_counter() + 120
    while True:
        consumed = client.status()["consumed"]
        if consumed >= target:
            return consumed
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode} "
                               f"before consuming {target} frames")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"daemon never consumed {target} frames")
        time.sleep(pause)
