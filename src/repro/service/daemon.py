"""The ``repro serve`` supervisor: one pipeline, one source, one API.

This is the piece that turns "replay a capture" into "operate a tap":
a :class:`ServeDaemon` owns a
:class:`~repro.pipeline.parallel.ParallelShardedPipeline`, polls
:class:`~repro.net.rawpacket.FrameBlock`\\ s from a
:class:`~repro.service.sources.FrameSource` on a dedicated ingest
thread, feeds each through :func:`~repro.pipeline.ingest.ingest_block`
— the per-block body of a bulk ``ingest_pcap`` replay, tick slicing
included — and serves the HTTP plane (metrics, health, ``/api/...``)
from the shared :class:`~repro.obs.httpserv.MetricsServer`.

Two clock domains, two :class:`~repro.pipeline.ticks.TickDriver`\\ s —
the same implementation ``ingest_pcap`` uses, instantiated twice:

* the **capture** driver runs idle-flow eviction off the timestamps
  frames carry, so a replayed-feed deployment evicts at capture time
  exactly like the batch path would — a deadline that falls inside a
  polled block cuts it there, by the same code;
* the **wall** driver runs periodic checkpoints off ``time.time()``,
  because a tap whose feed stalls must still checkpoint on schedule.
  It is built with ``publish_clock=False`` so the event log's
  ``clock`` field stays purely in the capture domain.

Shutdown contract: SIGTERM/SIGINT (or :meth:`request_stop`) stops the
ingest loop, a **final checkpoint** is taken with the source position,
and :meth:`run` returns 0. A later ``repro serve --resume`` restores
the pipeline from that checkpoint, fast-forwards a seekable source
past the consumed records, and continues — counters and rollup
aggregates end up identical to a never-interrupted run (the PR 5
checkpoint contract, inherited wholesale). In-flight flows are *not*
flushed at shutdown: finalizing them would split flows across the
restart and break that equivalence; they ride the checkpoint instead.

Thread model: ingest thread + HTTP serving threads, one ``RLock``
around every pipeline touch. The ingest thread polls outside the lock
and holds it for one block at a time (at most ``batch_frames`` frames
or one source read buffer), so a query waits for at most one block.
The health probe deliberately takes no lock — it must answer exactly
when the pipeline is wedged.
"""

from __future__ import annotations

import signal
import threading
import time
from pathlib import Path
from types import FrameType
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigError
from repro.obs import ComponentHealth, HealthReport, MetricsServer
from repro.pipeline import checkpoint_kind
from repro.pipeline.ingest import (
    ingest_block,
    load_position,
    position_json,
)
from repro.pipeline.ticks import TickDriver
from repro.service.sources import FrameSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline.driftwatch import ConceptDriftMonitor
    from repro.pipeline.engine import PipelineCounters
    from repro.pipeline.parallel import ParallelShardedPipeline
    from repro.telemetry import RollupCube

#: Checkpoint sidecar carrying the daemon's source position, next to
#: the replay's ``ingest.json`` contract but for live feeds.
SERVICE_POSITION_FILE = "service.json"

#: A checkpoint is "stale" for the health probe after this many
#: checkpoint intervals without one landing.
_STALE_INTERVALS = 3.0


class ServicePosition(NamedTuple):
    """Where a checkpointed daemon stood: source records consumed,
    frame/skip counters, and the capture clock + eviction deadline to
    re-arm. The wall-clock checkpoint deadline is deliberately *not*
    saved — wall time moves on across a restart, so the resumed daemon
    re-arms checkpoints from its own first tick."""

    consumed: int
    frames: int
    skipped: int
    clock: float | None
    next_evict: float | None

    def to_json(self) -> str:
        return position_json(self)


def load_service_position(checkpoint_dir: str | Path) -> ServicePosition:
    """Read the source position saved alongside a daemon checkpoint;
    :class:`ConfigError` when absent or malformed (the replay
    sidecar's reader, pointed at ``service.json``)."""
    return ServicePosition(**load_position(
        checkpoint_dir, SERVICE_POSITION_FILE, "service",
        ("clock", "next_evict"),
        f"service position ({SERVICE_POSITION_FILE}); it was not "
        f"written by repro serve"))


class ServeDaemon:
    """Supervise a pipeline fed from a live source, with an HTTP API.

    The daemon takes ownership of ``pipeline``, ``source``, and
    ``events``: :meth:`close` closes all three. ``resume_dir`` must
    name the checkpoint the pipeline was restored from — the daemon
    reads its source position, fast-forwards the source, and continues
    the counters.
    """

    def __init__(self, pipeline: "ParallelShardedPipeline",
                 source: FrameSource, *,
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: float | None = None,
                 evict_interval: float | None = None,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_interval: float | None = None,
                 resume_dir: str | Path | None = None,
                 events: "EventLog | None" = None,
                 poll_timeout: float = 0.2,
                 batch_frames: int = 4096) -> None:
        self._pipeline = pipeline
        self._source = source
        self._events = events
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._ingest_thread: threading.Thread | None = None
        self._ingest_error: str | None = None
        self._running = False
        self._draining = False
        self._started_at: float | None = None
        self.poll_timeout = poll_timeout
        self.batch_frames = batch_frames
        self.frames = 0
        self.skipped = 0
        # Capture domain: eviction keyed to the timestamps frames
        # carry, same as a batch replay.
        self._capture_driver = TickDriver(
            pipeline, idle_timeout=idle_timeout,
            evict_interval=evict_interval, events=events)
        # Wall domain: checkpoints keyed to time.time(), so a stalled
        # feed still checkpoints; never stamps the event log's capture
        # clock.
        self._wall_driver = TickDriver(
            pipeline, checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval, events=events,
            position=self._position_extra,
            event_fields=lambda: {"consumed": self._source.consumed},
            publish_clock=False)
        if resume_dir is not None:
            position = load_service_position(resume_dir)
            self.frames = position.frames
            self.skipped = position.skipped
            self._resume_consumed = position.consumed
            self._capture_driver.resume(position.clock,
                                        position.next_evict, None)
        else:
            self._resume_consumed = 0
        self.server = MetricsServer(self.metrics, port=port, host=host,
                                    health=self.health_report)
        from repro.service.api import ServiceAPI
        ServiceAPI(self).mount_on(self.server)

    # -- checkpoint plumbing -----------------------------------------------

    def _position_extra(self) -> dict[str, str]:
        # Records *ingested*, not ``source.consumed``: a checkpoint
        # (POST /api/checkpoint) can take the lock between a poll and
        # that block's ingest, and a position counting the in-flight
        # block would make the resumed daemon skip frames nobody
        # processed.
        return {SERVICE_POSITION_FILE: ServicePosition(
            consumed=self.frames + self.skipped, frames=self.frames,
            skipped=self.skipped, clock=self._capture_driver.clock,
            next_evict=self._capture_driver.next_evict).to_json()}

    @property
    def checkpoint_dir(self) -> Path | None:
        return self._wall_driver.checkpoint_dir

    def checkpoint_now(self) -> None:
        """One checkpoint immediately (POST /api/checkpoint, and the
        final-drain path). :class:`ConfigError` when the daemon runs
        without a checkpoint directory."""
        if self._wall_driver.checkpoint_dir is None:
            raise ConfigError(
                "checkpointing is disabled: start the daemon with a "
                "checkpoint directory to snapshot state")
        with self._lock:
            self._wall_driver.checkpoint()

    # -- ingest loop -------------------------------------------------------

    def _account(self, records: int, good: int) -> None:
        self.frames += good
        self.skipped += records - good

    def _ingest_loop(self) -> None:
        try:
            while not self._stop.is_set():
                block = self._source.poll(self.batch_frames,
                                          self.poll_timeout)
                with self._lock:
                    if block:
                        ingest_block(self._pipeline, block,
                                     self._capture_driver,
                                     self._account)
                    self._wall_driver.advance(time.time())
        except Exception as exc:  # replint: disable=RPL004 -- the supervisor boundary: any ingest failure (worker restart budget spent, corrupt feed) must land in the health report as a named component, not kill the process silently
            self._ingest_error = f"{type(exc).__name__}: {exc}"
            if self._events is not None:
                self._events.emit("service_ingest_error",
                                  error=self._ingest_error)
        finally:
            self._running = False

    # -- locked accessors (the API layer's read/act surface) ---------------

    def counters(self) -> "PipelineCounters":
        with self._lock:
            return self._pipeline.counters

    def rollup_cube(self) -> "RollupCube | None":
        with self._lock:
            return self._pipeline.rollup

    def metrics(self) -> "MetricsRegistry":
        # export_metrics is a worker barrier over the same command
        # queues the ingest thread ships frames on; unlocked, a scrape
        # interleaves with ingest and reads another command's reply.
        with self._lock:
            return self._pipeline.export_metrics()

    def drift_monitor(self) -> "ConceptDriftMonitor | None":
        # The parallel runtime keeps no parent-side monitor today;
        # getattr keeps this correct for any runtime that grows one
        # (and truthfully absent until then).
        return getattr(self._pipeline, "monitor", None)

    def flush(self) -> int:
        """Finalize every in-flight flow now (POST /api/flush) — the
        operator's end-of-observation-window drain, and what makes a
        live cube comparable to a batch run over the same frames."""
        with self._lock:
            return self._pipeline.flush()

    def reload(self, bank_dir: str | Path,
               pack_path: str | Path | None = None) -> None:
        with self._lock:
            self._pipeline.reload_bank(bank_dir, pack_path)
        if self._events is not None:
            self._events.emit("service_reload", bank=str(bank_dir),
                              pack=(str(pack_path)
                                    if pack_path else None))

    def status(self) -> dict[str, object]:
        from repro.service.schemas import status_payload
        now = time.time()
        last = self._wall_driver.last_checkpoint_wall
        return status_payload(
            source=self._source.describe(),
            running=self._running,
            draining=self._draining,
            consumed=self._source.consumed,
            frames=self.frames,
            skipped=self.skipped,
            uptime_seconds=((now - self._started_at)
                            if self._started_at else 0.0),
            num_workers=self._pipeline.num_workers,
            checkpoint_dir=(str(self._wall_driver.checkpoint_dir)
                            if self._wall_driver.checkpoint_dir
                            else None),
            last_checkpoint_age=((now - last)
                                 if last is not None else None),
            events_emitted=(self._events.count
                            if self._events is not None else None))

    # -- health ------------------------------------------------------------

    def health_report(self) -> HealthReport:
        """Liveness truth, lock-free by design: the probe must answer
        even — especially — while the ingest thread wedges the lock."""
        components = [ComponentHealth(
            "ingest",
            self._ingest_error is None and (
                self._running or not self._stop.is_set()),
            self._ingest_error or ""), ]
        alive = self._pipeline.workers_alive
        total = self._pipeline.num_workers
        components.append(ComponentHealth(
            "workers", alive == total,
            "" if alive == total else
            f"{total - alive} of {total} workers dead"))
        collect_error = self.server.last_collect_error
        components.append(ComponentHealth(
            "collect", collect_error is None, collect_error or ""))
        interval = self._wall_driver.checkpoint_interval
        if interval is not None and self._started_at is not None:
            last = self._wall_driver.last_checkpoint_wall \
                or self._started_at
            age = time.time() - last
            fresh = age <= _STALE_INTERVALS * interval
            components.append(ComponentHealth(
                "checkpoint", fresh,
                "" if fresh else
                f"no checkpoint for {age:.0f}s "
                f"(interval {interval:.0f}s)"))
        return HealthReport(tuple(components))

    def ready(self) -> tuple[bool, str]:
        """Readiness = started, not draining, and healthy."""
        if not self._running:
            return False, "not started" if self._started_at is None \
                else "stopped"
        if self._draining:
            return False, "draining"
        report = self.health_report()
        if not report.healthy:
            failing = ",".join(c.component for c in report.failing)
            return False, f"unhealthy: {failing}"
        return True, "ok"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServeDaemon":
        self._source.open()
        if self._resume_consumed:
            self._source.skip(self._resume_consumed)
        self._started_at = time.time()
        self._running = True
        self.server.start()
        self._ingest_thread = threading.Thread(
            target=self._ingest_loop, name="repro-serve-ingest",
            daemon=True)
        self._ingest_thread.start()
        if self._events is not None:
            self._events.emit(
                "service_start", source=self._source.describe(),
                port=self.server.port,
                resumed_consumed=self._resume_consumed)
        return self

    def request_stop(self) -> None:
        """Begin the graceful drain; :meth:`run`/:meth:`close` finish
        it. Safe from any thread and from signal handlers."""
        self._draining = True
        self._stop.set()

    def run(self) -> int:
        """Foreground service: install SIGTERM/SIGINT → graceful
        drain, block until stopped, return the process exit code
        (0 clean, 1 after an ingest failure)."""
        def _handle(signum: int, frame: FrameType | None) -> None:
            self.request_stop()

        previous = {sig: signal.signal(sig, _handle)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            self.start()
            while not self._stop.wait(0.2):
                if not self._running:
                    # Ingest died on its own; shut the rest down too.
                    self._stop.set()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.close()
        return 0 if self._ingest_error is None else 1

    def close(self) -> None:
        """Drain and release everything the daemon owns. A final
        checkpoint (when checkpointing is on and ingest did not die)
        makes the shutdown resumable; errors skip it — a checkpoint of
        unknown-consistency state is worse than an older good one."""
        self.request_stop()
        if self._ingest_thread is not None:
            self._ingest_thread.join(timeout=30.0)
            self._ingest_thread = None
        clean = self._ingest_error is None
        if clean and self._wall_driver.checkpoint_dir is not None:
            with self._lock:
                self._wall_driver.checkpoint()
        if self._events is not None:
            self._events.emit(
                "service_stop", clean=clean,
                consumed=self._source.consumed, frames=self.frames,
                skipped=self.skipped)
        self.server.close()
        self._source.close()
        if clean:
            self._pipeline.close()
        else:
            self._pipeline.terminate()
        if self._events is not None:
            self._events.close()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.close()


def build_daemon(bank_dir: str | Path, source: FrameSource, *,
                 num_workers: int = 2,
                 retention: str = "rollup",
                 batch_size: int | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: float | None = None,
                 evict_interval: float | None = None,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_interval: float | None = None,
                 resume: bool = False,
                 events: "EventLog | None" = None,
                 poll_timeout: float = 0.2) -> ServeDaemon:
    """Wire a daemon the way ``repro serve`` does: fresh pipeline, or
    restored from ``checkpoint_dir`` when ``resume`` is set and a
    checkpoint exists there (crash-restart and planned-restart share
    this one path). ``resume`` with no checkpoint present is a cold
    start, not an error — the first boot of a crash-looping unit file
    must come up.

    The runtime is built with ``transport="queue"``: the daemon's
    blocks ride the command queues as pickled ``("block", chunk)``
    messages, exactly as a batch ``--workers`` run does under queue.
    The ring would carry them cheaper per byte, but its shared-memory
    segment per worker plus the resource-tracker process that comes
    with the first one cost about +17 MiB of resident memory (PR 18's
    measurement) against a 10 % ``peak_rss_mb`` bound."""
    from repro.pipeline.parallel import ParallelShardedPipeline

    resume_dir: Path | None = None
    if resume:
        if checkpoint_dir is None:
            raise ConfigError("--resume needs a checkpoint directory")
        if checkpoint_kind(checkpoint_dir) is not None:
            resume_dir = Path(checkpoint_dir)
    options: dict[str, object] = dict(
        transport="queue", checkpoint_dir=checkpoint_dir,
        metrics=True, events=events)
    if resume_dir is not None:
        pipeline = ParallelShardedPipeline.restore(
            resume_dir, bank_dir, num_workers=num_workers,
            batch_size=batch_size, retention=None, **options)
    else:
        pipeline = ParallelShardedPipeline(
            bank_dir, num_workers=num_workers,
            batch_size=batch_size or 64, retention=retention,
            **options)
    try:
        return ServeDaemon(
            pipeline, source, host=host, port=port,
            idle_timeout=idle_timeout, evict_interval=evict_interval,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            resume_dir=resume_dir, events=events,
            poll_timeout=poll_timeout)
    except BaseException:
        pipeline.terminate()
        raise
