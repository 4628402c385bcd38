"""True multiprocess shard runtime: one OS process per shard.

:class:`~repro.pipeline.sharded.ShardedPipeline` reproduces the *shape*
of the paper's deployment — K workers behind RSS-style 5-tuple hashing —
but executes every shard serially in one Python process, so throughput
never scales past one core. :class:`ParallelShardedPipeline` gives the
same shards real cores: K worker **processes**, each running its own
:class:`~repro.pipeline.engine.RealtimePipeline` over a classifier bank
loaded from the persisted bank directory (``pipeline/persist.py``), so
trained forests never pickle across the fork — exactly how a restarted
production worker would come up.

Routing and merging reuse the contracts the serial dispatcher already
pinned:

* the parent routes every frame by the same canonical-5-tuple crc32 as
  :func:`~repro.pipeline.sharded.shard_index`, shipping frames to each
  worker in batched chunks over a per-worker queue (per-flow ordering is
  preserved because a flow maps to exactly one worker and chunks drain
  FIFO);
* on sync the parent collects each worker's
  :class:`~repro.pipeline.engine.PipelineCounters`, telemetry records,
  and — via the byte-stable snapshot machinery in
  ``telemetry/snapshot.py`` — its rollup cube, merging with the
  order-independent ``PipelineCounters.merge`` / ``RollupCube.merge_from``
  contracts.

The result is held to the serial :class:`ShardedPipeline` as an
equivalence oracle (``tests/test_parallel_pipeline.py``): identical
counters, predictions, telemetry, and rollup snapshots on the same
capture for any worker count.

**Checkpointing and crash recovery.** With ``checkpoint_dir=`` set the
runtime becomes restartable at two granularities. The whole pipeline
checkpoints per shard (:meth:`save_checkpoint`, one realtime
sub-checkpoint per worker written at a drain barrier and swapped into
place atomically) and resumes via :meth:`restore` — including onto a
different worker count, in which case live flows are re-routed by the
dispatcher hash. And a *single* worker crash no longer aborts the run:
the parent journals every command shipped to each worker since its
last completed checkpoint, so when a worker dies (segfault, OOM kill,
SIGKILL) the parent respawns the process, restores its shard from the
last checkpoint, replays the journaled delta, and continues — the
merged views stay byte-identical to a run that never crashed, because
a worker's state is a pure function of (checkpoint state, ordered
command stream). Without ``checkpoint_dir`` there is no restore point
to replay from, so the runtime keeps its original fail-fast behavior.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import shutil
import tempfile
import time
import traceback
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.errors import ConfigError
from repro.fingerprints.packs import activate_pack, active_pack
from repro.net.packet import Packet
from repro.net.rawpacket import DecodedBlock, FrameBlock, decode_block
from repro.pipeline.confidence import DEFAULT_CONFIDENCE_THRESHOLD
from repro.pipeline.engine import (
    PipelineCounters,
    RETENTION_MODES,
    RealtimePipeline,
)
from repro.pipeline.persist import load_bank
from repro.pipeline.sharded import (
    _shard_of_tuple,
    partition_https_indices,
    shard_index,
)
from repro.pipeline.shmring import DEFAULT_RING_BYTES, FrameRing, RingReader
from repro.pipeline.store import TelemetryRecord, TelemetryStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.flow import FlowKey
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.telemetry.rollup import RollupConfig, RollupCube
    from repro.trafficgen.session import SyntheticFlow

# Packets or flows shipped per queue message: large enough to amortize
# pickling and queue locking, small enough that worker memory stays
# bounded and synchronous commands (flush, eviction ticks) never wait
# long.
DEFAULT_CHUNK_ITEMS = 512

# Chunks a worker's command queue may hold before the parent blocks:
# routing is cheaper than processing, so without backpressure a long
# replay accumulates the whole capture in queue buffers — the bound
# keeps parent memory O(workers x maxsize x chunk) however long the
# capture runs.
_QUEUE_MAX_CHUNKS = 16

_REPLY_TIMEOUT = 5.0  # between liveness checks while awaiting a reply

# Commands that only carry data (fire-and-forget, no reply); everything
# else is a control command with exactly one reply. "block" is a packed
# bulk-decode chunk, "tally" a bare packet-count attribution.
_DATA_OPS = frozenset(("packets", "flows", "block", "tally"))

# How packed *blocks* reach the workers: "queue" pickles them through
# the command queue; "shm" writes them into a per-worker shared-memory
# ring and ships only (offset, length) descriptors through the queue.
# Packet and flow chunks ride the queue either way. "queue" allocates
# no shared-memory segment and starts no resource-tracker child, which
# is why the daemon takes it (docs/ARCHITECTURE.md, serve_live RSS).
TRANSPORTS = ("queue", "shm")

# Sentinel for "no recovered reply pending" (None is a valid reply).
_NO_REPLY = object()


class _WorkerDied(RuntimeError):
    """Internal: a worker process is gone (not a worker-reported
    error). Carries the human-readable detail; the recovery layer
    decides whether to respawn or surface it."""


class _WorkerState(NamedTuple):
    """One worker's collected state at a sync barrier."""

    counters: PipelineCounters
    records: list[TelemetryRecord]
    live_flows: int
    pending: int
    # The worker's live instrument registry as a plain snapshot dict
    # (None when metrics are disabled): piggybacks on the sync reply
    # rather than adding a new barrier. Count metrics do NOT ride here
    # — the parent derives them from the merged counters, which is
    # what keeps parallel metric values byte-identical to serial runs
    # and crash-respawn safe; only process-local timing/promotion
    # instruments travel as snapshots.
    metrics: dict | None = None


def _ingest_packed_block(pipeline: RealtimePipeline, buf) -> None:
    """Worker-side bulk ingest of one packed chunk: every frame in it
    is a valid HTTPS frame the parent routed here, so the (cheap,
    vectorized) re-decode re-derives the field arrays in-process
    instead of pickling them across."""
    pipeline.process_block(decode_block(FrameBlock.unpack(buf)))


def _worker_main(worker_id: int, bank_dir: str, options: dict,
                 resume_dir: str | None, cmd_queue, out_queue,
                 ring_name: str | None = None,
                 ring_consumed=None) -> None:
    """Worker process entry point: load the bank from disk (and the
    shard's checkpoint, when resuming), run a private
    :class:`RealtimePipeline`, and serve the parent's command stream
    until ``stop``.

    Data commands (``packets``/``flows``/``block``/``tally``) are
    fire-and-forget chunks; control commands
    (``drain``/``flush``/``flush_idle``/``sync``/``checkpoint``/
    ``reload_bank``/``stop``) each produce exactly one
    ``("ok", payload)`` reply. Under the shm transport, ``block``
    payloads arrive as ``("shm", offset, length, consumed_after)``
    descriptors resolved against the attached ring; the consumption
    cursor is published only after the span is fully processed
    (everything a flow keeps was copied by promotion). Any
    failure ships the traceback back as ``("error", text)`` and ends
    the worker — the parent raises it at the next barrier (or
    respawns, if recovery is armed).
    """
    ring = None
    try:
        if ring_name is not None:
            ring = RingReader(ring_name, ring_consumed)
        options = dict(options)
        pack_path = options.pop("pack_path", None)
        if pack_path is not None:
            # Mirror the parent's active pack before touching the bank:
            # load_bank refuses a pack-digest mismatch, and profile
            # lookups must resolve against the same data in every
            # process.
            activate_pack(pack_path)
        bank = load_bank(bank_dir)
        if resume_dir is not None:
            from repro.pipeline.checkpoint import restore_realtime

            pipeline = restore_realtime(
                resume_dir, bank,
                batch_size=options.get("batch_size"),
                confidence_threshold=options.get("confidence_threshold"),
                retention=options.get("retention"),
                metrics=options.get("metrics"))
        else:
            pipeline = RealtimePipeline(bank, store=TelemetryStore(),
                                        **options)
        while True:
            cmd = cmd_queue.get()
            op = cmd[0]
            if op == "shm":
                _, offset, length, consumed_after = cmd
                buf = ring.view(offset, length)
                try:
                    _ingest_packed_block(pipeline, buf)
                finally:
                    # Nothing still points into the span (promotion
                    # copies); hand the bytes back to the producer.
                    del buf
                    ring.release(consumed_after)
            elif op == "block":
                _ingest_packed_block(pipeline, cmd[1])
            elif op == "tally":
                pipeline.count_packets(cmd[1])
            elif op == "packets":
                for packet in cmd[1]:
                    pipeline.process_packet(packet)
            elif op == "flows":
                pipeline.process_flows(cmd[1])
            elif op == "drain":
                out_queue.put(("ok", pipeline.drain()))
            elif op == "flush":
                out_queue.put(("ok", pipeline.flush(cmd[1])))
            elif op == "flush_idle":
                out_queue.put(("ok", pipeline.flush_idle(
                    now=cmd[1], idle_timeout=cmd[2], role=cmd[3])))
            elif op == "checkpoint":
                pipeline.save_checkpoint(cmd[1])
                out_queue.put(("ok", None))
            elif op == "reload_bank":
                if cmd[2] is not None:
                    activate_pack(cmd[2])
                pipeline.reload_bank(load_bank(cmd[1]))
                out_queue.put(("ok", None))
            elif op == "sync":
                rollup_dir = cmd[1]
                if pipeline.rollup is not None and rollup_dir is not None:
                    from repro.telemetry.snapshot import save_rollup

                    save_rollup(pipeline.rollup, rollup_dir)
                out_queue.put(("ok", _WorkerState(
                    counters=pipeline.counters,
                    records=list(pipeline.store),
                    live_flows=pipeline.live_flows,
                    pending=pipeline.pending_classifications,
                    metrics=pipeline.metrics_snapshot())))
            elif op == "stop":
                out_queue.put(("ok", None))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown worker command {op!r}")
    except BaseException:  # replint: disable=RPL004 -- worker boundary: the traceback must cross the process gap as an ("error", text) reply (KeyboardInterrupt/SystemExit included — the process exits right after, so nothing is swallowed)
        out_queue.put(("error", traceback.format_exc()))
    finally:
        if ring is not None:
            ring.close()


class ParallelShardedPipeline:
    """K shard pipelines, one OS process each, behind the 5-tuple hash.

    Constructed from a *persisted bank directory* (``save_bank``), not a
    live :class:`ClassifierBank`: each worker calls ``load_bank`` on its
    own, so model arrays are never pickled through the spawn/fork.

    The ingest surface mirrors :class:`ShardedPipeline` —
    ``process_packet`` / ``process_block`` / ``process_flows`` — and
    the merged views
    (``counters``, ``telemetry``/``store``, ``rollup``, ``live_flows``,
    ``shard_loads``) read identically. Data calls buffer into per-worker
    chunks and return immediately; ``drain``/``flush``/``flush_idle``
    are synchronous barriers across all workers, as is the state sync
    behind the merged views. Use as a context manager (or call
    :meth:`close`) so worker processes always join.

    ``checkpoint_dir`` arms the restartable mode: :meth:`save_checkpoint`
    defaults to that directory, the parent journals per-worker command
    deltas between checkpoints, and a dead worker is respawned from its
    shard checkpoint + journal replay (up to ``max_worker_restarts``
    times per checkpoint window) instead of aborting the run.
    ``resume_dir`` starts every worker from an existing sharded
    checkpoint (see :meth:`restore` for the worker-count-changing
    variant).

    ``transport`` picks how :meth:`process_block` chunks reach the
    workers: ``"queue"`` (default) pickles them through the command
    queues; ``"shm"`` writes them into one shared-memory ring per
    worker (``ring_bytes`` each) and ships only offset descriptors —
    same command order, same journal/recovery contract, no pickling
    on the block hot path. The daemon takes ``"queue"``: it allocates
    no shared-memory segment and starts no resource-tracker child, so
    a long-lived tap holds no ring memory; batch replay takes
    ``"shm"``. See docs/ARCHITECTURE.md for the measurements behind
    that split.
    """

    def __init__(self, bank_dir: str | Path, num_workers: int = 4,
                 confidence_threshold: float =
                 DEFAULT_CONFIDENCE_THRESHOLD,
                 batch_size: int = 1,
                 retention: str = "raw",
                 rollup_config: "RollupConfig | None" = None,
                 chunk_items: int = DEFAULT_CHUNK_ITEMS,
                 start_method: str | None = None,
                 checkpoint_dir: str | Path | None = None,
                 resume_dir: str | Path | None = None,
                 max_worker_restarts: int = 3,
                 transport: str = "queue",
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 metrics: bool = False,
                 events: "EventLog | None" = None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, "
                f"got {transport!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if retention not in RETENTION_MODES:
            raise ValueError(
                f"retention must be one of {RETENTION_MODES}, "
                f"got {retention!r}")
        if chunk_items < 1:
            raise ValueError(
                f"chunk_items must be >= 1, got {chunk_items}")
        if max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, "
                f"got {max_worker_restarts}")
        bank_dir = Path(bank_dir)
        if not (bank_dir / "manifest.json").exists():
            # Fail in the parent with a pointable error instead of K
            # tracebacks from freshly spawned workers.
            raise ConfigError(f"no bank manifest at {bank_dir}")
        if resume_dir is not None:
            from repro.pipeline.checkpoint import read_sharded_meta

            resume_dir = Path(resume_dir)
            saved = read_sharded_meta(resume_dir)
            if saved != num_workers:
                raise ConfigError(
                    f"checkpoint at {resume_dir} holds {saved} shards "
                    f"but num_workers={num_workers}; use "
                    f"ParallelShardedPipeline.restore to re-shard")
        self.bank_dir = bank_dir
        self.num_workers = num_workers
        self.retention = retention
        self.chunk_items = chunk_items
        self.transport = transport
        self.ring_bytes = ring_bytes
        # Packed chunks must fit the ring with room for several in
        # flight; a quarter of the ring keeps the producer ahead of
        # the consumer without ever deadlocking on its own payload.
        self._pack_bytes = max(4096, ring_bytes // 4)
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_worker_restarts = max_worker_restarts
        # ``metrics=True`` gives every worker a private instrument
        # registry (snapshots ride the sync barrier and merge in the
        # parent) plus a parent-side registry for parent-only signals
        # (respawns, journal replays). ``events`` is a parent-side
        # :class:`~repro.obs.events.EventLog` that records respawn /
        # replay transitions — never pickled to workers.
        if metrics:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        self._events = events
        # Workers mirror the parent's active fingerprint pack before
        # loading the bank (load_bank enforces the pack digest). Only a
        # file-backed pack can cross the process gap; the builtin needs
        # no path — every process resolves it itself.
        pack = active_pack()
        pack_path = (pack.source
                     if Path(pack.source).is_file() else None)
        self._options = dict(confidence_threshold=confidence_threshold,
                             batch_size=batch_size, retention=retention,
                             rollup_config=rollup_config,
                             metrics=bool(metrics),
                             pack_path=pack_path)
        # The pack the *current* bank was trained against. Respawn
        # options keep the checkpoint-era pack (``_respawn_bank_dir``
        # discipline: a respawned worker restores the old bank, then
        # journal replay re-promotes); this field folds into
        # ``_options`` when save_checkpoint advances the restore point.
        self._pack_path = pack_path
        self._ctx = multiprocessing.get_context(start_method)
        # Recovery state: the journal holds every command shipped to a
        # worker since its last completed checkpoint (None = recovery
        # disarmed); the restore point starts at resume_dir and
        # advances with each save_checkpoint. The bank directory is
        # tracked separately for respawn because reload_bank may have
        # swapped banks *after* the restore point.
        journaling = self.checkpoint_dir is not None
        self._journals: list[list | None] = [
            [] if journaling else None for _ in range(num_workers)]
        self._restarts = [0] * num_workers
        self._recovered = [_NO_REPLY] * num_workers
        self._restore_point: Path | None = resume_dir
        self._respawn_bank_dir = bank_dir
        self._resume_tmp: Path | None = None
        self._workers: list = [None] * num_workers
        self._cmd_queues: list = [None] * num_workers
        self._out_queues: list = [None] * num_workers
        self._rings: list[FrameRing | None] = [None] * num_workers
        try:
            for i in range(num_workers):
                self._spawn_worker(i,
                                   self._shard_resume_dir(resume_dir, i))
        except BaseException:
            # A failed i-th spawn must not leak the i-1 workers, rings,
            # and queues already created — the constructor raising
            # means close() will never run.
            self.terminate()
            raise
        self._buffers: list[list] = [[] for _ in range(num_workers)]
        self._buffer_kind: list[str | None] = [None] * num_workers
        # Bulk routing cache: direction key -> worker (same contract
        # as the serial dispatcher's cache).
        self._shard_cache: dict[tuple[int, int], int] = {}
        self._closed = False
        self._state: list[_WorkerState] | None = None
        self._rollup_cache = None

    # -- worker plumbing -------------------------------------------------------

    @staticmethod
    def _shard_resume_dir(root: Path | None, worker: int) -> str | None:
        if root is None:
            return None
        from repro.pipeline.checkpoint import STATE_FILE, shard_dir_name

        shard = Path(root) / shard_dir_name(worker)
        return str(shard) if (shard / STATE_FILE).exists() else None

    def _spawn_worker(self, worker: int,
                      resume_dir: str | None) -> None:
        """(Re)create worker ``worker``'s process and queues. A stale
        queue pair is never reused: it may hold chunks the dead worker
        popped from nobody's perspective, and replaying those to the
        fresh process would double-process them."""
        old = self._workers[worker]
        if old is not None:
            old.join(timeout=0)
            for q in (self._cmd_queues[worker], self._out_queues[worker]):
                q.cancel_join_thread()
                q.close()
        ring = None
        if self.transport == "shm":
            # A fresh ring per (re)spawn: the dead worker's consumption
            # cursor is meaningless to the replayed stream, and stale
            # unconsumed spans must never be re-read.
            if self._rings[worker] is not None:
                self._rings[worker].close()
            ring = FrameRing(self._ctx, self.ring_bytes)
        self._rings[worker] = ring
        cmd_queue = self._ctx.Queue(maxsize=_QUEUE_MAX_CHUNKS)
        out_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker, str(self._respawn_bank_dir), self._options,
                  resume_dir, cmd_queue, out_queue,
                  ring.name if ring is not None else None,
                  ring.consumed if ring is not None else None),
            name=f"repro-shard-{worker}", daemon=True)
        process.start()
        self._workers[worker] = process
        self._cmd_queues[worker] = cmd_queue
        self._out_queues[worker] = out_queue

    def _death_detail(self, worker: int) -> str:
        """Human-readable cause for a dead worker: its shipped
        traceback if one made it out, else the exit code."""
        try:
            reply = self._out_queues[worker].get_nowait()
        except queue_mod.Empty:
            reply = None
        if reply is not None and reply[0] == "error":
            return f"worker {worker} failed:\n{reply[1]}"
        return (f"worker {worker} died (exit code "
                f"{self._workers[worker].exitcode})")

    def _plain_put(self, worker: int, command: tuple) -> None:
        """Enqueue with backpressure and a liveness check: the queue is
        bounded (a slow worker throttles the parent instead of the
        capture accumulating in queue buffers), and a dead worker
        surfaces at the next put instead of hours later at a barrier —
        otherwise the parent would pickle the rest of a multi-hour
        replay into a queue nobody drains."""
        q = self._cmd_queues[worker]
        while True:
            if not self._workers[worker].is_alive():
                raise _WorkerDied(self._death_detail(worker))
            try:
                q.put(command, timeout=_REPLY_TIMEOUT)
                return
            except queue_mod.Full:
                continue

    def _plain_await(self, worker: int):
        while True:
            try:
                reply = self._out_queues[worker].get(
                    timeout=_REPLY_TIMEOUT)
            except queue_mod.Empty:
                if not self._workers[worker].is_alive():
                    raise _WorkerDied(
                        f"worker {worker} died (exit code "
                        f"{self._workers[worker].exitcode}) without "
                        f"replying") from None
                continue
            if reply[0] == "error":
                raise RuntimeError(
                    f"worker {worker} failed:\n{reply[1]}")
            return reply[1]

    def _deliver(self, worker: int, command: tuple) -> None:
        """Physical delivery of one *logical* command. Under the shm
        transport, ``block`` payload bytes go through the worker's
        ring and only a descriptor rides the queue (keeping the
        queue's FIFO as the single ordering authority); everything
        else ships on the queue as-is."""
        if self.transport == "shm" and command[0] == "block":
            ring = self._rings[worker]

            def liveness() -> None:
                if not self._workers[worker].is_alive():
                    raise _WorkerDied(self._death_detail(worker))

            offset, length, after = ring.write(command[1], liveness)
            self._plain_put(worker, ("shm", offset, length, after))
        else:
            self._plain_put(worker, command)

    def _put(self, worker: int, command: tuple) -> None:
        """Journal + deliver one command, recovering the worker if it
        is found dead at delivery time. The journal holds the
        *logical* command (payload bytes included, parent-side copy):
        ring spans get overwritten, so replay re-delivers through
        :meth:`_deliver` into the respawned worker's fresh ring."""
        journal = self._journals[worker]
        if journal is not None:
            journal.append(command)
        try:
            self._deliver(worker, command)
        except _WorkerDied as exc:
            self._recover(worker, exc)

    def _await(self, worker: int):
        recovered = self._recovered[worker]
        if recovered is not _NO_REPLY:
            self._recovered[worker] = _NO_REPLY
            return recovered
        try:
            return self._plain_await(worker)
        except _WorkerDied as exc:
            self._recover(worker, exc)
            recovered = self._recovered[worker]
            if recovered is _NO_REPLY:  # pragma: no cover - invariant
                raise RuntimeError(str(exc)) from exc
            self._recovered[worker] = _NO_REPLY
            return recovered

    def _recover(self, worker: int, cause: _WorkerDied) -> None:
        """Respawn a dead worker from its last checkpoint and replay
        the journaled command delta.

        The parent is single-threaded and awaits every control reply
        right after issuing the command, so at the moment of death at
        most one control reply is outstanding — and only when the
        journal *ends* with a control command. Its replayed reply is
        stashed for the pending :meth:`_await`; replies to earlier
        journaled control commands were consumed before the crash and
        are discarded.
        """
        journal = self._journals[worker]
        if journal is None:
            # No checkpointing, no restore point: keep fail-fast.
            raise RuntimeError(str(cause)) from cause
        detail = str(cause)
        started = time.perf_counter()
        while self._restarts[worker] < self.max_worker_restarts:
            self._restarts[worker] += 1
            self._state = None
            self._spawn_worker(
                worker,
                self._shard_resume_dir(self._restore_point, worker))
            try:
                last_reply = _NO_REPLY
                for command in journal:
                    self._deliver(worker, command)
                    if command[0] not in _DATA_OPS:
                        last_reply = self._plain_await(worker)
                if journal and journal[-1][0] not in _DATA_OPS:
                    self._recovered[worker] = last_reply
                self._note_respawn(worker, cause, len(journal),
                                   time.perf_counter() - started)
                return
            except _WorkerDied as exc:
                detail = str(exc)
                continue
        if self._events is not None:
            self._events.emit(
                "worker_respawn_failed", worker=worker,
                restarts=self._restarts[worker],
                cause=str(cause).splitlines()[0])
        raise RuntimeError(
            f"{detail}; recovery gave up after "
            f"{self.max_worker_restarts} restart(s) in this "
            f"checkpoint window")

    def _note_respawn(self, worker: int, cause: _WorkerDied,
                      replayed: int, elapsed: float) -> None:
        """Record one successful crash recovery: without the replayed
        command count and replay duration in the event log, a resumed
        operator cannot tell clean startup from crash recovery."""
        if self.metrics is not None:
            self.metrics.counter(
                "repro_worker_respawns_total",
                "Worker processes respawned after a crash").inc()
            self.metrics.counter(
                "repro_journal_replayed_commands_total",
                "Journaled commands replayed into respawned "
                "workers").inc(replayed)
            self.metrics.histogram(
                "repro_journal_replay_seconds",
                "Respawn-plus-journal-replay duration per "
                "recovery").observe(elapsed)
        if self._events is not None:
            self._events.emit(
                "worker_respawn", worker=worker,
                restarts=self._restarts[worker],
                replayed_commands=replayed,
                replay_seconds=elapsed,
                cause=str(cause).splitlines()[0])

    def _enqueue(self, worker: int, kind: str, item) -> None:
        if self._closed:
            raise RuntimeError("pipeline is closed")
        if self._buffer_kind[worker] != kind and self._buffers[worker]:
            self._ship(worker)
        self._buffer_kind[worker] = kind
        self._buffers[worker].append(item)
        if len(self._buffers[worker]) >= self.chunk_items:
            self._ship(worker)
        self._state = None

    def _ship(self, worker: int) -> None:
        if not self._buffers[worker]:
            return
        buffer = self._buffers[worker]
        self._buffers[worker] = []
        self._put(worker, (self._buffer_kind[worker], buffer))

    def _barrier(self, command: tuple) -> list:
        """Ship buffered chunks, broadcast one control command, and
        gather every worker's reply (in worker order)."""
        if self._closed:
            raise RuntimeError("pipeline is closed")
        for worker in range(self.num_workers):
            self._ship(worker)
            self._put(worker, command)
        return [self._await(worker)
                for worker in range(self.num_workers)]

    def _sync(self) -> list[_WorkerState]:
        """Collect (and cache) every worker's counters, telemetry, and
        rollup snapshot. Reused until the next data/control command
        invalidates it."""
        if self._state is not None:
            return self._state
        if self._closed:
            raise RuntimeError("pipeline was terminated before a sync")
        rollup_root = None
        if self.retention != "raw":
            rollup_root = Path(tempfile.mkdtemp(prefix="repro-rollup-"))
        try:
            dirs = [str(rollup_root / f"worker{i}") if rollup_root
                    else None for i in range(self.num_workers)]
            for worker in range(self.num_workers):
                self._ship(worker)
                self._put(worker, ("sync", dirs[worker]))
            state = [self._await(worker)
                     for worker in range(self.num_workers)]
            self._state = state
            if rollup_root is not None:
                from repro.telemetry.rollup import RollupCube
                from repro.telemetry.snapshot import load_rollup

                cubes = [load_rollup(d) for d in dirs]
                merged = RollupCube(cubes[0].config)
                for cube in cubes:
                    merged.merge_from(cube)
                self._rollup_cache = merged
        finally:
            if rollup_root is not None:
                shutil.rmtree(rollup_root, ignore_errors=True)
        return self._state

    # -- packet mode -----------------------------------------------------------

    def process_packet(self, packet: Packet) -> None:
        worker = _shard_of_tuple(packet.canonical_key_tuple,
                                 self.num_workers)
        self._enqueue(worker, "packets", packet)

    # -- bulk (vectorized block) mode ------------------------------------------

    def process_block(self, decoded: DecodedBlock) -> None:
        """Bulk ingest across the worker fleet: HTTPS lanes are
        partitioned by the canonical-tuple hash (identical placement
        to :meth:`process_packet`), packed into block chunks, and
        shipped to their workers — through the ring under the shm
        transport, pickled under queue. The valid non-HTTPS remainder
        is a bare count attributed to worker 0, mirroring the serial
        dispatcher, so merged counters agree across all runtimes."""
        if self._closed:
            raise RuntimeError("pipeline is closed")
        per_worker = partition_https_indices(decoded, self.num_workers,
                                             self._shard_cache)
        https_total = 0
        for worker, lanes in enumerate(per_worker):
            if not lanes:
                continue
            https_total += len(lanes)
            self._ship(worker)  # keep FIFO with buffered packet chunks
            for chunk in decoded.block.pack_chunks(
                    lanes, max_bytes=self._pack_bytes):
                self._put(worker, ("block", chunk))
        tally = decoded.valid_count - https_total
        if tally:
            self._put(0, ("tally", tally))
        self._state = None

    # -- flow-summary mode -----------------------------------------------------

    def process_flows(self, flows: Iterable["SyntheticFlow"]) -> None:
        """Partition a flow-summary stream across the workers (same
        placement as ``ShardedPipeline.shard_for``). Unlike the serial
        dispatcher this cannot return the classified count without a
        barrier — read ``counters.video_flows`` after :meth:`flush`."""
        for flow in flows:
            worker = shard_index(flow.key, self.num_workers)
            self._enqueue(worker, "flows", flow)

    def shard_for(self, key: "FlowKey") -> int:
        return shard_index(key, self.num_workers)

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> int:
        result = sum(self._barrier(("drain",)))
        self._state = None
        return result

    def flush(self, role: str = "content") -> int:
        result = sum(self._barrier(("flush", role)))
        self._state = None
        return result

    def flush_idle(self, now: float, idle_timeout: float = 120.0,
                   role: str = "content") -> int:
        result = sum(self._barrier(("flush_idle", now, idle_timeout,
                                    role)))
        self._state = None
        return result

    # -- checkpoint/restore ----------------------------------------------------

    def save_checkpoint(self, path: str | Path | None = None,
                        extra: dict[str, str] | None = None) -> None:
        """Checkpoint every worker's shard into one sharded checkpoint
        (default: the constructor's ``checkpoint_dir``), atomically.

        A drain barrier per worker: each worker classifies its
        buffered flows, snapshots its full pipeline state into
        ``<dir>/shardNN``, and the parent swaps the assembled
        directory into place, clears the per-worker journals, and
        resets the restart budget — this checkpoint is the new restore
        point for crash recovery.
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        target = Path(path) if path is not None else self.checkpoint_dir
        if target is None:
            raise ValueError(
                "no checkpoint directory: pass path= or construct "
                "with checkpoint_dir=")
        from repro.pipeline.checkpoint import (
            atomic_save,
            shard_dir_name,
            write_sharded_meta,
        )

        def write(tmp: Path) -> None:
            for worker in range(self.num_workers):
                self._ship(worker)
                self._put(worker, ("checkpoint",
                                   str(tmp / shard_dir_name(worker))))
            for worker in range(self.num_workers):
                self._await(worker)
            write_sharded_meta(tmp, self.num_workers, extra=extra)

        # If the save fails, the journaled ("checkpoint", <tmp>/shardNN)
        # commands deliberately stay: replaying them preserves the
        # worker's exact drain/flush trajectory, and the resurrected
        # temp directory is removed by the next save to this target.
        atomic_save(target, write)
        self._restore_point = target
        self._respawn_bank_dir = self.bank_dir
        self._options["pack_path"] = self._pack_path
        for worker in range(self.num_workers):
            if self._journals[worker] is not None:
                self._journals[worker] = []
            self._restarts[worker] = 0
        # Worker-side drain changed pending/classified state.
        self._state = None

    @classmethod
    def restore(cls, path: str | Path, bank_dir: str | Path,
                num_workers: int | None = None,
                **options: Any) -> "ParallelShardedPipeline":
        """Resume a parallel runtime from a sharded checkpoint
        (written by this class *or* by ``ShardedPipeline`` — the
        formats are identical).

        ``num_workers`` may differ from the checkpointed shard count:
        the checkpoint is re-sharded bank-free on the parent side
        (live flows re-routed by the dispatcher hash, merged history
        carried on shard 0) into a temp directory the workers resume
        from. ``batch_size``/``confidence_threshold``/``retention``
        default to the checkpointed values.
        """
        from repro.pipeline.checkpoint import (
            read_sharded_meta,
            read_state_config,
            redistribute_checkpoint,
            shard_dir_name,
        )

        path = Path(path)
        saved = read_sharded_meta(path)
        target = num_workers if num_workers is not None else saved
        resume = path
        tmp_root: Path | None = None
        if target != saved:
            tmp_root = Path(tempfile.mkdtemp(prefix="repro-resume-"))
            resume = tmp_root / "checkpoint"
            redistribute_checkpoint(path, resume, target)
        # Config defaults ride in every shard checkpoint; shard 0 is
        # authoritative (save_* writes them identical across shards).
        # A cheap header peek — the workers do the full verified load.
        # An explicit None means "use the checkpointed value" too (the
        # CLI passes unset flags through as None).
        shard0 = read_state_config(resume / shard_dir_name(0))
        if options.get("retention") is None:
            options["retention"] = shard0["retention"]
        if options.get("batch_size") is None:
            options["batch_size"] = shard0["batch_size"]
        if options.get("confidence_threshold") is None:
            options["confidence_threshold"] = shard0["threshold"]
        try:
            pipeline = cls(bank_dir, num_workers=target,
                           resume_dir=resume, **options)
        except BaseException:
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)
            raise
        pipeline._resume_tmp = tmp_root
        return pipeline

    def reload_bank(self, bank_dir: str | Path,
                    pack_path: str | Path | None = None) -> None:
        """Hot-swap a retrained persisted bank into every worker
        without dropping in-flight flows (each worker drains first —
        the driftwatch retraining trigger, best issued right after a
        checkpoint so the swap is part of the journaled delta).

        ``pack_path`` promotes a new fingerprint pack along with the
        bank: the parent activates it, every worker activates it
        before loading the bank (whose manifest must carry the new
        pack's digest), and respawned workers come up on it too.
        """
        bank_dir = Path(bank_dir)
        if not (bank_dir / "manifest.json").exists():
            raise ConfigError(f"no bank manifest at {bank_dir}")
        pack_arg = None
        if pack_path is not None:
            pack = activate_pack(pack_path)
            pack_arg = str(pack_path)
            self._pack_path = pack_arg
            if self._events is not None:
                self._events.emit("pack_promoted", **pack.info())
        self._barrier(("reload_bank", str(bank_dir), pack_arg))
        self.bank_dir = bank_dir
        self._state = None

    def close(self) -> None:
        """Stop and join every worker. Merged views stay readable: the
        final state is synced before the workers exit. If the final
        sync or stop barrier fails (a worker already dead), the
        remaining workers are terminated rather than leaked."""
        if self._closed:
            return
        try:
            self._sync()  # capture final state while workers are alive
            self._barrier(("stop",))
        except BaseException:
            self.terminate()
            raise
        self._closed = True
        for process in self._workers:
            process.join(timeout=30.0)
        for q in (*self._cmd_queues, *self._out_queues):
            q.close()
        self._close_rings()
        if self._resume_tmp is not None:
            shutil.rmtree(self._resume_tmp, ignore_errors=True)
            self._resume_tmp = None

    def __enter__(self) -> "ParallelShardedPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with a barrier error from
        # workers that may already be wedged.
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def _close_rings(self) -> None:
        """Unlink every shm segment (owner side; idempotent) — runs on
        clean close *and* on terminate, so no /dev/shm entries outlive
        the parent on either path."""
        for i, ring in enumerate(self._rings):
            if ring is not None:
                ring.close()
                self._rings[i] = None

    def terminate(self) -> None:
        """Hard-kill the workers (error paths only — loses unsynced
        state)."""
        self._closed = True
        for process in self._workers:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._workers:
            if process is not None:
                process.join(timeout=5.0)
        for q in (*self._cmd_queues, *self._out_queues):
            if q is not None:
                # Chunks still buffered for a killed worker would block
                # the queue's feeder thread on a pipe nobody reads, and
                # interpreter exit joins that thread.
                q.cancel_join_thread()
                q.close()
        self._close_rings()
        if self._resume_tmp is not None:
            shutil.rmtree(self._resume_tmp, ignore_errors=True)
            self._resume_tmp = None

    # -- merged views ----------------------------------------------------------

    @property
    def workers_alive(self) -> int:
        """Worker processes alive *right now* — a lock-free liveness
        probe (no sync barrier, mutates nothing). A count below
        ``num_workers`` is transient while the dispatcher's next use
        respawns the worker, permanent once the restart budget is
        spent — exactly the distinction a health endpoint reports."""
        return sum(1 for process in self._workers
                   if process is not None and process.is_alive())

    @property
    def counters(self) -> PipelineCounters:
        merged = PipelineCounters()
        for state in self._sync():
            merged.merge(state.counters)
        return merged

    @property
    def telemetry(self) -> TelemetryStore:
        """All workers' records merged worker-by-worker — the same
        shard-major order the serial dispatcher's ``telemetry`` gives.
        A fresh snapshot per sync, not a live store."""
        merged = TelemetryStore()
        for state in self._sync():
            merged.extend(state.records)
        return merged

    @property
    def store(self) -> TelemetryStore:
        return self.telemetry

    @property
    def rollup(self) -> "RollupCube | None":
        """The workers' rollup cubes — snapshotted through
        ``save_rollup``/``load_rollup`` and merged with ``merge_from``
        (exact for every additive aggregate, order-independent) — or
        None under ``retention="raw"``."""
        if self.retention == "raw":
            return None
        self._sync()
        return self._rollup_cache

    @property
    def live_flows(self) -> int:
        return sum(state.live_flows for state in self._sync())

    @property
    def pending_classifications(self) -> int:
        return sum(state.pending for state in self._sync())

    @property
    def shard_loads(self) -> list[int]:
        return [state.counters.flows for state in self._sync()]

    @property
    def shard_live_flows(self) -> list[int]:
        """Current flow-table size per worker (same sync snapshot the
        other merged views read)."""
        return [state.live_flows for state in self._sync()]

    # -- observability ---------------------------------------------------------

    def export_metrics(self) -> "MetricsRegistry":
        """A fresh registry with the fleet-wide metric view.

        Count metrics derive from the merged counters (byte-identical
        to a serial run by the equivalence contract, crash-safe by the
        checkpoint/journal contract); worker timing registries merge
        from the snapshots the last sync barrier carried; parent-side
        signals (respawns, ring backpressure, queue depths) come from
        the parent's own state. Reading is one sync barrier — the same
        cost as ``counters`` — and mutates nothing."""
        from repro.obs.export import (export_counters,
                                      export_pack_info,
                                      export_runtime_gauges,
                                      export_shard_gauges)
        from repro.obs.metrics import MetricsRegistry

        states = self._sync()
        registry = MetricsRegistry()
        merged = PipelineCounters()
        for state in states:
            merged.merge(state.counters)
        export_counters(registry, merged)
        export_runtime_gauges(registry, self)
        export_shard_gauges(registry,
                            [state.live_flows for state in states],
                            [state.counters.flows for state in states])
        export_pack_info(registry)
        for state in states:
            if state.metrics is not None:
                registry.merge_snapshot(state.metrics)
        if self.metrics is not None:
            registry.merge(self.metrics)
        if self.transport == "shm":
            rings = [ring for ring in self._rings if ring is not None]
            registry.counter(
                "repro_shm_ring_waits_total",
                "Ring writes that blocked on worker backpressure",
            ).inc(sum(ring.waits for ring in rings))
            registry.counter(
                "repro_shm_ring_wait_seconds_total",
                "Parent seconds spent blocked on ring backpressure",
            ).inc(sum(ring.wait_seconds for ring in rings))
        for i, q in enumerate(self._cmd_queues):
            try:
                depth = q.qsize()
            except NotImplementedError:  # macOS has no sem_getvalue
                break
            registry.gauge(
                "repro_cmd_queue_depth",
                "Chunks queued to a worker and not yet popped",
                {"worker": str(i)}).set(depth)
        return registry
