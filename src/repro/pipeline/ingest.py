"""Capture-file ingest glue: stream a pcap through a pipeline.

One function bridges :class:`~repro.net.pcap.PcapReader` and every
pipeline flavor without materializing the capture. ``mode="bulk"`` (the
default, and what the CLI uses) streams whole
:class:`~repro.net.FrameBlock` chunks through the vectorized
``decode_block``/``process_block`` path; ``mode="eager"`` keeps the
original per-record ``Packet.from_bytes`` path alive as the equivalence
oracle. Both produce identical counters, predictions, and telemetry on
the same file (``tests/test_bulk_equivalence.py`` and
``tests/test_golden_trace.py`` pin this). The per-block body of the
bulk path is :func:`ingest_block`, which the ``repro serve`` daemon
calls with the blocks its live sources poll — a live feed and a
replay share one tick-slicing implementation.

Real captures carry frames the pipeline cannot use — ARP, IPv6, LLDP,
mangled records. By default those are skipped and tallied rather than
aborting the replay; ``strict=True`` restores fail-fast for captures we
generated ourselves. Because the two ingest paths reject exactly the
same frame classes, skipping preserves the equivalence contract.

A replay is also where flow-table bounding has to be driven from: a
live tap evicts idle flows on wall-clock timers, but a capture's only
clock is its timestamps. ``idle_timeout`` makes :func:`ingest_pcap`
call the pipeline's ``flush_idle`` every ``evict_interval`` seconds of
*capture* time, so a day-long replay holds O(concurrent flows) state
instead of O(total flows). For captures shorter than the timeout no
flow can be idle long enough to evict, so counters and telemetry stay
identical to an unbounded replay.

Checkpointing rides the same capture clock: with ``checkpoint_dir``
and ``checkpoint_interval`` set, every interval of capture time the
pipeline's ``save_checkpoint`` runs and the replay position (records
consumed, clock, pending eviction/checkpoint deadlines) is written
*atomically with* the snapshot as an ``ingest.json`` sidecar. A
killed replay then restarts with ``resume_dir=``: the caller restores
the pipeline from the checkpoint, :func:`ingest_pcap` skips the
already-consumed records and re-arms the clocks, and the finished run
is byte-identical to one that was never interrupted (given the same
checkpoint schedule — see ``pipeline/checkpoint.py`` for why the
schedule is part of the contract).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.errors import ConfigError, ParseError
from repro.net.packet import Packet
from repro.net.pcap import PcapReader
from repro.net.rawpacket import FrameBlock, decode_block
from repro.pipeline.ticks import TickDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry, Span
    from repro.pipeline.engine import RealtimePipeline
    from repro.pipeline.parallel import ParallelShardedPipeline
    from repro.pipeline.sharded import ShardedPipeline

INGEST_MODES = ("eager", "bulk")

INGEST_POSITION_FILE = "ingest.json"
_POSITION_VERSION = 1

_STAGE_HELP = "Stage latency (seconds) per batch-level operation"


class IngestPosition(NamedTuple):
    """Where a checkpointed replay stood when its snapshot was taken.

    ``consumed`` counts every pcap record read (processed *and*
    skipped) — the records :func:`ingest_pcap` fast-forwards past on
    resume. The clocks re-arm eviction and checkpoint ticks at the
    same capture times an uninterrupted replay would hit.
    """

    consumed: int
    frames: int
    skipped: int
    clock: float | None
    next_evict: float | None
    next_checkpoint: float | None

    def to_json(self) -> str:
        return position_json(self)


def _clock_field(data: dict, key: str) -> float | None:
    """Coerce a saved clock/deadline to ``float | None``. The raw JSON
    value used to pass through untyped, so a hand-edited (or corrupted)
    position with ``"clock": "12.5"`` survived loading and only blew up
    frames later inside the tick arithmetic — far from the real cause.
    Booleans are explicitly rejected: ``True`` is an ``int`` to
    ``isinstance`` but never a meaningful timestamp."""
    value = data[key]
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"{key} must be a number or null, got {value!r}")
    return float(value)


def position_json(position: NamedTuple) -> str:
    """The sidecar text of a position tuple (this module's, or the
    daemon's ``ServicePosition``): its fields plus
    ``format_version``."""
    return json.dumps({"format_version": _POSITION_VERSION,
                       **position._asdict()}, sort_keys=True, indent=1)


def load_position(checkpoint_dir: str | Path, file_name: str, kind: str,
                  clock_fields: tuple[str, ...],
                  missing: str) -> dict[str, Any]:
    """Read a position sidecar saved alongside a checkpoint — the one
    reader behind :func:`load_ingest_position` and the daemon's
    ``load_service_position``. Returns the three record counters plus
    ``clock_fields`` coerced by :func:`_clock_field`; raises
    :class:`ConfigError` when the sidecar is absent (``missing`` says
    what wrote it) or malformed."""
    path = Path(checkpoint_dir) / file_name
    if not path.exists():
        raise ConfigError(
            f"checkpoint at {checkpoint_dir} has no {missing}")
    try:
        data = json.loads(path.read_text())
        if data.get("format_version") != _POSITION_VERSION:
            raise ConfigError(
                f"unsupported {kind} position format "
                f"{data.get('format_version')!r} at {path}")
        fields: dict[str, Any] = {
            key: int(data[key])
            for key in ("consumed", "frames", "skipped")}
        for key in clock_fields:
            fields[key] = _clock_field(data, key)
        return fields
    except ConfigError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, AttributeError,
            KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(
            f"malformed {kind} position at {path}: {exc}") from exc


def load_ingest_position(checkpoint_dir: str | Path) -> IngestPosition:
    """Read the replay position saved alongside a checkpoint; raises
    :class:`ConfigError` when the checkpoint carries none (it was not
    written by a checkpointing :func:`ingest_pcap`) or it is
    malformed."""
    return IngestPosition(**load_position(
        checkpoint_dir, INGEST_POSITION_FILE, "ingest",
        ("clock", "next_evict", "next_checkpoint"),
        f"replay position ({INGEST_POSITION_FILE}); it was not written "
        f"during a pcap replay"))


class IngestResult(NamedTuple):
    """What a capture replay did: frames the pipeline consumed, and
    frames skipped as unparseable (non-IPv4/non-TCP-UDP/mangled)."""

    frames: int
    skipped: int


def ingest_pcap(pipeline: "RealtimePipeline | ShardedPipeline | "
                          "ParallelShardedPipeline",
                path: str | Path, mode: str = "bulk",
                strict: bool = False,
                idle_timeout: float | None = None,
                evict_interval: float | None = None,
                checkpoint_dir: str | Path | None = None,
                checkpoint_interval: float | None = None,
                resume_dir: str | Path | None = None,
                events: "EventLog | None" = None) -> IngestResult:
    """Stream every frame of ``path`` into ``pipeline``.

    Does not flush — callers decide when flows are final. With
    ``strict=True`` the first unparseable frame raises
    :class:`ParseError` instead of being counted in ``skipped``.

    ``idle_timeout`` bounds the flow table during the replay: every
    ``evict_interval`` seconds of capture time (default
    ``idle_timeout / 4``) the pipeline's ``flush_idle`` runs at the
    capture clock, finalizing flows idle for ``idle_timeout`` seconds.
    The capture clock is the maximum timestamp seen so far, so a
    reordered slice never drives it backwards.

    ``checkpoint_dir`` + ``checkpoint_interval`` snapshot the pipeline
    (``pipeline.save_checkpoint``) every interval of capture time,
    with the replay position embedded atomically in the checkpoint.
    ``resume_dir`` reads such a position back (the caller must have
    restored ``pipeline`` from the same checkpoint), fast-forwards
    past the consumed records, and returns cumulative frame counts —
    the combined run is indistinguishable from one that was never
    interrupted. Usually ``resume_dir`` and ``checkpoint_dir`` are the
    same directory.

    ``events`` is an optional :class:`~repro.obs.events.EventLog`:
    the replay publishes its capture clock to it and records resume,
    eviction-sweep, and checkpoint events. When the pipeline carries a
    live metrics registry (``pipeline.metrics``), the replay also
    times block decodes and observes total ingest duration and skip
    counts into it; both hooks cost nothing when absent.
    """
    if mode not in INGEST_MODES:
        raise ValueError(
            f"mode must be one of {INGEST_MODES}, got {mode!r}")
    # The driver constructor is also the knob validator (ValueError on
    # inconsistent idle/evict/checkpoint settings), shared verbatim
    # with the service daemon's wall-clock instance.
    driver = TickDriver(pipeline, idle_timeout=idle_timeout,
                        evict_interval=evict_interval,
                        checkpoint_dir=checkpoint_dir,
                        checkpoint_interval=checkpoint_interval,
                        events=events)
    consumed = frames = skipped = 0
    if resume_dir is not None:
        position = load_ingest_position(resume_dir)
        consumed = position.consumed
        frames = position.frames
        skipped = position.skipped
        driver.resume(position.clock, position.next_evict,
                      position.next_checkpoint)
        if events is not None:
            if position.clock is not None:
                events.set_clock(position.clock)
            # Clean planned resume (vs. the parallel runtime's
            # worker_respawn crash recovery — operators need to tell
            # the two apart in the same log).
            events.emit("ingest_resume", resume_dir=str(resume_dir),
                        consumed=consumed, frames=frames,
                        skipped=skipped)
    resume_consumed = consumed
    start_skipped = skipped
    registry = getattr(pipeline, "metrics", None)
    started = time.perf_counter()
    driver.position = lambda: {INGEST_POSITION_FILE: IngestPosition(
        consumed=consumed, frames=frames, skipped=skipped,
        clock=driver.clock, next_evict=driver.next_evict,
        next_checkpoint=driver.next_checkpoint).to_json()}
    driver.event_fields = lambda: {"consumed": consumed}

    def account(records: int, good: int) -> None:
        nonlocal consumed, frames, skipped
        consumed += records
        frames += good
        skipped += records - good

    with PcapReader(path) as reader:
        if mode == "bulk":
            missing = _replay_blocks(pipeline, reader, driver, registry,
                                     strict, resume_consumed, account)
        else:
            missing = _replay_packets(pipeline, reader, driver, strict,
                                      resume_consumed, account)
    if missing:
        # Fewer records than the checkpoint consumed: this is not the
        # capture the position came from (wrong file or truncated).
        raise ConfigError(
            f"cannot resume: {path} holds fewer records than the "
            f"checkpointed position ({missing} of "
            f"{resume_consumed} consumed records missing)")
    if registry is not None:
        # One observation per replay, nothing per frame.
        registry.histogram(
            "repro_ingest_seconds",
            "Wall-clock duration of one capture replay",
            buckets=(0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
                     1800.0, 7200.0, 43200.0)
        ).observe(time.perf_counter() - started)
        registry.counter(
            "repro_ingest_skipped_total",
            "Unparseable frames skipped during replay"
        ).inc(skipped - start_skipped)
    return IngestResult(frames, skipped)


def _replay_packets(pipeline: "RealtimePipeline | ShardedPipeline | "
                              "ParallelShardedPipeline",
                    reader: PcapReader, driver: TickDriver,
                    strict: bool, to_skip: int,
                    account: Callable[[int, int], None]) -> int:
    """The ``mode="eager"`` body of :func:`ingest_pcap`: one
    ``Packet.from_bytes`` + ``process_packet`` per record — the oracle
    every fast path is held to. Returns how many of ``to_skip``
    already-consumed records the capture turned out not to hold."""
    track_clock = driver.active
    parse = Packet.from_bytes
    process = pipeline.process_packet
    for data, timestamp in reader.frames():
        if to_skip:
            # Fast-forward through records the checkpointed run
            # already consumed; their effects are in the restored
            # pipeline state.
            to_skip -= 1
            continue
        # The clock advances on every frame — skipped ones too: an
        # unparseable-heavy stretch (IPv6/ARP bursts) still passes
        # capture time, and idle flows must not outlive it.
        if track_clock:
            driver.advance(timestamp)
        try:
            packet = parse(data, timestamp)
        except ParseError:
            if strict:
                raise
            account(1, 0)
            continue
        process(packet)
        account(1, 1)
    return to_skip


def _replay_blocks(pipeline: "RealtimePipeline | ShardedPipeline | "
                             "ParallelShardedPipeline",
                   reader: PcapReader, driver: TickDriver,
                   registry: "MetricsRegistry | None", strict: bool,
                   to_skip: int,
                   account: Callable[[int, int], None]) -> int:
    """The ``mode="bulk"`` body of :func:`ingest_pcap`: stream the
    capture as :class:`~repro.net.FrameBlock` chunks through
    :func:`ingest_block`. Returns the unskipped remainder of
    ``to_skip``, like :func:`_replay_packets`."""
    decode_span = None if registry is None else registry.timed(
        "repro_stage_seconds", _STAGE_HELP, {"stage": "block_decode"})
    for block in reader.blocks():
        if to_skip:
            # Fast-forward records the checkpointed run already
            # consumed; like the per-record loop, they advance
            # nothing — not even the clock.
            if to_skip >= len(block):
                to_skip -= len(block)
                continue
            block = block.slice(to_skip, len(block))
            to_skip = 0
        ingest_block(pipeline, block, driver, account, strict,
                     decode_span)
    return to_skip


def ingest_block(pipeline: "RealtimePipeline | ShardedPipeline | "
                           "ParallelShardedPipeline",
                 block: FrameBlock, driver: TickDriver,
                 account: Callable[[int, int], None],
                 strict: bool = False,
                 decode_span: "Span | None" = None) -> None:
    """One :class:`~repro.net.FrameBlock` through
    ``pipeline.process_block``, cut at ``driver``'s deadlines — the
    per-block body of a bulk replay *and* of the serve daemon's ingest
    loop, so live eviction order is the batch order by construction.
    ``account(records, good)`` is called once per span, before any
    later tick can fire, so a checkpoint taken mid-block saves an
    exact position.

    Per-frame observable order is preserved exactly — the capture
    clock is the running max of *all* timestamps (skipped frames too),
    eviction/checkpoint deadlines arm on the first clock advance, each
    tick fires *before* the frame that crossed its deadline is
    processed, and a strict-mode :class:`ParseError` surfaces after
    every preceding frame has been processed. All of that ordering
    lives in ``driver`` (:class:`~repro.pipeline.ticks.TickDriver`);
    this function's own job is finding the spans *between* ticks: the
    block is split at event frames (``np.searchsorted`` over the
    running max against the driver's armed deadlines), so a tick-free
    block is one ``process_block`` call.
    """
    track_clock = driver.active
    if decode_span is not None:
        with decode_span:
            decoded = decode_block(block)
    else:
        decoded = decode_block(block)
    times = block.timestamps
    runmax = np.maximum.accumulate(times)
    if driver.clock is not None:
        runmax = np.maximum(runmax, driver.clock)
    n = len(block)
    pos = 0
    while pos < n:
        if track_clock:
            # Frame-``pos`` events, in per-frame order: clock
            # advance + deadline arming, eviction tick,
            # checkpoint tick.
            driver.advance(float(runmax[pos]))
        if strict and not decoded.valid[pos]:
            # Ticks at this frame fired above; now fail with
            # the oracle's exact error.
            decoded.raise_invalid(pos)
        # Find the next event frame after ``pos``; everything
        # before it is one uninterrupted span.
        cut = n
        if track_clock:
            if (driver.next_evict is None and
                    driver.evict_interval is not None) or \
                    (driver.next_checkpoint is None and
                     driver.checkpoint_interval is not None):
                # A deadline is still unarmed: it arms at the
                # next clock advance.
                ahead = times[pos + 1:] > driver.clock
                if ahead.any():
                    cut = min(cut,
                              pos + 1 + int(np.argmax(ahead)))
            for deadline in (driver.next_evict,
                             driver.next_checkpoint):
                if deadline is not None:
                    cut = min(cut, pos + 1 + int(
                        np.searchsorted(runmax[pos + 1:],
                                        deadline)))
        if strict:
            bad = np.nonzero(~decoded.valid[pos:cut])[0]
            if bad.size:
                # bad[0] > 0: an invalid frame *at* pos raised
                # above, so the span below is never empty.
                cut = pos + int(bad[0])
        span = decoded if pos == 0 and cut == n \
            else decoded.slice(pos, cut)
        pipeline.process_block(span)
        account(cut - pos, span.valid_count)
        if track_clock and cut > pos:
            # Catch the clock up to the span's end; by the cut
            # construction no deadline lies inside the span, so
            # this advance can never fire a tick.
            driver.advance(float(runmax[cut - 1]))
        pos = cut
