"""The real-time packet processing pipeline of Fig 4.

Packet mode (:meth:`RealtimePipeline.process_packet`) mirrors the
paper's DPDK VNF: a flow table keyed on the canonical 5-tuple gathers
each flow's first packets, the SNI filter decides whether the flow is a
video flow of a known provider, the handshake attribute generator runs
once the ClientHello is seen, the classifier bank predicts the platform,
and volumetric telemetry accumulates per flow until the flow is flushed.

Classification is *buffered*: a flow whose handshake has been parsed
and filtered joins a pending queue, and whenever ``batch_size`` flows
are waiting the queue drains through :meth:`ClassifierBank.classify_batch`
— one encoder pass and one forest pass per (provider, transport)
scenario instead of per flow. ``batch_size=1`` degenerates to the
classic classify-at-parse-time behavior; any batch size produces
byte-identical predictions, counters, and telemetry (the equivalence
test suite holds the two paths together).

Flow-summary mode (:meth:`process_flow`) classifies from the same real
packets but takes the flow's total volume/duration from the generator's
summary instead of observing every payload packet — the scale
substitution documented in DESIGN.md (the paper's telemetry module
counts payload bytes in hardware; synthesizing 100M flows' payload
packets in Python would add nothing to the measurement path under test).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import CryptoError, ParseError
from repro.features.extract import extract_attributes, parse_flow_handshake
from repro.fingerprints.model import Provider, Transport
from repro.fingerprints.packs import FingerprintPack
from repro.fingerprints.providers import detect_provider
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.rawpacket import DecodedBlock
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.pipeline.bank import ClassifierBank
from repro.pipeline.confidence import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    PlatformPrediction,
)
from repro.pipeline.store import TelemetryRecord, TelemetryStore
from repro.trafficgen.session import SyntheticFlow

HTTPS_PORT = 443
_MAX_HANDSHAKE_PACKETS = 8
_DIRKEY_CACHE_MAX = 1 << 16

# What the pipeline keeps per emitted telemetry record: raw records in
# the store (the seed behavior and the §5.2 full-scan oracle), rollup
# cells only (bounded memory for long deployments), or both.
RETENTION_MODES = ("raw", "rollup", "both")

_STAGE_HELP = "Stage latency (seconds) per batch-level operation"


@dataclass
class PipelineCounters:
    packets: int = 0
    flows: int = 0
    video_flows: int = 0
    classified: int = 0
    partial: int = 0
    unknown: int = 0
    non_video_flows: int = 0
    parse_failures: int = 0
    # Flows evicted before their handshake ever completed (truncated
    # before _MAX_HANDSHAKE_PACKETS): distinct from parse_failures,
    # which only counts flows whose 8 observed packets never parsed.
    incomplete: int = 0
    # Flows removed from the flow table by flush_idle's idle-timeout
    # sweep (video and non-video alike). Lives here rather than in a
    # side channel because eviction schedules are identical across
    # ingest modes and shardings — so the count inherits the
    # equivalence, checkpoint, and journal-replay contracts for free.
    evicted: int = 0

    def record(self, prediction: PlatformPrediction) -> None:
        if prediction.status == "classified":
            self.classified += 1
        elif prediction.status == "partial":
            self.partial += 1
        else:
            self.unknown += 1

    def merge(self, other: "PipelineCounters") -> None:
        """Accumulate another counter set (shard aggregation)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))


@dataclass
class _FlowState:
    key: FlowKey
    first_seen: float
    handshake_packets: list[Packet] = field(default_factory=list)
    last_seen: float = 0.0
    bytes_down: int = 0
    bytes_up: int = 0
    client_ip: str | None = None
    provider: Provider | None = None
    transport: Transport | None = None
    prediction: PlatformPrediction | None = None
    done_collecting: bool = False
    not_video: bool = False


class RealtimePipeline:
    """One packet-processing worker.

    ``batch_size`` controls the classification buffer: 1 classifies each
    flow the moment its handshake parses (the reference path); larger
    values gather up to that many classification-ready flows and push
    them through the vectorized batch path in one go. :meth:`flush` and
    :meth:`flush_idle` always drain the buffer first, so no prediction
    is ever lost to buffering.

    ``retention`` controls what survives of each emitted telemetry
    record: ``"raw"`` appends to the O(flows) store (seed behavior),
    ``"rollup"`` folds into the O(cells) :class:`RollupCube` only, and
    ``"both"`` does both — the configuration the rollup equivalence
    suite uses to hold the two representations together.
    """

    def __init__(self, bank: ClassifierBank,
                 store: TelemetryStore | None = None,
                 confidence_threshold: float =
                 DEFAULT_CONFIDENCE_THRESHOLD,
                 batch_size: int = 1,
                 retention: str = "raw",
                 rollup_config: "RollupConfig | None" = None,
                 monitor: "ConceptDriftMonitor | None" = None,
                 metrics: "MetricsRegistry | bool | None" = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if retention not in RETENTION_MODES:
            raise ValueError(
                f"retention must be one of {RETENTION_MODES}, "
                f"got {retention!r}")
        self.bank = bank
        self.store = store if store is not None else TelemetryStore()
        self.threshold = confidence_threshold
        self.batch_size = batch_size
        self.retention = retention
        if retention == "raw":
            self.rollup = None
        else:
            # Imported lazily: repro.telemetry's query layer reaches
            # back into analysis/pipeline modules, and a module-level
            # import here would make that a cycle.
            from repro.telemetry.rollup import RollupConfig, RollupCube

            self.rollup = RollupCube(rollup_config
                                     if rollup_config is not None
                                     else RollupConfig())
        # Optional concept-drift watch (§5.3): every prediction the
        # pipeline assigns is also shown to the monitor, whose state
        # rides along in checkpoints.
        self.monitor = monitor
        self.counters = PipelineCounters()
        # Keyed on the canonical 5-tuple as a plain tuple: tuple hashing
        # is the per-packet hot path, FlowKey objects are only built
        # once per flow (for telemetry).
        self._flows: dict[tuple, _FlowState] = {}
        self._pending: list[tuple[_FlowState, Provider, Transport, dict]] \
            = []
        # Bulk-path direction cache: packed numeric (src,dst,ports)
        # pair -> (canonical key tuple, src_ip, dst_ip). The canonical
        # key compares dotted-quad *strings*, so it cannot be derived
        # numerically — but a tap's (host pair, port pair) population
        # is bounded, so each direction's string work happens once.
        self._dirkey_cache: dict[tuple[int, int],
                                 tuple[tuple, str, str]] = {}
        # Observability plane (``metrics=True`` builds a private
        # registry; a shared one can be passed in, as the sharded
        # runtime does). Per-packet counts are NOT instrumented here —
        # they derive from ``self.counters`` at export time — so the
        # instruments below cost one perf_counter pair per *batch*
        # operation, and a single ``is not None`` guard when disabled.
        # Note the explicit False/None mapping: an *empty* registry is
        # len()==0 and therefore falsy, so ``metrics or None`` would
        # silently discard a freshly created (or passed-in, not yet
        # populated) registry.
        if metrics is True:
            metrics = MetricsRegistry()
        elif metrics is False:
            metrics = None
        self.metrics: MetricsRegistry | None = metrics
        if self.metrics is not None:
            m = self.metrics
            self._span_drain = m.timed("repro_stage_seconds",
                                       _STAGE_HELP,
                                       {"stage": "classify_drain"})
            self._span_sweep = m.timed("repro_stage_seconds",
                                       _STAGE_HELP,
                                       {"stage": "eviction_sweep"})
            self._span_ckpt = m.timed("repro_stage_seconds",
                                      _STAGE_HELP,
                                      {"stage": "checkpoint_save"})
            self._hist_batch = m.histogram(
                "repro_classify_batch_flows",
                "Flows per batch classification drain",
                buckets=COUNT_BUCKETS)
            self._c_promotions = m.counter(
                "repro_promotions_total",
                "Bulk frames promoted to full Packet objects "
                "(handshake-phase only; structurally 0 in eager mode)")
        else:
            self._span_drain = None
            self._span_sweep = None
            self._span_ckpt = None
            self._hist_batch = None
            self._c_promotions = None

    # -- packet mode -----------------------------------------------------------

    def process_packet(self, packet: Packet) -> None:
        self.counters.packets += 1
        if packet.dst_port != HTTPS_PORT and packet.src_port != HTTPS_PORT:
            return
        payload_len = len(packet.payload)
        state = self._update_flow(packet.canonical_key_tuple,
                                  packet.timestamp, packet.ip.src,
                                  packet.ip.dst, packet.dst_port,
                                  payload_len)
        if state.not_video or state.done_collecting:
            return
        state.handshake_packets.append(packet)
        # A payload-less packet (SYN-ACK, bare ACK) cannot complete a
        # handshake the previous attempt couldn't parse — skip the
        # reparse unless the flow just hit the parse-failure bar. The
        # one exception is a client SYN arriving *after* other packets
        # (reorder): it supplies the ISN a buffered ClientHello needs.
        if payload_len or \
                len(state.handshake_packets) >= _MAX_HANDSHAKE_PACKETS \
                or self._is_late_client_syn(state, packet):
            self._try_classify(state)

    @staticmethod
    def _is_late_client_syn(state: _FlowState, packet: Packet) -> bool:
        return (len(state.handshake_packets) > 1 and packet.is_tcp
                and packet.tcp.flag_syn and not packet.tcp.flag_ack)

    def _update_flow(self, key: tuple, timestamp: float, src_ip: str,
                     dst_ip: str, dst_port: int,
                     payload_len: int) -> _FlowState:
        """The one place both ingest paths touch flow-window and byte
        accounting: find-or-create the flow state, widen the
        [first_seen, last_seen] window, and attribute payload bytes to
        the client or server direction."""
        state = self._flows.get(key)
        if state is None:
            state = _FlowState(key=FlowKey(*key), first_seen=timestamp,
                               client_ip=src_ip
                               if dst_port == HTTPS_PORT else dst_ip)
            self._flows[key] = state
            self.counters.flows += 1
        # Reordered captures can deliver a later packet first: track
        # both ends of the flow window symmetrically, or §5.1 durations
        # skew by the reorder distance.
        elif timestamp < state.first_seen:
            state.first_seen = timestamp
        if timestamp > state.last_seen:
            state.last_seen = timestamp
        if src_ip == state.client_ip:
            state.bytes_up += payload_len
        else:
            state.bytes_down += payload_len
        return state

    # -- bulk (vectorized block) mode ------------------------------------------

    def count_packets(self, count: int) -> None:
        """Account ``count`` valid frames that need no flow-table work
        (the non-443 majority a bulk decode disposes of in one add)."""
        self.counters.packets += count

    def process_block(self, decoded: DecodedBlock) -> None:
        """Ingest one vectorized :func:`~repro.net.decode_block` result.

        Equivalent to feeding the block's valid frames through
        :meth:`process_packet` as ``Packet.from_bytes`` parses them, one
        by one — identical counters, flow table, predictions, and
        telemetry — but only the HTTPS frames run any per-frame Python,
        and only candidate handshake packets of still-collecting flows
        are promoted to full ``Packet`` objects. Invalid frames are
        untouched (the ingest layer owns skip accounting)."""
        self.counters.packets += decoded.valid_count
        indices = decoded.https_indices
        if indices.size:
            self._ingest_https(decoded, indices)

    def _ingest_https(self, decoded: DecodedBlock, indices) -> None:
        """Per-frame flow-table work for the HTTPS lanes of a decoded
        block (shared by the serial, sharded, and worker runtimes —
        ``counters.packets`` is the caller's job)."""
        cache = self._dirkey_cache
        make_key = decoded.make_key
        update = self._update_flow
        classify = self._try_classify
        times = decoded.timestamps[indices].tolist()
        plens = decoded.payload_len[indices].tolist()
        dports = decoded.dst_port[indices].tolist()
        syns = decoded.syn_noack[indices].tolist()
        for i, dirkey, ts, plen, dport, syn in zip(
                indices.tolist(), decoded.dir_keys(indices), times,
                plens, dports, syns):
            entry = cache.get(dirkey)
            if entry is None:
                if len(cache) >= _DIRKEY_CACHE_MAX:
                    cache.clear()
                entry = cache[dirkey] = make_key(i)
            key, src_ip, dst_ip = entry
            state = update(key, ts, src_ip, dst_ip, dport, plen)
            if state.not_video or state.done_collecting:
                continue
            if self._c_promotions is not None:
                self._c_promotions.inc()
            state.handshake_packets.append(decoded.promote(i))
            # Same reparse gate as process_packet; the late-client-SYN
            # test uses the precomputed SYN-no-ACK lane.
            if plen or \
                    len(state.handshake_packets) >= \
                    _MAX_HANDSHAKE_PACKETS \
                    or (syn and len(state.handshake_packets) > 1):
                classify(state)

    def _try_classify(self, state: _FlowState) -> None:
        try:
            record = parse_flow_handshake(state.handshake_packets)
        except (ParseError, CryptoError):
            if len(state.handshake_packets) >= _MAX_HANDSHAKE_PACKETS:
                state.not_video = True
                state.done_collecting = True
                state.handshake_packets.clear()
                self.counters.parse_failures += 1
            return
        provider = detect_provider(record.sni)
        state.done_collecting = True
        # The handshake buffer has served its purpose the moment the
        # parse succeeds (or terminally fails, above): every transition
        # out of the collecting phase must release the promoted Packet
        # objects, or dead flows — the non-video majority of a campus
        # tap — pin up to 8 full payload-carrying packets each until
        # eviction.
        state.handshake_packets.clear()
        if provider is None:
            state.not_video = True
            self.counters.non_video_flows += 1
            return
        state.provider = provider
        state.transport = record.transport
        if not self.bank.has_scenario(provider, record.transport):
            state.not_video = True
            self.counters.non_video_flows += 1
            return
        attributes = extract_attributes(record)
        self.counters.video_flows += 1
        self._pending.append((state, provider, record.transport,
                              attributes))
        if len(self._pending) >= self.batch_size:
            self.drain()

    def drain(self) -> int:
        """Classify every buffered flow through the batch path; returns
        the number of predictions assigned."""
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        items = [(provider, transport, attributes)
                 for _, provider, transport, attributes in pending]
        if self._span_drain is not None:
            self._hist_batch.observe(len(items))
            with self._span_drain:
                predictions = self.bank.classify_batch(items,
                                                       self.threshold)
        else:
            predictions = self.bank.classify_batch(items, self.threshold)
        for (state, provider, transport, _), prediction in \
                zip(pending, predictions):
            state.prediction = prediction
            self.counters.record(prediction)
            if self.monitor is not None:
                self.monitor.observe(provider, transport, prediction)
        return len(pending)

    @property
    def pending_classifications(self) -> int:
        """Flows buffered for the next batch drain."""
        return len(self._pending)

    def _record(self, record: TelemetryRecord) -> None:
        """Route one emitted record into the configured retention
        sinks: the raw store, the rollup cube, or both."""
        if self.retention != "rollup":
            self.store.add(record)
        if self.rollup is not None:
            self.rollup.ingest(record)

    def _emit(self, state: _FlowState, role: str) -> bool:
        if state.prediction is None:
            if not state.not_video:
                # Truncated before the handshake completed: never hit
                # the 8-packet parse-failure bar, never classified.
                self.counters.incomplete += 1
            return False
        duration = max(0.0, state.last_seen - state.first_seen)
        self._record(TelemetryRecord(
            key=state.key, provider=state.provider,
            transport=state.transport, role=role,
            start_time=state.first_seen, duration=duration,
            bytes_down=state.bytes_down, bytes_up=state.bytes_up,
            prediction=state.prediction,
        ))
        return True

    def flush(self, role: str = "content") -> int:
        """Finalize all live flows into telemetry records; returns the
        number of video-flow records emitted."""
        self.drain()
        emitted = sum(1 for state in self._flows.values()
                      if self._emit(state, role))
        self._flows.clear()
        return emitted

    def flush_idle(self, now: float, idle_timeout: float = 120.0,
                   role: str = "content") -> int:
        """Finalize flows idle for ``idle_timeout`` seconds at time
        ``now`` — the flow-table eviction a long-running tap needs to
        bound its state. Returns emitted video-flow records."""
        self.drain()
        if self._span_sweep is not None:
            with self._span_sweep:
                return self._sweep(now, idle_timeout, role)
        return self._sweep(now, idle_timeout, role)

    def _sweep(self, now: float, idle_timeout: float,
               role: str) -> int:
        emitted = 0
        expired = [key for key, state in self._flows.items()
                   if now - state.last_seen >= idle_timeout]
        self.counters.evicted += len(expired)
        for key in expired:
            if self._emit(self._flows.pop(key), role):
                emitted += 1
        return emitted

    @property
    def live_flows(self) -> int:
        """Current flow-table size (bounded via :meth:`flush_idle`)."""
        return len(self._flows)

    # -- checkpoint/restore ----------------------------------------------------

    def reload_bank(self, bank: ClassifierBank,
                    pack: "FingerprintPack | None" = None) -> None:
        """Hot-swap a retrained classifier bank without dropping
        in-flight flows — driftwatch's deferred retraining trigger.

        Drains the classification buffer first, so every flow whose
        handshake the *old* bank's scenarios admitted is classified by
        the bank that admitted it; flows still collecting their
        handshake classify under the new bank, exactly as if the
        process had restarted with it.

        ``pack`` promotes a new fingerprint pack together with the
        bank (it becomes the process-wide active pack, the one every
        subsequent ``load_bank`` digest check runs against)."""
        self.drain()
        if pack is not None:
            from repro.fingerprints.packs import set_active_pack

            set_active_pack(pack)
        self.bank = bank

    def save_checkpoint(self, path: str | Path,
                        extra: dict[str, str] | None = None) -> None:
        """Write a full state snapshot (flow table with handshake
        buffers, counters, telemetry, rollup cube, driftwatch state)
        to the directory ``path``, atomically. Drains the
        classification buffer at the boundary (equivalence-preserving
        by the batching contract)."""
        from repro.pipeline.checkpoint import save_realtime

        if self._span_ckpt is not None:
            with self._span_ckpt:
                save_realtime(self, path, extra=extra)
        else:
            save_realtime(self, path, extra=extra)

    @classmethod
    def restore(cls, path: str | Path, bank: ClassifierBank,
                batch_size: int | None = None,
                confidence_threshold: float | None = None,
                retention: str | None = None,
                metrics: "MetricsRegistry | bool | None" = None,
                ) -> "RealtimePipeline":
        """Rebuild a pipeline from :meth:`save_checkpoint` output plus
        a (separately persisted) classifier bank."""
        from repro.pipeline.checkpoint import restore_realtime

        return restore_realtime(path, bank, batch_size=batch_size,
                                confidence_threshold=confidence_threshold,
                                retention=retention, metrics=metrics)

    # -- observability ---------------------------------------------------------

    def metrics_snapshot(self) -> dict | None:
        """The live instrument registry as plain JSON-able data (the
        worker-to-parent wire form); None when metrics are disabled."""
        return None if self.metrics is None else self.metrics.snapshot()

    def export_metrics(self) -> MetricsRegistry:
        """A fresh registry holding this pipeline's full metric view:
        count metrics derived from :class:`PipelineCounters`, runtime
        gauges, drift status, plus the live timing instruments. Safe to
        call repeatedly — exporting never mutates runtime state."""
        from repro.obs.export import (export_counters, export_drift,
                                      export_pack_info,
                                      export_runtime_gauges)

        registry = MetricsRegistry()
        export_counters(registry, self.counters)
        export_runtime_gauges(registry, self)
        export_drift(registry, self.monitor)
        export_pack_info(registry)
        if self.metrics is not None:
            registry.merge(self.metrics)
        return registry

    # Uniform runtime lifecycle: in-process pipelines have nothing to
    # release, but sharing the protocol lets callers scope any runtime
    # (this, sharded, or the multiprocess parallel one) identically.
    def close(self) -> None:
        pass

    def __enter__(self) -> "RealtimePipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    # -- flow-summary mode ---------------------------------------------------------

    def process_flow(self, flow: SyntheticFlow) -> TelemetryRecord | None:
        """Classify one flow from its packets, join the generator's
        volumetric summary, and store the telemetry record.

        Returns the record, or None when the flow is not a recognizable
        video flow of a trained scenario.
        """
        self.counters.flows += 1
        self.counters.packets += len(flow.packets)
        try:
            record = parse_flow_handshake(flow.packets)
        except (ParseError, CryptoError):
            self.counters.parse_failures += 1
            return None
        provider = detect_provider(record.sni)
        if provider is None:
            self.counters.non_video_flows += 1
            return None
        if not self.bank.has_scenario(provider, record.transport):
            self.counters.non_video_flows += 1
            return None
        attributes = extract_attributes(record)
        prediction = self.bank.classify(provider, record.transport,
                                        attributes, self.threshold)
        self.counters.video_flows += 1
        self.counters.record(prediction)
        if self.monitor is not None:
            self.monitor.observe(provider, record.transport, prediction)
        telemetry = self._flow_record(flow, provider, record.transport,
                                      prediction)
        self._record(telemetry)
        return telemetry

    def _flow_record(self, flow: SyntheticFlow, provider: Provider,
                     transport: Transport,
                     prediction: PlatformPrediction) -> TelemetryRecord:
        return TelemetryRecord(
            key=flow.key, provider=provider, transport=transport,
            role=flow.role, start_time=flow.start_time,
            duration=flow.duration, bytes_down=flow.bytes_down,
            bytes_up=flow.bytes_up, prediction=prediction,
            session_id=flow.session_id,
        )

    def _process_flow_batch(self, flows: list[SyntheticFlow]) -> int:
        """Flow-summary counterpart of the packet-mode batch drain:
        parse and filter each flow, then classify all survivors in one
        :meth:`ClassifierBank.classify_batch` call."""
        ready: list[tuple[SyntheticFlow, Provider, Transport, dict]] = []
        for flow in flows:
            self.counters.flows += 1
            self.counters.packets += len(flow.packets)
            try:
                record = parse_flow_handshake(flow.packets)
            except (ParseError, CryptoError):
                self.counters.parse_failures += 1
                continue
            provider = detect_provider(record.sni)
            if provider is None:
                self.counters.non_video_flows += 1
                continue
            if not self.bank.has_scenario(provider, record.transport):
                self.counters.non_video_flows += 1
                continue
            ready.append((flow, provider, record.transport,
                          extract_attributes(record)))
        if not ready:
            return 0
        items = [(provider, transport, attributes)
                 for _, provider, transport, attributes in ready]
        predictions = self.bank.classify_batch(items, self.threshold)
        for (flow, provider, transport, _), prediction in zip(ready,
                                                              predictions):
            self.counters.video_flows += 1
            self.counters.record(prediction)
            if self.monitor is not None:
                self.monitor.observe(provider, transport, prediction)
            self._record(self._flow_record(flow, provider, transport,
                                           prediction))
        return len(ready)

    def process_flows(self, flows: Iterable[SyntheticFlow]) -> int:
        """Run many flow summaries; with ``batch_size > 1`` the flows
        ride the batch classification path in ``batch_size`` chunks."""
        if self.batch_size <= 1:
            count = 0
            for flow in flows:
                if self.process_flow(flow) is not None:
                    count += 1
            return count
        count = 0
        batch: list[SyntheticFlow] = []
        for flow in flows:
            batch.append(flow)
            if len(batch) >= self.batch_size:
                count += self._process_flow_batch(batch)
                batch = []
        if batch:
            count += self._process_flow_batch(batch)
        return count
