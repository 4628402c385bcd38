"""Sharded pipeline front-end: the multi-core shape of the paper's tap.

The paper's DPDK deployment spreads a 20 Gbps tap across cores with
RSS-style 5-tuple hashing; every packet of a flow — both directions —
must land on the same core so the flow table never splits. This module
reproduces that shape: a :class:`ShardedPipeline` owns K worker
:class:`RealtimePipeline` instances and routes each packet by a stable
hash of its *canonical* flow key, then merges the workers' counters and
telemetry for the operator view.

The hash is deliberately not Python's builtin ``hash`` (randomized per
process): shard placement must be reproducible so captures replay
identically across runs and machines.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.fingerprints.packs import FingerprintPack
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.rawpacket import DecodedBlock
from repro.pipeline.bank import ClassifierBank
from repro.pipeline.confidence import DEFAULT_CONFIDENCE_THRESHOLD
from repro.pipeline.engine import PipelineCounters, RealtimePipeline
from repro.pipeline.store import TelemetryRecord, TelemetryStore
from repro.trafficgen.session import SyntheticFlow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.telemetry.rollup import RollupConfig, RollupCube


_SHARD_CACHE_MAX = 1 << 16


def _shard_of_tuple(key: tuple, num_shards: int) -> int:
    material = (f"{key[0]}|{key[1]}|{key[2]}|{key[3]}|"
                f"{key[4]}").encode()
    return zlib.crc32(material) % num_shards


def partition_https_indices(decoded: DecodedBlock, num_shards: int,
                            cache: dict) -> list[list[int]]:
    """Partition a decoded block's HTTPS frame indices by owning shard
    (the canonical-tuple crc32 every routing path uses), memoizing
    direction key -> shard in ``cache``. Shared by the serial
    dispatcher and the multiprocess parent so both route bulk frames
    identically to the eager per-packet path.

    The lanes are grouped by direction key with numpy and the cache is
    probed once per distinct key in the block, not once per frame;
    each shard's list comes back ascending."""
    indices = decoded.https_indices
    if not indices.size:
        return [[] for _ in range(num_shards)]
    hi, lo = decoded.dir_key_columns(indices)
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    opens = np.empty(len(order), dtype=bool)  # lane opens a key's run
    opens[0] = True
    opens[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    shards: list[int] = []
    for i, dirkey in zip(indices[order[opens]].tolist(),
                         zip(hi[opens].tolist(), lo[opens].tolist())):
        shard = cache.get(dirkey)
        if shard is None:
            if len(cache) >= _SHARD_CACHE_MAX:
                cache.clear()
            key, _, _ = decoded.make_key(i)
            shard = cache[dirkey] = _shard_of_tuple(key, num_shards)
        shards.append(shard)
    shard_of = np.empty(len(order), dtype=np.int64)
    shard_of[order] = np.array(shards)[np.cumsum(opens) - 1]
    return [indices[shard_of == shard].tolist()
            for shard in range(num_shards)]


def shard_index(key: FlowKey, num_shards: int) -> int:
    """Deterministic shard for a flow key.

    Hashes the canonical (direction-independent) form, so a flow's
    client->server and server->client packets always pick the same
    shard.
    """
    canonical = key.canonical()
    return _shard_of_tuple(
        (canonical.protocol, canonical.src_ip, canonical.src_port,
         canonical.dst_ip, canonical.dst_port), num_shards)


class ShardedPipeline:
    """K worker pipelines behind a 5-tuple hash dispatcher.

    Each worker keeps its own flow table, classification buffer, and
    telemetry store (no cross-shard locking — the property that lets a
    real deployment pin one worker per core). ``counters`` and
    ``telemetry`` merge the per-shard state on demand.
    """

    def __init__(self, bank: ClassifierBank, num_shards: int = 4,
                 confidence_threshold: float =
                 DEFAULT_CONFIDENCE_THRESHOLD,
                 batch_size: int = 1,
                 retention: str = "raw",
                 rollup_config: "RollupConfig | None" = None,
                 metrics: "MetricsRegistry | bool | None" = None) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        # One registry shared by every shard: instruments are keyed by
        # (name, labels), so shards time into the same histograms —
        # in-process sharding needs no per-shard snapshot transport.
        # False/None mapped explicitly: an empty registry is falsy
        # (len()==0), so ``metrics or None`` would drop it.
        if metrics is True:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        elif metrics is False:
            metrics = None
        self.metrics = metrics
        self.shards: list[RealtimePipeline] = [
            RealtimePipeline(bank, store=TelemetryStore(),
                             confidence_threshold=confidence_threshold,
                             batch_size=batch_size,
                             retention=retention,
                             rollup_config=rollup_config,
                             metrics=self.metrics)
            for _ in range(num_shards)
        ]
        # Bulk-path routing cache: packed numeric direction key ->
        # shard index (same bounded-population argument as the
        # engine-level canonical-key cache).
        self._shard_cache: dict[tuple[int, int], int] = {}

    def shard_for(self, key: FlowKey) -> int:
        return shard_index(key, self.num_shards)

    # -- packet mode -----------------------------------------------------------

    def process_packet(self, packet: Packet) -> None:
        shard = _shard_of_tuple(packet.canonical_key_tuple,
                                self.num_shards)
        self.shards[shard].process_packet(packet)

    # -- bulk (vectorized block) mode ------------------------------------------

    def shard_https_indices(self, decoded: DecodedBlock) -> list[list[int]]:
        """Partition the block's HTTPS frame indices by owning shard —
        the canonical-tuple hash every other routing path uses, cached
        per direction key."""
        return partition_https_indices(decoded, self.num_shards,
                                       self._shard_cache)

    def process_block(self, decoded: DecodedBlock) -> None:
        """Bulk ingest: HTTPS lanes go to their owning shard (same
        placement :meth:`process_packet` gives the same frames); the
        valid non-HTTPS remainder is pure packet accounting and lands
        on shard 0, so merged counters stay identical to the per-packet
        dispatch (per-shard ``packets`` attribution differs; flows —
        the load that matters — never do)."""
        per_shard = self.shard_https_indices(decoded)
        https_total = 0
        for shard, lanes in enumerate(per_shard):
            if lanes:
                https_total += len(lanes)
                engine = self.shards[shard]
                engine.count_packets(len(lanes))
                engine._ingest_https(decoded, np.asarray(lanes,
                                                         dtype=np.int64))
        self.shards[0].count_packets(decoded.valid_count - https_total)

    # -- flow-summary mode -----------------------------------------------------

    def process_flow(self, flow: SyntheticFlow) -> TelemetryRecord | None:
        return self.shards[self.shard_for(flow.key)].process_flow(flow)

    def process_flows(self, flows: Iterable[SyntheticFlow]) -> int:
        """Partition a flow stream across shards, draining each shard's
        buffer through its (possibly batched) flow path as it fills —
        the stream is never materialized, so memory stays
        O(shards x batch_size) however large the corpus."""
        buffers: list[list[SyntheticFlow]] = [
            [] for _ in range(self.num_shards)]
        count = 0
        for flow in flows:
            i = self.shard_for(flow.key)
            buffers[i].append(flow)
            if len(buffers[i]) >= self.shards[i].batch_size:
                count += self.shards[i].process_flows(buffers[i])
                buffers[i] = []
        for shard, buffer in zip(self.shards, buffers):
            if buffer:
                count += shard.process_flows(buffer)
        return count

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> int:
        return sum(shard.drain() for shard in self.shards)

    def flush(self, role: str = "content") -> int:
        return sum(shard.flush(role) for shard in self.shards)

    def flush_idle(self, now: float, idle_timeout: float = 120.0,
                   role: str = "content") -> int:
        return sum(shard.flush_idle(now, idle_timeout, role)
                   for shard in self.shards)

    # -- checkpoint/restore ----------------------------------------------------

    def reload_bank(self, bank: ClassifierBank,
                    pack: "FingerprintPack | None" = None) -> None:
        """Hot-swap a retrained bank into every shard (each drains its
        classification buffer first); ``pack`` promotes a new
        fingerprint pack along with it (process-wide — shards share
        the active pack)."""
        for shard in self.shards:
            shard.reload_bank(bank)
        if pack is not None:
            from repro.fingerprints.packs import set_active_pack

            set_active_pack(pack)

    def save_checkpoint(self, path: str | Path,
                        extra: dict[str, str] | None = None) -> None:
        """Checkpoint all shards into ``path`` (one sub-checkpoint per
        shard plus a meta file), atomically."""
        from repro.pipeline.checkpoint import save_sharded

        save_sharded(self.shards, path, extra=extra)

    @classmethod
    def restore(cls, path: str | Path, bank: ClassifierBank,
                num_shards: int | None = None,
                batch_size: int | None = None,
                confidence_threshold: float | None = None,
                retention: str | None = None,
                metrics: "MetricsRegistry | bool | None" = None,
                ) -> "ShardedPipeline":
        """Rebuild a sharded pipeline from :meth:`save_checkpoint`
        output. ``num_shards`` may differ from the checkpointed count:
        live flows are re-routed by the dispatcher hash and merged
        history is carried on shard 0 (merged views stay exact;
        per-shard attribution of pre-restore history is not
        preserved)."""
        from repro.pipeline.checkpoint import restore_sharded

        return restore_sharded(path, bank, num_shards=num_shards,
                               batch_size=batch_size,
                               confidence_threshold=confidence_threshold,
                               retention=retention, metrics=metrics)

    # Same no-op lifecycle as RealtimePipeline: callers scope every
    # runtime flavor with one protocol.
    def close(self) -> None:
        pass

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    # -- merged views ----------------------------------------------------------

    @property
    def counters(self) -> PipelineCounters:
        """Sum of all shard counters."""
        merged = PipelineCounters()
        for shard in self.shards:
            merged.merge(shard.counters)
        return merged

    @property
    def telemetry(self) -> TelemetryStore:
        """All shards' records merged into one store, ordered by shard
        then by emission order within the shard.

        This is a fresh read-only snapshot built per access (an
        O(records) merge) — records live in the per-shard stores, so
        adding to the returned store affects nothing. Use
        ``self.shards[i].store`` for the live per-shard stores.
        """
        merged = TelemetryStore()
        for shard in self.shards:
            merged.extend(shard.store)
        return merged

    # ``store`` lets report code read either pipeline flavor; same
    # merged-snapshot semantics as ``telemetry``, not a live store.
    @property
    def store(self) -> TelemetryStore:
        return self.telemetry

    @property
    def rollup(self) -> "RollupCube | None":
        """All shards' rollup cubes merged into one (or None when
        ``retention="raw"``). Same merged-snapshot semantics as
        ``telemetry``: a fresh O(cells) merge per access, exact for
        every additive aggregate and order-independent by the rollup
        merge contract. Use ``self.shards[i].rollup`` for the live
        per-shard cubes."""
        if self.shards[0].rollup is None:
            return None
        from repro.telemetry.rollup import RollupCube

        merged = RollupCube(self.shards[0].rollup.config)
        for shard in self.shards:
            merged.merge_from(shard.rollup)
        return merged

    @property
    def live_flows(self) -> int:
        return sum(shard.live_flows for shard in self.shards)

    @property
    def pending_classifications(self) -> int:
        return sum(shard.pending_classifications for shard in self.shards)

    @property
    def shard_loads(self) -> list[int]:
        """Flows seen per shard — the balance a hash dispatcher gives."""
        return [shard.counters.flows for shard in self.shards]

    @property
    def shard_live_flows(self) -> list[int]:
        """Current flow-table size per shard."""
        return [shard.live_flows for shard in self.shards]

    # -- observability ---------------------------------------------------------

    def export_metrics(self) -> "MetricsRegistry":
        """A fresh registry with the merged metric view across shards:
        derived counts from the merged counters, totals plus per-shard
        occupancy gauges, and the shared timing registry."""
        from repro.obs.export import (export_counters,
                                      export_pack_info,
                                      export_runtime_gauges,
                                      export_shard_gauges)
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        export_counters(registry, self.counters)
        export_runtime_gauges(registry, self)
        export_shard_gauges(registry, self.shard_live_flows,
                            self.shard_loads)
        export_pack_info(registry)
        if self.metrics is not None:
            registry.merge(self.metrics)
        return registry
