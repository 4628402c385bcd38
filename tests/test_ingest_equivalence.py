"""Ingest equivalence suite: raw frames fed as blocks must be
indistinguishable from the eager per-record ``Packet.from_bytes`` path.

The eager path is the oracle; the raw-frame path is the block feed every
live source uses (``FrameBlock`` -> ``decode_block`` ->
``process_block``), here without the replay's tick slicing. On the same
campus-mix capture — video flows of every scenario interleaved with the
non-video bulk that dominates a real tap, a slice of it VLAN-tagged and
a slice reordered — the two paths must produce identical counters,
identical predictions at any batch size, and identical telemetry,
unsharded and sharded, in-memory and through a pcap file.
"""

from dataclasses import replace
from itertools import zip_longest

import pytest

from repro.errors import ParseError
from repro.ml import RandomForestClassifier
from repro.net import (
    EthernetHeader,
    FrameBlock,
    Packet,
    PcapReader,
    PcapWriter,
    TCPHeader,
    decode_block,
    make_tcp_packet,
)
from repro.pipeline import (
    ClassifierBank,
    RealtimePipeline,
    ShardedPipeline,
    ingest_pcap,
)
from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.trafficgen import (
    FlowBuildRequest,
    FlowFactory,
    generate_lab_dataset,
)
from repro.util import SeededRNG


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=6, max_depth=14, random_state=1),
    )


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=31, scale=0.05)


def _bulk_frames(count: int, seed: int):
    """Non-video background traffic: TCP on non-443 ports plus some
    443 traffic from an unknown (non-video) host."""
    rng = SeededRNG(seed)
    frames = []
    for i in range(count):
        port = 8080 if i % 3 else 443
        tcp = TCPHeader(src_port=40000 + i % 500, dst_port=port,
                        seq=i * 1000, flag_ack=True)
        packet = make_tcp_packet(
            f"10.{i % 150}.2.3", "93.184.216.34", tcp,
            payload=rng.token_bytes(400), timestamp=10.0 + i * 0.0003)
        frames.append(packet)
    return frames


@pytest.fixture(scope="module")
def campus_frames(lab):
    """The mixed trace: interleaved video flows, VLAN-tagged slice,
    reordered slice, bulk-dominated."""
    flows = list(lab)[::5][:80]
    # A full TLS flow toward a non-video host: exercises the SNI filter
    # (non_video_flows) rather than the incomplete/parse-failure bins.
    factory = FlowFactory(SeededRNG(13))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    flows.append(factory.build(FlowBuildRequest(
        platform_label="windows_chrome", provider=Provider.YOUTUBE,
        transport=Transport.TCP, profile=profile,
        sni="www.wikipedia.org")))
    rows = zip_longest(*[flow.packets for flow in flows])
    video = [p for row in rows for p in row if p is not None]
    # VLAN-tag every 4th video packet's flow deterministically by
    # tagging packets of specific flows
    tagged_keys = {flow.key.canonical() for flow in flows[::4]}
    video = [replace(p, eth=EthernetHeader(vlan_id=207))
             if p.flow_key.canonical() in tagged_keys else p
             for p in video]
    bulk = _bulk_frames(1200, seed=77)
    mixed = []
    bulk_iter = iter(bulk)
    for i, packet in enumerate(video):
        mixed.append(packet)
        for _ in range(3):
            nxt = next(bulk_iter, None)
            if nxt is not None:
                mixed.append(nxt)
    mixed.extend(bulk_iter)
    # Reorder a slice: swap adjacent packets in one region
    for i in range(100, 160, 2):
        mixed[i], mixed[i + 1] = mixed[i + 1], mixed[i]
    return [(p.to_bytes(), p.timestamp) for p in mixed]


def _run_eager(bank, frames, **kw):
    pipeline = RealtimePipeline(bank, **kw)
    for data, timestamp in frames:
        pipeline.process_packet(Packet.from_bytes(data, timestamp))
    pipeline.flush()
    return pipeline


def _feed_block(pipeline, frames):
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


def _run_raw(bank, frames, **kw):
    pipeline = RealtimePipeline(bank, **kw)
    _feed_block(pipeline, frames)
    pipeline.flush()
    return pipeline


class TestRawVsEager:
    def test_counters_and_telemetry_identical(self, bank, campus_frames):
        eager = _run_eager(bank, campus_frames)
        raw = _run_raw(bank, campus_frames)
        assert raw.counters == eager.counters
        assert raw.counters.video_flows > 0
        assert raw.counters.non_video_flows > 0  # SNI-filtered TLS flow
        assert raw.counters.incomplete > 0       # handshake-less bulk
        assert list(raw.store) == list(eager.store)

    def test_predictions_identical_any_batch_size(self, bank,
                                                  campus_frames):
        eager = _run_eager(bank, campus_frames, batch_size=1)
        raw = _run_raw(bank, campus_frames, batch_size=32)
        assert raw.counters == eager.counters
        eager_preds = [(str(r.key), r.prediction) for r in eager.store]
        raw_preds = [(str(r.key), r.prediction) for r in raw.store]
        assert raw_preds == eager_preds

    def test_rollup_retention_identical(self, bank, campus_frames,
                                        tmp_path):
        from repro.telemetry import save_rollup

        eager = _run_eager(bank, campus_frames, retention="both")
        raw = _run_raw(bank, campus_frames, retention="both")
        save_rollup(eager.rollup, tmp_path / "eager")
        save_rollup(raw.rollup, tmp_path / "raw")
        assert (tmp_path / "raw" / "rollup.json").read_bytes() == \
            (tmp_path / "eager" / "rollup.json").read_bytes()


class TestShardedRawVsEager:
    def test_sharded_raw_equals_sharded_eager(self, bank, campus_frames):
        eager = ShardedPipeline(bank, num_shards=4, batch_size=8)
        for data, timestamp in campus_frames:
            eager.process_packet(Packet.from_bytes(data, timestamp))
        eager.flush()
        raw = ShardedPipeline(bank, num_shards=4, batch_size=8)
        _feed_block(raw, campus_frames)
        raw.flush()
        assert raw.counters == eager.counters
        assert raw.shard_loads == eager.shard_loads
        assert list(raw.telemetry) == list(eager.telemetry)

    def test_sharded_raw_equals_unsharded_raw(self, bank, campus_frames):
        flat = _run_raw(bank, campus_frames)
        sharded = ShardedPipeline(bank, num_shards=3)
        _feed_block(sharded, campus_frames)
        sharded.flush()
        assert sharded.counters == flat.counters
        assert sorted(map(repr, sharded.telemetry)) == \
            sorted(map(repr, flat.store))


class TestPcapIngestGlue:
    def test_ingest_pcap_raw_equals_eager(self, tmp_path, bank,
                                          campus_frames):
        path = tmp_path / "campus.pcap"
        with PcapWriter(path) as writer:
            for data, timestamp in campus_frames:
                writer.write_bytes(data, timestamp)
        eager = RealtimePipeline(bank)
        res_eager = ingest_pcap(eager, path, mode="eager")
        eager.flush()
        raw = RealtimePipeline(bank)
        with PcapReader(path) as reader:
            # Small blocks: flows and handshakes straddle block cuts.
            decoded = [decode_block(block)
                       for block in reader.blocks(max_frames=64)]
        for block in decoded:
            raw.process_block(block)
        raw.flush()
        assert sum(map(len, decoded)) == len(campus_frames)
        assert res_eager == (len(campus_frames), 0)
        assert raw.counters == eager.counters
        # pcap timestamps are quantized to microseconds on write: both
        # paths see the same quantized values, so records stay equal.
        assert list(raw.store) == list(eager.store)

    def test_ingest_pcap_skips_foreign_frames_identically(self, tmp_path,
                                                          bank,
                                                          campus_frames):
        """A real capture carries ARP/IPv6 frames: both paths must skip
        the same frames and agree on everything else."""
        path = tmp_path / "mixed-linklayer.pcap"
        arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28
        ipv6 = b"\x02" * 12 + b"\x86\xdd" + b"\x60" + b"\x00" * 47
        with PcapWriter(path) as writer:
            writer.write_bytes(arp, 0.5)
            for data, timestamp in campus_frames[:200]:
                writer.write_bytes(data, timestamp)
            writer.write_bytes(ipv6, 0.9)
        results = []
        for mode in ("eager", "bulk"):
            pipeline = RealtimePipeline(bank)
            result = ingest_pcap(pipeline, path, mode=mode)
            pipeline.flush()
            results.append((result, pipeline.counters,
                            list(pipeline.store)))
        assert results[0] == results[1]
        assert results[0][0] == (200, 2)
        # strict mode keeps the fail-fast behavior for our own files
        with pytest.raises(ParseError):
            ingest_pcap(RealtimePipeline(bank), path, strict=True)

    def test_ingest_pcap_rejects_unknown_mode(self, tmp_path, bank):
        for mode in ("dpdk", "raw"):  # raw: a mode until PR 18
            with pytest.raises(ValueError):
                ingest_pcap(RealtimePipeline(bank), tmp_path / "x.pcap",
                            mode=mode)
