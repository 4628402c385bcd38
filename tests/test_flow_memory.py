"""Bounded-memory regression suite for the flow table.

Two leaks used to make long replays grow without bound: dead flows
(the non-video majority of a campus tap) kept their promoted handshake
packets until eviction, and nothing ever drove eviction during a pcap
replay. This suite pins the fixes:

(a) no ``_FlowState`` retains handshake packets once it stops
    collecting — on the eager path and the raw-frame block path;
(b) ``live_flows`` stays below a fixed bound when ingest drives
    idle eviction from capture timestamps, while counters/telemetry
    stay untouched for captures shorter than the timeout;
(c) a flow evicted and then reappearing is counted as a new flow,
    identically across eager, raw, sharded, and parallel runtimes.
"""

from dataclasses import replace

import pytest

from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, Packet, PcapWriter, TCPHeader, decode_block, make_tcp_packet
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    RealtimePipeline,
    ShardedPipeline,
    ingest_pcap,
    save_bank,
)
from repro.trafficgen import (
    FlowBuildRequest,
    FlowFactory,
    generate_lab_dataset,
)
from repro.util import SeededRNG


def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=59, scale=0.04)


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=4, max_depth=10, random_state=0))


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("bank") / "bank"
    save_bank(bank, path)
    return path


def _non_video_frames(n_flows: int, start: float, spacing: float,
                      seed: int):
    """The leak regime: full TLS handshakes toward non-video hosts
    (SNI-filtered) plus 443 flows that never parse (8-packet
    parse-failure bar) — every one of them a dead flow that must not
    pin its handshake buffer."""
    factory = FlowFactory(SeededRNG(seed))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    packets = []
    for i in range(n_flows):
        t0 = start + i * spacing
        if i % 2:
            flow = factory.build(FlowBuildRequest(
                platform_label="windows_chrome",
                provider=Provider.YOUTUBE, transport=Transport.TCP,
                profile=profile, sni=f"cdn{i}.example.org",
                client_ip=f"10.{i % 200}.8.{1 + i // 200}",
                start_time=t0))
            packets.extend(flow.packets)
        else:
            rng = SeededRNG(seed + i)
            for j in range(10):  # payload but never a ClientHello
                tcp = TCPHeader(src_port=20000 + i, dst_port=443,
                                seq=j * 400, flag_ack=True)
                packets.append(make_tcp_packet(
                    f"172.16.{i % 250}.{1 + i // 250}", "203.0.113.9",
                    tcp, payload=rng.token_bytes(300),
                    timestamp=t0 + j * 0.01))
    packets.sort(key=lambda p: p.timestamp)
    return [(p.to_bytes(), p.timestamp) for p in packets]


def _retained_handshake_packets(pipeline: RealtimePipeline):
    done = [s for s in pipeline._flows.values()
            if s.done_collecting or s.not_video]
    return done, sum(len(s.handshake_packets) for s in done)


class TestHandshakeBufferRelease:
    @pytest.mark.parametrize("path", ("eager", "raw"))
    def test_dead_flows_release_buffers(self, bank, path):
        frames = _non_video_frames(120, start=100.0, spacing=0.05,
                                   seed=11)
        pipeline = RealtimePipeline(bank)
        if path == "raw":
            _feed(pipeline, frames)
        else:
            for data, timestamp in frames:
                pipeline.process_packet(Packet.from_bytes(data,
                                                          timestamp))
        # No flush: these are exactly the states that used to pin
        # their packets until eviction.
        done, retained = _retained_handshake_packets(pipeline)
        assert len(done) >= 100  # the dead-flow regime is populated
        assert retained == 0, (
            f"{retained} handshake packets pinned by "
            f"{len(done)} dead flows")
        assert pipeline.counters.non_video_flows > 0
        assert pipeline.counters.parse_failures > 0

    def test_video_flows_release_buffers_too(self, bank, lab):
        pipeline = RealtimePipeline(bank)
        _feed(pipeline, [(p.to_bytes(), p.timestamp)
                         for flow in list(lab)[:20] for p in flow.packets])
        done, retained = _retained_handshake_packets(pipeline)
        assert pipeline.counters.video_flows > 0
        assert retained == 0


class TestBoundedFlowTable:
    def test_live_flows_bounded_with_idle_eviction(self, bank,
                                                   tmp_path):
        # 200 dead flows spaced 1 s apart: unbounded replay holds all
        # of them; with a 20 s idle timeout the table holds only the
        # flows of the trailing window.
        frames = _non_video_frames(200, start=0.0, spacing=1.0, seed=3)
        path = tmp_path / "long.pcap"
        with PcapWriter(path) as writer:
            for data, timestamp in frames:
                writer.write_bytes(data, timestamp)

        unbounded = RealtimePipeline(bank)
        ingest_pcap(unbounded, path)
        assert unbounded.live_flows == 200

        bounded = RealtimePipeline(bank)
        ingest_pcap(bounded, path, idle_timeout=20.0)
        assert bounded.counters.flows == 200  # every flow still seen
        assert bounded.live_flows <= 40, (
            f"{bounded.live_flows} live flows — eviction did not bound "
            f"the table")

    def test_skipped_frames_advance_the_eviction_clock(self, bank, lab,
                                                       tmp_path):
        """An unparseable-heavy stretch (IPv6/ARP bursts) still passes
        capture time: flows idle across it must be evicted, not pinned
        until the next parseable frame."""
        flow = next(iter(lab))
        path = tmp_path / "gappy.pcap"
        ipv6 = b"\x02" * 12 + b"\x86\xdd" + b"\x60" + b"\x00" * 47
        with PcapWriter(path) as writer:
            for p in flow.packets:
                writer.write_bytes(p.to_bytes(), p.timestamp + 1.0)
            for i in range(100):  # skipped frames spanning ~1000 s
                writer.write_bytes(ipv6, 20.0 + i * 10.0)
        pipeline = RealtimePipeline(bank)
        result = ingest_pcap(pipeline, path, idle_timeout=120.0)
        assert result.skipped == 100
        assert pipeline.live_flows == 0  # evicted mid-stretch
        assert len(pipeline.store) == 1  # and emitted, not dropped

    def test_short_capture_untouched_by_timeout(self, bank, lab,
                                                tmp_path):
        # A capture shorter than the timeout must be byte-for-byte
        # unaffected: same counters, same records, same order.
        packets = [p for flow in list(lab)[:15] for p in flow.packets]
        packets.sort(key=lambda p: p.timestamp)
        path = tmp_path / "short.pcap"
        with PcapWriter(path) as writer:
            for p in packets:
                writer.write_bytes(p.to_bytes(), p.timestamp)
        plain = RealtimePipeline(bank)
        ingest_pcap(plain, path)
        plain.flush()
        timed = RealtimePipeline(bank)
        ingest_pcap(timed, path, idle_timeout=3600.0)
        timed.flush()
        assert timed.counters == plain.counters
        assert list(timed.store) == list(plain.store)

    def test_ingest_validates_eviction_knobs(self, bank, tmp_path):
        pipeline = RealtimePipeline(bank)
        with pytest.raises(ValueError):
            ingest_pcap(pipeline, tmp_path / "x.pcap",
                        idle_timeout=-1.0)
        with pytest.raises(ValueError):
            ingest_pcap(pipeline, tmp_path / "x.pcap",
                        evict_interval=5.0)  # needs idle_timeout
        with pytest.raises(ValueError):
            ingest_pcap(pipeline, tmp_path / "x.pcap",
                        idle_timeout=10.0, evict_interval=0.0)


class TestEvictedFlowReappears:
    @pytest.fixture(scope="class")
    def reappear_pcap(self, lab, tmp_path_factory):
        """One video flow seen twice, 1000 s apart, with clock-driving
        background in between so eviction ticks actually fire."""
        flow = next(iter(lab))
        first = [replace(p, timestamp=p.timestamp + 1.0)
                 for p in flow.packets]
        again = [replace(p, timestamp=p.timestamp + 1001.0)
                 for p in flow.packets]
        rng = SeededRNG(21)
        filler = []
        for i in range(100):  # non-443: advances the clock, no state
            tcp = TCPHeader(src_port=30000 + i, dst_port=8080,
                            seq=i, flag_ack=True)
            filler.append(make_tcp_packet(
                "192.0.2.1", "198.51.100.2", tcp,
                payload=rng.token_bytes(64),
                timestamp=20.0 + i * 10.0))
        packets = sorted(first + filler + again,
                         key=lambda p: p.timestamp)
        path = tmp_path_factory.mktemp("reappear") / "reappear.pcap"
        with PcapWriter(path) as writer:
            for p in packets:
                writer.write_bytes(p.to_bytes(), p.timestamp)
        return path, flow.key.canonical()

    def test_counted_as_new_flow_on_every_runtime(self, bank, bank_dir,
                                                  reappear_pcap):
        path, key = reappear_pcap

        def result_of(pipeline, mode):
            ingest_pcap(pipeline, path, mode=mode, idle_timeout=120.0)
            pipeline.flush()
            records = sorted(
                (str(r.key), r.start_time, r.prediction)
                for r in pipeline.store)
            return pipeline.counters, records

        eager = result_of(RealtimePipeline(bank), "eager")
        bulk = result_of(RealtimePipeline(bank), "bulk")
        sharded = result_of(ShardedPipeline(bank, num_shards=3), "bulk")
        with ParallelShardedPipeline(bank_dir, num_workers=3) as par:
            parallel = result_of(par, "bulk")
        assert eager == bulk == sharded == parallel
        counters, records = eager
        assert counters.flows == 2  # evicted + reappeared = two flows
        assert counters.video_flows == 2
        matching = [r for r in records
                    if r[0] == str(key) or r[0] == str(key.reversed())]
        assert len(matching) == 2

    def test_without_eviction_it_is_one_flow(self, bank, reappear_pcap):
        path, _ = reappear_pcap
        pipeline = RealtimePipeline(bank)
        ingest_pcap(pipeline, path)
        pipeline.flush()
        assert pipeline.counters.flows == 1
        assert pipeline.counters.video_flows == 1
