"""Real-capture shapes the tap must survive.

A campus capture is not a lab capture: ClientHellos arrive split across
TCP segments, segments arrive out of order, the capture can start
mid-flow (server packet first), and trunk-port frames carry 802.1Q
tags. Each shape used to be silently dropped or miscounted; these tests
pin the fixed behavior on both ingest paths.
"""

from dataclasses import replace

import pytest

from repro.errors import ParseError
from repro.features.extract import parse_flow_handshake
from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.ml import RandomForestClassifier
from repro.net import EthernetHeader, FrameBlock, Packet, PcapReader, PcapWriter, decode_block
from repro.pipeline import ClassifierBank, RealtimePipeline
from repro.trafficgen import FlowBuildRequest, FlowFactory, generate_lab_dataset
from repro.util import SeededRNG


def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


@pytest.fixture(scope="module")
def bank():
    lab = generate_lab_dataset(seed=11, scale=0.05)
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=6, max_depth=14, random_state=1),
    )


@pytest.fixture()
def tcp_flow():
    factory = FlowFactory(SeededRNG(99))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    return factory.build(FlowBuildRequest(
        platform_label="windows_chrome", provider=Provider.YOUTUBE,
        transport=Transport.TCP, profile=profile,
        sni="rr1---sn-abc.googlevideo.com"))


def _split_hello(flow, pieces: int):
    """Split the flow's ClientHello segment into ``pieces`` seq-adjacent
    TCP segments."""
    packets = list(flow.packets)
    idx = next(i for i, p in enumerate(packets)
               if p.payload and p.payload[0] == 0x16)
    hello_pkt = packets[idx]
    payload = hello_pkt.payload
    size = max(1, len(payload) // pieces)
    parts = []
    offset = 0
    while offset < len(payload):
        end = len(payload) if len(parts) == pieces - 1 else offset + size
        chunk = payload[offset:end]
        seg = replace(
            hello_pkt,
            tcp=replace(hello_pkt.tcp, seq=hello_pkt.tcp.seq + offset),
            payload=chunk,
            timestamp=hello_pkt.timestamp + offset * 1e-6)
        parts.append(seg)
        offset += len(chunk)
    return packets[:idx] + parts + packets[idx + 1:]


class TestSplitClientHello:
    @pytest.mark.parametrize("pieces", [2, 3])
    def test_split_hello_parses(self, tcp_flow, pieces):
        packets = _split_hello(tcp_flow, pieces)
        assert len(packets) > len(tcp_flow.packets)
        record = parse_flow_handshake(packets)
        reference = parse_flow_handshake(tcp_flow.packets)
        assert record.sni == "rr1---sn-abc.googlevideo.com"
        assert record.client_hello == reference.client_hello

    def test_split_hello_out_of_order_parses(self, tcp_flow):
        packets = _split_hello(tcp_flow, 3)
        idx = [i for i, p in enumerate(packets)
               if p.payload and p.ip.src == "10.20.0.2"]
        reordered = list(packets)
        reordered[idx[0]], reordered[idx[-1]] = \
            reordered[idx[-1]], reordered[idx[0]]
        record = parse_flow_handshake(reordered)
        assert record.sni == "rr1---sn-abc.googlevideo.com"

    def test_retransmitted_duplicate_segment_parses(self, tcp_flow):
        packets = _split_hello(tcp_flow, 2)
        dup = next(p for p in packets
                   if p.payload and p.payload[0] == 0x16)
        record = parse_flow_handshake(packets + [dup])
        assert record.sni == "rr1---sn-abc.googlevideo.com"

    def test_gap_before_hello_still_fails(self, tcp_flow):
        """A hole in the stream (lost first half) must not parse."""
        packets = _split_hello(tcp_flow, 2)
        idx = next(i for i, p in enumerate(packets)
                   if p.payload and p.payload[0] == 0x16)
        del packets[idx]
        with pytest.raises(ParseError):
            parse_flow_handshake(packets)

    def test_split_hello_classifies_in_pipeline(self, bank, tcp_flow):
        pipeline = RealtimePipeline(bank)
        for packet in _split_hello(tcp_flow, 2):
            pipeline.process_packet(packet)
        pipeline.flush()
        assert pipeline.counters.video_flows == 1
        assert pipeline.counters.parse_failures == 0
        assert pipeline.counters.non_video_flows == 0


class TestReorder:
    def test_server_first_arrival_classifies(self, bank, tcp_flow):
        """Capture starts with the SYN-ACK: client direction must still
        resolve from the port, and the flow must classify."""
        packets = list(tcp_flow.packets)
        packets[0], packets[1] = packets[1], packets[0]
        pipeline = RealtimePipeline(bank)
        for packet in packets:
            pipeline.process_packet(packet)
        pipeline.flush()
        assert pipeline.counters.video_flows == 1
        record = list(pipeline.store)[0]
        # bytes_down/up split by true client IP, not arrival order
        assert record.bytes_down > record.bytes_up

    def test_syn_arriving_after_client_hello_classifies(self, bank,
                                                        tcp_flow):
        """The SYN carries the ISN the reassembler anchors on: when it
        arrives *after* the ClientHello data (reorder), its arrival
        must trigger the reparse — the flow may never see another
        payload packet before eviction."""
        packets = list(tcp_flow.packets)
        hello_idx = next(i for i, p in enumerate(packets)
                         if p.payload and p.payload[0] == 0x16)
        reordered = ([packets[hello_idx]] + packets[:hello_idx]
                     + packets[hello_idx + 1:])
        assert not reordered[1].payload  # SYN follows the hello
        pipeline = RealtimePipeline(bank)
        for packet in reordered[:2]:  # hello, then SYN — nothing else
            pipeline.process_packet(packet)
        pipeline.flush()
        assert pipeline.counters.video_flows == 1
        assert pipeline.counters.incomplete == 0

    def test_reordered_first_packet_keeps_min_first_seen(self, bank,
                                                         tcp_flow):
        packets = sorted(tcp_flow.packets,
                         key=lambda p: p.timestamp, reverse=True)
        pipeline = RealtimePipeline(bank)
        for packet in packets:
            pipeline.process_packet(packet)
        pipeline.flush()
        times = [p.timestamp for p in tcp_flow.packets]
        record = list(pipeline.store)[0]
        assert record.start_time == pytest.approx(min(times))
        assert record.duration == pytest.approx(max(times) - min(times))

    def test_raw_path_keeps_min_first_seen(self, bank, tcp_flow):
        frames = [(p.to_bytes(), p.timestamp)
                  for p in sorted(tcp_flow.packets,
                                  key=lambda p: p.timestamp,
                                  reverse=True)]
        pipeline = RealtimePipeline(bank)
        _feed(pipeline, frames)
        pipeline.flush()
        times = [p.timestamp for p in tcp_flow.packets]
        record = list(pipeline.store)[0]
        assert record.start_time == pytest.approx(min(times))
        assert record.duration == pytest.approx(max(times) - min(times))


class TestVlan:
    def _tagged(self, flow, vlan_id=207):
        return [replace(p, eth=EthernetHeader(vlan_id=vlan_id))
                for p in flow.packets]

    def test_vlan_pcap_roundtrip(self, tmp_path, tcp_flow):
        path = tmp_path / "tagged.pcap"
        tagged = self._tagged(tcp_flow)
        with PcapWriter(path) as writer:
            for packet in tagged:
                writer.write_packet(packet)
        with PcapReader(path) as reader:
            eager = list(reader.packets())
        assert [p.vlan_id for p in eager] == [207] * len(tagged)
        assert [p.flow_key for p in eager] == \
            [p.flow_key for p in tcp_flow.packets]
        with PcapReader(path) as reader:
            decoded = decode_block(next(reader.blocks()))
        assert decoded.vlan_id.tolist() == [207] * len(tagged)
        assert [decoded.promote(i) for i in range(len(decoded))] == eager

    def test_vlan_t1_matches_wire_roundtrip(self, tcp_flow):
        """t1 (init_packet_size) is the IP packet size: an in-memory
        tagged flow (total_length unset, wire_length fallback) must
        agree with the same flow reparsed from bytes."""
        tagged = self._tagged(tcp_flow)
        in_memory = parse_flow_handshake(tagged)
        rewired = parse_flow_handshake(
            [Packet.from_bytes(p.to_bytes(), p.timestamp)
             for p in tagged])
        assert in_memory.init_packet_size == rewired.init_packet_size

    def test_vlan_flow_classifies_both_paths(self, bank, tcp_flow):
        tagged = self._tagged(tcp_flow)
        eager = RealtimePipeline(bank)
        for packet in tagged:
            eager.process_packet(packet)
        eager.flush()
        raw = RealtimePipeline(bank)
        _feed(raw, [(p.to_bytes(), p.timestamp) for p in tagged])
        raw.flush()
        assert eager.counters.video_flows == 1
        assert eager.counters.parse_failures == 0
        assert eager.counters == raw.counters
        assert list(eager.store) == list(raw.store)
