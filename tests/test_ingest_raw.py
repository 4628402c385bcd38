"""Block decode on single raw frames: ``decode_block`` must extract the
fields the eager ``Packet.from_bytes`` parse gives, reject the same
malformed frames with the same ``ParseError`` text, and promote
losslessly."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ParseError
from repro.net import (
    EthernetHeader,
    FrameBlock,
    Packet,
    PcapReader,
    PcapWriter,
    TCPHeader,
    decode_block,
    make_tcp_packet,
    make_udp_packet,
    mss_option,
    sack_permitted_option,
    window_scale_option,
)


def _tcp_packet(payload=b"abcdef", vlan_id=None):
    tcp = TCPHeader(src_port=51777, dst_port=443, seq=1000,
                    flag_syn=True,
                    options=(mss_option(1460), window_scale_option(8),
                             sack_permitted_option()))
    packet = make_tcp_packet("10.0.0.9", "142.250.70.78", tcp,
                             payload=payload, ttl=128, timestamp=3.25)
    if vlan_id is not None:
        packet = replace(packet, eth=EthernetHeader(vlan_id=vlan_id))
    return packet


def _decode_one(data, timestamp=0.0):
    return decode_block(FrameBlock.from_frames([(data, timestamp)]))


def _lane_fields(decoded, i=0):
    key, src, dst = decoded.make_key(i)
    vlan = int(decoded.vlan_id[i])
    return (int(decoded.protocol[i]), int(decoded.src_port[i]),
            int(decoded.dst_port[i]), src, dst, int(decoded.ttl[i]),
            None if vlan < 0 else vlan, key, int(decoded.payload_len[i]))


def _packet_fields(packet):
    return (packet.ip.protocol, packet.src_port, packet.dst_port,
            packet.ip.src, packet.ip.dst, packet.ip.ttl, packet.vlan_id,
            packet.canonical_key_tuple, len(packet.payload))


class TestFieldEquality:
    @pytest.mark.parametrize("vlan_id", [None, 7, 4095])
    def test_tcp_fields_match_eager(self, vlan_id):
        data = _tcp_packet(vlan_id=vlan_id).to_bytes()
        decoded = _decode_one(data, 3.25)
        eager = Packet.from_bytes(data, 3.25)
        assert decoded.valid[0] and decoded.https[0]
        assert _lane_fields(decoded) == _packet_fields(eager)
        assert eager.ip.ttl == 128 and eager.vlan_id == vlan_id
        assert float(decoded.timestamps[0]) == eager.timestamp
        assert decoded.syn_noack[0]

    def test_udp_fields_match_eager(self):
        packet = make_udp_packet("172.16.3.4", "8.8.4.4", 50001, 443,
                                 payload=b"\x01" * 48, timestamp=9.0)
        data = packet.to_bytes()
        decoded = _decode_one(data, 9.0)
        eager = Packet.from_bytes(data, 9.0)
        assert _lane_fields(decoded) == _packet_fields(eager)
        assert int(decoded.payload_len[0]) == 48
        assert not decoded.syn_noack[0]

    def test_ethernet_trailer_excluded_from_payload(self):
        """Padding after the IPv4 total length (common on short frames)
        must not count toward the payload — same bound as the eager
        path."""
        data = _tcp_packet(payload=b"xy").to_bytes() + b"\x00" * 6
        decoded = _decode_one(data)
        assert Packet.from_bytes(data).payload == b"xy"
        assert int(decoded.payload_len[0]) == 2
        assert decoded.promote(0).payload == b"xy"

    def test_memoryview_input(self):
        packet = _tcp_packet()
        data = packet.to_bytes()
        block = FrameBlock(memoryview(data), np.array([0]),
                           np.array([len(data)]), np.array([3.25]))
        decoded = decode_block(block)
        assert decoded.make_key(0)[0] == packet.canonical_key_tuple
        assert decoded.promote(0) == Packet.from_bytes(data, 3.25)


class TestPromotion:
    @pytest.mark.parametrize("vlan_id", [None, 42])
    def test_promote_equals_eager(self, vlan_id):
        packet = _tcp_packet(vlan_id=vlan_id)
        data = packet.to_bytes()
        promoted = _decode_one(data, 3.25).promote(0)
        assert promoted == Packet.from_bytes(data, 3.25)
        assert promoted.tcp.mss == 1460
        assert promoted.tcp.window_scale == 8
        assert promoted.tcp.sack_permitted


def _corruptions():
    base = _tcp_packet().to_bytes()
    udp = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2,
                          payload=b"zz").to_bytes()
    yield "truncated-eth", base[:10]
    yield "bad-ethertype", base[:12] + b"\x86\xdd" + base[14:]
    yield "truncated-vlan-tag", base[:12] + b"\x81\x00\x00"
    yield "not-ipv4", base[:14] + bytes([0x65]) + base[15:]
    yield "bad-ihl", base[:14] + bytes([0x41]) + base[15:]
    yield "total-length-overruns", base[:16] + b"\xff\xff" + base[18:]
    yield "truncated-capture", base[:-4]
    yield "bad-protocol", base[:23] + bytes([99]) + base[24:]
    bad_doff = bytearray(base)
    bad_doff[14 + 20 + 12] = 0x10  # TCP data offset 4 (< 20 bytes)
    yield "bad-tcp-data-offset", bytes(bad_doff)
    bad_ulen = bytearray(udp)
    bad_ulen[14 + 20 + 4:14 + 20 + 6] = (4).to_bytes(2, "big")
    yield "bad-udp-length", bytes(bad_ulen)
    # Valid data offset but malformed option framing inside it: the
    # eager path rejects these while parsing options, so the block
    # decode must walk (and reject) them too.
    bad_optlen = bytearray(base)
    bad_optlen[14 + 20 + 20 + 1] = 0  # MSS option length byte -> 0
    yield "bad-tcp-option-length", bytes(bad_optlen)
    trunc_opt = bytearray(base)
    # Replace the EOL padding with NOP,NOP,<kind needing a length byte>
    # so the walk reaches a kind whose length octet is past the region.
    trunc_opt[14 + 20 + 20 + 9] = 1
    trunc_opt[14 + 20 + 20 + 10] = 1
    trunc_opt[14 + 20 + 20 + 11] = 8
    yield "truncated-tcp-option", bytes(trunc_opt)


class TestRejection:
    @pytest.mark.parametrize("name,data",
                             list(_corruptions()),
                             ids=[n for n, _ in _corruptions()])
    def test_raw_and_eager_reject_the_same_frames(self, name, data):
        """decode_block masks the frame invalid, and strict-mode ingest
        (``raise_invalid``) raises the oracle's exact error text."""
        with pytest.raises(ParseError) as eager:
            Packet.from_bytes(data)
        decoded = _decode_one(data)
        assert not decoded.valid[0]
        assert decoded.first_invalid() == 0
        with pytest.raises(ParseError) as bulk:
            decoded.raise_invalid(0)
        assert str(bulk.value) == str(eager.value)


class TestPcapStreaming:
    def test_raw_packets_match_eager_packets(self, tmp_path):
        path = tmp_path / "stream.pcap"
        packets = [_tcp_packet(payload=bytes([i]) * (i + 1))
                   for i in range(5)]
        packets.append(make_udp_packet("10.1.1.1", "10.2.2.2",
                                       4444, 443, payload=b"q" * 9,
                                       timestamp=1.0))
        with PcapWriter(path) as writer:
            for packet in packets:
                writer.write_packet(packet)
        with PcapReader(path) as reader:
            eager = list(reader.packets())
        with PcapReader(path) as reader:
            decoded = [decode_block(block)
                       for block in reader.blocks(max_frames=4)]
        lanes = [(block, i) for block in decoded for i in range(len(block))]
        assert len(lanes) == len(eager)
        for (block, i), pkt in zip(lanes, eager):
            assert float(block.timestamps[i]) == pkt.timestamp
            assert block.make_key(i)[0] == pkt.canonical_key_tuple
            assert block.promote(i) == pkt

    def test_frames_round_numbers(self, tmp_path):
        path = tmp_path / "frames.pcap"
        packet = _tcp_packet()
        with PcapWriter(path) as writer:
            writer.write_bytes(packet.to_bytes(), 123.456789)
        with PcapReader(path) as reader:
            (data, timestamp), = list(reader.frames())
        assert data == packet.to_bytes()
        assert timestamp == pytest.approx(123.456789, abs=1e-6)
