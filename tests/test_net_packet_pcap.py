"""Tests for whole-packet composition and the pcap file format."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.net.pcap import MAX_FRAME_BYTES, walk_records
from repro.net import (
    FlowKey,
    Packet,
    PcapReader,
    PcapWriter,
    TCPHeader,
    make_tcp_packet,
    make_udp_packet,
    read_pcap,
    write_pcap,
)


def _sample_tcp_packet(ts=1.5) -> Packet:
    tcp = TCPHeader(src_port=51000, dst_port=443, flag_syn=True)
    return make_tcp_packet("10.0.0.5", "142.250.70.78", tcp,
                           ttl=128, timestamp=ts)


def _sample_udp_packet(ts=2.25) -> Packet:
    return make_udp_packet("10.0.0.6", "172.217.0.1", 50001, 443,
                           payload=b"\x00" * 64, ttl=64, timestamp=ts)


class TestPacket:
    def test_tcp_roundtrip(self):
        packet = _sample_tcp_packet()
        parsed = Packet.from_bytes(packet.to_bytes(), timestamp=1.5)
        assert parsed.is_tcp
        assert parsed.ip.src == "10.0.0.5"
        assert parsed.ip.ttl == 128
        assert parsed.tcp.flag_syn
        assert parsed.flow_key == FlowKey(6, "10.0.0.5", 51000,
                                          "142.250.70.78", 443)

    def test_udp_roundtrip(self):
        packet = _sample_udp_packet()
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.is_udp
        assert parsed.payload == b"\x00" * 64
        assert parsed.src_port == 50001

    def test_must_have_one_l4(self):
        with pytest.raises(ParseError):
            Packet(ip=_sample_tcp_packet().ip)

    def test_rejects_non_ipv4_ethertype(self):
        raw = bytearray(_sample_tcp_packet().to_bytes())
        raw[12:14] = (0x86DD).to_bytes(2, "big")  # IPv6
        with pytest.raises(ParseError):
            Packet.from_bytes(bytes(raw))

    def test_rejects_truncated_capture(self):
        raw = _sample_tcp_packet().to_bytes()
        with pytest.raises(ParseError):
            Packet.from_bytes(raw[:-5])

    @given(payload=st.binary(max_size=512),
           ttl=st.integers(min_value=1, max_value=255))
    def test_payload_roundtrip_property(self, payload, ttl):
        tcp = TCPHeader(src_port=1234, dst_port=443, flag_ack=True)
        packet = make_tcp_packet("10.1.2.3", "8.8.8.8", tcp,
                                 payload=payload, ttl=ttl)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == payload
        assert parsed.ip.ttl == ttl


class TestFlowKey:
    def test_canonical_direction_independent(self):
        key = FlowKey(6, "10.0.0.5", 51000, "142.250.70.78", 443)
        assert key.canonical() == key.reversed().canonical()

    def test_str_format(self):
        key = FlowKey(17, "1.2.3.4", 1000, "5.6.7.8", 443)
        assert str(key) == "udp:1.2.3.4:1000->5.6.7.8:443"


class TestPcap:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "sample.pcap"
        packets = [_sample_tcp_packet(1.0), _sample_udp_packet(2.5),
                   _sample_tcp_packet(3.000001)]
        assert write_pcap(path, packets) == 3
        loaded = read_pcap(path)
        assert len(loaded) == 3
        assert [round(p.timestamp, 6) for p in loaded] == \
            [1.0, 2.5, 3.000001]
        assert loaded[0].is_tcp and loaded[1].is_udp
        assert loaded[0].to_bytes() == packets[0].to_bytes()

    def test_reads_big_endian_files(self, tmp_path):
        path = tmp_path / "be.pcap"
        frame = _sample_tcp_packet().to_bytes()
        with open(path, "wb") as f:
            f.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                65535, 1))
            f.write(struct.pack(">IIII", 10, 500000, len(frame),
                                len(frame)))
            f.write(frame)
        with PcapReader(path) as reader:
            records = list(reader)
        assert len(records) == 1
        assert records[0].timestamp == pytest.approx(10.5)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ParseError):
            PcapReader(path)

    def test_rejects_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        with PcapWriter(path) as writer:
            writer.write_bytes(b"\xAB" * 60, 1.0)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with PcapReader(path) as reader:
            with pytest.raises(ParseError):
                list(reader)

    def test_blocks_reject_corrupt_record_length(self, tmp_path):
        """A corrupt length mid-capture used to grow the carry by one
        chunk per read until the rest of the file sat in memory, then
        report a truncated body. Now: the records ahead of it come out,
        then a ``corrupt capture`` error naming the offset — within a
        couple of chunks of the record, however much file follows."""
        path = tmp_path / "corrupt.pcap"
        with PcapWriter(path) as writer:
            for i in range(5):
                writer.write_bytes(bytes([i]) * 60, 1.0 + i)
        corrupt_at = path.stat().st_size
        with open(path, "ab") as f:
            f.write(struct.pack("<IIII", 7, 0, 1 << 30, 1 << 30))
            f.write(b"\x00" * (1 << 20))
        chunk_bytes = 4096
        with PcapReader(path) as reader:
            blocks = reader.blocks(chunk_bytes=chunk_bytes)
            first = next(blocks)
            assert [first.frame_bytes(i) for i in range(len(first))] == \
                [bytes([i]) * 60 for i in range(5)]
            with pytest.raises(
                    ParseError,
                    match=f"claims {1 << 30} bytes at offset "
                          f"{corrupt_at}.*corrupt capture"):
                next(blocks)
            assert reader._file.tell() <= corrupt_at + 2 * chunk_bytes

    def test_blocks_carry_a_large_record_up_to_the_bound(self, tmp_path):
        """A record bigger than the read chunk still grows the carry
        until it fits — the bound only rejects lengths no frame has."""
        path = tmp_path / "large.pcap"
        big = b"\x5a" * MAX_FRAME_BYTES
        with PcapWriter(path) as writer:
            writer.write_bytes(b"\x01" * 60, 1.0)
            writer.write_bytes(big, 2.0)
            writer.write_bytes(b"\x02" * 60, 3.0)
        with PcapReader(path) as reader:
            frames = [block.frame_bytes(i)
                      for block in reader.blocks(chunk_bytes=4096)
                      for i in range(len(block))]
        assert frames == [b"\x01" * 60, big, b"\x02" * 60]

    def test_walk_records_stops_at_max_frames_and_partial(self):
        record = struct.Struct("<IIII")
        buf = b"".join(record.pack(i, 500_000, 4, 4) + bytes([i]) * 4
                       for i in range(6))
        block, offset = walk_records(buf, 0, record, 4)
        assert len(block) == 4 and offset == 4 * 20
        assert block.timestamps.tolist() == [0.5, 1.5, 2.5, 3.5]
        # ... resumes where it stopped, and leaves a partial record.
        block, offset = walk_records(buf[:-1], offset, record, 4)
        assert [block.frame_bytes(i) for i in range(len(block))] == \
            [b"\x04" * 4]
        assert offset == 5 * 20
        block, offset = walk_records(buf[:105], offset, record, 4)
        assert not block and offset == 100

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "cm.pcap"
        with PcapWriter(path) as writer:
            writer.write_packet(_sample_tcp_packet())
        # File must be complete and re-readable after close.
        assert len(read_pcap(path)) == 1
