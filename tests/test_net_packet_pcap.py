"""Tests for whole-packet composition and the pcap file format."""

import os
import random
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.net.pcap import MAX_FRAME_BYTES, walk_records
from repro.service.sources import PcapTailSource
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

    def test_walk_records_over_a_buffer_with_no_record(self):
        record = struct.Struct("<IIII")
        for buf in (b"", b"\x00" * 15, bytearray(7)):
            block, offset = walk_records(buf, 0, record, 4)
            assert len(block) == 0 and not block and offset == 0
            assert block.timestamps.dtype == "float64"
            assert block.starts.dtype == block.ends.dtype == "int64"

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "cm.pcap"
        with PcapWriter(path) as writer:
            writer.write_packet(_sample_tcp_packet())
        # File must be complete and re-readable after close.
        assert len(read_pcap(path)) == 1


def _block_frames(blocks):
    return [(block.frame_bytes(i), float(block.timestamps[i]))
            for block in blocks for i in range(len(block))]


def _capture_bytes(endian, records):
    """A pcap file image in byte order ``endian`` from ``(sec, usec,
    frame)`` triples — ``usec`` is written as given, in range or not."""
    out = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                       65535, 1)]
    for sec, usec, frame in records:
        out.append(struct.pack(endian + "IIII", sec, usec, len(frame),
                               len(frame)))
        out.append(frame)
    return b"".join(out)


# Lengths that leave most record headers unaligned; timestamps whose
# float sum is inexact, at the top of the u32 range, and a ``ts_usec``
# no writer should produce (the walk must not normalise it: the
# per-record reader does not).
_RECORDS = [
    (10, 500_000, b"\x01" * 61),
    (1_700_000_000, 999_999, b"\x02" * 7),
    (1_700_000_001, 1, b""),
    (0xFFFFFFFF, 0xFFFFFFFF, b"\x03" * 1514),
    (7, 1_000_000, b"\x04" * 3),
    (8, 123_456_789, b"\x05" * 64),
] + [(2_000 + i, (i * 314_159) % 1_000_000, bytes([i]) * (i % 97))
     for i in range(200)]


class TestByteOrderAndBlocks:
    """``blocks()`` and the tail source gather the timestamp columns
    with numpy in the file's byte order; ``frames()`` unpacks them one
    record at a time. Same frames, same floats — ``==``, not approx."""

    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    @pytest.mark.parametrize("max_frames,chunk_bytes",
                             [(4096, 1 << 20), (5, 1 << 20), (4096, 100),
                              (3, 64)])
    def test_blocks_equal_frames(self, tmp_path, endian, max_frames,
                                 chunk_bytes):
        path = tmp_path / "capture.pcap"
        path.write_bytes(_capture_bytes(endian, _RECORDS))
        with PcapReader(path) as reader:
            expected = list(reader.frames())
        assert expected == [(frame, sec + usec / 1_000_000)
                            for sec, usec, frame in _RECORDS]
        with PcapReader(path) as reader:
            blocks = list(reader.blocks(max_frames=max_frames,
                                        chunk_bytes=chunk_bytes))
        assert all(0 < len(block) <= max_frames for block in blocks)
        assert _block_frames(blocks) == expected
        assert [e - s for block in blocks for s, e in
                zip(block.starts.tolist(), block.ends.tolist())] == \
            [len(frame) for _, _, frame in _RECORDS]

    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    def test_tail_source_equals_frames(self, tmp_path, endian):
        path = tmp_path / "capture.pcap"
        path.write_bytes(_capture_bytes(endian, _RECORDS))
        with PcapReader(path) as reader:
            expected = list(reader.frames())
        blocks = []
        with PcapTailSource(path) as source:
            # 7 does not divide the record count: every poll but the
            # last cuts the walk mid-buffer and must seek back.
            while block := source.poll(7, timeout=0.0):
                assert len(block) <= 7
                blocks.append(block)
            assert source.consumed == len(_RECORDS)
        assert _block_frames(blocks) == expected

    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    def test_corrupt_length_after_good_records(self, tmp_path, endian):
        """Byte order does not change the PR 19 contract: records
        ahead of a corrupt ``incl_len`` first, then the error naming
        its file offset — from ``blocks()`` and from the tail source."""
        good = _capture_bytes(endian, _RECORDS[:5])
        path = tmp_path / "corrupt.pcap"
        path.write_bytes(good + struct.pack(endian + "IIII", 9, 0,
                                            1 << 30, 1 << 30)
                         + b"\x00" * 5000)
        message = f"claims {1 << 30} bytes at offset {len(good)}.*corrupt"
        with PcapReader(path) as reader:
            blocks = reader.blocks(chunk_bytes=512)
            taken = []
            with pytest.raises(ParseError, match=message):
                for block in blocks:
                    taken.append(block)
        assert [data for data, _ in _block_frames(taken)] == \
            [frame for _, _, frame in _RECORDS[:5]]
        with PcapTailSource(path) as source:
            block = source.poll(256, timeout=0.0)
            assert len(block) == 5
            with pytest.raises(ParseError, match=message):
                source.poll(256, timeout=0.0)


def _dribble(fd, data, seed):
    """Write ``data`` to ``fd`` in seeded random 1-3000-byte slices,
    then close it."""
    rng = random.Random(seed)
    try:
        at = 0
        while at < len(data):
            step = rng.randint(1, 3000)
            os.write(fd, data[at:at + step])
            at += step
    except BrokenPipeError:  # the reader raised and closed early
        pass
    finally:
        os.close(fd)


def _read_through_fifo(tmp_path, data, seed, consume):
    """``consume(reader)`` over a FIFO a writer thread dribbles
    ``data`` into; returns ``(result, error)``."""
    fifo = tmp_path / f"feed-{seed}-{consume.__name__}.pcap"
    os.mkfifo(fifo)

    def write():
        _dribble(os.open(fifo, os.O_WRONLY), data, seed)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    result, error = [], None
    try:
        with PcapReader(fifo) as reader:
            try:
                for item in consume(reader):
                    result.append(item)
            except ParseError as exc:
                error = str(exc)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    return result, error


def _via_frames(reader):
    return reader.frames()


def _via_blocks(reader):
    # A chunk smaller than most slices and than the big frame: every
    # read is short of a record somewhere, headers included.
    for block in reader.blocks(max_frames=64, chunk_bytes=1000):
        yield from _block_frames([block])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
class TestBlocksOverADribblingPipe:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    def test_blocks_equal_frames_record_for_record(self, tmp_path, seed,
                                                   endian):
        data = _capture_bytes(endian, _RECORDS)
        expected, error = _read_through_fifo(tmp_path, data, seed,
                                             _via_frames)
        assert error is None and len(expected) == len(_RECORDS)
        assert _read_through_fifo(tmp_path, data, seed, _via_blocks) == \
            (expected, None)

    @pytest.mark.parametrize("cut,message", [
        (9, "truncated pcap record header"),     # inside the last header
        (16 + 30, "truncated pcap record body"),  # inside the last body
    ], ids=["mid-header", "mid-body"])
    def test_same_truncation_errors_at_eof(self, tmp_path, cut, message):
        whole = _capture_bytes("<", _RECORDS[:40])
        last = _capture_bytes("<", [(99, 5, b"\x09" * 64)])[24:]
        data = whole + last[:cut]
        for consume in (_via_frames, _via_blocks):
            result, error = _read_through_fifo(tmp_path, data, 5, consume)
            assert error == message, consume.__name__
            assert [frame for frame, _ in result] == \
                [frame for _, _, frame in _RECORDS[:40]]
