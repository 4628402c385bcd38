"""Classic libpcap file format reader/writer (the format Wireshark wrote
for the paper's lab captures).

Supports the microsecond-resolution magic 0xA1B2C3D4 in both byte orders
on read; always writes native little-endian microsecond files with
LINKTYPE_ETHERNET.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.errors import ParseError
from repro.net.packet import Packet
from repro.net.rawpacket import FrameBlock

MAGIC_USEC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
# ``incl_len`` alone, per byte order: the one field the record walk
# reads per record.
_INCL_LEN = {"<": struct.Struct("<8xI"), ">": struct.Struct(">8xI")}
# Byte offsets of the 8-byte timestamp field a record header opens with.
_STAMP_BYTES = np.arange(8)

#: Upper bound on one frame's byte length accepted from any source.
#: Jumbo frames top out under 10 KB; anything bigger means a corrupt
#: length field (mid-file truncation, a confused forwarder) and must
#: not turn into a giant allocation.
MAX_FRAME_BYTES = 262_144


@dataclass(frozen=True)
class PcapRecord:
    """One captured frame: raw bytes plus its capture timestamp."""

    timestamp: float
    data: bytes
    original_length: int


class PcapWriter:
    """Write packets (or raw frames) into a pcap file.

    Usable as a context manager::

        with PcapWriter(path) as writer:
            writer.write_packet(pkt)
    """

    def __init__(self, path: str | Path):
        self._file: BinaryIO = open(path, "wb")
        self._file.write(_GLOBAL_HEADER.pack(
            MAGIC_USEC, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET
        ))

    def write_bytes(self, data: bytes, timestamp: float) -> None:
        sec = int(timestamp)
        usec = int(round((timestamp - sec) * 1_000_000))
        if usec >= 1_000_000:
            sec += 1
            usec -= 1_000_000
        self._file.write(_RECORD_HEADER.pack(sec, usec, len(data), len(data)))
        self._file.write(data)

    def write_packet(self, packet: Packet) -> None:
        self.write_bytes(packet.to_bytes(), packet.timestamp)

    def write_all(self, packets: Iterable[Packet]) -> int:
        count = 0
        for packet in packets:
            self.write_packet(packet)
            count += 1
        return count

    def flush(self) -> None:
        """Push buffered records to disk at a record boundary — what a
        live capture writer does between bursts so a tailing reader
        (``repro serve --source tail:...``) sees them before close."""
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PcapReader:
    """Iterate over the records of a pcap file."""

    def __init__(self, path: str | Path):
        self._file: io.BufferedReader = open(path, "rb")
        raw = self._file.read(_GLOBAL_HEADER.size)
        if len(raw) < _GLOBAL_HEADER.size:
            raise ParseError("truncated pcap global header")
        magic_le = struct.unpack("<I", raw[:4])[0]
        magic_be = struct.unpack(">I", raw[:4])[0]
        if magic_le == MAGIC_USEC:
            self._endian = "<"
        elif magic_be == MAGIC_USEC:
            self._endian = ">"
        else:
            raise ParseError(f"unknown pcap magic 0x{magic_le:08x}")
        fields = struct.unpack(self._endian + "IHHiIII", raw)
        self.linktype = fields[6]
        if self.linktype != LINKTYPE_ETHERNET:
            raise ParseError(f"unsupported linktype {self.linktype}")
        self._record = struct.Struct(self._endian + "IIII")

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        raw = self._file.read(self._record.size)
        if not raw:
            self._file.close()
            raise StopIteration
        if len(raw) < self._record.size:
            raise ParseError("truncated pcap record header")
        sec, usec, incl_len, orig_len = self._record.unpack(raw)
        data = self._file.read(incl_len)
        if len(data) < incl_len:
            raise ParseError("truncated pcap record body")
        return PcapRecord(sec + usec / 1_000_000, data, orig_len)

    def packets(self) -> Iterator[Packet]:
        """Parse each record up through L4; skips nothing, raises on
        malformed frames (the files we read are our own)."""
        for record in self:
            yield Packet.from_bytes(record.data, record.timestamp)

    def frames(self) -> Iterator[tuple[bytes, float]]:
        """Stream raw ``(frame bytes, timestamp)`` pairs without any
        packet parsing (the eager replay parses each with
        ``Packet.from_bytes``; :meth:`blocks` is the bulk feed)."""
        read = self._file.read
        header_size = self._record.size
        unpack = self._record.unpack
        while True:
            raw = read(header_size)
            if not raw:
                self._file.close()
                return
            if len(raw) < header_size:
                raise ParseError("truncated pcap record header")
            sec, usec, incl_len, _ = unpack(raw)
            data = read(incl_len)
            if len(data) < incl_len:
                raise ParseError("truncated pcap record body")
            yield data, sec + usec / 1_000_000

    def blocks(self, max_frames: int = 4096,
               chunk_bytes: int = 1 << 20) -> Iterator[FrameBlock]:
        """Stream the capture as :class:`FrameBlock` chunks — the feed
        for the bulk ``decode_block`` ingest path.

        Each block's frames live inside one file-read buffer (record
        headers skipped by offset, frame bytes never copied); a record
        straddling a read boundary is carried into the next chunk, and
        a record larger than ``chunk_bytes`` grows the carry until it
        fits — up to :data:`MAX_FRAME_BYTES`, past which the length is
        corrupt (:func:`walk_records`). Truncation raises the same
        :class:`ParseError` classes as :meth:`frames`.
        """
        readinto = self._file.readinto
        record = self._record
        tail = bytearray()  # the partial record a chunk ended in
        origin = _GLOBAL_HEADER.size  # file offset of chunk[0]
        while True:
            # One buffer per chunk, the carried partial record copied
            # to its head and the file read in behind it: the frames
            # are never concatenated a second time. (No mmap: mapped
            # file pages would count toward the process's peak RSS.)
            carry = len(tail)
            chunk = bytearray(carry + chunk_bytes)
            chunk[:carry] = tail
            got = readinto(memoryview(chunk)[carry:])
            if not got:
                if carry:
                    if carry < record.size:
                        raise ParseError("truncated pcap record header")
                    raise ParseError("truncated pcap record body")
                self._file.close()
                return
            if got < chunk_bytes:
                del chunk[carry + got:]
            offset = 0
            while True:
                block, offset = walk_records(chunk, offset, record,
                                             max_frames, origin)
                if block:
                    yield block
                if len(block) < max_frames:
                    break
            tail = chunk[offset:]
            origin += offset

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def walk_records(buf: bytes | bytearray | memoryview, offset: int,
                 record: struct.Struct, max_frames: int, origin: int = 0
                 ) -> tuple[FrameBlock, int]:
    """Walk pcap record headers over ``buf`` from ``offset``: the
    complete records found (at most ``max_frames``) as one
    :class:`FrameBlock` addressing ``buf`` — frame bytes never copied —
    and the offset of the first record not taken. The one record walk
    under ``src/``: :meth:`PcapReader.blocks` runs it over read chunks,
    the daemon's tail source over whatever a growing file holds.

    Only ``incl_len`` decides where the next header is, so it is the
    only field read per record in Python; the byte ranges and the
    timestamp columns come from numpy over the collected offsets
    (:func:`record_columns`), in the file's byte order.

    ``record`` is the file's ``IIII`` header struct in its byte order;
    ``origin`` is the file offset of ``buf[0]``, for error text only.
    A record whose length exceeds :data:`MAX_FRAME_BYTES` is corrupt,
    not merely incomplete, and raises :class:`ParseError` — checked
    only where the walk stops for lack of bytes (the per-record loop
    pays nothing for it), and only with nothing walked before it, so
    the records ahead of a corrupt one are delivered first and the
    error surfaces on the next call, which starts at that record. (A
    corrupt length small enough to fit inside ``buf`` passes as one
    frame; the walk then resumes on garbage, whose "length" trips
    this check.)
    """
    n = len(buf)
    endian = record.format[0]
    header_size = record.size
    incl_len_at = _INCL_LEN[endian].unpack_from
    last_header = n - header_size
    bounds = [offset]
    append = bounds.append
    for _ in range(max_frames):
        if offset > last_header:
            break
        (incl_len,) = incl_len_at(buf, offset)
        end = offset + header_size + incl_len
        if end > n:
            if incl_len > MAX_FRAME_BYTES and len(bounds) == 1:
                raise ParseError(
                    f"pcap record claims {incl_len} bytes at offset "
                    f"{origin + offset}; corrupt capture")
            break
        append(end)
        offset = end
    starts, ends, stamps = record_columns(buf, bounds, header_size,
                                          endian + "u4")
    # uint32 -> float64 is exact and the quotient correctly rounded:
    # the same float ``sec + usec / 1_000_000`` gives on Python ints.
    times = stamps[:, 0] + stamps[:, 1] / 1_000_000
    return FrameBlock(buf, starts, ends, times), offset


def record_columns(buf: bytes | bytearray | memoryview, bounds: list[int],
                   header_size: int, stamp: str
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-record columns for back-to-back records whose headers open
    with an 8-byte timestamp field: ``bounds`` is where each record
    begins plus where the last one ends (what a lengths-only walk
    collects). Returns the frame ``starts``/``ends`` (int64) and the
    timestamp fields gathered at their unaligned offsets, viewed as
    dtype ``stamp`` — shape ``(records, 8 // itemsize)``."""
    edges = np.array(bounds, dtype=np.int64)
    heads = edges[:-1]
    stamps = np.frombuffer(buf, dtype=np.uint8)[
        heads[:, None] + _STAMP_BYTES].view(stamp)
    return heads + header_size, edges[1:], stamps


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Convenience: write ``packets`` to ``path``; returns the count."""
    with PcapWriter(path) as writer:
        return writer.write_all(packets)


def read_pcap(path: str | Path) -> list[Packet]:
    """Convenience: parse every packet in the file into memory."""
    with PcapReader(path) as reader:
        return list(reader.packets())
