"""Bulk frame decode: the ingest fast path.

The eager :class:`~repro.net.packet.Packet` materializes Ethernet/IPv4/
L4 dataclasses (with full TCP-option parsing) for every frame. Behind a
line-rate tap that work is the throughput ceiling: the per-packet hot
path only ever needs the 5-tuple, the payload length, and the client
direction — full parsing matters only for the ≤8 handshake packets per
flow that reach ``parse_flow_handshake``.

:class:`FrameBlock` is many captured frames addressed by offset into
one buffer, and :func:`decode_block` validates and field-extracts a
whole block with numpy gathers (~60 array ops per block, however many
frames it holds). Per-frame Python survives only for the HTTPS frames
the flow table must see, and full promotion only for candidate
handshake packets of flows still collecting (TCP flags are
precomputed vectorized so the engine can skip reparse attempts
without touching the frame).

``Packet.from_bytes`` is the oracle: :func:`decode_block` marks a frame
invalid if and only if ``Packet.from_bytes`` raises :class:`ParseError`
for it (same frame classes — bad ethertype, truncated headers,
inconsistent IPv4 total length, bad TCP data offset or option framing),
and the fields it extracts are the ones the eager packet carries. The
parser-fuzz property suite holds the two together frame by frame.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import ParseError
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_VLAN
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet

# u32 IPv4 address -> dotted quad, shared across blocks. A tap sees a
# bounded host population, so this stays small while removing the
# string-formatting cost from the per-flow path.
_IP_U32_CACHE: dict[int, str] = {}
_IP_CACHE_MAX = 1 << 16


def _ip_from_u32(value: int) -> str:
    ip = _IP_U32_CACHE.get(value)
    if ip is None:
        ip = (f"{value >> 24}.{(value >> 16) & 0xFF}."
              f"{(value >> 8) & 0xFF}.{value & 0xFF}")
        if len(_IP_U32_CACHE) >= _IP_CACHE_MAX:
            _IP_U32_CACHE.clear()
        _IP_U32_CACHE[value] = ip
    return ip


_PACK_HEADER = struct.Struct("<II")  # frame count, payload byte count


class FrameBlock:
    """Many captured frames addressed into one buffer.

    ``buf`` holds the frame bytes (frames need not be contiguous —
    a pcap chunk with record headers in between works); ``starts`` /
    ``ends`` are int64 arrays of per-frame byte ranges and
    ``timestamps`` the float64 capture times. This is the unit the
    bulk ingest path moves around: the pcap reader yields them, the
    shared-memory ring carries their packed form, and
    :func:`decode_block` consumes them.
    """

    __slots__ = ("buf", "starts", "ends", "timestamps")

    def __init__(self, buf: bytes | bytearray | memoryview,
                 starts: np.ndarray, ends: np.ndarray,
                 timestamps: np.ndarray) -> None:
        self.buf = buf
        self.starts = starts
        self.ends = ends
        self.timestamps = timestamps

    @classmethod
    def from_frames(cls, frames: Iterable[tuple[
            bytes | bytearray | memoryview, float]]) -> "FrameBlock":
        """Pack an iterable of ``(frame bytes, timestamp)`` pairs into
        one contiguous block (for feeds that arrive a frame at a time
        — the AF_PACKET source, tests; streaming readers build blocks
        over their read buffer instead, ``net.pcap.walk_records``)."""
        datas, times = [], []
        for data, timestamp in frames:
            datas.append(bytes(data))
            times.append(timestamp)
        lens = np.fromiter((len(d) for d in datas), dtype=np.int64,
                           count=len(datas))
        ends = np.cumsum(lens)
        return cls(b"".join(datas), ends - lens, ends,
                   np.asarray(times, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.starts)

    def frame(self, i: int) -> memoryview:
        """Zero-copy view of frame ``i``."""
        return memoryview(self.buf)[self.starts[i]:self.ends[i]]

    def frame_bytes(self, i: int) -> bytes:
        return bytes(self.frame(i))

    def slice(self, lo: int, hi: int) -> "FrameBlock":
        """Frames ``[lo, hi)`` as a view over the same buffer."""
        return FrameBlock(self.buf, self.starts[lo:hi],
                          self.ends[lo:hi], self.timestamps[lo:hi])

    # -- packed wire format ------------------------------------------------
    #
    # [u32 n][u32 payload_bytes][u32 ends[n]][f64 ts[n]][payload]
    # Relative ends (cumulative lengths) keep the table 4 bytes per
    # frame; the payload is the frames back to back. unpack() maps the
    # arrays straight over the carrier buffer, so a worker reading a
    # shared-memory ring never copies frame bytes.

    def pack_chunks(self, indices: Iterable[int] | None = None,
                    max_bytes: int | None = None) -> Iterator[bytes]:
        """Serialize (a subset of) the block into one or more packed
        chunks of at most ``max_bytes`` each (a chunk always carries at
        least one frame, however large). Column-wise: the tables are
        array slices and only the per-frame buffer views are built in
        Python."""
        starts, ends = self.starts, self.ends
        times = self.timestamps
        if indices is not None:
            lanes = np.fromiter(indices, dtype=np.intp)
            starts, ends, times = starts[lanes], ends[lanes], times[lanes]
        n = len(starts)
        if not n:
            return
        payload = np.cumsum(ends - starts)
        view = memoryview(self.buf)
        parts = [view[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        # A chunk holding frames [lo, hi) takes header + 12 bytes of
        # table per frame + payload; ``cost`` is that running total
        # less the header, so the greedy cut is one search per chunk.
        cost = payload + 12 * np.arange(1, n + 1)
        lo = before = 0  # ``before``: payload bytes in earlier chunks
        while lo < n:
            hi = n
            if max_bytes is not None:
                room = max_bytes - _PACK_HEADER.size + before + 12 * lo
                hi = max(lo + 1,
                         int(np.searchsorted(cost, room, side="right")))
            through = int(payload[hi - 1])
            yield b"".join((
                _PACK_HEADER.pack(hi - lo, through - before),
                (payload[lo:hi] - before).astype(np.uint32).tobytes(),
                times[lo:hi].tobytes(),
                *parts[lo:hi],
            ))
            lo, before = hi, through

    @classmethod
    def unpack(cls, buf: bytes | bytearray | memoryview) -> "FrameBlock":
        """Rebuild a block over ``buf`` (bytes or memoryview) without
        copying the frame payload. The frame table must be
        non-decreasing and end exactly at ``payload_bytes``; anything
        else is a corrupt chunk (:class:`ParseError`), never frame
        bounds that run past the buffer."""
        view = memoryview(buf)
        if len(view) < _PACK_HEADER.size:
            raise ParseError("truncated frame-block header")
        n, payload_bytes = _PACK_HEADER.unpack_from(view, 0)
        tables = _PACK_HEADER.size + 12 * n
        if len(view) < tables + payload_bytes:
            raise ParseError("truncated frame-block body")
        ends = np.frombuffer(view, dtype=np.uint32,
                             count=n, offset=_PACK_HEADER.size)
        if (int(ends[-1]) if n else 0) != payload_bytes \
                or np.any(ends[1:] < ends[:-1]):
            raise ParseError("inconsistent frame-block table")
        times = np.frombuffer(view, dtype=np.float64, count=n,
                              offset=_PACK_HEADER.size + 4 * n)
        ends = ends.astype(np.int64) + tables
        starts = np.empty(n, dtype=np.int64)
        if n:
            starts[0] = tables
            starts[1:] = ends[:-1]
        return cls(view[:tables + payload_bytes], starts, ends, times)


class DecodedBlock:
    """The vectorized decode of one :class:`FrameBlock`.

    Per-frame numpy arrays: ``valid`` (``Packet.from_bytes`` accepts
    the frame), ``https`` (valid and touching port
    443 — the only frames the flow table needs), ``protocol``,
    ``src_u32``/``dst_u32``, ``src_port``/``dst_port``, ``ttl``,
    ``payload_len``, ``vlan_id`` (-1 = untagged), and the promotion
    heuristic ``syn_noack`` (TCP SYN without ACK — the late-client-SYN
    reparse trigger). Scalar escape hatches (:meth:`promote`,
    :meth:`raise_invalid`) re-parse a single frame with
    ``Packet.from_bytes`` for the few consumers that need objects or
    exact error text.
    """

    __slots__ = ("block", "valid", "https", "protocol", "src_u32",
                 "dst_u32", "src_port", "dst_port", "ttl",
                 "payload_len", "vlan_id", "syn_noack", "_https_idx",
                 "_dir_hi", "_dir_lo")

    def __init__(self, block: FrameBlock, valid: np.ndarray,
                 https: np.ndarray, protocol: np.ndarray,
                 src_u32: np.ndarray, dst_u32: np.ndarray,
                 src_port: np.ndarray, dst_port: np.ndarray,
                 ttl: np.ndarray, payload_len: np.ndarray,
                 vlan_id: np.ndarray, syn_noack: np.ndarray) -> None:
        self.block = block
        self.valid = valid
        self.https = https
        self.protocol = protocol
        self.src_u32 = src_u32
        self.dst_u32 = dst_u32
        self.src_port = src_port
        self.dst_port = dst_port
        self.ttl = ttl
        self.payload_len = payload_len
        self.vlan_id = vlan_id
        self.syn_noack = syn_noack
        self._https_idx = None
        self._dir_hi = None
        self._dir_lo = None

    def __len__(self) -> int:
        return len(self.valid)

    @property
    def timestamps(self) -> np.ndarray:
        return self.block.timestamps

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid))

    @property
    def invalid_count(self) -> int:
        return len(self.valid) - self.valid_count

    @property
    def https_indices(self) -> np.ndarray:
        """Indices of the valid frames that touch port 443, in capture
        order — the frames that reach the flow table."""
        if self._https_idx is None:
            self._https_idx = np.nonzero(self.https)[0]
        return self._https_idx

    def dir_key_columns(self, indices: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Directional numeric flow keys for the given frames as two
        uint64 columns ``(hi, lo)`` packing (src, dst) and (proto,
        sport, dport). Both directions of a flow give different keys,
        which is fine — they are cache keys, not canonical identity;
        the cached value is computed from :meth:`make_key` either
        way."""
        if self._dir_hi is None:
            self._dir_hi = (self.src_u32.astype(np.uint64) << 32) \
                | self.dst_u32
            self._dir_lo = (self.protocol.astype(np.uint64) << 32) \
                | (self.src_port.astype(np.uint64) << 16) \
                | self.dst_port
        return self._dir_hi[indices], self._dir_lo[indices]

    def dir_keys(self, indices: np.ndarray) -> Iterator[tuple[int, int]]:
        """:meth:`dir_key_columns` as one ``(hi, lo)`` tuple per
        frame."""
        hi, lo = self.dir_key_columns(indices)
        return zip(hi.tolist(), lo.tolist())

    def make_key(self, i: int) -> tuple:
        """``(canonical_key_tuple, src_ip, dst_ip)`` for frame ``i`` —
        identical to the tuple ``Packet`` builds, string comparison and
        all, so every flow lands in the same table entry and on the
        same shard whichever path decoded it."""
        src = _ip_from_u32(int(self.src_u32[i]))
        dst = _ip_from_u32(int(self.dst_u32[i]))
        sp = int(self.src_port[i])
        dp = int(self.dst_port[i])
        proto = int(self.protocol[i])
        if (src, sp) <= (dst, dp):
            key = (proto, src, sp, dst, dp)
        else:
            key = (proto, dst, dp, src, sp)
        return key, src, dst

    def slice(self, lo: int, hi: int) -> "DecodedBlock":
        return DecodedBlock(
            self.block.slice(lo, hi), self.valid[lo:hi],
            self.https[lo:hi], self.protocol[lo:hi],
            self.src_u32[lo:hi], self.dst_u32[lo:hi],
            self.src_port[lo:hi], self.dst_port[lo:hi],
            self.ttl[lo:hi], self.payload_len[lo:hi],
            self.vlan_id[lo:hi], self.syn_noack[lo:hi])

    # -- scalar escape hatches ---------------------------------------------

    def promote(self, i: int) -> Packet:
        """Full eager packet for frame ``i`` (candidate handshake
        packets only — the flow-state gate in the engine)."""
        return Packet.from_bytes(self.block.frame_bytes(i),
                                 float(self.block.timestamps[i]))

    def first_invalid(self) -> int | None:
        bad = np.nonzero(~self.valid)[0]
        return int(bad[0]) if bad.size else None

    def raise_invalid(self, i: int) -> None:
        """Raise the exact :class:`ParseError` ``Packet.from_bytes``
        gives for (invalid) frame ``i`` — strict-mode ingest parity
        with the eager oracle."""
        self.promote(i)
        raise ParseError(  # pragma: no cover - decode/parse disagree
            f"decode_block flagged frame {i} invalid but "
            f"Packet.from_bytes accepts it")


def _walk_tcp_options(buf, start: int, end: int) -> bool:
    """Scalar option-framing walk for the minority of TCP frames with
    data_offset > 20: accepts exactly the option bytes
    ``TCPHeader.parse`` accepts."""
    i = start
    while i < end:
        kind = buf[i]
        if kind == 0:
            break
        if kind == 1:
            i += 1
            continue
        if i + 1 >= end:
            return False
        length = buf[i + 1]
        if length < 2 or i + length > end:
            return False
        i += length
    return True


def decode_block(block: FrameBlock) -> DecodedBlock:
    """Vectorized decode of every frame in ``block``.

    One pass of numpy gathers validates all frames and extracts the
    hot-path fields (5-tuples, lengths, TTLs, VLAN ids, TCP flags);
    no per-frame Python runs except a bounded option-framing walk for
    TCP frames that carry options. Frames rejected here are exactly
    the frames ``Packet.from_bytes`` raises :class:`ParseError` for; a
    frame whose bounds run past the buffer is rejected too, so no lane
    is ever read beyond the bytes the block holds.
    """
    n = len(block)
    buf = np.frombuffer(block.buf, dtype=np.uint8)
    empty = lambda dtype: np.zeros(n, dtype=dtype)  # noqa: E731
    if n == 0 or buf.size == 0:
        # No bytes to gather from: every (zero-length) frame is a
        # truncated-Ethernet reject.
        return DecodedBlock(
            block, empty(bool), empty(bool), empty(np.uint8),
            empty(np.uint32), empty(np.uint32), empty(np.uint16),
            empty(np.uint16), empty(np.uint8), empty(np.int64),
            np.full(n, -1, dtype=np.int32), empty(bool))
    starts = block.starts.astype(np.int64, copy=False)
    lens = (block.ends - block.starts).astype(np.int64, copy=False)
    limit = buf.size - 1

    def gather(rel):
        """byte at frame_start + rel (vector or scalar rel), clamped
        in-bounds — clamped lanes are garbage but always masked
        invalid before use."""
        return buf[np.minimum(starts + rel, limit)].astype(np.int64)

    valid = (lens >= 14) & (block.ends <= buf.size)
    ethertype = (gather(12) << 8) | gather(13)
    vlan = ethertype == ETHERTYPE_VLAN
    valid &= ~vlan | (lens >= 18)
    vlan_id = np.where(
        vlan, ((gather(14) << 8) | gather(15)) & 0x0FFF, -1
    ).astype(np.int32)
    ethertype = np.where(vlan, (gather(16) << 8) | gather(17),
                         ethertype)
    l3 = np.where(vlan, 18, 14)
    valid &= ethertype == ETHERTYPE_IPV4
    valid &= lens >= l3 + 20
    vi = gather(l3)
    valid &= (vi >> 4) == 4
    ihl = (vi & 0x0F) * 4
    valid &= (ihl >= 20) & (lens >= l3 + ihl)
    total_length = (gather(l3 + 2) << 8) | gather(l3 + 3)
    valid &= (total_length >= ihl) & (l3 + total_length <= lens)
    protocol = gather(l3 + 9)
    ttl = gather(l3 + 8)
    l4 = l3 + ihl
    l4_len = total_length - ihl
    is_tcp = protocol == PROTO_TCP
    is_udp = protocol == PROTO_UDP
    valid &= is_tcp | is_udp
    # TCP: header length + data offset; UDP: header + length field.
    valid &= ~is_tcp | (l4_len >= 20)
    doff = (gather(l4 + 12) >> 4) * 4
    valid &= ~is_tcp | ((doff >= 20) & (doff <= l4_len))
    flags = gather(l4 + 13)
    valid &= ~is_udp | (l4_len >= 8)
    udp_len = (gather(l4 + 4) << 8) | gather(l4 + 5)
    valid &= ~is_udp | (udp_len >= 8)
    # Option-framing parity: the eager path rejects malformed option
    # bytes at parse time; walk just the frames that carry options.
    opt_lanes = np.nonzero(valid & is_tcp & (doff > 20))[0]
    if opt_lanes.size:
        data = block.buf
        s_l4 = (starts + l4)[opt_lanes].tolist()
        d = doff[opt_lanes].tolist()
        ok = [_walk_tcp_options(data, s + 20, s + do)
              for s, do in zip(s_l4, d)]
        valid[opt_lanes] &= np.asarray(ok, dtype=bool)

    payload_start = np.where(is_tcp, l4 + doff, l4 + 8)
    payload_len = np.where(valid, l3 + total_length - payload_start, 0)
    src_u32 = ((gather(l3 + 12) << 24) | (gather(l3 + 13) << 16)
               | (gather(l3 + 14) << 8) | gather(l3 + 15))
    dst_u32 = ((gather(l3 + 16) << 24) | (gather(l3 + 17) << 16)
               | (gather(l3 + 18) << 8) | gather(l3 + 19))
    src_port = (gather(l4) << 8) | gather(l4 + 1)
    dst_port = (gather(l4 + 2) << 8) | gather(l4 + 3)
    https = valid & ((src_port == 443) | (dst_port == 443))
    syn_noack = valid & is_tcp & ((flags & 0x12) == 0x02)
    return DecodedBlock(
        block, valid, https, protocol.astype(np.uint8),
        src_u32.astype(np.uint32), dst_u32.astype(np.uint32),
        src_port.astype(np.uint16), dst_port.astype(np.uint16),
        ttl.astype(np.uint8), payload_len.astype(np.int64),
        vlan_id, syn_noack)
