"""Pluggable live frame sources for the ``repro serve`` daemon.

A batch replay owns its capture file start to finish; a service owns a
*feed* that outlives any one read. Every source here presents the same
tiny surface — ``open()``, ``poll(max_frames, timeout)`` returning one
:class:`~repro.net.rawpacket.FrameBlock` (empty, hence falsy, when the
feed is idle), ``close()`` — so the daemon's ingest loop is
source-agnostic and hands each poll straight to the vectorised
``decode_block``/``process_block`` path a batch replay runs. A bounded
``poll`` (never blocking past its timeout, never more than
``max_frames`` frames or one read buffer) is what lets that loop
interleave wall-clock checkpoint ticks, API reads and shutdown checks
with ingest.

Three implementations, selected by ``open_source`` spec strings:

* ``tail:PATH`` — follow a pcap file another process is writing
  (``tcpdump -w``, a capture relay). The portable default: works on
  every platform, needs no privileges, and carries *capture*
  timestamps. Handles the file not existing yet, partial records at
  the write frontier (re-read on the next poll), in-place truncation
  (a restarted capture), and rotation (the path re-pointing at a new
  inode — the old file is drained to EOF first, so no frame is lost).
* ``socket:HOST:PORT`` — listen for a remote forwarder that streams
  length-prefixed frames (``!dI`` header: timestamp double + frame
  length, then the frame bytes). One peer at a time; a disconnect
  just waits for the next forwarder.
* ``afpacket:IFACE`` — capture from a live interface via
  ``AF_PACKET`` raw sockets. Linux-only and needs ``CAP_NET_RAW``;
  both absences surface as :class:`~repro.errors.ConfigError` at
  ``open()`` so a misdeployed daemon fails at startup, not silently.

Only the tail source can seek: its ``skip()`` fast-forwards past
records a checkpointed daemon already consumed, mirroring
``ingest_pcap``'s resume contract. The live sources have no past to
seek into — their ``skip()`` is a documented no-op and a resumed
daemon simply rejoins the stream at "now".
"""

from __future__ import annotations

import os
import socket
import struct
import time
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.errors import ConfigError, ParseError
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    MAGIC_USEC,
    MAX_FRAME_BYTES,
    record_columns,
    walk_records,
)
from repro.net.rawpacket import FrameBlock

_GLOBAL_HEADER_SIZE = 24

#: Bytes the tail source reads per poll — ``PcapReader.blocks``' chunk
#: size. It bounds a block (and so one hold of the daemon's lock)
#: however large the file behind it is, and always holds at least one
#: whole record (:data:`MAX_FRAME_BYTES` + header).
_TAIL_READ_BYTES = 1 << 20

#: ``socket:`` wire header: capture timestamp (IEEE double, seconds)
#: + frame byte length, network order, then the frame bytes.
STREAM_FRAME_HEADER = struct.Struct("!dI")
# The length field alone: all ``_take_block`` reads per frame.
_STREAM_LENGTH = struct.Struct("!8xI")

_ETH_P_ALL = 0x0003

#: What an idle poll returns: no frames, falsy.
_EMPTY_BLOCK = FrameBlock.from_frames(())


class FrameSource:
    """Base class: a feed of frame blocks.

    Lifecycle is ``open()`` → repeated ``poll()`` → ``close()``;
    sources are also context managers. ``poll`` returns one
    :class:`FrameBlock` of between 0 and ``max_frames`` frames (bytes
    + capture timestamps, in feed order) and never blocks longer than
    ~``timeout`` seconds — an empty block is falsy, the idle heartbeat
    the daemon uses to run wall-clock ticks. :attr:`consumed` advances
    by exactly ``len(block)`` per poll: it counts every frame ever
    returned (plus, for seekable sources, records skipped on resume).
    """

    def __init__(self) -> None:
        self.consumed = 0

    def open(self) -> None:  # pragma: no cover - trivial default
        pass

    def poll(self, max_frames: int = 256,
             timeout: float = 0.2) -> FrameBlock:
        raise NotImplementedError

    def skip(self, records: int) -> None:
        """Fast-forward past ``records`` already-consumed frames when
        resuming from a checkpoint. Live sources cannot replay the
        past: the default is a counter-only no-op (the restored
        pipeline state already contains those frames' effects, and the
        stream continues from now)."""
        self.consumed += records

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> str:
        raise NotImplementedError

    def __enter__(self) -> "FrameSource":
        self.open()
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.close()


class PcapTailSource(FrameSource):
    """Follow a growing pcap file, across truncation and rotation.

    Each poll reads one buffer at the current offset and runs the
    shared record walk (:func:`repro.net.pcap.walk_records`) over it —
    no per-record ``read``. The write frontier is racy by nature: a
    record header may be visible before its body, or the global header
    before any record. The walk stops at the first incomplete record
    and the handle seeks back to that record boundary, to retry on a
    later poll — nothing is ever half-consumed. Rotation is detected
    by the path's inode changing; the old handle is drained to EOF
    before switching, so frames written just before the rotation are
    never dropped. In-place truncation (size below our offset on the
    same inode) means a restarted capture: re-read from the top.
    """

    def __init__(self, path: str | Path,
                 poll_interval: float = 0.05) -> None:
        super().__init__()
        self.path = Path(path)
        self.poll_interval = poll_interval
        self._fh: BinaryIO | None = None
        self._record: struct.Struct | None = None

    # -- file/header plumbing ----------------------------------------------

    def _try_open(self) -> bool:
        """Open ``path`` and parse its global header; False while the
        file is missing or the header is still incomplete."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return False
        raw = fh.read(_GLOBAL_HEADER_SIZE)
        if len(raw) < _GLOBAL_HEADER_SIZE:
            fh.close()
            return False
        magic_le = struct.unpack("<I", raw[:4])[0]
        magic_be = struct.unpack(">I", raw[:4])[0]
        if magic_le == MAGIC_USEC:
            endian = "<"
        elif magic_be == MAGIC_USEC:
            endian = ">"
        else:
            fh.close()
            raise ParseError(
                f"unknown pcap magic 0x{magic_le:08x} in {self.path}")
        linktype = struct.unpack(endian + "IHHiIII", raw)[6]
        if linktype != LINKTYPE_ETHERNET:
            fh.close()
            raise ParseError(
                f"unsupported linktype {linktype} in {self.path}")
        self._fh = fh
        self._record = struct.Struct(endian + "IIII")
        return True

    def _reopen(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._record = None
        self._try_open()

    def _rotated_or_truncated(self) -> str | None:
        """At the current handle's EOF, decide whether the path moved
        on without us. Returns ``"rotated"``/``"truncated"``/None."""
        assert self._fh is not None
        try:
            on_disk = os.stat(self.path)
        except FileNotFoundError:
            # Mid-rotation window: old file unlinked, new one not yet
            # created. Keep the drained handle until the path returns.
            return None
        ours = os.fstat(self._fh.fileno())
        if (on_disk.st_ino, on_disk.st_dev) != \
                (ours.st_ino, ours.st_dev):
            return "rotated"
        if on_disk.st_size < self._fh.tell():
            return "truncated"
        return None

    def _read_block(self, max_frames: int) -> FrameBlock:
        """The complete records at the current offset — at most
        ``max_frames``, at most one read buffer — leaving the handle
        on the boundary of the first record not taken. Empty at the
        (possibly temporary) EOF."""
        assert self._fh is not None and self._record is not None
        mark = self._fh.tell()
        buf = self._fh.read(_TAIL_READ_BYTES)
        block, taken = walk_records(buf, 0, self._record, max_frames,
                                    mark)
        if taken < len(buf):
            self._fh.seek(mark + taken)
        return block

    # -- FrameSource surface -----------------------------------------------

    def open(self) -> None:
        self._try_open()

    def poll(self, max_frames: int = 256,
             timeout: float = 0.2) -> FrameBlock:
        deadline = time.monotonic() + timeout
        while True:
            if self._fh is None:
                self._try_open()
            if self._fh is not None:
                block = self._read_block(max_frames)
                if block:
                    self.consumed += len(block)
                    return block
                # Only probe rotation at EOF: while records keep
                # coming, the current file is the feed regardless of
                # what the path points at.
                if self._rotated_or_truncated() is not None:
                    self._reopen()
                    continue
            if time.monotonic() >= deadline:
                return _EMPTY_BLOCK
            time.sleep(min(self.poll_interval,
                           max(0.0, deadline - time.monotonic())))

    def skip(self, records: int) -> None:
        """Resume fast-forward: the checkpointed run consumed
        ``records`` records of this capture, which must still be
        present (same contract — and same failure message shape — as
        ``ingest_pcap``'s resume)."""
        remaining = records
        while remaining:
            if self._fh is None and not self._try_open():
                break
            block = self._read_block(remaining)
            if not block:
                break
            remaining -= len(block)
        if remaining:
            raise ConfigError(
                f"cannot resume: {self.path} holds fewer records than "
                f"the checkpointed position ({remaining} of {records} "
                f"consumed records missing)")
        self.consumed += records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def describe(self) -> str:
        return f"tail:{self.path}"


class SocketStreamSource(FrameSource):
    """Accept a remote forwarder streaming length-prefixed frames.

    Wire format per frame: :data:`STREAM_FRAME_HEADER` (``!dI`` —
    capture timestamp, frame length) followed by the frame bytes. The
    source listens, serves one peer at a time, and treats disconnects
    as "wait for the next forwarder" — a service outlives its feeds. A
    frame length above :data:`MAX_FRAME_BYTES` is a protocol violation
    and drops the peer.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__()
        self.host = host
        self._requested_port = port
        self._listener: socket.socket | None = None
        self._conn: socket.socket | None = None
        self._buffer = bytearray()

    def open(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(1)
        listener.settimeout(0.05)
        self._listener = listener

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        if self._listener is None:
            return self._requested_port
        return int(self._listener.getsockname()[1])

    def _drop_peer(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._buffer = bytearray()

    def poll(self, max_frames: int = 256,
             timeout: float = 0.2) -> FrameBlock:
        assert self._listener is not None, "open() first"
        deadline = time.monotonic() + timeout
        while True:
            if self._conn is None:
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    if time.monotonic() >= deadline:
                        return _EMPTY_BLOCK
                    continue
                conn.settimeout(0.05)
                self._conn = conn
            try:
                chunk = self._conn.recv(1 << 16)
                if not chunk:  # orderly peer shutdown
                    self._drop_peer()
            except TimeoutError:
                chunk = b""
            except OSError:
                self._drop_peer()
                chunk = b""
            else:
                self._buffer += chunk
            block = self._take_block(max_frames)
            if block or time.monotonic() >= deadline:
                self.consumed += len(block)
                return block

    def _take_block(self, max_frames: int) -> FrameBlock:
        """The complete frames at the head of the receive buffer (at
        most ``max_frames``) as one block over one copy of their
        bytes; the buffer is walked by offset and trimmed once. An
        oversize length drops the peer and the rest of the buffer —
        after the frames ahead of it are taken."""
        buffer = self._buffer
        header_size = STREAM_FRAME_HEADER.size
        n = len(buffer)
        last_header = n - header_size
        offset = 0
        bounds = [0]
        oversize = False
        while len(bounds) <= max_frames and offset <= last_header:
            (length,) = _STREAM_LENGTH.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                oversize = True
                break
            end = offset + header_size + length
            if end > n:
                break
            bounds.append(end)
            offset = end
        if not offset:
            block = _EMPTY_BLOCK
        else:
            data = bytes(buffer[:offset])
            starts, ends, stamps = record_columns(data, bounds,
                                                  header_size, ">f8")
            block = FrameBlock(data, starts, ends,
                               stamps[:, 0].astype(np.float64))
            del buffer[:offset]
        if oversize:
            self._drop_peer()
        return block

    def close(self) -> None:
        self._drop_peer()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def describe(self) -> str:
        return f"socket:{self.host}:{self.port}"


class AFPacketSource(FrameSource):
    """Live interface capture via Linux ``AF_PACKET`` raw sockets.

    Timestamps are receipt wall-clock time — for a live tap the
    capture clock *is* the wall clock. Non-Linux platforms and missing
    ``CAP_NET_RAW`` both raise :class:`ConfigError` from ``open()``.
    """

    def __init__(self, interface: str) -> None:
        super().__init__()
        self.interface = interface
        self._sock: socket.socket | None = None

    def open(self) -> None:
        if not hasattr(socket, "AF_PACKET"):
            raise ConfigError(
                "afpacket source needs Linux AF_PACKET support; use a "
                "tail: or socket: source on this platform")
        try:
            sock = socket.socket(socket.AF_PACKET, socket.SOCK_RAW,
                                 socket.htons(_ETH_P_ALL))
            sock.bind((self.interface, 0))
        except PermissionError as exc:
            raise ConfigError(
                f"afpacket source needs CAP_NET_RAW (run with the "
                f"capability or as root): {exc}") from exc
        except OSError as exc:
            raise ConfigError(
                f"cannot capture on {self.interface!r}: {exc}") from exc
        sock.settimeout(0.05)
        self._sock = sock

    def poll(self, max_frames: int = 256,
             timeout: float = 0.2) -> FrameBlock:
        assert self._sock is not None, "open() first"
        deadline = time.monotonic() + timeout
        out: list[tuple[bytes, float]] = []
        while len(out) < max_frames:
            try:
                data = self._sock.recv(MAX_FRAME_BYTES)
            except TimeoutError:
                if out or time.monotonic() >= deadline:
                    break
                continue
            out.append((data, time.time()))
        self.consumed += len(out)
        return FrameBlock.from_frames(out)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def describe(self) -> str:
        return f"afpacket:{self.interface}"


def open_source(spec: str) -> FrameSource:
    """Build (but do not open) the source a ``SCHEME:REST`` spec names.

    ``tail:PATH`` | ``socket:HOST:PORT`` | ``afpacket:IFACE``; a bare
    path means ``tail:`` (the portable default). Malformed specs raise
    :class:`ConfigError`.
    """
    scheme, sep, rest = spec.partition(":")
    if not sep or scheme not in ("tail", "socket", "afpacket"):
        # No recognized scheme: treat the whole spec as a path.
        return PcapTailSource(spec)
    if scheme == "tail":
        if not rest:
            raise ConfigError("tail: source needs a file path")
        return PcapTailSource(rest)
    if scheme == "afpacket":
        if not rest:
            raise ConfigError("afpacket: source needs an interface")
        return AFPacketSource(rest)
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"socket: source needs HOST:PORT, got {rest!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigError(
            f"socket: port must be an integer, got "
            f"{port_text!r}") from exc
    return SocketStreamSource(host, port)
