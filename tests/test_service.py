"""Service plane suite: live sources, the serve daemon, and its API.

The two load-bearing contracts:

* **Oracle equivalence** — a daemon tailing the golden capture must
  serve §5.2 report bytes identical to the batch ``report`` path over
  the same frames (after an explicit ``/api/flush`` drain), and an
  interrupted run resumed from its final checkpoint must end up
  indistinguishable from a never-interrupted one.
* **Operational truthfulness** — ``/healthz``/``/readyz`` must flip
  to 503 naming the failing component when ingest dies or workers go
  away, never report an all-clear they cannot back.
"""

import hashlib
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import ConfigError, ParseError
from repro.net.rawpacket import FrameBlock
from repro.pipeline import (
    RealtimePipeline,
    ingest_pcap,
    load_bank,
    save_bank,
)
from repro.pipeline.ingest import load_ingest_position
from repro.reporting import render_rollup_report
from repro.service import (
    AFPacketSource,
    MAX_FRAME_BYTES,
    PcapTailSource,
    SERVICE_POSITION_FILE,
    STREAM_FRAME_HEADER,
    ServicePosition,
    SocketStreamSource,
    build_daemon,
    load_service_position,
    open_source,
)
from repro.service.sources import FrameSource
from repro.telemetry.snapshot import save_rollup

from golden.make_golden_trace import train_bank

GOLDEN = Path(__file__).parent / "golden" / "golden.pcap"

_RECORD_HEADER = struct.Struct("<IIII")


def _split_records(pcap: bytes) -> tuple[bytes, list[bytes]]:
    """The golden capture's global header and each full record's
    bytes, so tests can grow a tailed file record by record."""
    header, records = pcap[:24], []
    offset = 24
    while offset < len(pcap):
        _, _, incl_len, _ = _RECORD_HEADER.unpack_from(pcap, offset)
        end = offset + 16 + incl_len
        records.append(pcap[offset:end])
        offset = end
    return header, records


# --- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("service-bank") / "bank"
    save_bank(train_bank(), path)
    return path


@pytest.fixture(scope="module")
def golden_parts():
    return _split_records(GOLDEN.read_bytes())


@pytest.fixture(scope="module")
def oracle(bank_dir):
    """The uninterrupted batch run every live test compares against."""
    return _batch_oracle(bank_dir)


def _frames(block: FrameBlock) -> list[tuple[bytes, float]]:
    """A polled block as the ``(frame bytes, timestamp)`` pairs it
    carries, in order."""
    return [(block.frame_bytes(i), float(block.timestamps[i]))
            for i in range(len(block))]


def _record_frames(records: list[bytes]) -> list[tuple[bytes, float]]:
    """What a tail source must deliver for these full record bytes."""
    out = []
    for record in records:
        sec, usec, incl_len, _ = _RECORD_HEADER.unpack_from(record)
        out.append((record[16:16 + incl_len], sec + usec / 1_000_000))
    return out


def _drain(source, max_frames: int = 4096) -> list[tuple[bytes, float]]:
    """Poll until idle, checking the poll contract on every block:
    at most ``max_frames`` frames, ``consumed`` up by ``len(block)``."""
    out = []
    while True:
        before = source.consumed
        block = source.poll(max_frames=max_frames, timeout=0.0)
        assert len(block) <= max_frames
        assert source.consumed == before + len(block)
        if not block:
            return out
        out.extend(_frames(block))


def _rollup_digest(cube, path: Path) -> str:
    save_rollup(cube, path)
    return hashlib.sha256((path / "rollup.json").read_bytes()).hexdigest()


def _batch_oracle(bank_dir, mode: str = "bulk", **knobs):
    """A serial batch replay of the golden capture, flushed."""
    pipeline = RealtimePipeline(load_bank(bank_dir), batch_size=8,
                                retention="rollup")
    result = ingest_pcap(pipeline, GOLDEN, mode=mode, **knobs)
    pipeline.flush()
    return pipeline, result


def _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                         tmp_path) -> None:
    """The live ≡ batch contract, after the operator's flush: status
    frame tallies, every counter, the §5.2 report bytes and the
    rollup snapshot digest."""
    port = daemon.server.port
    status = json.loads(_get(port, "/api/status")[1])
    assert (status["frames"], status["skipped"]) == \
        (oracle_result.frames, oracle_result.skipped)
    assert status["consumed"] == status["frames"] + status["skipped"]
    assert _post(port, "/api/flush")[0] == 200
    counters = json.loads(_get(port, "/api/counters")[1])
    expected = asdict(oracle_pipeline.counters)
    assert {k: counters[k] for k in expected} == expected
    assert _get(port, "/api/report?limit=6")[1].decode() == \
        render_rollup_report(oracle_pipeline.rollup, limit=6)
    assert _rollup_digest(daemon.rollup_cube(), tmp_path / "live") == \
        _rollup_digest(oracle_pipeline.rollup, tmp_path / "batch")


def _get(port: int, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post(port: int, path: str, body: bytes = b"") -> tuple[int, bytes]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _wait_frames(port: int, target: int, timeout: float = 30.0) -> dict:
    """Poll /api/status until the daemon has ingested ``target``
    source records (frames + skipped)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = json.loads(_get(port, "/api/status")[1])
        if status["frames"] + status["skipped"] >= target:
            return status
        time.sleep(0.05)
    raise AssertionError(
        f"daemon never reached {target} records: {status}")


# --- source spec parsing ----------------------------------------------------


class TestOpenSource:
    def test_tail_spec(self):
        source = open_source("tail:/tmp/cap.pcap")
        assert isinstance(source, PcapTailSource)
        assert source.path == Path("/tmp/cap.pcap")

    def test_bare_path_means_tail(self, tmp_path):
        source = open_source(str(tmp_path / "cap.pcap"))
        assert isinstance(source, PcapTailSource)

    def test_socket_spec(self):
        source = open_source("socket:0.0.0.0:9999")
        assert isinstance(source, SocketStreamSource)
        assert source.host == "0.0.0.0"
        assert source.port == 9999

    def test_afpacket_spec(self):
        source = open_source("afpacket:eth0")
        assert isinstance(source, AFPacketSource)
        assert source.interface == "eth0"

    @pytest.mark.parametrize("spec", ["tail:", "afpacket:",
                                      "socket:9999", "socket:host:x"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            open_source(spec)


# --- pcap tail --------------------------------------------------------------


class TestPcapTailSource:
    def test_follows_appends(self, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "live.pcap"
        live.write_bytes(header + b"".join(records[:3]))
        with PcapTailSource(live) as source:
            first = source.poll(max_frames=10, timeout=0.5)
            assert len(first) == 3
            with live.open("ab") as fh:
                fh.write(b"".join(records[3:5]))
            second = source.poll(max_frames=10, timeout=0.5)
            assert len(second) == 2
            assert source.consumed == 5
        # Frame bytes and timestamps come straight from the records.
        assert isinstance(first, FrameBlock)
        assert _frames(first) == _record_frames(records[:3])
        assert _frames(second) == _record_frames(records[3:5])

    def test_waits_for_file_to_appear(self, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "late.pcap"
        with PcapTailSource(live) as source:
            idle = source.poll(max_frames=10, timeout=0.05)
            assert isinstance(idle, FrameBlock) and not idle
            assert source.consumed == 0
            live.write_bytes(header + records[0])
            assert len(source.poll(max_frames=10, timeout=0.5)) == 1

    def test_partial_record_reread_when_completed(self, tmp_path,
                                                  golden_parts):
        header, records = golden_parts
        live = tmp_path / "partial.pcap"
        # Record header visible, body still in the writer's buffer.
        live.write_bytes(header + records[0][:20])
        with PcapTailSource(live) as source:
            assert not source.poll(max_frames=10, timeout=0.05)
            with live.open("ab") as fh:
                fh.write(records[0][20:])
            frames = source.poll(max_frames=10, timeout=0.5)
            assert _frames(frames) == _record_frames(records[:1])

    def test_rotation_drains_old_then_follows_new(self, tmp_path,
                                                  golden_parts):
        header, records = golden_parts
        live = tmp_path / "rotating.pcap"
        live.write_bytes(header + b"".join(records[:2]))
        with PcapTailSource(live) as source:
            assert len(source.poll(max_frames=10, timeout=0.5)) == 2
            # logrotate-style: move the old file aside, new inode at
            # the path.
            live.rename(tmp_path / "rotating.pcap.1")
            fresh = tmp_path / "fresh.pcap"
            fresh.write_bytes(header + b"".join(records[2:5]))
            fresh.rename(live)
            assert len(source.poll(max_frames=10, timeout=1.0)) == 3
            assert source.consumed == 5

    def test_truncation_rereads_from_top(self, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "truncated.pcap"
        live.write_bytes(header + b"".join(records[:4]))
        with PcapTailSource(live) as source:
            assert len(source.poll(max_frames=10, timeout=0.5)) == 4
            # A restarted capture truncates in place (same inode).
            live.write_bytes(header + records[0])
            assert len(source.poll(max_frames=10, timeout=1.0)) == 1

    def test_skip_fast_forwards(self, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "resume.pcap"
        live.write_bytes(header + b"".join(records[:5]))
        with PcapTailSource(live) as source:
            source.skip(3)
            assert source.consumed == 3
            frames = source.poll(max_frames=10, timeout=0.5)
            assert _frames(frames) == _record_frames(records[3:5])
            assert source.consumed == 5

    def test_skip_past_eof_rejected(self, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "short.pcap"
        live.write_bytes(header + records[0])
        with PcapTailSource(live) as source:
            with pytest.raises(ConfigError, match="cannot resume"):
                source.skip(5)

    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.pcap"
        bogus.write_bytes(b"\x00" * 24)
        with pytest.raises(ParseError, match="magic"):
            PcapTailSource(bogus).open()

    def test_corrupt_length_rejected(self, tmp_path, golden_parts):
        header, _ = golden_parts
        live = tmp_path / "corrupt.pcap"
        live.write_bytes(header + _RECORD_HEADER.pack(
            1, 0, MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES + 1))
        with PcapTailSource(live) as source:
            with pytest.raises(ParseError, match="corrupt"):
                source.poll(max_frames=1, timeout=0.2)

    def test_records_before_corrupt_length_delivered_first(
            self, tmp_path, golden_parts):
        """A corrupt length mid-buffer: the records walked before it
        in the same read come out first, then the error surfaces — at
        the corrupt record's file offset."""
        header, records = golden_parts
        live = tmp_path / "corrupt-mid.pcap"
        good = header + b"".join(records[:3])
        live.write_bytes(good + _RECORD_HEADER.pack(
            1, 0, 1 << 30, 1 << 30) + b"\x00" * 4096)
        with PcapTailSource(live) as source:
            block = source.poll(max_frames=10, timeout=0.2)
            assert _frames(block) == _record_frames(records[:3])
            assert source.consumed == 3
            with pytest.raises(
                    ParseError,
                    match=f"claims {1 << 30} bytes at offset "
                          f"{len(good)}.*corrupt"):
                source.poll(max_frames=10, timeout=0.2)
            assert source.consumed == 3

    @pytest.mark.parametrize("max_frames", (1, 7, 100))
    def test_poll_never_exceeds_max_frames(self, tmp_path, golden_parts,
                                           max_frames):
        """(f) ``poll(max_frames=N)`` returns at most ``N`` frames and
        ``consumed`` advances by exactly ``len(block)``; the handle is
        left on a record boundary, so nothing repeats or goes missing
        whatever ``N`` cuts the read buffer into."""
        header, records = golden_parts
        live = tmp_path / "bounded.pcap"
        live.write_bytes(header + b"".join(records[:150]))
        with PcapTailSource(live) as source:
            assert _drain(source, max_frames) == \
                _record_frames(records[:150])
            assert source.consumed == 150

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_byte_slices_deliver_every_record_once(
            self, tmp_path, golden_parts, seed):
        """The capture appended in random-sized byte slices that cut
        inside the global header, record headers and bodies: whatever
        the write frontier looks like at each poll, every record comes
        out exactly once, in order, byte-identical."""
        header, records = golden_parts
        data = header + b"".join(records)
        rng = random.Random(seed)
        live = tmp_path / "sliced.pcap"
        live.write_bytes(b"")
        got = []
        with PcapTailSource(live) as source, live.open("ab") as fh:
            offset = 0
            while offset < len(data):
                step = rng.choice((1, 3, 15, 16, 17, 200, 1500,
                                   rng.randint(1, 30_000)))
                fh.write(data[offset:offset + step])
                fh.flush()
                offset += step
                got.extend(_drain(source, rng.choice((1, 5, 64, 4096))))
            assert source.consumed == len(records)
        assert got == _record_frames(records)

    def test_rotation_mid_file_drains_old_inode_first(self, tmp_path,
                                                      golden_parts):
        """(c) The path re-points at a new inode while the source is
        only part-way through the old file: the rest of the old inode
        comes out first, then the new file from its top — nothing
        lost, nothing twice."""
        header, records = golden_parts
        live = tmp_path / "rotating.pcap"
        live.write_bytes(header + b"".join(records[:200]))
        with PcapTailSource(live) as source:
            got = _frames(source.poll(max_frames=50, timeout=0.5))
            assert len(got) == 50
            live.rename(tmp_path / "rotating.pcap.1")
            fresh = tmp_path / "fresh.pcap"
            fresh.write_bytes(header + b"".join(records[200:300]))
            fresh.rename(live)
            got.extend(_drain(source, 64))
            assert got == _record_frames(records[:300])
            assert source.consumed == 300

    def test_truncation_mid_file_rereads_from_top(self, tmp_path,
                                                  golden_parts):
        """(c) A restarted capture truncates the file in place while
        the source sits mid-file: what was already delivered is not
        repeated, the new content is read from its top."""
        header, records = golden_parts
        live = tmp_path / "truncated.pcap"
        live.write_bytes(header + b"".join(records[:100]))
        with PcapTailSource(live) as source:
            got = _frames(source.poll(max_frames=30, timeout=0.5))
            assert len(got) == 30
            live.write_bytes(header + b"".join(records[100:105]))
            got.extend(_drain(source, 64))
            assert got == _record_frames(records[:30] + records[100:105])


# --- socket stream ----------------------------------------------------------


def _stream_frame(data: bytes, timestamp: float) -> bytes:
    return STREAM_FRAME_HEADER.pack(timestamp, len(data)) + data


class TestSocketStreamSource:
    def test_receives_length_prefixed_frames(self):
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(_stream_frame(b"\x01\x02\x03", 10.5)
                             + _stream_frame(b"\x04", 11.0))
                frames = source.poll(max_frames=10, timeout=2.0)
            assert isinstance(frames, FrameBlock)
            assert _frames(frames) == [(b"\x01\x02\x03", 10.5),
                                       (b"\x04", 11.0)]
            assert source.consumed == 2

    def test_survives_peer_disconnect(self):
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(_stream_frame(b"a", 1.0))
                assert len(source.poll(max_frames=10, timeout=2.0)) == 1
            # first forwarder gone; a second one takes over
            source.poll(max_frames=10, timeout=0.1)
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(_stream_frame(b"b", 2.0))
                frames = source.poll(max_frames=10, timeout=2.0)
            assert _frames(frames) == [(b"b", 2.0)]

    def test_oversize_length_drops_peer(self):
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(STREAM_FRAME_HEADER.pack(
                    1.0, MAX_FRAME_BYTES + 1))
                assert not source.poll(max_frames=10, timeout=0.3)
                # protocol violation: the server hung up on us
                peer.settimeout(5.0)
                try:
                    assert peer.recv(1) == b""
                except OSError:
                    pass  # RST is also a hangup

    def test_lying_length_mid_stream_keeps_frames_before_it(self):
        """A forwarder that lies about a length mid-stream: the frames
        parsed ahead of the lie in the same poll are still returned
        (and are all ``consumed`` counts), the peer is dropped, and
        what it sent after the lie is discarded — the next forwarder
        starts on a clean buffer."""
        good = [(bytes([i]) * (i + 1), float(i)) for i in range(3)]
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(
                    b"".join(_stream_frame(d, t) for d, t in good)
                    + STREAM_FRAME_HEADER.pack(9.0, MAX_FRAME_BYTES + 1)
                    + _stream_frame(b"after the lie", 10.0))
                block = source.poll(max_frames=10, timeout=2.0)
                assert _frames(block) == good
                assert source.consumed == 3
                peer.settimeout(5.0)
                try:
                    assert peer.recv(1) == b""
                except OSError:
                    pass  # RST is also a hangup
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(_stream_frame(b"fresh", 11.0))
                block = source.poll(max_frames=10, timeout=2.0)
            assert _frames(block) == [(b"fresh", 11.0)]
            assert source.consumed == 4

    def test_header_split_across_sends(self):
        """A frame header cut by the forwarder's ``send`` boundary is
        held in the receive buffer until the rest arrives."""
        second = _stream_frame(b"second frame", 2.0)
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(_stream_frame(b"first", 1.0) + second[:5])
                block = source.poll(max_frames=10, timeout=2.0)
                assert _frames(block) == [(b"first", 1.0)]
                assert not source.poll(max_frames=10, timeout=0.1)
                peer.sendall(second[5:])
                block = source.poll(max_frames=10, timeout=2.0)
            assert _frames(block) == [(b"second frame", 2.0)]
            assert source.consumed == 2

    def test_poll_never_exceeds_max_frames(self):
        """(f) for the socket source: a burst larger than
        ``max_frames`` comes out over several polls, in order, with
        ``consumed`` advancing by ``len(block)`` each time."""
        burst = [(bytes([i % 251]) * 40, float(i)) for i in range(500)]
        with SocketStreamSource(port=0) as source:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(b"".join(_stream_frame(d, t)
                                      for d, t in burst))
                got = []
                deadline = time.monotonic() + 10
                while len(got) < len(burst) and \
                        time.monotonic() < deadline:
                    before = source.consumed
                    block = source.poll(max_frames=64, timeout=0.5)
                    assert len(block) <= 64
                    assert source.consumed == before + len(block)
                    got.extend(_frames(block))
            assert got == burst


# --- positions --------------------------------------------------------------

# The sidecar bytes the parent of the loader merge (PR 18) wrote: its
# checkpoints must keep resuming, and ours must stay readable by it.
_PR17_SERVICE_JSON = (
    '{\n "clock": 12.5,\n "consumed": 7,\n "format_version": 1,\n'
    ' "frames": 5,\n "next_evict": 20.0,\n "skipped": 2\n}')
_PR17_INGEST_JSON = (
    '{\n "clock": 5.0,\n "consumed": 3,\n "format_version": 1,\n'
    ' "frames": 3,\n "next_checkpoint": 300.0,\n "next_evict": null,\n'
    ' "skipped": 0\n}')


class TestServicePosition:
    def _write(self, tmp_path, **overrides):
        data = {"format_version": 1, "consumed": 7, "frames": 5,
                "skipped": 2, "clock": 12.5, "next_evict": 20.0}
        data.update(overrides)
        (tmp_path / SERVICE_POSITION_FILE).write_text(json.dumps(data))

    def test_roundtrip(self, tmp_path):
        position = ServicePosition(consumed=7, frames=5, skipped=2,
                                   clock=12.5, next_evict=20.0)
        assert position.to_json() == _PR17_SERVICE_JSON
        (tmp_path / SERVICE_POSITION_FILE).write_text(_PR17_SERVICE_JSON)
        assert load_service_position(tmp_path) == position

    def test_absent_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no service position"):
            load_service_position(tmp_path)

    def test_wrong_version_rejected(self, tmp_path):
        self._write(tmp_path, format_version=99)
        with pytest.raises(ConfigError, match="unsupported"):
            load_service_position(tmp_path)

    def test_non_object_sidecar_rejected(self, tmp_path):
        (tmp_path / SERVICE_POSITION_FILE).write_text("[1]")
        with pytest.raises(ConfigError, match="malformed"):
            load_service_position(tmp_path)

    def test_null_clocks_pass(self, tmp_path):
        self._write(tmp_path, clock=None, next_evict=None)
        loaded = load_service_position(tmp_path)
        assert loaded.clock is None and loaded.next_evict is None

    @pytest.mark.parametrize("bad", ["12.5", True, [1.0]])
    def test_non_numeric_clock_rejected(self, tmp_path, bad):
        self._write(tmp_path, clock=bad)
        with pytest.raises(ConfigError, match="number or null"):
            load_service_position(tmp_path)


class TestIngestPositionCoercion:
    """Satellite: ``load_ingest_position`` must reject non-numeric
    clock fields at load time instead of letting them blow up frames
    later inside the tick arithmetic."""

    def _write(self, tmp_path, **overrides):
        data = {"format_version": 1, "consumed": 3, "frames": 3,
                "skipped": 0, "clock": 5.0, "next_evict": None,
                "next_checkpoint": 300.0}
        data.update(overrides)
        (tmp_path / "ingest.json").write_text(json.dumps(data))

    def test_parent_written_sidecar_roundtrips(self, tmp_path):
        (tmp_path / "ingest.json").write_text(_PR17_INGEST_JSON)
        position = load_ingest_position(tmp_path)
        assert position == (3, 3, 0, 5.0, None, 300.0)
        assert position.to_json() == _PR17_INGEST_JSON

    def test_numeric_and_null_pass(self, tmp_path):
        self._write(tmp_path, clock=5, next_evict=None)
        position = load_ingest_position(tmp_path)
        assert position.clock == 5.0
        assert isinstance(position.clock, float)
        assert position.next_evict is None
        assert position.next_checkpoint == 300.0

    @pytest.mark.parametrize("field", ["clock", "next_evict",
                                       "next_checkpoint"])
    @pytest.mark.parametrize("bad", ["12.5", True, {"t": 1}])
    def test_non_numeric_rejected(self, tmp_path, field, bad):
        self._write(tmp_path, **{field: bad})
        with pytest.raises(ConfigError, match="number or null"):
            load_ingest_position(tmp_path)


# --- daemon -----------------------------------------------------------------


class _ExplodingSource(FrameSource):
    """Feeds one unparseable frame, then dies — the supervisor must
    surface that as unhealthy ingest, not a silent thread death."""

    def __init__(self):
        super().__init__()
        self.polls = 0

    def poll(self, max_frames=256, timeout=0.2):
        self.polls += 1
        if self.polls == 1:
            return FrameBlock.from_frames([(b"\x00" * 20, 1.0)])
        raise RuntimeError("feed exploded")

    def describe(self):
        return "exploding:"


class _BusySource(FrameSource):
    """An endless feed whose capture clock jumps past the eviction
    interval on every frame, so the ingest thread spends its life in
    ``flush_idle`` worker barriers — the traffic a scrape must not
    interleave with."""

    def __init__(self, frames):
        super().__init__()
        self._frames = frames

    def poll(self, max_frames=256, timeout=0.2):
        base = self.consumed
        batch = [(self._frames[(base + i) % len(self._frames)],
                  float(base + i)) for i in range(8)]
        self.consumed += len(batch)
        return FrameBlock.from_frames(batch)

    def describe(self):
        return "busy:"


class _ListSource(FrameSource):
    """A list-backed feed: one block of up to ``size`` frames per
    released permit, so a test decides exactly where block boundaries
    fall and what happens between them. ``before_return`` runs inside
    ``poll`` after ``consumed`` has advanced — the window in which the
    daemon has taken a block but not yet ingested it."""

    def __init__(self, frames, size, before_return=None):
        super().__init__()
        self._frames = frames
        self._size = size
        self.permits = threading.Semaphore(0)
        self.before_return = before_return

    def poll(self, max_frames=256, timeout=0.2):
        if not self.permits.acquire(timeout=timeout):
            return FrameBlock.from_frames(())
        batch = self._frames[self.consumed:
                             self.consumed + min(self._size, max_frames)]
        self.consumed += len(batch)
        if self.before_return is not None:
            self.before_return()
        return FrameBlock.from_frames(batch)

    def describe(self):
        return "list:"


class TestServeDaemon:
    def test_metrics_scrape_under_ingest_never_fails(self, bank_dir,
                                                     golden_parts):
        """``GET /metrics`` is a worker barrier like every ``/api``
        read: collected outside the daemon lock it raced the ingest
        thread's barriers on the worker queues, answered ``500 collect
        failed`` and flipped ``/readyz`` to ``unhealthy: collect``."""
        _, records = golden_parts
        frames = [record[16:] for record in records[:64]]
        daemon = build_daemon(bank_dir, _BusySource(frames),
                              num_workers=2, retention="rollup",
                              idle_timeout=2.0, poll_timeout=0.01)
        with daemon:
            port = daemon.server.port
            for _ in range(60):
                status_code, body = _get(port, "/metrics")
                assert status_code == 200, body
            assert b"repro_packets_total" in body
            status_code, body = _get(port, "/healthz")
            assert status_code == 200, body
            assert {c["component"]: c["healthy"] for c in
                    json.loads(body)["components"]}["collect"]
            assert _get(port, "/readyz")[0] == 200

    def test_live_report_matches_batch_oracle(self, bank_dir, oracle,
                                              tmp_path, golden_parts):
        header, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        live = tmp_path / "live.pcap"
        # Start with a prefix so the daemon exercises the tail path,
        # then grow the file under it.
        live.write_bytes(header + b"".join(records[:10]))
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              batch_size=8)
        with daemon:
            port = daemon.server.port
            _wait_frames(port, 10)
            with live.open("ab") as fh:
                fh.write(b"".join(records[10:]))
            status = _wait_frames(port, len(records))
            assert status["frames"] == oracle_result.frames
            assert status["skipped"] == oracle_result.skipped
            assert _get(port, "/readyz")[0] == 200
            assert _get(port, "/healthz")[0] == 200
            # the explicit operator drain that makes the live cube
            # comparable to the batch run
            _post(port, "/api/flush")
            counters = json.loads(_get(port, "/api/counters")[1])
            expected = asdict(oracle_pipeline.counters)
            assert {k: counters[k] for k in expected} == expected
            status_code, body = _get(port, "/api/report?limit=6")
            assert status_code == 200
            assert body.decode() == render_rollup_report(
                oracle_pipeline.rollup, limit=6)
            rollup = json.loads(_get(port, "/api/rollup")[1])
            assert rollup["total_flows"] == \
                oracle_pipeline.rollup.total_flows
            drift = json.loads(_get(port, "/api/drift")[1])
            assert drift["monitor_attached"] is False
            assert _get(port, "/api/rollup?query=bogus")[0] == 400
            assert _get(port, "/api/nope")[0] == 404
            assert _post(port, "/api/checkpoint")[0] == 409

    @pytest.mark.parametrize("seed", (1, 2))
    def test_random_byte_slices_match_bulk_and_eager(
            self, bank_dir, oracle, tmp_path, golden_parts, seed):
        """(a) The golden capture appended to the tailed file in
        random-sized byte slices that cut inside record headers and
        bodies, so block boundaries fall wherever the write frontier
        happens to be: live ≡ ``ingest_pcap(mode="bulk")`` ≡ the
        eager oracle."""
        header, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        eager_pipeline, eager_result = _batch_oracle(bank_dir, "eager")
        assert eager_result == oracle_result
        assert eager_pipeline.counters == oracle_pipeline.counters
        data = header + b"".join(records)
        rng = random.Random(seed)
        live = tmp_path / "live.pcap"
        daemon = build_daemon(
            bank_dir, PcapTailSource(live, poll_interval=0.001),
            num_workers=2, retention="rollup", batch_size=8,
            poll_timeout=0.01)
        with daemon, live.open("ab") as fh:
            offset = 0
            while offset < len(data):
                step = rng.choice((1, 15, 17, 300, 1500,
                                   rng.randint(1, 20_000)))
                fh.write(data[offset:offset + step])
                fh.flush()
                offset += step
                time.sleep(rng.choice((0.0, 0.002)))
            _wait_frames(daemon.server.port, len(records))
            _assert_live_matches(daemon, eager_pipeline, eager_result,
                                 tmp_path)

    def test_eviction_deadline_inside_a_block_matches_batch(
            self, bank_dir, tmp_path):
        """(b) ``idle_timeout`` far shorter than one poll block's
        capture span (the whole capture is one block): the eviction
        deadlines fall *inside* the block and must cut it exactly
        where the batch path cuts — same ``evicted``, same bytes."""
        oracle_pipeline, oracle_result = _batch_oracle(
            bank_dir, idle_timeout=60.0)
        assert oracle_pipeline.counters.evicted > 0
        unbounded, _ = _batch_oracle(bank_dir)
        assert unbounded.counters != oracle_pipeline.counters
        daemon = build_daemon(bank_dir, open_source(f"tail:{GOLDEN}"),
                              num_workers=2, retention="rollup",
                              batch_size=8, idle_timeout=60.0)
        with daemon:
            _wait_frames(daemon.server.port,
                         oracle_result.frames + oracle_result.skipped)
            _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                                 tmp_path)

    def test_rotation_mid_block_matches_batch(self, bank_dir, oracle,
                                              tmp_path, golden_parts):
        """(c) at the daemon: a rotation lands while the daemon is
        part-way through the old file in small blocks; the old inode
        is drained first and the result is the uninterrupted one."""
        header, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        live = tmp_path / "live.pcap"
        half = len(records) // 2
        live.write_bytes(header + b"".join(records[:half]))
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              batch_size=8, poll_timeout=0.01)
        daemon.batch_frames = 16
        with daemon:
            _wait_frames(daemon.server.port, 16)
            fresh = tmp_path / "fresh.pcap"
            fresh.write_bytes(header + b"".join(records[half:]))
            live.rename(tmp_path / "live.pcap.1")
            fresh.rename(live)
            _wait_frames(daemon.server.port, len(records))
            _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                                 tmp_path)

    def test_socket_and_list_sources_match_batch(self, bank_dir, oracle,
                                                 tmp_path, golden_parts):
        """(e) The same daemon, fed over the socket source and over a
        list-backed fake: the block feed is source-agnostic."""
        _, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        frames = _record_frames(records)

        source = SocketStreamSource(port=0)
        daemon = build_daemon(bank_dir, source, num_workers=2,
                              retention="rollup", batch_size=8,
                              poll_timeout=0.05)
        with daemon:
            with socket.create_connection(("127.0.0.1",
                                           source.port)) as peer:
                peer.sendall(b"".join(_stream_frame(d, t)
                                      for d, t in frames))
                _wait_frames(daemon.server.port, len(records))
            _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                                 tmp_path / "socket")

        source = _ListSource(frames, size=37)
        daemon = build_daemon(bank_dir, source, num_workers=2,
                              retention="rollup", batch_size=8,
                              poll_timeout=0.01)
        with daemon:
            for _ in range(len(frames) // 37 + 1):
                source.permits.release()
            _wait_frames(daemon.server.port, len(records))
            _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                                 tmp_path / "list")

    def test_checkpoint_between_blocks_resumes_exactly(
            self, bank_dir, oracle, tmp_path, golden_parts):
        """(d) A checkpoint taken between two blocks, then a crash
        that loses the blocks after it: ``service.json`` ``consumed``
        is the records delivered *and ingested* at the checkpoint,
        and ``--resume`` over the capture ends ≡ never interrupted."""
        header, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        ck = tmp_path / "ck"
        source = _ListSource(_record_frames(records), size=50)
        daemon = build_daemon(bank_dir, source, num_workers=2,
                              retention="rollup", batch_size=8,
                              checkpoint_dir=ck,
                              checkpoint_interval=3600.0,
                              poll_timeout=0.01)
        try:
            daemon.start()
            port = daemon.server.port
            for _ in range(3):
                source.permits.release()
            status = _wait_frames(port, 150)
            assert _post(port, "/api/checkpoint")[0] == 200
            position = load_service_position(ck)
            assert position.consumed == 150
            assert (position.frames, position.skipped) == \
                (status["frames"], status["skipped"])
            # Two more blocks land after the checkpoint and die with
            # the process.
            source.permits.release()
            source.permits.release()
            _wait_frames(port, 250)
        finally:
            daemon._ingest_error = "killed by test"  # no final checkpoint
            daemon.close()
        assert load_service_position(ck).consumed == 150
        live = tmp_path / "live.pcap"
        live.write_bytes(header + b"".join(records))
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              batch_size=8, checkpoint_dir=ck,
                              checkpoint_interval=3600.0, resume=True)
        with daemon:
            _wait_frames(daemon.server.port, len(records))
            _assert_live_matches(daemon, oracle_pipeline, oracle_result,
                                 tmp_path)

    def test_checkpoint_never_counts_a_block_in_flight(
            self, bank_dir, tmp_path, golden_parts):
        """A checkpoint that takes the lock between a poll and that
        block's ingest (``consumed`` already advanced, frames not yet
        processed) must save the ingested position: counting the
        in-flight block would make ``--resume`` skip frames nobody
        processed."""
        _, records = golden_parts
        ck = tmp_path / "ck"
        saved = []

        def checkpoint_mid_poll():
            daemon.checkpoint_now()
            saved.append(load_service_position(ck))

        source = _ListSource(_record_frames(records), size=40,
                             before_return=checkpoint_mid_poll)
        daemon = build_daemon(bank_dir, source, num_workers=2,
                              retention="rollup", checkpoint_dir=ck,
                              checkpoint_interval=3600.0,
                              poll_timeout=0.01)
        with daemon:
            source.permits.release()
            source.permits.release()
            _wait_frames(daemon.server.port, 80)
        assert [p.consumed for p in saved] == [0, 40]
        assert all(p.consumed == p.frames + p.skipped for p in saved)

    def test_interrupted_resume_matches_uninterrupted(
            self, bank_dir, oracle, tmp_path, golden_parts):
        header, records = golden_parts
        oracle_pipeline, oracle_result = oracle
        live = tmp_path / "live.pcap"
        ck = tmp_path / "ck"
        half = len(records) // 2
        live.write_bytes(header + b"".join(records[:half]))
        # Run 1: ingest the first half, then drain gracefully — the
        # final checkpoint carries pipeline state + source position.
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              batch_size=8, checkpoint_dir=ck,
                              checkpoint_interval=3600.0)
        with daemon:
            port = daemon.server.port
            _wait_frames(port, half)
        position = load_service_position(ck)
        assert position.consumed == half
        # Run 2: resume, then the capture grows the second half.
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              batch_size=8, checkpoint_dir=ck,
                              checkpoint_interval=3600.0, resume=True)
        with daemon:
            port = daemon.server.port
            with live.open("ab") as fh:
                fh.write(b"".join(records[half:]))
            status = _wait_frames(port, len(records))
            assert status["frames"] == oracle_result.frames
            assert status["skipped"] == oracle_result.skipped
            _post(port, "/api/flush")
            report = _get(port, "/api/report?limit=6")[1]
            assert report.decode() == render_rollup_report(
                oracle_pipeline.rollup, limit=6)

    def test_resume_on_empty_checkpoint_dir_is_cold_start(
            self, bank_dir, tmp_path, golden_parts):
        header, records = golden_parts
        live = tmp_path / "live.pcap"
        live.write_bytes(header + b"".join(records[:2]))
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup",
                              checkpoint_dir=tmp_path / "ck",
                              checkpoint_interval=3600.0, resume=True)
        with daemon:
            _wait_frames(daemon.server.port, 2)

    def test_resume_without_checkpoint_dir_rejected(self, bank_dir,
                                                    tmp_path):
        with pytest.raises(ConfigError, match="checkpoint directory"):
            build_daemon(bank_dir,
                         open_source(str(tmp_path / "x.pcap")),
                         resume=True)

    def test_ingest_failure_flips_health_to_503(self, bank_dir):
        daemon = build_daemon(bank_dir, _ExplodingSource(),
                              num_workers=2, retention="rollup")
        try:
            daemon.start()
            port = daemon.server.port
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                status_code, body = _get(port, "/healthz")
                if status_code == 503:
                    break
                time.sleep(0.05)
            assert status_code == 503
            payload = json.loads(body)
            assert payload["status"] == "unhealthy"
            failing = [c["component"] for c in payload["components"]
                       if not c["healthy"]]
            assert "ingest" in failing
            assert "feed exploded" in body.decode()
            ready, reason = daemon.ready()
            assert not ready
        finally:
            daemon.close()

    def test_dead_worker_flips_health_to_503(self, bank_dir, tmp_path,
                                             golden_parts):
        header, records = golden_parts
        live = tmp_path / "live.pcap"
        live.write_bytes(header + b"".join(records[:4]))
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup")
        try:
            daemon.start()
            port = daemon.server.port
            _wait_frames(port, 4)
            victim = daemon._pipeline._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                status_code, body = _get(port, "/healthz")
                if status_code == 503:
                    break
                time.sleep(0.05)
            assert status_code == 503
            assert b"workers dead" in body
            assert _get(port, "/readyz")[0] == 503
        finally:
            daemon._pipeline.terminate()
            daemon._ingest_error = "worker killed by test"
            daemon.close()

    def test_checkpoint_api_409_without_checkpoint_dir(self, bank_dir,
                                                       tmp_path,
                                                       golden_parts):
        header, records = golden_parts
        live = tmp_path / "live.pcap"
        live.write_bytes(header + records[0])
        daemon = build_daemon(bank_dir, open_source(f"tail:{live}"),
                              num_workers=2, retention="rollup")
        with daemon:
            port = daemon.server.port
            status_code, body = _post(port, "/api/checkpoint")
            assert status_code == 409
            assert b"disabled" in body
            # reload validation errors are 400s
            assert _post(port, "/api/reload", b"not json")[0] == 400
            assert _post(port, "/api/reload", b"{}")[0] == 400


# --- serve CLI lifecycle ----------------------------------------------------


class TestServeCommand:
    def test_sigterm_drains_with_final_checkpoint(self, bank_dir,
                                                  tmp_path,
                                                  golden_parts):
        header, records = golden_parts
        live = tmp_path / "live.pcap"
        ck = tmp_path / "ck"
        live.write_bytes(header + b"".join(records))
        env = dict(os.environ)
        src = Path(__file__).parent.parent / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" \
            f"{env.get('PYTHONPATH', '')}"
        port_file = tmp_path / "events.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bank", str(bank_dir), "--source", f"tail:{live}",
             "--port", "0", "--workers", "2",
             "--checkpoint-dir", str(ck),
             "--event-log", str(port_file)],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            # The bound address is announced on stderr once the API
            # (and hence the daemon) is constructed.
            line = process.stderr.readline()
            assert "http://127.0.0.1:" in line, line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if _get(port, "/readyz")[0] == 200:
                        status = json.loads(
                            _get(port, "/api/status")[1])
                        if status["frames"] + status["skipped"] >= \
                                len(records):
                            break
                except OSError:
                    pass
                time.sleep(0.1)
            else:
                raise AssertionError("daemon never drained the capture")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        position = load_service_position(ck)
        assert position.consumed == len(records)
        events = [json.loads(line) for line in
                  port_file.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert "service_start" in kinds
        assert "checkpoint" in kinds
        assert kinds[-1] == "service_stop"
        assert events[-1]["clean"] is True
