"""The one trace generator behind every ledger workload.

A trace is a *base epoch* replayed ``epochs`` times. The base epoch is
built from real ``FlowFactory`` handshakes (the only frames the
pipeline ever parses in depth) plus template-patched data frames: one
downstream and one upstream template per video session, copied per
frame and patched in place (TCP seq/ack) with numpy, so frame
synthesis costs a ``bytes.join`` and a dozen vectorised byte writes
instead of a ``make_tcp_packet`` call per frame. Replaying an epoch
only rewrites the pcap record ``ts_sec`` column: epoch ``k`` is the
same bytes shifted by ``k * shift`` whole seconds, with ``shift`` larger
than the epoch span plus the pipeline's idle timeout, so every flow of
epoch ``k`` is evicted before its 5-tuple reappears in epoch ``k+1``.
That is what keeps the oracle cheap: counters over ``E`` epochs are
exactly ``E`` times one epoch's (``evicted`` is ``(E-1) * flows`` — the
last epoch's flows leave through ``flush``).

Two traffic shapes, one code path:

* ``onoff`` — a full-mirror campus tap. 150 video sessions and 150
  non-video TLS flows arrive within the first ten capture seconds and
  all stay in the flow table to the end of the 40-second epoch: 300
  live flows. Where that figure comes from: the paper's tap saw 100M+
  streams in four months, ~10 new streams a second on average; 30 a
  second is that campus in its evening peak, watched for ten seconds.
  (With sessions that last minutes the real table holds thousands;
  300 is what the frame budget below leaves room for.) Video sessions
  follow the buffering-burst-then-ON-OFF structure of "Network
  Characteristics of Video Streaming Traffic": handshake, a burst of
  three back-to-back chunks, then a chunk every ~2 s. A chunk (one ON
  period, ~45 KB of video) is 50 frames in groups of 10: 2 downstream
  (1200-1400 B payload) to 1 upstream bare ACK. A session carries 700
  data frames behind one handshake; that ratio, and QUIC held to two
  sessions (one Initial costs as much as ~1400 data frames), is what
  keeps this trace per-packet-bound — handshake parse, features and
  the forest stay near a tenth of a round. It cannot be bought with
  fewer frames per flow: every flow that enters the table costs
  ~0.15 ms of handshake work, a frame ~1.7 us, and a round reads every
  byte of a ~130 MiB epoch from the page cache. Around the sessions:
  ~35 % non-443 filler (which never enters the table), ~5 % non-IPv4
  frames, every fifth session 802.1Q-tagged.
* ``storm`` — a BPF-filtered flash crowd: only the short flows the
  factory builds (handshake + first data packets), half of them
  non-video TLS with distinct SNIs, no filler.

The QUIC share of video flows is pinned (not sampled) and every count
is fixed by the spec, so two seeds differ in bytes, never in shape.

Patched data frames keep the template's (valid) IPv4 header checksum —
no IPv4 field changes between frames of a flow — while the TCP
checksum goes stale with seq/ack, which no layer of the tap verifies.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

import product
from repro.fingerprints import Transport, active_pack
from repro.net import (
    EthernetHeader,
    FlowKey,
    TCPHeader,
    make_tcp_packet,
    make_udp_packet,
)
from repro.pipeline import shard_index
from repro.trafficgen import (
    FlowBuildRequest,
    FlowFactory,
    SyntheticFlow,
    effective_profile,
    pick_sni,
)
from repro.util import SeededRNG

VLAN_EVERY = 5            # every fifth video session arrives tagged
VLAN_ID = 112
CHUNK_FRAMES = 50
# D D U D D U D D U D, five times — two downstream frames per upstream ACK.
_CHUNK_UP = np.tile(np.array([0, 0, 1, 0, 0, 1, 0, 0, 1, 0], dtype=bool), 5)
_FRAME_GAP = 0.0004       # seconds between frames of one chunk
_BURST_CHUNKS = 3
_CAPTURE_START = 72_000   # 20:00 on day 0 — the evening peak
PCAP_GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
_RECORD = struct.Struct("<IIII")


@dataclass(frozen=True)
class TraceSpec:
    """Shape of one trace; every count is per epoch."""

    name: str
    video_flows: int
    web_flows: int
    quic_share: float      # of video flows, pinned (a count, not a draw)
    chunks: int            # ON periods per video session (0: handshake only)
    off_seconds: tuple[float, float]   # silence between ON periods
    filler_share: float    # non-443 frames, share of the epoch
    nonip_share: float     # ARP / IPv6 frames, share of the epoch
    epochs: int
    span: float            # capture seconds one epoch covers
    paced_pps: int         # open-loop rate of the live section (frames/s)


TRACES = {
    "onoff": TraceSpec("onoff", video_flows=150, web_flows=150,
                       quic_share=0.0125, chunks=14, off_seconds=(1.8, 2.4),
                       filler_share=0.35, nonip_share=0.05, epochs=2,
                       span=40.0, paced_pps=30_000),
    "storm": TraceSpec("storm", video_flows=300, web_flows=300,
                       quic_share=0.2, chunks=0, off_seconds=(0.0, 0.0),
                       filler_share=0.0, nonip_share=0.0, epochs=2,
                       span=20.0, paced_pps=3_000),
}


def spec_for(trace: str, scale: str) -> TraceSpec:
    """``full`` is the committed shape; ``smoke`` is an eighth of the
    flows (tier-1 self-test only, never a committed number)."""
    spec = TRACES[trace]
    if scale == "smoke":
        spec = replace(spec, video_flows=spec.video_flows // 8,
                       web_flows=spec.web_flows // 8,
                       chunks=min(spec.chunks, 4),
                       paced_pps=spec.paced_pps // 4)
    return spec


@dataclass
class Epoch:
    """One built base epoch: pcap records (no global header) plus the
    columns needed to replay, slice and re-time it without parsing."""

    spec: TraceSpec
    blob: bytearray            # ts_sec column re-patched per epoch written
    offsets: np.ndarray        # int64[n+1] record byte boundaries
    sec: np.ndarray            # uint32[n] ts_sec column of epoch 0
    shift: int                 # whole seconds between epoch starts
    flows: list[SyntheticFlow]  # ground truth: video then web flows
    manifest: dict

    @property
    def frames(self) -> int:
        return len(self.sec)

    def write_records(self, fh: BinaryIO, start: int, stop: int) -> None:
        """Write records ``[start, stop)`` of the endless epoch stream
        (frame ``i`` is record ``i % frames`` of epoch ``i // frames``)
        to ``fh``, each with its timestamp shifted to its epoch.

        The shift is patched into ``blob`` in place just before the
        bytes are written: a quarter-gigabyte epoch is never copied,
        and every record that leaves carries the epoch it belongs to
        whatever was written before."""
        n = self.frames
        buf = np.frombuffer(self.blob, dtype=np.uint8)
        view = memoryview(self.blob)
        while start < stop:
            k, lo = divmod(start, n)
            hi = min(n, lo + stop - start)
            _put_u32(buf, self.offsets[lo:hi],
                     self.sec[lo:hi] + np.uint32(k * self.shift))
            fh.write(view[int(self.offsets[lo]):int(self.offsets[hi])])
            start += hi - lo

    def write_pcap(self, path: str | Path, epochs: int) -> int:
        """Write a ``epochs``-epoch capture file; returns its frames.
        Not synced: the file is read back from the page cache and
        deleted with the run, long before write-back would start."""
        with open(path, "wb") as fh:
            fh.write(PCAP_GLOBAL_HEADER)
            self.write_records(fh, 0, epochs * self.frames)
        return epochs * self.frames


def _put_u32(buf: np.ndarray, at: np.ndarray, values: np.ndarray,
             big_endian: bool = False) -> None:
    """Write ``values`` as 32-bit words at arbitrary byte offsets."""
    values = values.astype(np.uint32, copy=False)
    for j in range(4):
        shift = 8 * (3 - j if big_endian else j)
        buf[at + j] = (values >> np.uint32(shift)) & np.uint32(0xFF)


_FIRST_EPHEMERAL_PORT = 49152   # where a fresh FlowFactory starts


def _build_flows(spec: TraceSpec, rng: SeededRNG) -> list[SyntheticFlow]:
    """Video flows over every (platform, provider) cell of the active
    pack with the QUIC share pinned, then non-video TLS flows.

    Client addresses are drawn until the flow's 5-tuple hashes to the
    shard it is wanted on — QUIC video, TCP video and web flows each
    alternate over the pinned worker count — so every seed loads the
    parallel workers evenly. Left to chance, 60 QUIC flows (2 ms each,
    most of a storm round) split 30 +- 4 between two workers, and that
    binomial spread, not the program, would set ``parallel_storm``'s
    run-to-run variation.
    """
    pack = active_pack()
    factory = FlowFactory(rng.fork("flows"))
    workers = product.PINNED_KNOBS["num_workers"][0]
    pairs = sorted(pack.flow_counts,
                   key=lambda pair: (pair[1].value, pair[0].label))
    quic_pairs = [pair for pair in pairs
                  if Transport.QUIC in pack.transports_for(*pair)]
    tcp_pairs = [pair for pair in pairs
                 if Transport.TCP in pack.transports_for(*pair)]
    quic_flows = round(spec.video_flows * spec.quic_share)
    web_platform, web_provider = tcp_pairs[0]
    flows: list[SyntheticFlow] = []
    placed = {"quic": 0, "tcp": 0, "web": 0}
    for i in range(spec.video_flows + spec.web_flows):
        if i < spec.video_flows:
            transport = Transport.QUIC if i < quic_flows else Transport.TCP
            kind = transport.value
            choices = quic_pairs if transport is Transport.QUIC \
                else tcp_pairs
            platform, provider = choices[i % len(choices)]
            profile = effective_profile(platform, provider, transport, rng,
                                        pack=pack)
            sni = pick_sni(provider, "content", rng,
                           specs=pack.provider_specs)
            server_ip = f"142.250.{rng.randint(0, 250)}." \
                        f"{rng.randint(2, 250)}"
        else:
            transport, kind = Transport.TCP, "web"
            platform, provider = web_platform, web_provider
            profile = pack.get_profile(platform, provider)
            sni = f"www.site{i}.example.org"
            server_ip = f"93.184.{rng.randint(0, 250)}." \
                        f"{rng.randint(2, 250)}"
        port = _FIRST_EPHEMERAL_PORT + i
        protocol = 17 if transport is Transport.QUIC else 6
        while True:
            client_ip = f"10.{rng.randint(1, 250)}.{rng.randint(0, 250)}." \
                        f"{rng.randint(2, 250)}"
            if shard_index(FlowKey(protocol, client_ip, port, server_ip,
                                   443), workers) == placed[kind] % workers:
                break
        placed[kind] += 1
        flow = factory.build(FlowBuildRequest(
            platform_label=platform.label, provider=provider,
            transport=transport, profile=profile, sni=sni,
            start_time=_CAPTURE_START + rng.uniform(0.0, spec.span / 4),
            client_ip=client_ip, server_ip=server_ip))
        if flow.key.src_port != port:
            raise RuntimeError("FlowFactory no longer hands out ephemeral "
                               "ports in order; shard placement is off")
        flows.append(flow)
    return flows


def _tagged(flow: SyntheticFlow) -> SyntheticFlow:
    eth = EthernetHeader(vlan_id=VLAN_ID)
    return replace(flow, packets=tuple(replace(p, eth=eth)
                                       for p in flow.packets))


def _session_templates(flow: SyntheticFlow, tagged: bool, size: int,
                       rng: SeededRNG) -> tuple[bytes, bytes, int]:
    """(downstream frame, upstream frame, byte offset of the TCP seq
    field or -1 for QUIC) for one video session's data frames."""
    key = flow.key
    if flow.transport is Transport.TCP:
        down = make_tcp_packet(
            key.dst_ip, key.src_ip,
            TCPHeader(src_port=443, dst_port=key.src_port, flag_ack=True,
                      window=65535),
            payload=rng.token_bytes(size), ttl=52)
        up = make_tcp_packet(
            key.src_ip, key.dst_ip,
            TCPHeader(src_port=key.src_port, dst_port=443, flag_ack=True,
                      window=65535))
        seq_at = (18 if tagged else 14) + 20 + 4
    else:
        down = make_udp_packet(
            key.dst_ip, key.src_ip, 443, key.src_port,
            payload=b"\x40" + rng.token_bytes(size - 1), ttl=52)
        up = make_udp_packet(
            key.src_ip, key.dst_ip, key.src_port, 443,
            payload=b"\x40" + rng.token_bytes(39))
        seq_at = -1
    if tagged:
        eth = EthernetHeader(vlan_id=VLAN_ID)
        down, up = replace(down, eth=eth), replace(up, eth=eth)
    return down.to_bytes(), up.to_bytes(), seq_at


def _filler_templates(rng: SeededRNG) -> list[bytes]:
    """Non-443 traffic a full mirror carries: web on 8080, ssh, DNS,
    NTP — mixed sizes, both L4 protocols."""
    out = []
    for i in range(48):
        src, dst = f"10.{rng.randint(1, 250)}.7.{2 + i}", \
            f"93.184.216.{2 + i}"
        size = (0, 64, 300, 700, 1200)[i % 5]
        if i % 4 == 3:
            packet = make_udp_packet(src, dst, 40000 + i, (53, 123)[i % 2],
                                     payload=rng.token_bytes(size or 48))
        else:
            packet = make_tcp_packet(
                src, dst,
                TCPHeader(src_port=40000 + i,
                          dst_port=(8080, 22, 80)[i % 3],
                          seq=rng.randint(0, 2**32 - 1), flag_ack=True),
                payload=rng.token_bytes(size))
        out.append(packet.to_bytes())
    return out


def _nonip_templates(rng: SeededRNG) -> list[bytes]:
    macs = bytes.fromhex("ffffffffffff") + bytes.fromhex("020000000001")
    arp = macs + b"\x08\x06" + bytes.fromhex(
        "0001080006040001") + rng.token_bytes(20)
    ipv6 = macs + b"\x86\xdd" + b"\x60" + rng.token_bytes(39 + 32)
    return [arp, ipv6]


def build_epoch(spec: TraceSpec, seed: int) -> Epoch:
    """Build the base epoch of ``spec`` from ``seed``."""
    rng = SeededRNG(seed).fork(("ledger-trace", spec.name))
    nrng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    flows = _build_flows(spec, rng)
    video = spec.video_flows
    for i in range(0, video, VLAN_EVERY):
        flows[i] = _tagged(flows[i])

    templates: list[bytes] = []
    cols: dict[str, list[np.ndarray]] = {k: [] for k in
                                         ("tmpl", "ts", "at", "seq", "ack")}

    def add(tmpl, ts, at=None, seq=None, ack=None) -> None:
        n = len(tmpl)
        cols["tmpl"].append(np.asarray(tmpl, dtype=np.int64))
        cols["ts"].append(np.asarray(ts, dtype=np.float64))
        cols["at"].append(np.full(n, -1, dtype=np.int64)
                          if at is None else at)
        for name, values in (("seq", seq), ("ack", ack)):
            cols[name].append(np.zeros(n, dtype=np.uint32)
                              if values is None else values)

    # Handshake-phase frames: every factory packet is its own template.
    counts = {"video_handshake": 0, "web": 0}
    for i, flow in enumerate(flows):
        first = len(templates)
        templates.extend(p.to_bytes() for p in flow.packets)
        add(range(first, len(templates)),
            [p.timestamp for p in flow.packets])
        counts["video_handshake" if i < video else "web"] += \
            len(flow.packets)

    # ON-OFF data frames: two templates per session, seq/ack patched.
    data_frames = 0
    if spec.chunks:
        frames = spec.chunks * CHUNK_FRAMES
        up = np.tile(_CHUNK_UP, spec.chunks)
        downs_before = np.cumsum(~up) - ~up      # per-frame, in-session
        burst = min(_BURST_CHUNKS, spec.chunks)
        # The same multiset of payload sizes under every seed (only the
        # assignment to sessions moves), so a round's bytes are constant.
        sizes = np.linspace(1200, 1400, video).astype(int).tolist()
        rng.shuffle(sizes)
        for flow, size in zip(flows[:video], sizes):
            tagged = flow.packets[0].eth.vlan_id is not None
            down_t, up_t, seq_at = _session_templates(flow, tagged, size,
                                                      rng)
            first = len(templates)
            templates += [down_t, up_t]
            start = flow.start_time
            period = rng.uniform(*spec.off_seconds)
            chunk_t = np.concatenate((
                start + 0.2 + 0.05 * np.arange(burst),
                start + 1.0 + period * np.arange(spec.chunks - burst)))
            ts = (chunk_t[:, None]
                  + _FRAME_GAP * np.arange(CHUNK_FRAMES)).ravel()
            if seq_at < 0:
                add(first + up, ts)
            else:
                cseq = np.uint32(rng.randint(0, 2**32 - 1))
                sseq = np.uint32(rng.randint(0, 2**32 - 1))
                payload = np.uint32(len(down_t) - seq_at - 16)
                sent = sseq + payload * downs_before.astype(np.uint32)
                add(first + up, ts, np.full(frames, seq_at, np.int64),
                    np.where(up, cseq, sent), np.where(up, sent, cseq))
            data_frames += frames

    # Non-443 filler and non-IPv4 frames, uniform over the epoch.
    core = sum(len(c) for c in cols["tmpl"])
    total = round(core / (1.0 - spec.filler_share - spec.nonip_share))
    counts.update(video_data=data_frames, filler=0, non_ipv4=0)
    for name, share, make in (("filler", spec.filler_share,
                               _filler_templates),
                              ("non_ipv4", spec.nonip_share,
                               _nonip_templates)):
        n = round(total * share)
        if n:
            pool = make(rng)
            first = len(templates)
            templates += pool
            add(first + nrng.integers(0, len(pool), n),
                _CAPTURE_START + nrng.uniform(0.0, spec.span, n))
            counts[name] = n

    tmpl = np.concatenate(cols["tmpl"])
    order = np.argsort(np.concatenate(cols["ts"]), kind="stable")
    tmpl = tmpl[order]
    ts = np.concatenate(cols["ts"])[order]
    at = np.concatenate(cols["at"])[order]
    seq = np.concatenate(cols["seq"])[order]
    ack = np.concatenate(cols["ack"])[order]
    if ts[-1] - ts[0] >= spec.span:
        raise ValueError(f"{spec.name}: epoch outgrew its span")

    records = [_RECORD.pack(0, 0, len(t), len(t)) + t for t in templates]
    sizes = np.fromiter((len(r) for r in records), dtype=np.int64,
                        count=len(records))
    offsets = np.concatenate(([0], np.cumsum(sizes[tmpl])))
    blob = bytearray().join([records[t] for t in tmpl.tolist()])
    buf = np.frombuffer(blob, dtype=np.uint8)
    sec = np.floor(ts).astype(np.uint32)
    usec = np.minimum(np.round((ts - sec) * 1e6), 999_999).astype(np.uint32)
    _put_u32(buf, offsets[:-1], sec)
    _put_u32(buf, offsets[:-1] + 4, usec)
    patched = at >= 0
    where = offsets[:-1][patched] + _RECORD.size + at[patched]
    _put_u32(buf, where, seq[patched], big_endian=True)
    _put_u32(buf, where + 4, ack[patched], big_endian=True)
    del buf

    quic = sum(1 for f in flows[:video] if f.transport is Transport.QUIC)
    manifest = {
        "trace": spec.name, "epochs": spec.epochs,
        "frames_per_epoch": int(len(tmpl)),
        "frames": int(len(tmpl)) * spec.epochs,
        "frames_by_class": counts,
        "video_flows": video, "web_flows": spec.web_flows,
        # Every port-443 flow enters the flow table at its handshake and
        # none idles out before the epoch ends, so this is the table's
        # peak (``pipeline.engine.live_flows_peak`` must report it).
        "live_flows": len(flows),
        "data_frames_per_session": spec.chunks * CHUNK_FRAMES,
        "quic_share": quic / video,
        "vlan_sessions": len(range(0, video, VLAN_EVERY)),
        "epoch_bytes": len(blob),
        "epoch_sha256": hashlib.sha256(blob).hexdigest(),
    }
    return Epoch(spec=spec, blob=blob, offsets=offsets, sec=sec,
                 shift=int(np.ceil(spec.span)) + 120, flows=flows,
                 manifest=manifest)
