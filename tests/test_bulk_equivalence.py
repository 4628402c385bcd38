"""Bulk-decode equivalence wall.

The vectorized bulk path (``decode_block`` + ``process_block``) is the
product; the eager per-record path is the oracle. On a seeded campus
mix — video flows, a split-ClientHello flow, a VLAN-tagged slice,
non-video bulk, foreign ARP/IPv6 frames — every runtime flavor (serial,
sharded, multiprocess over both block transports) must produce
identical counters, identical predictions in identical order, and
byte-identical rollup snapshots across both ingest modes and a
frame-at-a-time block feed, including checkpointed and killed-worker
replay under the shared-memory transport.
"""

import hashlib
import os
import signal
from dataclasses import asdict, replace
from itertools import zip_longest

import pytest

from repro.errors import ParseError
from repro.ml import RandomForestClassifier
from repro.net import (
    EthernetHeader,
    FrameBlock,
    PcapReader,
    PcapWriter,
    TCPHeader,
    decode_block,
    make_tcp_packet,
)
from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    RealtimePipeline,
    ShardedPipeline,
    ingest_pcap,
    save_bank,
)
from repro.telemetry import save_rollup
from repro.trafficgen import (
    FlowBuildRequest,
    FlowFactory,
    generate_lab_dataset,
)
from repro.util import SeededRNG


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=37, scale=0.04)


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=4, max_depth=12, random_state=1),
    )


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk-eq-bank") / "bank"
    save_bank(bank, path)
    return path


def _split_hello(flow, pieces: int):
    """Split the flow's ClientHello segment into seq-adjacent TCP
    segments (the capture shape PR 3 fixed; bulk must keep it)."""
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
        parts.append(replace(
            hello_pkt,
            tcp=replace(hello_pkt.tcp, seq=hello_pkt.tcp.seq + offset),
            payload=chunk,
            timestamp=hello_pkt.timestamp + offset * 1e-6))
        offset += len(chunk)
    return packets[:idx] + parts + packets[idx + 1:]


@pytest.fixture(scope="module")
def campus_frames(lab):
    """The adversarial campus mix: interleaved video flows (one with a
    split ClientHello, a slice VLAN-tagged), a non-video TLS flow,
    non-443 bulk, and foreign link-layer frames."""
    flows = list(lab)[::6][:48]
    factory = FlowFactory(SeededRNG(41))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    split_flow = factory.build(FlowBuildRequest(
        platform_label="windows_chrome", provider=Provider.YOUTUBE,
        transport=Transport.TCP, profile=profile,
        sni="rr2---sn-bulk.googlevideo.com"))
    nonvideo = factory.build(FlowBuildRequest(
        platform_label="windows_chrome", provider=Provider.YOUTUBE,
        transport=Transport.TCP, profile=profile,
        sni="www.wikipedia.org"))
    rows = zip_longest(*([flow.packets for flow in flows]
                         + [_split_hello(split_flow, 3),
                            nonvideo.packets]))
    video = [p for row in rows for p in row if p is not None]
    tagged_keys = {flow.key.canonical() for flow in flows[::3]}
    video = [replace(p, eth=EthernetHeader(vlan_id=42))
             if p.flow_key.canonical() in tagged_keys else p
             for p in video]
    rng = SeededRNG(53)
    frames = []
    bulk_at = 0
    for i, packet in enumerate(video):
        frames.append((packet.to_bytes(), packet.timestamp))
        if i % 2 == 0:
            port = 8080 if bulk_at % 3 else 443
            tcp = TCPHeader(src_port=40000 + bulk_at % 300, dst_port=port,
                            seq=bulk_at, flag_ack=True)
            filler = make_tcp_packet(
                f"10.{bulk_at % 90}.7.2", "93.184.216.34", tcp,
                payload=rng.token_bytes(300),
                timestamp=packet.timestamp)
            frames.append((filler.to_bytes(), filler.timestamp))
            bulk_at += 1
    # Foreign frames a real tap carries: ARP and IPv6, skipped (not
    # errored) by every non-strict mode.
    arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28
    ipv6 = b"\x02" * 12 + b"\x86\xdd" + b"\x60" + b"\x00" * 47
    frames.insert(len(frames) // 2, (arp, frames[len(frames) // 2][1]))
    frames.append((ipv6, frames[-1][1] + 0.001))
    return frames


@pytest.fixture(scope="module")
def campus_pcap(campus_frames, tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk-eq-pcap") / "campus.pcap"
    with PcapWriter(path) as writer:
        for data, timestamp in campus_frames:
            writer.write_bytes(data, timestamp)
    return path


def _rows(store):
    return [(str(r.key), r.provider.value, r.transport.value, r.role,
             r.start_time, r.duration, r.bytes_down, r.bytes_up,
             r.prediction) for r in store]


def _rollup_digest(cube, workdir, tag):
    target = workdir / f"rollup-{tag}"
    save_rollup(cube, target)
    return hashlib.sha256(
        (target / "rollup.json").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def eager_oracle(bank, campus_pcap, tmp_path_factory):
    """The oracle run: serial eager ingest, pinned once per module."""
    pipeline = RealtimePipeline(bank, batch_size=8, retention="both")
    result = ingest_pcap(pipeline, campus_pcap, mode="eager")
    pipeline.flush()
    workdir = tmp_path_factory.mktemp("bulk-eq-oracle")
    return {
        "result": result,
        "counters": asdict(pipeline.counters),
        "rows": _rows(pipeline.store),
        "rollup": _rollup_digest(pipeline.rollup, workdir, "oracle"),
    }


def _feed_frames(pipeline, path):
    """A frame-at-a-time source over a capture file (the AF_PACKET
    source's shape): the raw frames packed with
    ``FrameBlock.from_frames`` and fed as one block, no tick slicing;
    invalid frames are masked and skipped as ``ingest_pcap`` skips
    them."""
    with PcapReader(path) as reader:
        block = FrameBlock.from_frames(reader.frames())
    pipeline.process_block(decode_block(block))


class TestSerialBulk:
    @pytest.mark.parametrize("mode", ("bulk",))
    def test_mode_matches_eager_oracle(self, bank, campus_pcap,
                                       eager_oracle, tmp_path, mode):
        pipeline = RealtimePipeline(bank, batch_size=8, retention="both")
        result = ingest_pcap(pipeline, campus_pcap, mode=mode)
        pipeline.flush()
        assert result == eager_oracle["result"]
        assert result.skipped == 2  # the ARP and IPv6 frames
        assert asdict(pipeline.counters) == eager_oracle["counters"]
        assert _rows(pipeline.store) == eager_oracle["rows"]
        assert _rollup_digest(pipeline.rollup, tmp_path, mode) == \
            eager_oracle["rollup"]

    def test_oracle_exercises_the_hard_shapes(self, eager_oracle):
        counters = eager_oracle["counters"]
        assert counters["video_flows"] > 0
        assert counters["non_video_flows"] > 0   # SNI-filtered TLS
        assert counters["incomplete"] > 0        # handshake-less bulk

    def test_strict_mode_rejects_foreign_frames_in_both_paths(
            self, bank, campus_pcap):
        for mode in ("eager", "bulk"):
            with pytest.raises(ParseError):
                ingest_pcap(RealtimePipeline(bank), campus_pcap,
                            mode=mode, strict=True)

    def test_bulk_checkpointed_replay_matches_uninterrupted(
            self, bank, campus_pcap, eager_oracle, tmp_path):
        """Checkpoint ticks land between bulk spans; the resumed run
        must still land on the oracle bytes."""
        victim = RealtimePipeline(bank, batch_size=8)
        ingest_pcap(victim, campus_pcap, mode="bulk",
                    checkpoint_dir=tmp_path / "ck",
                    checkpoint_interval=5.0)
        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        ingest_pcap(resumed, campus_pcap, mode="bulk",
                    checkpoint_dir=tmp_path / "ck",
                    resume_dir=tmp_path / "ck",
                    checkpoint_interval=5.0)
        resumed.flush()
        assert asdict(resumed.counters) == eager_oracle["counters"]
        assert _rows(resumed.store) == eager_oracle["rows"]


class TestShardedBulk:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_bulk_equals_raw_per_shard_count(self, bank, campus_pcap,
                                             eager_oracle, tmp_path,
                                             shards):
        def state(feed, tag):
            pipeline = ShardedPipeline(bank, num_shards=shards,
                                       batch_size=8, retention="both")
            feed(pipeline, campus_pcap)
            pipeline.flush()
            return (asdict(pipeline.counters), _rows(pipeline.telemetry),
                    _rollup_digest(pipeline.rollup, tmp_path,
                                   f"{tag}-{shards}"))

        raw = state(_feed_frames, "raw")  # one from_frames block
        bulk = state(ingest_pcap, "bulk")
        assert bulk == raw
        assert bulk[0] == eager_oracle["counters"]
        assert sorted(map(repr, bulk[1])) == \
            sorted(map(repr, eager_oracle["rows"]))


class TestParallelBulk:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_shm_bulk_matches_oracle(self, bank, bank_dir, campus_pcap,
                                     eager_oracle, tmp_path, workers):
        with ParallelShardedPipeline(bank_dir, num_workers=workers,
                                     batch_size=8, retention="both",
                                     transport="shm") as par:
            ingest_pcap(par, campus_pcap, mode="bulk")
            par.flush()
            par_counters = asdict(par.counters)
            par_rows = sorted(map(repr, _rows(par.telemetry)))
            par_digest = _rollup_digest(par.rollup, tmp_path, "par")
        assert par_counters == eager_oracle["counters"]
        assert par_rows == sorted(map(repr, eager_oracle["rows"]))
        # The multiprocess runtime must land on the same merged rollup
        # bytes as the serial dispatcher with the same shard count.
        serial = ShardedPipeline(bank, num_shards=workers, batch_size=8,
                                 retention="both")
        ingest_pcap(serial, campus_pcap)
        serial.flush()
        assert par_digest == _rollup_digest(serial.rollup, tmp_path,
                                            "serial")

    def test_queue_and_shm_transports_agree(self, bank_dir, campus_pcap,
                                            eager_oracle):
        states = {}
        for transport in ("queue", "shm"):
            with ParallelShardedPipeline(bank_dir, num_workers=2,
                                         batch_size=8,
                                         transport=transport) as par:
                ingest_pcap(par, campus_pcap, mode="bulk")
                par.flush()
                states[transport] = (asdict(par.counters),
                                     sorted(map(repr,
                                                _rows(par.telemetry))))
        assert states["queue"] == states["shm"]
        assert states["shm"][0] == eager_oracle["counters"]

    @pytest.mark.parametrize("transport", ("queue", "shm"))
    def test_checkpointed_replay_resumes_under_both_transports(
            self, bank_dir, campus_pcap, eager_oracle, tmp_path,
            transport):
        """Whole-process death after a checkpoint tick: the restored
        fleet replays the tail and lands on the oracle bytes, however
        its blocks travel."""
        ck = tmp_path / "ck"
        victim = ParallelShardedPipeline(bank_dir, num_workers=2,
                                         batch_size=8,
                                         transport=transport)
        try:
            ingest_pcap(victim, campus_pcap, checkpoint_dir=ck,
                        checkpoint_interval=5.0)
        finally:
            victim.terminate()
        with ParallelShardedPipeline.restore(
                ck, bank_dir, transport=transport) as resumed:
            ingest_pcap(resumed, campus_pcap, checkpoint_dir=ck,
                        resume_dir=ck, checkpoint_interval=5.0)
            resumed.flush()
            assert asdict(resumed.counters) == eager_oracle["counters"]
            assert sorted(map(repr, _rows(resumed.telemetry))) == \
                sorted(map(repr, eager_oracle["rows"]))

    def _kill_worker_mid_capture(self, transport, bank_dir,
                                 eager_oracle, campus_frames, tmp_path):
        half_path = tmp_path / "half.pcap"
        half = len(campus_frames) // 2
        with PcapWriter(half_path) as writer:
            for data, timestamp in campus_frames[:half]:
                writer.write_bytes(data, timestamp)
        rest_path = tmp_path / "rest.pcap"
        with PcapWriter(rest_path) as writer:
            for data, timestamp in campus_frames[half:]:
                writer.write_bytes(data, timestamp)
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=8, transport=transport,
                                     checkpoint_dir=tmp_path / "jrn"
                                     ) as par:
            ingest_pcap(par, half_path, mode="bulk")
            victim = par._workers[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            ingest_pcap(par, rest_path, mode="bulk")
            par.flush()
            assert sum(par._restarts) >= 1
            assert asdict(par.counters) == eager_oracle["counters"]
            assert sorted(map(repr, _rows(par.telemetry))) == \
                sorted(map(repr, eager_oracle["rows"]))

    def test_killed_worker_replay_under_shm_bulk(self, bank_dir,
                                                 campus_pcap,
                                                 eager_oracle,
                                                 campus_frames,
                                                 tmp_path):
        """The PR 5 crash contract holds with frames riding the shm
        ring: SIGKILL a worker mid-capture, journal replay on the
        respawn must restore the oracle state exactly."""
        self._kill_worker_mid_capture("shm", bank_dir, eager_oracle,
                                      campus_frames, tmp_path)

    def test_killed_worker_replay_under_queue_bulk(self, bank_dir,
                                                   eager_oracle,
                                                   campus_frames,
                                                   tmp_path):
        """...and with the same blocks pickled through the queue."""
        self._kill_worker_mid_capture("queue", bank_dir, eager_oracle,
                                      campus_frames, tmp_path)
