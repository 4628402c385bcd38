"""Shared-memory ring transport: the properties that keep it safe.

The ring is the one piece of the multiprocess runtime with genuinely
concurrent state, so its invariants get their own wall: wraparound
never corrupts a payload, a full ring blocks the producer (and polls
liveness) instead of overwriting, a SIGKILLed worker respawns onto a
*fresh* ring with the PR 5 journal-replay contract intact, and no
``/dev/shm`` segment outlives the pipeline — on normal close, on
terminate, and across respawns.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import asdict
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.ml import RandomForestClassifier
from repro.net import PcapReader, PcapWriter, TCPHeader, make_tcp_packet
from repro.net.rawpacket import decode_block
from repro.pipeline import (
    TRANSPORTS,
    ClassifierBank,
    ParallelShardedPipeline,
    ShardedPipeline,
    ingest_pcap,
    save_bank,
)
from repro.pipeline.shmring import FrameRing, RingReader
from repro.trafficgen import generate_lab_dataset
from repro.util import SeededRNG


@pytest.fixture(scope="module")
def ctx():
    return multiprocessing.get_context("spawn")


def _segment_exists(name: str) -> bool:
    try:
        shm = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        return True
    finally:
        shm.close()


class TestFrameRingUnit:
    def test_rejects_tiny_ring_and_oversized_payload(self, ctx):
        with pytest.raises(ValueError):
            FrameRing(ctx, size=16)
        ring = FrameRing(ctx, size=4096)
        try:
            with pytest.raises(ValueError):
                ring.write(b"x" * 4097)
        finally:
            ring.close()

    def test_wraparound_never_splits_a_payload(self, ctx):
        """Payloads that would straddle the physical end skip the tail:
        every descriptor names one contiguous span and round-trips
        byte-identically through a reader."""
        ring = FrameRing(ctx, size=4096)
        reader = RingReader(ring.name, ring.consumed)
        rng = SeededRNG(3)
        try:
            for n in range(40):
                payload = rng.token_bytes(900 + (n * 137) % 900)
                offset, length, after = ring.write(payload)
                assert offset + length <= ring.size  # contiguous
                view = reader.view(offset, length)
                assert bytes(view) == payload
                del view
                reader.release(after)
            # the cursor accounting covered skipped tails too
            assert ring.written == ring.consumed.value
        finally:
            reader.close()
            ring.close()

    def test_full_ring_blocks_until_consumed(self, ctx):
        ring = FrameRing(ctx, size=4096)
        polls = []
        try:
            first = ring.write(b"a" * 3000)
            released = threading.Timer(
                0.15, lambda: ring.consumed.__setattr__(
                    "value", first[2]))
            released.start()
            start = time.monotonic()
            offset, length, _ = ring.write(b"b" * 3000,
                                           liveness=lambda:
                                           polls.append(1))
            waited = time.monotonic() - start
            assert waited >= 0.1       # actually blocked
            assert polls               # liveness polled while blocked
            assert offset == 0         # wrapped to the start
            assert bytes(ring.shm.buf[offset:offset + length]) == \
                b"b" * 3000
            released.join()
        finally:
            ring.close()

    def test_liveness_exception_escapes_the_wait(self, ctx):
        ring = FrameRing(ctx, size=4096)
        try:
            ring.write(b"a" * 3000)

            def dead():
                raise RuntimeError("worker died")

            with pytest.raises(RuntimeError, match="worker died"):
                ring.write(b"b" * 3000, liveness=dead)
        finally:
            ring.close()

    def test_close_is_idempotent_and_unlinks(self, ctx):
        ring = FrameRing(ctx, size=4096)
        name = ring.name
        assert _segment_exists(name)
        ring.close()
        assert not _segment_exists(name)
        ring.close()  # second close is a no-op


@pytest.fixture(scope="module")
def bank():
    return ClassifierBank.train(
        generate_lab_dataset(seed=7, scale=0.02),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=2, max_depth=8, random_state=0))


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("shm-bank") / "bank"
    save_bank(bank, path)
    return path


@pytest.fixture(scope="module")
def capture(bank, tmp_path_factory):
    """A small capture plus its serial-oracle state."""
    lab = generate_lab_dataset(seed=7, scale=0.02)
    packets = [p for flow in list(lab)[:30] for p in flow.packets]
    rng = SeededRNG(9)
    for i in range(400):
        tcp = TCPHeader(src_port=40000 + i % 200,
                        dst_port=8080 if i % 3 else 443,
                        seq=i, flag_ack=True)
        packets.append(make_tcp_packet(
            f"10.{i % 60}.5.2", "93.184.216.34", tcp,
            payload=rng.token_bytes(280), timestamp=5.0 + i * 0.01))
    packets.sort(key=lambda p: p.timestamp)
    path = tmp_path_factory.mktemp("shm-pcap") / "t.pcap"
    with PcapWriter(path) as writer:
        for p in packets:
            writer.write_bytes(p.to_bytes(), p.timestamp)
    oracle = ShardedPipeline(bank, num_shards=2, batch_size=4)
    ingest_pcap(oracle, path, mode="eager")
    oracle.flush()
    rows = sorted((str(r.key), r.prediction.status,
                   r.prediction.platform) for r in oracle.store)
    return path, asdict(oracle.counters), rows


def _rows(par):
    return sorted((str(r.key), r.prediction.status,
                   r.prediction.platform) for r in par.telemetry)


class TestShmPipeline:
    def test_rejects_unknown_transport(self, bank_dir):
        with pytest.raises(ValueError):
            ParallelShardedPipeline(bank_dir, num_workers=1,
                                    transport="smoke-signals")
        assert set(TRANSPORTS) == {"queue", "shm"}

    def test_tiny_ring_forces_wrap_and_backpressure(self, bank_dir,
                                                    capture):
        """With an 8 KiB ring the capture wraps the ring hundreds of
        times and the producer regularly runs into backpressure; the
        result must not move."""
        path, counters, rows = capture
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=4, transport="shm",
                                     ring_bytes=8192) as par:
            ingest_pcap(par, path, mode="bulk")
            par.flush()
            assert asdict(par.counters) == counters
            assert _rows(par) == rows

    def test_sigkilled_worker_respawns_on_fresh_ring(self, bank_dir,
                                                     capture, tmp_path):
        """PR 5 contract under shm: SIGKILL a worker mid-capture, the
        journal replays onto a respawn with a *new* ring segment, the
        old segment is unlinked, and the state matches the oracle."""
        path, counters, rows = capture
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=4, transport="shm",
                                     checkpoint_dir=tmp_path / "jrn"
                                     ) as par:
            ingest_pcap(par, path, mode="bulk")
            old_name = par._rings[1].name
            victim = par._workers[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            ingest_pcap(par, path, mode="bulk")
            par.flush()
            assert sum(par._restarts) >= 1
            assert par._rings[1].name != old_name
            assert not _segment_exists(old_name)

    def test_segments_cleaned_on_close_and_terminate(self, bank_dir,
                                                     capture):
        path, counters, rows = capture
        # normal exit
        par = ParallelShardedPipeline(bank_dir, num_workers=2,
                                      transport="shm")
        names = [ring.name for ring in par._rings]
        ingest_pcap(par, path, mode="bulk")
        par.close()
        assert not any(map(_segment_exists, names))
        # crash-style exit
        par = ParallelShardedPipeline(bank_dir, num_workers=2,
                                      transport="shm")
        names = [ring.name for ring in par._rings]
        ingest_pcap(par, path, mode="bulk")
        par.terminate()
        assert not any(map(_segment_exists, names))

    def test_queue_transport_allocates_no_segments(self, bank_dir):
        with ParallelShardedPipeline(bank_dir, num_workers=1,
                                     transport="queue") as par:
            assert all(ring is None for ring in par._rings)

    def test_rings_carry_blocks_only(self, bank_dir, capture):
        """``transport`` is how *blocks* travel: packet chunks (the
        eager oracle's ``process_packet``) ride the command queue under
        either value, so a shm runtime fed eagerly never touches its
        rings, while ``process_block`` advances them."""
        path, counters, rows = capture
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=4,
                                     transport="shm") as par:
            ingest_pcap(par, path, mode="eager")
            par.flush()
            assert [ring.written for ring in par._rings] == [0, 0]
            assert asdict(par.counters) == counters
            assert _rows(par) == rows
            with PcapReader(path) as reader:
                for block in reader.blocks():
                    par.process_block(decode_block(block))
            par.drain()
            assert all(ring.written > 0 for ring in par._rings)
