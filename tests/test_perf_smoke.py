"""Perf regression guard (marked ``perf``; deselect with -m "not perf").

A vectorization regression in the packed forest, the batch encoder,
``classify_batch`` grouping, or the bulk ingest layer would
silently rot throughput while every functional test stays green. Three
floors are pinned here: on a 500-flow corpus the batched classification
path must not be slower than the per-flow path; on a bulk-dominated
campus trace the block ingest path (``decode_block`` +
``process_block``) must not be slower than eager per-packet
``Packet.from_bytes``; and on a 443-heavy mix the
multiprocess shard runtime must reach ≥1.5x pkt/s at 4 workers vs 1
(machines with ≥4 cores only — fewer cores time-slice the workers and
there is nothing to scale onto). In practice every floor clears with
margin; the assertions only fail on genuine regressions.
"""

import os
import time

import pytest

from repro.features.extract import extract_attributes, parse_flow_handshake
from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.fingerprints.providers import detect_provider
from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, Packet, TCPHeader, decode_block, make_tcp_packet
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    RealtimePipeline,
    save_bank,
)
from repro.trafficgen import FlowBuildRequest, FlowFactory, generate_lab_dataset
from repro.util import SeededRNG


@pytest.mark.perf
def test_batched_classification_not_slower():
    lab = generate_lab_dataset(seed=33, scale=0.06)
    bank = ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=8, max_depth=16, random_state=1),
    )
    flows = list(lab)[:500]
    assert len(flows) >= 400  # corpus sanity
    items = []
    for flow in flows:
        record = parse_flow_handshake(flow.packets)
        items.append((detect_provider(record.sni), record.transport,
                      extract_attributes(record)))

    bank.classify_batch(items)  # warm packed-forest caches

    def time_single():
        start = time.perf_counter()
        predictions = [bank.classify(p, t, a) for p, t, a in items]
        return time.perf_counter() - start, predictions

    def time_batched():
        start = time.perf_counter()
        predictions = bank.classify_batch(items)
        return time.perf_counter() - start, predictions

    t_single, ref = min((time_single() for _ in range(3)),
                        key=lambda r: r[0])
    t_batched, batch = min((time_batched() for _ in range(3)),
                           key=lambda r: r[0])
    assert batch == ref  # perf must never come at the cost of fidelity
    assert t_batched <= t_single, (
        f"batched path slower than per-flow path: "
        f"{t_batched:.3f}s vs {t_single:.3f}s over {len(items)} flows")


@pytest.mark.perf
def test_raw_ingest_not_slower_than_eager():
    """Ingest floor: on a campus-mix trace dominated by non-video bulk
    (the regime the paper's tap lives in), the raw frames packed into a
    block and fed through ``decode_block`` + ``process_block`` must beat
    feeding eager ``Packet.from_bytes`` packets one by one — and must
    produce identical counters and telemetry while doing it."""
    lab = generate_lab_dataset(seed=44, scale=0.04)
    bank = ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=6, max_depth=14, random_state=1),
    )
    video = [pkt for flow in list(lab)[:60] for pkt in flow.packets]
    rng = SeededRNG(3)
    bulk = []
    for i in range(3000):
        tcp = TCPHeader(src_port=40000 + i % 700, dst_port=8080,
                        seq=i * 512, flag_ack=True)
        bulk.append(make_tcp_packet(
            f"10.{i % 120}.9.1", "93.184.216.34", tcp,
            payload=rng.token_bytes(600), timestamp=5.0 + i * 1e-4))
    packets = video + bulk
    frames = [(p.to_bytes(), p.timestamp) for p in packets]

    def time_eager():
        pipeline = RealtimePipeline(bank, batch_size=32)
        start = time.perf_counter()
        for data, timestamp in frames:
            pipeline.process_packet(Packet.from_bytes(data, timestamp))
        pipeline.flush()
        return time.perf_counter() - start, pipeline

    def time_raw():
        pipeline = RealtimePipeline(bank, batch_size=32)
        start = time.perf_counter()
        pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))
        pipeline.flush()
        return time.perf_counter() - start, pipeline

    t_eager, ref = min((time_eager() for _ in range(3)),
                       key=lambda r: r[0])
    t_raw, fast = min((time_raw() for _ in range(3)),
                      key=lambda r: r[0])
    assert fast.counters == ref.counters
    assert list(fast.store) == list(ref.store)
    assert t_raw <= t_eager, (
        f"block ingest slower than eager from_bytes: "
        f"{t_raw:.3f}s vs {t_eager:.3f}s over {len(frames)} frames")


@pytest.mark.perf
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="scaling floor needs >= 4 cores")
def test_parallel_workers_scale_throughput(tmp_path):
    """Parallel-runtime floor: on a 443-heavy mix (per-packet work
    concentrated in the workers, not the routing parent) 4 worker
    processes must reach ≥1.5x the pkt/s of 1 worker — and produce
    identical counters while doing it. Measured headroom: the
    worker-side pipeline costs ~6-7x the parent-side routing per
    frame, so the parent leaves ~4x of scaling on the table for the
    workers to claim; 1.5x only fails on a genuine serialization
    regression (routing grown expensive, chunking gone, a new barrier
    per frame)."""
    lab = generate_lab_dataset(seed=52, scale=0.05)
    bank = ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=6, max_depth=14, random_state=1))
    bank_dir = tmp_path / "bank"
    save_bank(bank, bank_dir)
    packets = [p for flow in list(lab)[:150] for p in flow.packets]
    factory = FlowFactory(SeededRNG(31))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    for i in range(600):
        flow = factory.build(FlowBuildRequest(
            platform_label="windows_chrome", provider=Provider.YOUTUBE,
            transport=Transport.TCP, profile=profile,
            sni=f"www.site{i}.example.org",
            client_ip=f"10.{i % 200}.4.{1 + i // 200}",
            start_time=20.0 + i * 0.01))
        packets.extend(flow.packets)
    packets.sort(key=lambda p: p.timestamp)
    frames = [(p.to_bytes(), p.timestamp) for p in packets]

    def run(workers):
        with ParallelShardedPipeline(bank_dir, num_workers=workers,
                                     batch_size=64) as pipeline:
            start = time.perf_counter()
            pipeline.process_block(
                decode_block(FrameBlock.from_frames(frames)))
            pipeline.flush()
            elapsed = time.perf_counter() - start
            return elapsed, pipeline.counters

    t_one, ref = min((run(1) for _ in range(2)), key=lambda r: r[0])
    t_four, counters = min((run(4) for _ in range(2)),
                           key=lambda r: r[0])
    assert counters == ref
    scaling = t_one / t_four
    assert scaling >= 1.5, (
        f"4 workers reached only {scaling:.2f}x of 1 worker "
        f"({len(frames) / t_four:,.0f} vs {len(frames) / t_one:,.0f} "
        f"pkt/s) — below the 1.5x floor")
