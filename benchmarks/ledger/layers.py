"""Standalone replays: one layer at a time, on the workload's own inputs.

The layers that only ever run *inside* ``process_block`` (handshake
parse, QUIC unprotect, attribute extraction, the forest pass, frame
promotion), inside a parallel parent's ``process_block`` (shard
routing, chunk packing, the ring copy) or behind a barrier (cube
snapshot, merge, report render) cannot be seen from outside while the
product runs. Each is replayed here through its public function on
exactly the inputs the workload feeds it — the generator kept every
flow's ground-truth packets — and timed alone. ``ledger.traced``
subtracts the in-``process_block`` replays from the engine's inclusive
span to get the flow table's self time.

Whole-file replays (``*_s`` metrics without a per-item unit) cover the
same capture file a round ingests, so they compare directly with a
round's spans. Per-item replays cover one epoch.

Every replay function returns raw totals — seconds under ``*_s`` keys,
counts and sizes under the rest — and runs :data:`REPEATS` times; per
timing the smallest total is kept (a neighbour on the host can only
add time), and :func:`replay_all` derives the named metrics from those.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

import product
import traces
from repro.features.extract import extract_attributes, parse_flow_handshake
from repro.fingerprints import Transport, detect_provider
from repro.net.pcap import PcapReader
from repro.net.rawpacket import FrameBlock, decode_block
from repro.pipeline import ClassifierBank, RealtimePipeline
from repro.pipeline.confidence import DEFAULT_CONFIDENCE_THRESHOLD
from repro.pipeline.sharded import partition_https_indices
from repro.pipeline.shmring import DEFAULT_RING_BYTES, FrameRing, RingReader
from repro.quic.initial import unprotect_client_initial
from repro.reporting import render_rollup_report
from repro.service.sources import PcapTailSource
from repro.telemetry import RollupCube, load_rollup, save_rollup

REPEATS = 2
_clock = time.perf_counter


def _each(call: Callable[[Any], Any], items: Iterable[Any]
          ) -> tuple[float, list[Any]]:
    """Total seconds spent in ``call(item)`` over ``items`` (loop
    overhead excluded), and the results."""
    total = 0.0
    out = []
    for item in items:
        start = _clock()
        result = call(item)
        total += _clock() - start
        out.append(result)
    return total, out


def _quietest(replay: Callable[..., dict[str, float]],
              *args: Any) -> dict[str, float]:
    """``replay(*args)`` :data:`REPEATS` times; per ``*_s`` total, the
    smallest (counts and sizes repeat exactly)."""
    best = replay(*args)
    for _ in range(REPEATS - 1):
        for key, value in replay(*args).items():
            if key.endswith("_s"):
                best[key] = min(best[key], value)
    return best


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*")
               if f.is_file()) / 2**20


def capture_file(pcap: Path) -> dict[str, float]:
    """``net.pcap`` read, ``net.rawpacket`` decode, and the parallel
    parent's routing / packing / ring layers over the whole file."""
    workers = product.PINNED_KNOBS["num_workers"][0]
    read_s = decode_s = partition_s = pack_s = unpack_s = ring_s = 0.0
    frames = https = invalid = pack_bytes = 0
    per_shard = [0] * workers
    cache: dict = {}
    ring = FrameRing(multiprocessing.get_context("spawn"),
                     DEFAULT_RING_BYTES)
    try:
        reader = RingReader(ring.name, ring.consumed)
        try:
            with PcapReader(pcap) as capture:
                blocks = capture.blocks()
                while True:
                    start = _clock()
                    block = next(blocks, None)
                    read_s += _clock() - start
                    if block is None:
                        break
                    start = _clock()
                    decoded = decode_block(block)
                    decode_s += _clock() - start
                    frames += len(block)
                    https += int(decoded.https_indices.size)
                    invalid += decoded.invalid_count
                    start = _clock()
                    lanes = partition_https_indices(decoded, workers, cache)
                    partition_s += _clock() - start
                    for shard, indices in enumerate(lanes):
                        per_shard[shard] += len(indices)
                        if not indices:
                            continue
                        start = _clock()
                        chunks = list(block.pack_chunks(
                            indices, max_bytes=DEFAULT_RING_BYTES // 4))
                        pack_s += _clock() - start
                        for chunk in chunks:
                            pack_bytes += len(chunk)
                            start = _clock()
                            FrameBlock.unpack(chunk)
                            unpack_s += _clock() - start
                            start = _clock()
                            offset, length, after = ring.write(chunk)
                            view = reader.view(offset, length)
                            del view
                            reader.release(after)
                            ring_s += _clock() - start
        finally:
            reader.close()
    finally:
        ring.close()
    return {"read_s": read_s, "decode_s": decode_s,
            "partition_s": partition_s, "pack_s": pack_s,
            "unpack_s": unpack_s, "ring_s": ring_s, "frames": frames,
            "https": https, "invalid": invalid, "pack_bytes": pack_bytes,
            "skew": max(per_shard) / max(1.0, https / workers)}


def handshake_leaves(epoch: traces.Epoch, bank: ClassifierBank
                     ) -> dict[str, float]:
    """The leaves under ``process_block``, per flow of one epoch, fed
    what the engine feeds them: a TCP flow's packets up to the
    ClientHello, a QUIC flow's Initial."""
    flows = epoch.flows
    tcp = [f.packets[:4] for f in flows if f.transport is Transport.TCP]
    quic = [f.packets[:1] for f in flows if f.transport is Transport.QUIC]
    tcp_s, tcp_records = _each(parse_flow_handshake, tcp)
    quic_s, quic_records = _each(parse_flow_handshake, quic)
    unprotect_s, _ = _each(unprotect_client_initial,
                           [bytes(p[0].payload) for p in quic])
    video = []
    for record in tcp_records + quic_records:
        provider = detect_provider(record.sni)
        if provider is not None and \
                bank.has_scenario(provider, record.transport):
            video.append((provider, record))
    attributes_s, attributes = _each(
        lambda item: extract_attributes(item[1]), video)
    items = [(provider, record.transport, values)
             for (provider, record), values in zip(video, attributes)]
    batch = product.PINNED_KNOBS["batch_size"][0]
    batches = [items[i:i + batch] for i in range(0, len(items), batch)]
    classify_s, _ = _each(
        lambda chunk: bank.classify_batch(chunk,
                                          DEFAULT_CONFIDENCE_THRESHOLD),
        batches)
    # The engine promotes exactly the packets it then parses.
    block = FrameBlock.from_frames(
        (p.to_bytes(), p.timestamp) for packets in tcp + quic
        for p in packets)
    decoded = decode_block(block)
    promote_s, _ = _each(decoded.promote, range(len(block)))
    return {"tcp_s": tcp_s, "quic_s": quic_s, "unprotect_s": unprotect_s,
            "attributes_s": attributes_s, "classify_s": classify_s,
            "promote_s": promote_s, "tcp": len(tcp), "quic": len(quic),
            "video": len(video), "batches": len(batches),
            "promoted": len(block)}


def state_layers(one_epoch: Path, frames: int, bank: ClassifierBank,
                 work: Path) -> dict[str, float]:
    """Telemetry, reporting and checkpoint layers on the state one
    epoch produces: the cube's records, and the flow table at its
    mid-epoch peak."""
    pipeline = product.serial_pipeline(bank, retention="both")
    product.ingest(pipeline, one_epoch)
    pipeline.flush()
    records = list(pipeline.store)
    cube = RollupCube()
    ingest_s, _ = _each(cube.ingest, records)
    halves = []
    for part in (records[::2], records[1::2]):
        half = RollupCube()
        half.ingest_many(part)
        halves.append(half)
    merged = RollupCube()
    merge_s, _ = _each(merged.merge_from, halves)
    snap = work / "replay-rollup"
    save_s, _ = _each(lambda path: save_rollup(cube, path), [snap])
    load_s, _ = _each(load_rollup, [snap])
    render_s, _ = _each(render_rollup_report, [cube])

    live = product.serial_pipeline(bank)
    seen = 0
    with PcapReader(one_epoch) as capture:
        for block in capture.blocks():
            live.process_block(decode_block(block))
            seen += len(block)
            if seen >= frames // 2:
                break
    live_flows = live.live_flows
    ckpt = work / "replay-checkpoint"
    ckpt_save_s, _ = _each(live.save_checkpoint, [ckpt])
    restore_s, _ = _each(
        lambda path: RealtimePipeline.restore(path, bank), [ckpt])
    return {"ingest_s": ingest_s, "merge_s": merge_s, "save_s": save_s,
            "load_s": load_s, "render_s": render_s,
            "ckpt_save_s": ckpt_save_s, "restore_s": restore_s,
            "records": len(records), "cells": len(cube),
            "live_flows": live_flows,
            "snapshot_mb": _dir_mb(snap), "checkpoint_mb": _dir_mb(ckpt)}


def tail_source(one_epoch: Path, frames: int) -> dict[str, float]:
    """``PcapTailSource.poll`` alone: the daemon's read path with no
    pipeline behind it."""
    source = PcapTailSource(one_epoch)
    source.open()
    try:
        start = _clock()
        while source.poll(1024, timeout=0.0):
            pass
        elapsed = _clock() - start
    finally:
        source.close()
    if source.consumed != frames:
        raise RuntimeError(f"tail source read {source.consumed} of "
                           f"{frames} frames")
    return {"poll_s": elapsed}


def replay_all(epoch: traces.Epoch, full: Path, one_epoch: Path,
               bank: ClassifierBank, work: Path) -> dict[str, float]:
    """Every replay, quietest of :data:`REPEATS`, as named metrics —
    plus ``_leaf_s`` / ``_promote_s``, the seconds per epoch the
    ledger subtracts from the engine's inclusive span."""
    file = _quietest(capture_file, full)
    leaf = _quietest(handshake_leaves, epoch, bank)
    state = _quietest(state_layers, one_epoch, epoch.frames, bank, work)
    tail = _quietest(tail_source, one_epoch, epoch.frames)
    frames, https = file["frames"], max(1, file["https"])
    mib = 2**20
    return {
        "net.pcap.read_s": file["read_s"],
        "net.pcap.ns_per_frame": file["read_s"] / frames * 1e9,
        "net.pcap.mb": full.stat().st_size / mib,
        "net.rawpacket.decode_s": file["decode_s"],
        "net.rawpacket.decode_ns_per_frame":
            file["decode_s"] / frames * 1e9,
        "net.rawpacket.https_lane_share": file["https"] / frames,
        "net.rawpacket.invalid_frames": file["invalid"],
        "pipeline.sharded.partition_s": file["partition_s"],
        "pipeline.sharded.partition_ns_per_https_frame":
            file["partition_s"] / https * 1e9,
        "pipeline.sharded.shard_skew": file["skew"],
        "net.rawpacket.pack_s": file["pack_s"],
        "net.rawpacket.pack_mb": file["pack_bytes"] / mib,
        "net.rawpacket.unpack_s": file["unpack_s"],
        "pipeline.shmring.write_mb_per_s":
            file["pack_bytes"] / mib / file["ring_s"],
        "features.extract.parse_tcp_us_per_flow":
            leaf["tcp_s"] / leaf["tcp"] * 1e6,
        "features.extract.parse_quic_us_per_flow":
            leaf["quic_s"] / leaf["quic"] * 1e6,
        "features.extract.flows_tcp": leaf["tcp"],
        "features.extract.flows_quic": leaf["quic"],
        "quic.initial.unprotect_us_per_datagram":
            leaf["unprotect_s"] / leaf["quic"] * 1e6,
        "features.extract.attributes_us_per_flow":
            leaf["attributes_s"] / leaf["video"] * 1e6,
        "pipeline.bank.classify_us_per_flow":
            leaf["classify_s"] / leaf["video"] * 1e6,
        "pipeline.bank.batches": leaf["batches"],
        "net.rawpacket.promote_us_per_pkt":
            leaf["promote_s"] / leaf["promoted"] * 1e6,
        "_leaf_s": leaf["tcp_s"] + leaf["quic_s"] + leaf["attributes_s"]
        + leaf["classify_s"],
        "_promote_s": leaf["promote_s"],
        "telemetry.rollup.ingest_us_per_record":
            state["ingest_s"] / state["records"] * 1e6,
        "telemetry.rollup.cells": state["cells"],
        "telemetry.rollup.merge_s": state["merge_s"],
        "telemetry.snapshot.save_s": state["save_s"],
        "telemetry.snapshot.load_s": state["load_s"],
        "telemetry.snapshot.mb": state["snapshot_mb"],
        "reporting.rollup_report.render_ms": state["render_s"] * 1e3,
        "pipeline.checkpoint.save_s": state["ckpt_save_s"],
        "pipeline.checkpoint.restore_s": state["restore_s"],
        "pipeline.checkpoint.mb": state["checkpoint_mb"],
        "pipeline.checkpoint.kb_per_flow":
            state["checkpoint_mb"] * 1024 / state["live_flows"],
        "service.sources.tail_poll_frames_per_s":
            epoch.frames / tail["poll_s"],
    }
