"""The system under test for the batch workloads, as its own process.

``python batch.py SPEC.json`` (``PYTHONPATH`` = ``src`` + this directory,
set by ``ledger.Run``) loads the bank, builds the runtime the spec
names (``serial``: one ``RealtimePipeline`` per round; ``parallel``:
one long-lived ``ParallelShardedPipeline``), prints ``READY`` once it
could take its first frame, then runs closed-loop rounds over the
capture file — one discarded warm-up, then timed rounds until the
spec's seconds are spent — and prints one JSON result line. A round is
what an operator waits for: ingest, flush, merged counters, rendered
§5.2 report.

A fresh process per workload keeps ``peak_rss_mb`` clean (the dataset,
the training run and the trace generator live in the parent) and
carries no cache warmth across workloads. With ``traced`` set the
pipeline is built with ``metrics=True`` and driven through
:class:`measure.TimedPipeline`, which records a span around every
``process_block`` / ``flush_idle`` the real ``ingest_pcap`` issues.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

import measure
import product
from repro.pipeline import load_bank
from repro.reporting import render_rollup_report


def _round(pipeline: Any, pcap: str, spans: measure.Spans | None,
           prefix: str) -> tuple[float, dict, str]:
    start = time.perf_counter()
    if spans is None:
        product.ingest(pipeline, pcap)
        pipeline.flush()
        counters = pipeline.counters
        report = render_rollup_report(pipeline.rollup)
    else:
        timed = measure.TimedPipeline(pipeline, spans, prefix,
                                      watch_live=prefix == "engine.")
        with spans.span(prefix + "ingest"):
            product.ingest(timed, pcap)
        timed.sample_live()
        with spans.span(prefix + "flush"):
            pipeline.flush()
        with spans.span(prefix + "sync"):
            counters = pipeline.counters
            cube = pipeline.rollup
        with spans.span(prefix + "render"):
            report = render_rollup_report(cube)
    wall = time.perf_counter() - start
    return wall, asdict(counters), \
        hashlib.sha256(report.encode()).hexdigest()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    parallel = spec["runtime"] == "parallel"
    prefix = "parallel." if parallel else "engine."
    if parallel:
        shared = product.parallel_pipeline(
            spec["bank_dir"], **({"metrics": True} if spec["traced"] else {}))
        shared.counters  # first barrier: every worker has its bank
        make = lambda metrics: shared  # noqa: E731
    else:
        bank = load_bank(spec["bank_dir"])
        shared = None
        make = lambda metrics: product.serial_pipeline(  # noqa: E731
            bank, **({"metrics": True} if metrics else {}))
    print("READY", flush=True)
    try:
        result = _rounds(spec, make, prefix)
    finally:
        if shared is not None:
            shared.close()
    print(json.dumps(result), flush=True)
    return 0


def _rounds(spec: dict, make: Any, prefix: str) -> dict[str, Any]:
    """One discarded warm-up, then timed rounds until the spec's
    seconds are spent (at least ``min_rounds``), each with its wall
    time and the process tree's CPU seconds.

    With ``reference`` set every traced round is preceded by a
    tracing-off round on a fresh plain pipeline: the two kinds
    alternate, so whatever else the host is doing falls on both alike
    and their difference is the tracing overhead."""
    pcap, traced = spec["pcap"], spec["traced"]
    spans = measure.Spans() if traced else None
    _, *warmup = _round(make(False), pcap, None, prefix)
    me = os.getpid()
    workers = measure.process_tree(me)[1:]
    walls, reference_walls, counters, reports = [], [], [], []
    cpu_parent, cpu_workers = [], []
    pipeline = None
    began = time.perf_counter()
    while len(walls) < spec["min_rounds"] \
            or time.perf_counter() - began < spec["seconds"]:
        if spec["reference"]:
            wall, count, digest = _round(make(False), pcap, None, prefix)
            reference_walls.append(wall)
            counters.append(count)
            reports.append(digest)
        pipeline = make(traced)
        # A round ends behind a worker barrier, so the tree's CPU
        # between these two readings is the round's own.
        before = measure.cpu_seconds([me]), measure.cpu_seconds(workers)
        wall, count, digest = _round(pipeline, pcap, spans, prefix)
        cpu_parent.append(measure.cpu_seconds([me]) - before[0])
        cpu_workers.append(measure.cpu_seconds(workers) - before[1])
        walls.append(wall)
        counters.append(count)
        reports.append(digest)
        if spans is not None:
            spans.round += 1
    result = {
        "warmup": warmup, "walls": walls,
        "reference_walls": reference_walls,
        "counters": counters, "reports": reports,
        "cpu_parent_s": cpu_parent, "cpu_workers_s": cpu_workers,
        "workers": len(workers),
        "peak_rss_mb": measure.peak_rss_mb([me, *workers]),
    }
    if spans is not None:
        registry = pipeline.export_metrics()
        result["export"] = {
            name: registry.value(name) or 0 for name in (
                "repro_promotions_total", "repro_shm_ring_waits_total",
                "repro_shm_ring_wait_seconds_total")}
        names = sorted({entry[0] for entry in spans.log})
        result["spans"] = {name: spans.per_round(name) for name in names}
        result["span_counts"] = {name: spans.count(name) / spans.round
                                 for name in names}
        result["live_flows_peak"] = spans.peaks.get("live_flows", 0)
    return result


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
