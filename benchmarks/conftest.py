"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation has one bench module;
each prints a paper-vs-measured table and persists it under
``benchmarks/results/``. Scale knobs:

* ``REPRO_BENCH_SCALE`` — fraction of Table 1's flow counts to
  synthesize (default 0.35; 1.0 reproduces the full ~10k-flow lab set);
* ``REPRO_BENCH_TREES`` — forest size for trained models (default 15);
* ``REPRO_BENCH_FOLDS`` — CV folds (default 4; the paper uses 10).

The defaults keep the full harness in the minutes range; raising them
tightens the numbers toward the paper's.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.ml import RandomForestClassifier
from repro.pipeline import ClassifierBank, RealtimePipeline
from repro.trafficgen import (
    CampusConfig,
    CampusWorkload,
    generate_lab_dataset,
    generate_openset_dataset,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
BENCH_TREES = int(os.environ.get("REPRO_BENCH_TREES", "15"))
BENCH_FOLDS = int(os.environ.get("REPRO_BENCH_FOLDS", "4"))
RESULTS_DIR = Path(__file__).parent / "results"


def bench_model_factory() -> RandomForestClassifier:
    """The deployed random-forest configuration at bench scale."""
    return RandomForestClassifier(
        n_estimators=BENCH_TREES, max_depth=20, max_features=34,
        random_state=0)


@pytest.fixture(scope="session")
def lab_dataset():
    return generate_lab_dataset(seed=7, scale=BENCH_SCALE, name="bench-lab")


@pytest.fixture(scope="session")
def openset_dataset():
    per_pair = max(4, int(40 * BENCH_SCALE))
    return generate_openset_dataset(seed=7000, flows_per_pair=per_pair)


@pytest.fixture(scope="session")
def trained_bank(lab_dataset):
    return ClassifierBank.train(lab_dataset,
                                model_factory=bench_model_factory)


@pytest.fixture(scope="session")
def campus_store(trained_bank):
    pipeline = RealtimePipeline(trained_bank)
    workload = CampusWorkload(CampusConfig(
        days=2, sessions_per_day=max(150, int(1200 * BENCH_SCALE)),
        seed=99))
    pipeline.process_flows(workload.flows())
    return pipeline.store


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


# --- committed benchmark trajectory -----------------------------------------
#
# BENCH_<name>.json at the repo root is a committed perf record:
# commit, machine context (CPU count, Python version — cross-runner
# numbers are meaningless without them), and one entry per
# (mode, workers) with pkt/s and speedup. Throughput claims live in
# benchmarks/ledger/ now; the one record left is BENCH_obs.json, whose
# absolute 0.97 floors are the <3 % observability budget: CI
# regenerates it in smoke mode (REPRO_BENCH_SMOKE=1 shrinks the
# workload) and check_bench_regression.py enforces the floors.

import json
import platform
import subprocess
import sys

BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
REPO_ROOT = Path(__file__).parent.parent


def _current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except Exception:  # replint: disable=RPL004 -- best-effort metadata: a missing git binary or shallow clone must not fail a benchmark run
        return "unknown"


def emit_bench_json(name: str, entries: list[dict]) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root.

    Each entry carries ``mode``, ``workers``, ``pkt_per_s`` and
    ``speedup`` (the ratio named by the entry's mode — see each
    bench's table for the baseline row).
    """
    payload = {
        "bench": name,
        "commit": _current_commit(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "smoke": BENCH_SMOKE,
        "entries": entries,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench] wrote {path}", file=sys.stderr)
    return path


# --- shared timing harness ---------------------------------------------------
#
# best_of() is the best-of-N perf_counter loop. Each round also lands
# in a session-wide observability registry (the same Histogram/exposition
# machinery the runtime serves on /metrics), written to
# benchmarks/results/bench_metrics.prom at session end — so a bench
# session's raw round timings are inspectable with the exact tooling
# an operator points at a live pipeline.

from repro.obs.metrics import MetricsRegistry

BENCH_METRICS = MetricsRegistry()

# Round wall times span ~50ms micro-benches to minute-long parallel
# sweeps; one shared ladder keeps the families comparable.
BENCH_SECONDS_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                         5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def best_of(fn, rounds=3, name=None):
    """Run ``fn`` ``rounds`` times and keep the fastest result.

    ``fn`` must return ``(elapsed_seconds, payload)`` — the contract
    every bench's run closure already follows. With ``name`` set, each
    round's wall time is observed into the session registry as
    ``repro_bench_seconds{bench=name}``.
    """
    hist = None
    if name is not None:
        hist = BENCH_METRICS.histogram(
            "repro_bench_seconds",
            "Per-round benchmark wall time (all rounds, not just the "
            "kept best)", {"bench": name},
            buckets=BENCH_SECONDS_BUCKETS)
    results = []
    for _ in range(rounds):
        result = fn()
        if hist is not None:
            hist.observe(result[0])
        results.append(result)
    return min(results, key=lambda r: r[0])


def pytest_sessionfinish(session, exitstatus):
    if len(BENCH_METRICS):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / "bench_metrics.prom"
        path.write_text(BENCH_METRICS.render_prometheus())
        print(f"\n[bench] wrote round-timing metrics -> {path}",
              file=sys.stderr)


# --- shared workloads --------------------------------------------------------
#
# The campus-mix frame stream (video handshakes + non-video TLS + the
# non-443 bulk that dominates a real tap) bench_obs measures
# instrumentation overhead on.

from dataclasses import replace as _dc_replace

from repro.fingerprints import (
    Provider,
    Transport,
    UserPlatform,
    get_profile,
)
from repro.net import EthernetHeader, TCPHeader, make_tcp_packet
from repro.net.rawpacket import FrameBlock
from repro.trafficgen import FlowBuildRequest, FlowFactory
from repro.util import SeededRNG

BLOCK_FRAMES = 4096


def campus_mix_frames(lab, video_flows=120, bulk_packets=12000,
                      web_flows=150):
    """(bytes, timestamp) frames of a campus-tap mix: video flows (a
    slice VLAN-tagged), non-video TLS handshakes the SNI filter
    discards after one parse, and the non-443 bulk that dominates a
    real tap, interleaved ~1:8."""
    video = []
    for i, flow in enumerate(list(lab)[:video_flows]):
        packets = flow.packets
        if i % 5 == 0:  # trunk-port slice arrives 802.1Q-tagged
            packets = tuple(
                _dc_replace(p, eth=EthernetHeader(vlan_id=112))
                for p in packets)
        video.extend(packets)
    factory = FlowFactory(SeededRNG(23))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    for i in range(web_flows):
        flow = factory.build(FlowBuildRequest(
            platform_label="windows_chrome", provider=Provider.YOUTUBE,
            transport=Transport.TCP, profile=profile,
            sni=f"www.site{i}.example.org",
            client_ip=f"10.{i % 200}.4.9",
            start_time=20.0 + i * 0.01))
        video.extend(flow.packets)
    rng = SeededRNG(17)
    bulk = []
    for i in range(bulk_packets):
        tcp = TCPHeader(src_port=40000 + i % 900, dst_port=8080,
                        seq=i * 700, flag_ack=True)
        bulk.append(make_tcp_packet(
            f"10.{i % 180}.7.2", "93.184.216.34", tcp,
            payload=rng.token_bytes(700), timestamp=30.0 + i * 5e-5))
    mixed, vi = [], iter(video)
    for i, packet in enumerate(bulk):
        mixed.append(packet)
        if i % 8 == 0:
            nxt = next(vi, None)
            if nxt is not None:
                mixed.append(nxt)
    mixed.extend(vi)
    return [(p.to_bytes(), p.timestamp) for p in mixed]


def blocks_of(frames, block_frames=BLOCK_FRAMES):
    """Pre-addressed capture blocks — the shape a DPDK-style delivery
    hands the pipeline, built outside every timed region."""
    return [FrameBlock.from_frames(frames[i:i + block_frames])
            for i in range(0, len(frames), block_frames)]
