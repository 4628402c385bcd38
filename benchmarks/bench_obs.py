"""Observability overhead: instrumented vs uninstrumented pkt/s.

The observability plane (``repro.obs``) promises to be no-op-cheap:
count metrics derive from the counters the pipeline already maintains,
and timing spans wrap batch-level operations only. This bench holds
that promise to a number — a campus-mix stream through the bulk
ingest path with metrics disabled and enabled, asserting the enabled
mode stays within 3% (the
ISSUE budget; encoded as ``floor: 0.97`` in the committed
``BENCH_obs.json``, which ``check_bench_regression.py`` enforces as an
absolute floor on regenerated runs). The 4-worker shm runtime is
measured and recorded too, without an assertion: its ratio is
dominated by transport and scheduling noise on shared CI runners.

Counters must be identical between the instrumented and plain runs —
measurement must never perturb the measured values — and the enabled
run's exported registry must agree with its own counters.
"""

import os
import shutil
import tempfile
import time

from conftest import (
    BENCH_SMOKE,
    bench_model_factory,
    best_of,
    blocks_of,
    campus_mix_frames,
    emit,
    emit_bench_json,
)

from repro.net.rawpacket import decode_block
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    RealtimePipeline,
    save_bank,
)
from repro.trafficgen import generate_lab_dataset
from repro.util import format_table

# The enabled/disabled budget: enabled must reach >=97% of disabled
# pkt/s (i.e. <=3% overhead) on the serial bulk path.
OVERHEAD_FLOOR = 0.97


def test_obs_overhead():
    lab = generate_lab_dataset(seed=55, scale=0.08, name="bench-obs")
    bank = ClassifierBank.train(lab, model_factory=bench_model_factory)
    mix_scale = 1 if BENCH_SMOKE else 3
    frames = campus_mix_frames(lab, video_flows=40 * mix_scale,
                               web_flows=50 * mix_scale,
                               bulk_packets=4000 * mix_scale)
    n = len(frames)
    blocks = blocks_of(frames)

    def run_bulk(metrics):
        def run():
            pipeline = RealtimePipeline(bank, batch_size=64,
                                        metrics=metrics)
            start = time.perf_counter()
            for block in blocks:
                pipeline.process_block(decode_block(block))
            pipeline.flush()
            return time.perf_counter() - start, pipeline
        return run

    # Interleave enabled/disabled through best_of so thermal/cache
    # drift over the session cannot bias one side.
    t_bulk_off, bplain = best_of(run_bulk(False),
                                 name="obs-bulk-disabled")
    t_bulk_on, binst = best_of(run_bulk(True), name="obs-bulk-enabled")

    # Measurement must never perturb the measurement target.
    assert binst.counters == bplain.counters
    # And the exported registry must agree with the pipeline's own
    # counters (the derive-at-export contract).
    registry = binst.export_metrics()
    assert registry.value("repro_packets_total") == \
        binst.counters.packets
    assert registry.value("repro_stage_seconds",
                          {"stage": "classify_drain"})[0] > 0

    bulk_ratio = t_bulk_off / t_bulk_on

    # --- 4-worker shm runtime, recorded without an assertion ---------
    bank_dir = tempfile.mkdtemp(prefix="repro-bench-obank-")
    save_bank(bank, bank_dir)

    def run_parallel(metrics):
        def run():
            with ParallelShardedPipeline(
                    bank_dir, num_workers=4, batch_size=64,
                    transport="shm", metrics=metrics) as pipeline:
                start = time.perf_counter()
                for block in blocks:
                    pipeline.process_block(decode_block(block))
                pipeline.flush()
                elapsed = time.perf_counter() - start
                return elapsed, pipeline.counters
        return run

    try:
        t_par_off, pc_plain = best_of(run_parallel(False), rounds=2,
                                      name="obs-shm-disabled")
        t_par_on, pc_inst = best_of(run_parallel(True), rounds=2,
                                    name="obs-shm-enabled")
    finally:
        shutil.rmtree(bank_dir, ignore_errors=True)
    assert pc_inst == pc_plain
    par_ratio = t_par_off / t_par_on

    emit("obs_overhead", format_table(
        ("ingest path", "disabled pkt/s", "enabled pkt/s",
         "enabled/disabled"),
        [
            ("bulk decode_block", f"{n / t_bulk_off:,.0f}",
             f"{n / t_bulk_on:,.0f}", f"{bulk_ratio:.3f}x"),
            ("shm + bulk, 4 workers", f"{n / t_par_off:,.0f}",
             f"{n / t_par_on:,.0f}", f"{par_ratio:.3f}x"),
        ],
        title=f"Observability overhead — {n:,} packets, campus mix, "
              f"{os.cpu_count()} cores (floor {OVERHEAD_FLOOR}x on "
              f"the serial path)"))

    emit_bench_json("obs", [
        {"mode": "bulk-disabled", "workers": 1,
         "pkt_per_s": round(n / t_bulk_off), "speedup": 1.0},
        {"mode": "bulk-enabled", "workers": 1,
         "pkt_per_s": round(n / t_bulk_on),
         "speedup": round(bulk_ratio, 3), "floor": OVERHEAD_FLOOR},
        {"mode": "shm-bulk-disabled", "workers": 4,
         "pkt_per_s": round(n / t_par_off), "speedup": 1.0},
        {"mode": "shm-bulk-enabled", "workers": 4,
         "pkt_per_s": round(n / t_par_on),
         "speedup": round(par_ratio, 3)},
    ])

    assert bulk_ratio >= OVERHEAD_FLOOR, (
        f"metrics-enabled bulk ingest at {bulk_ratio:.3f}x of "
        f"disabled — over the 3% overhead budget "
        f"({n / t_bulk_on:,.0f} vs {n / t_bulk_off:,.0f} pkt/s)")
