"""Orchestration of one workload run: set-up, oracle, the system under
test in its own process, and the metrics both passes report.

The parent process (this module) is generator, oracle and accountant;
it never runs a timed round itself. Everything it writes lives in one
work directory inside the checkout, removed on exit; children get the
same directory as ``TMPDIR`` so the product's own temp files (worker
rollup snapshots) stay inside it too.

Two passes per workload, never mixed:

* :func:`end_to_end` — tracing off. The workload's own runtime runs
  closed-loop rounds (or the live phases) for the run's seconds and
  yields the four end-to-end metrics.
* :func:`traced` — the stage ledger of the workload's *trace*: the
  serial engine with spans, the standalone layer replays, the parallel
  runtime with spans, and the live daemon with per-endpoint latency
  split, each in turn on the same bytes. Every per-layer metric is
  therefore measured on both traffic shapes; workloads that share a
  trace share a ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import layers
import live
import measure
import product
import traces
from repro.pipeline import load_bank
from repro.reporting import render_rollup_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: name -> (trace, runtime). The ``why`` of each lives in BENCHMARK.json.
WORKLOADS = {
    "tap_onoff": ("onoff", "serial"),
    "handshake_storm": ("storm", "serial"),
    "parallel_onoff": ("onoff", "parallel"),
    "parallel_storm": ("storm", "parallel"),
    "serve_live": ("onoff", "serve"),
}

SETUP_REPEATS = 3      # set-up is timed this often; the median is reported
EAGER_FRAMES = 6000    # prefix of the epoch the eager oracle re-parses
MIN_ROUNDS = 3
LEDGER_PAIRS = 5       # tracing-off / traced round pairs behind the ledger


@dataclass
class Run:
    """What one invocation is asked to do."""

    seed: int
    seconds: float
    scale: str
    work: Path
    env: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # One hash seed for every child: string-keyed dict layout (flow
        # tables, caches) otherwise differs from process to process.
        self.env = {**os.environ, "TMPDIR": str(tmp),
                    "PYTHONHASHSEED": "0",
                    "PYTHONPATH": os.pathsep.join(
                        (str(ROOT / "src"), str(HERE)))}
        # This process too: multiprocessing and tempfile must not stray
        # outside the checkout either.
        os.environ["TMPDIR"] = str(tmp)


@dataclass
class Checks:
    """Correctness gates: how many were attempted, which failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Prepared:
    """The generated inputs of one trace, and their oracle."""

    epoch: traces.Epoch
    full: Path              # the capture file a round ingests
    frames: int
    build_s: float          # generating the base epoch
    write_s: float          # writing the capture files
    counters: dict[str, int] = field(default_factory=dict)
    report_sha: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _serial_reference(bank: Any, pcap: Path, **override: Any
                      ) -> tuple[dict[str, int], str]:
    """Counters and report of one serial pass (oracle side)."""
    pipeline = product.serial_pipeline(bank)
    product.ingest(pipeline, pcap, **override)
    pipeline.flush()
    return asdict(pipeline.counters), render_rollup_report(pipeline.rollup)


def _fifo_reference(run: Run, bank: Any, epoch: traces.Epoch, epochs: int
                    ) -> tuple[dict[str, int], str]:
    """:func:`_serial_reference` over ``epochs`` epochs that never
    touch the disk: a thread feeds them through a FIFO (a dozen epochs
    are over a gigabyte)."""
    fifo = run.work / "oracle.pcap"
    os.mkfifo(fifo)
    feeder = threading.Thread(target=epoch.write_pcap, daemon=True,
                              args=(fifo, epochs))
    feeder.start()
    try:
        return _serial_reference(bank, fifo)
    finally:
        feeder.join()
        fifo.unlink()


def prepare(run: Run, trace: str) -> Prepared:
    """Build the trace and write the capture file a round ingests."""
    spec = traces.spec_for(trace, run.scale)
    start = time.perf_counter()
    epoch = traces.build_epoch(spec, run.seed)
    built = time.perf_counter()
    full = run.work / f"{trace}.pcap"
    frames = epoch.write_pcap(full, spec.epochs)
    return Prepared(epoch, full, frames, built - start,
                    time.perf_counter() - built)


def oracle(run: Run, prepared: Prepared, checks: Checks) -> Any:
    """Establish what a correct run outputs, and that the fast path
    agrees with the eager oracle: eager == bulk (counters and report
    bytes) on a prefix of the epoch; full-trace counters additive in
    epochs. Leaves the full-trace counters and report on ``prepared``
    for the runtimes to be held against; returns the loaded bank."""
    bank = load_bank(run.work / "bank")
    epoch = prepared.epoch
    prefix = run.work / "prefix.pcap"
    with open(prefix, "wb") as fh:
        fh.write(traces.PCAP_GLOBAL_HEADER)
        epoch.write_records(fh, 0, min(EAGER_FRAMES, epoch.frames))
    checks.expect(_serial_reference(bank, prefix, mode="eager")
                  == _serial_reference(bank, prefix),
                  "eager != bulk on the epoch prefix")
    single, _ = _fifo_reference(run, bank, epoch, 1)
    counters, report = _serial_reference(bank, prepared.full)
    epochs = epoch.spec.epochs
    expected = {name: value * epochs for name, value in single.items()}
    expected["evicted"] = (epochs - 1) * single["flows"]
    checks.expect(counters == expected,
                  f"counters not additive over {epochs} epochs")
    prepared.counters, prepared.report_sha = counters, _sha(report)
    return bank


# -- the system under test, as a child process --------------------------------

def batch_child(run: Run, runtime: str, pcap: Path, seconds: float,
                traced: bool = False, reference: bool = False,
                min_rounds: int = MIN_ROUNDS, layout: int = 0
                ) -> tuple[float, dict[str, Any]]:
    """Run ``batch.py``; returns (seconds from process start to READY,
    its result). ``reference`` alternates a tracing-off round with
    every traced one; ``layout`` picks the child's memory layout (see
    :func:`layout_env`)."""
    spec = run.work / "child.json"
    spec.write_text(json.dumps({
        "runtime": runtime, "bank_dir": str(run.work / "bank"),
        "pcap": str(pcap), "seconds": seconds, "min_rounds": min_rounds,
        "traced": traced, "reference": reference}))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "batch.py"),
                           str(spec)], env=layout_env(run, layout),
                          text=True, stdout=subprocess.PIPE) as child:
        ready = child.stdout.readline().strip()
        ready_s = time.perf_counter() - start
        output = child.stdout.read()
        code = child.wait()
    if ready != "READY" or code != 0:
        raise RuntimeError(f"batch child failed (exit {code}): "
                           f"{ready!r} {output[-2000:]!r}")
    return ready_s, json.loads(output.strip().splitlines()[-1])


def layout_env(run: Run, layout: int) -> dict[str, str]:
    """The children's environment, padded by ``layout`` KB.

    The per-packet path is a lottery over memory layout: the same
    child on the same bytes runs 513k-593k frames/s depending on
    nothing but the size of its environment block or of an allocation
    made before it starts (README, "The layout lottery") — which is
    also what an unrelated code change re-rolls. So the end-to-end pass
    measures through several children, each started with a different
    environment size, and pools their rounds."""
    return {**run.env, "LEDGER_LAYOUT": "x" * (1000 * layout)}


def _check_rounds(result: dict[str, Any], prepared: Prepared,
                  cumulative: bool, checks: Checks, who: str) -> None:
    """Hold every round of a batch child against the oracle. A
    long-lived (parallel) pipeline accumulates: round ``r`` shows
    ``r + 1`` times the trace, and only its first report can equal the
    single-pass bytes."""
    rounds = [result["warmup"], *zip(result["counters"],
                                     result["reports"])]
    for r, (counters, report) in enumerate(rounds):
        times = r + 1 if cumulative else 1
        expected = {k: v * times for k, v in prepared.counters.items()}
        checks.expect(counters == expected,
                      f"{who} round {r}: counters != oracle")
        if times == 1:
            checks.expect(report == prepared.report_sha,
                          f"{who} round {r}: report bytes != oracle")


def _check_live(run: Run, result: dict[str, Any], prepared: Prepared,
                bank: Any, checks: Checks) -> None:
    """Live report after ``POST /api/flush`` == the batch report over
    the same epochs; ``/api/counters.packets`` == valid frames
    appended; every query answered; daemon exit code 0."""
    counters, report = _fifo_reference(run, bank, prepared.epoch,
                                       result["epochs"])
    checks.expect(result["report"] == report,
                  "live report bytes != batch report")
    checks.expect(result["counters"].get("packets") == counters["packets"],
                  "live counters.packets != valid frames appended")
    checks.expect(result["exit_code"] == 0, "daemon exit code != 0")
    checks.attempted += result["attempted"]
    checks.failures += ["HTTP request failed"] * result["failed"]


# -- pass 1: end-to-end, tracing off ------------------------------------------

def end_to_end(run: Run, workload: str) -> tuple[dict[str, float], Checks,
                                                  dict[str, Any]]:
    """Cold set-up :data:`SETUP_REPEATS` times — lab dataset -> train ->
    ``save_bank``, then the runtime from process start until it could
    take its first frame (``load_bank`` + constructor; parallel: worker
    spawn and first barrier; serve: daemon start -> ``/readyz`` 200) —
    and each runtime so started then measures its share of the run's
    seconds, in a memory layout of its own."""
    trace, runtime = WORKLOADS[workload]
    checks = Checks()
    prepared = prepare(run, trace)
    repeats = 1 if run.scale == "smoke" else SETUP_REPEATS
    setups, results = [], []
    for layout in range(repeats):
        start = time.perf_counter()
        shutil.rmtree(run.work / "bank", ignore_errors=True)
        product.train_bank(run.seed, run.work / "bank", run.scale)
        trained = time.perf_counter() - start
        if runtime == "serve":
            result = live.run(prepared.epoch, run.work / "bank", run.work,
                              layout_env(run, layout), 0.0,
                              run.seconds / repeats)
            ready_s = result["ready_s"]
        else:
            ready_s, result = batch_child(
                run, runtime, prepared.full, run.seconds / repeats,
                layout=layout)
        setups.append(trained + ready_s)
        results.append(result)
    bank = oracle(run, prepared, checks)

    # Pool the children's rounds; the undisturbed ones carry the figures.
    walls, cpu, rss = [], [], []
    for result in results:
        if runtime == "serve":
            _check_live(run, result, prepared, bank, checks)
            walls += [prepared.epoch.frames / rate
                      for rate in result["drain_pkt_per_s"]]
            cpu += result["drain_cpu_s"]
            rss.append(result["rss_parent_mb"] + result["rss_workers_mb"])
        else:
            _check_rounds(result, prepared, runtime == "parallel", checks,
                          workload)
            walls += result["walls"]
            cpu += [parent + workers for parent, workers in
                    zip(result["cpu_parent_s"], result["cpu_workers_s"])]
            rss.append(result["peak_rss_mb"])
    frames = prepared.epoch.frames if runtime == "serve" else prepared.frames
    quiet = measure.quiet_rounds(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "pkt_per_s": frames / statistics.fmean(walls[r] for r in quiet),
        # CPU alone, no wall clock in the figure: user + system seconds
        # of the whole process tree inside the undisturbed rounds (the
        # ones pkt_per_s rests on), per frame those rounds fed.
        "cpu_s_per_mpkt":
            sum(cpu[r] for r in quiet) / (len(quiet) * frames) * 1e6,
        "peak_rss_mb": max(rss),
    }
    detail = {"rounds": measure.summary(walls), "round_s": walls,
              "round_cpu_s": cpu, "round_frames": frames,
              "rounds_per_child": [len(r.get("walls", r.get("drain_s")))
                                   for r in results],
              "quiet_rounds": quiet, "setup": setups, "rss_mb": rss,
              "manifest": prepared.epoch.manifest}
    return metrics, checks, detail


# -- pass 2: the stage ledger of the workload's trace -------------------------

# Shares of the run's seconds each traced section may spend (each also
# runs its minimum number of rounds / bursts).
_SERIAL_SHARE = 0.3      # tracing-off and traced rounds, alternating
_PARALLEL_SHARE = 0.15
_PACED_SHARE = 0.4
_DRAIN_SHARE = 0.15
_MIN_PACED_S = 0.6       # six queries, two per endpoint

#: What each trace claims to be, and how well the ledger must add up
#: (ISSUE 11). Gates of the traced pass: a workload that stops being
#: what its name says, or a ledger that no longer accounts for the
#: round, fails the run. A change that legitimately moves a profile
#: across one of these lines has to re-derive them in a benchmark-only
#: change first (README, "Identity gates").
RESIDUAL_BOUND = 0.10
ONOFF_LEAF_BELOW = 0.15
STORM_LEAF_ABOVE = 0.60


def _quiet_spans(result: dict[str, Any]) -> tuple[float, dict[str, float]]:
    """(round seconds, seconds per span name), both averaged over the
    same undisturbed rounds — so the spans of one figure tile the
    round of the same figure."""
    rounds = measure.quiet_rounds(result["walls"])
    mean = statistics.fmean
    return mean(result["walls"][r] for r in rounds), {
        name: mean(values[r] for r in rounds)
        for name, values in result["spans"].items()}


def traced(run: Run, workload: str) -> tuple[dict[str, float], Checks,
                                              dict[str, Any]]:
    trace, _ = WORKLOADS[workload]
    checks = Checks()
    prepared = prepare(run, trace)
    product.train_bank(run.seed, run.work / "bank", run.scale)
    bank = oracle(run, prepared, checks)
    epoch, frames = prepared.epoch, prepared.frames
    epochs = epoch.spec.epochs
    median = statistics.median

    # Serial engine: tracing-off and traced rounds, alternating.
    _, serial = batch_child(
        run, "serial", prepared.full, run.seconds * _SERIAL_SHARE,
        traced=True, reference=True, min_rounds=LEDGER_PAIRS)
    _check_rounds(serial, prepared, False, checks, "serial ledger")
    _, span = _quiet_spans(serial)
    reference = measure.undisturbed(serial["reference_walls"])
    # The ledger's own validity, pair by pair: a tracing-off round and
    # the traced round right after it saw the same host, so the median
    # over pairs stands where a single comparison would not.
    top_level = [sum(serial["spans"][f"engine.{name}"][r] for name in
                     ("ingest", "flush", "sync", "render"))
                 for r in range(len(serial["walls"]))]
    pairs = list(zip(serial["reference_walls"], serial["walls"], top_level))
    residual = median((ref - top) / ref for ref, _, top in pairs)
    overhead = median((wall - ref) / ref for ref, wall, _ in pairs)
    one = run.work / f"{trace}-1.pcap"
    epoch.write_pcap(one, 1)
    values = layers.replay_all(epoch, prepared.full, one, bank, run.work)
    leaf_s = values.pop("_leaf_s") * epochs
    promote_s = values.pop("_promote_s") * epochs
    # ``ingest`` is the real ingest_pcap: its process_block and
    # flush_idle calls are spans of their own, read and decode are the
    # standalone replays, and what is left is ingest_pcap's own loop
    # (tick scheduling, block slicing).
    loop_self = (span["engine.ingest"] - span["engine.process_block"]
                 - span["engine.flush_idle"] - values["net.pcap.read_s"]
                 - values["net.rawpacket.decode_s"])
    https = values["net.rawpacket.https_lane_share"] * frames
    values.update({
        "pipeline.ingest.ingest_s": span["engine.ingest"],
        "pipeline.ingest.loop_self_s": loop_self,
        "pipeline.engine.process_block_s": span["engine.process_block"],
        "pipeline.engine.flow_table_self_s":
            span["engine.process_block"] - leaf_s - promote_s,
        "pipeline.engine.ns_per_https_frame":
            span["engine.process_block"] / https * 1e9,
        "pipeline.engine.promotions":
            serial["export"]["repro_promotions_total"],
        "pipeline.engine.live_flows_peak": serial["live_flows_peak"],
        "pipeline.engine.flush_idle_s": span["engine.flush_idle"],
        "pipeline.engine.sweeps":
            serial["span_counts"]["engine.flush_idle"],
        "pipeline.engine.evicted": prepared.counters["evicted"],
        "pipeline.engine.flush_s": span["engine.flush"],
        "ledger.round_s": reference,
        "ledger.residual_share": residual,
        "ledger.overhead_share": overhead,
        "ledger.leaf_share": leaf_s / reference,
        "ledger.trace_build_s": prepared.build_s + prepared.write_s,
        "ledger.trace_frames_per_s": epoch.frames / prepared.build_s,
    })

    # Parallel runtime: the parent's side of every call, with spans.
    spawn_s, parallel = batch_child(run, "parallel", prepared.full,
                                    run.seconds * _PARALLEL_SHARE,
                                    traced=True)
    _check_rounds(parallel, prepared, True, checks, "parallel ledger")
    parallel_round, span = _quiet_spans(parallel)
    lifetime_rounds = len(parallel["walls"]) + 1   # + the warm-up
    quiet = measure.quiet_rounds(parallel["walls"])
    quiet_s = sum(parallel["walls"][r] for r in quiet)
    values.update({
        "pipeline.parallel.round_s": parallel_round,
        "pipeline.parallel.process_block_s":
            span["parallel.process_block"],
        "pipeline.parallel.barrier_s":
            sum(span[f"parallel.{name}"]
                for name in ("flush_idle", "flush", "sync")),
        "pipeline.parallel.ring_waits":
            parallel["export"]["repro_shm_ring_waits_total"]
            / lifetime_rounds,
        "pipeline.parallel.ring_wait_s":
            parallel["export"]["repro_shm_ring_wait_seconds_total"]
            / lifetime_rounds,
        "pipeline.parallel.spawn_s": spawn_s,
        "pipeline.parallel.parent_cpu_share":
            sum(parallel["cpu_parent_s"][r] for r in quiet) / quiet_s,
        "pipeline.parallel.worker_cpu_share":
            sum(parallel["cpu_workers_s"][r] for r in quiet) / quiet_s
            / max(1, parallel["workers"]),
    })

    # The daemon: per-endpoint split of the paced sample, then capacity.
    result = live.run(epoch, run.work / "bank", run.work, run.env,
                      max(_MIN_PACED_S, run.seconds * _PACED_SHARE),
                      run.seconds * _DRAIN_SHARE)
    _check_live(run, result, prepared, bank, checks)
    tail_p, query_tail = measure.tail_percentile(result["queries_ms"])
    values.update({
        f"service.api.{path.rsplit('/', 1)[1]}_ms_p50": median(samples)
        for path, samples in result["latency_ms"].items()})
    values.update({
        "service.api.query_p50_ms": median(result["queries_ms"]),
        "service.api.query_tail_ms": query_tail,
        "service.api.tail_percentile": tail_p,
        "service.api.busy_share": result["busy_share"],
        "obs.httpserv.metrics_scrape_ms_p50": median(result["scrape_ms"]),
        "service.daemon.lag_tail_ms":
            measure.percentile(result["lag_ms"], tail_p),
        "service.daemon.lag_frames_max": result["lag_frames_max"],
        "service.daemon.generator_late_ms_tail":
            measure.tail_percentile(result["late_ms"])[1],
        "service.daemon.drain_pkt_per_s":
            measure.undisturbed(result["drain_pkt_per_s"], best="high"),
        "service.daemon.busy_cores":
            sum(result["drain_cpu_s"]) / sum(result["drain_s"]),
        "service.daemon.ready_s": result["ready_s"],
        "service.daemon.shutdown_s": result["shutdown_s"],
        "service.daemon.rss_parent_mb": result["rss_parent_mb"],
        "service.daemon.rss_workers_mb": result["rss_workers_mb"],
    })

    checks.expect(abs(residual) <= RESIDUAL_BOUND,
                  f"ledger.residual_share {residual:+.3f}: the top-level "
                  f"spans miss the tracing-off round by more than "
                  f"{RESIDUAL_BOUND:.0%}")
    leaf = values["ledger.leaf_share"]
    parent = values["pipeline.parallel.parent_cpu_share"]
    worker = values["pipeline.parallel.worker_cpu_share"]
    if trace == "onoff":
        checks.expect(leaf < ONOFF_LEAF_BELOW,
                      f"onoff is not per-packet-bound: handshake leaves "
                      f"are {leaf:.3f} of a serial round")
        checks.expect(parent > worker,
                      f"onoff is not parent-bound: parent {parent:.2f} "
                      f"cores, a worker {worker:.2f}")
    else:
        checks.expect(leaf > STORM_LEAF_ABOVE,
                      f"storm is not handshake-bound: handshake leaves "
                      f"are {leaf:.3f} of a serial round")
        checks.expect(worker > parent,
                      f"storm is not worker-bound: parent {parent:.2f} "
                      f"cores, a worker {worker:.2f}")
    detail = {"manifest": epoch.manifest,
              "serial_rounds": measure.summary(serial["walls"]),
              "reference_rounds":
                  measure.summary(serial["reference_walls"]),
              "parallel_rounds": measure.summary(parallel["walls"]),
              "queries": len(result["queries_ms"])}
    return values, checks, detail
