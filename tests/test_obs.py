"""Observability plane suite: registry semantics, exposition, event
log, HTTP endpoint, pipeline instrumentation, and the CLI flags.

The two load-bearing contracts:

* **Merge algebra** — registry merge must be order-independent and
  associative (the rollup cube's contract), or the parent's view of
  worker snapshots would depend on worker arrival order.
* **Measurement neutrality** — instrumented pipelines must produce
  byte-identical counters/records to uninstrumented ones, and the
  parallel runtime's merged count metrics must equal a serial run's
  (pinned against the golden trace in ``test_golden_trace.py``).
"""

import json
import random
import signal
import urllib.error
import urllib.request
import os

import pytest

from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, Packet, PcapWriter, decode_block
from repro.obs import (
    COUNT_BUCKETS,
    ComponentHealth,
    EventLog,
    HealthReport,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    read_events,
)
from repro.pipeline import (
    ClassifierBank,
    ConceptDriftMonitor,
    ParallelShardedPipeline,
    RealtimePipeline,
    ingest_pcap,
    save_bank,
)
from repro.fingerprints.model import Provider, Transport
from repro.pipeline.confidence import PlatformPrediction
from repro.trafficgen import generate_lab_dataset


def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


# --- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=47, scale=0.04)


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=4, max_depth=10, random_state=1))


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-bank") / "bank"
    save_bank(bank, path)
    return path


@pytest.fixture(scope="module")
def frames(lab):
    flows = list(lab)[::4][:40]
    out = [(p.to_bytes(), p.timestamp)
           for flow in flows for p in flow.packets]
    out.sort(key=lambda pair: pair[1])
    return out


@pytest.fixture(scope="module")
def pcap(frames, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-pcap") / "obs.pcap"
    with PcapWriter(path) as writer:
        for data, timestamp in frames:
            writer.write_bytes(data, timestamp)
    return path


# --- registry algebra -------------------------------------------------------


def _random_registry(seed: int) -> MetricsRegistry:
    """A registry with overlapping counter/gauge/histogram families and
    label sets — the shape worker snapshots actually have."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for status in ("classified", "partial", "unknown"):
        registry.counter("repro_classifications_total", "by status",
                         {"status": status}).inc(rng.randrange(100))
    registry.counter("repro_packets_total", "pkts").inc(
        rng.randrange(10_000))
    registry.gauge("repro_live_flows", "live").inc(rng.randrange(50))
    hist = registry.histogram("repro_stage_seconds", "stages",
                              {"stage": "classify_drain"})
    for _ in range(rng.randrange(1, 40)):
        hist.observe(rng.random() * 2)
    batch = registry.histogram("repro_classify_batch_flows", "batch",
                               buckets=COUNT_BUCKETS)
    for _ in range(rng.randrange(1, 20)):
        batch.observe(rng.randrange(1, 500))
    return registry


def _merged(*registries) -> dict:
    target = MetricsRegistry()
    for registry in registries:
        target.merge(registry)
    return target.snapshot()


class TestRegistryAlgebra:
    def test_merge_is_order_independent(self):
        a, b = _random_registry(1), _random_registry(2)
        assert _merged(a, b) == _merged(b, a)

    def test_merge_is_associative(self):
        a, b, c = (_random_registry(s) for s in (3, 4, 5))
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        right = MetricsRegistry()
        right.merge(b)
        right.merge(c)
        # (a+b)+c == a+(b+c)
        ab_c = MetricsRegistry()
        ab_c.merge_snapshot(left.snapshot())
        ab_c.merge(c)
        a_bc = MetricsRegistry()
        a_bc.merge(a)
        a_bc.merge_snapshot(right.snapshot())
        assert ab_c.snapshot() == a_bc.snapshot()

    def test_merge_doubles_every_additive_value(self):
        a = _random_registry(6)
        doubled = MetricsRegistry()
        doubled.merge(a)
        doubled.merge(a)
        packets = a.value("repro_packets_total")
        assert doubled.value("repro_packets_total") == 2 * packets
        count, total = a.value("repro_stage_seconds",
                               {"stage": "classify_drain"})
        assert doubled.value("repro_stage_seconds",
                             {"stage": "classify_drain"}) == \
            (2 * count, 2 * total)

    def test_snapshot_is_json_roundtrippable(self):
        a = _random_registry(7)
        wire = json.loads(json.dumps(a.snapshot()))
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(wire)
        assert rebuilt.snapshot() == a.snapshot()

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total", "x")

    def test_bucket_ladder_mismatch_rejected_on_merge(self):
        a = MetricsRegistry()
        a.histogram("repro_h", "h", buckets=(1.0, 2.0)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("repro_h", "h", buckets=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="bucket"):
            b.merge(a)

    def test_nonincreasing_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=())

    def test_timed_span_observes(self):
        registry = MetricsRegistry()
        span = registry.timed("repro_stage_seconds", "s",
                              {"stage": "x"})
        for _ in range(3):
            with span:
                pass
        count, total = registry.value("repro_stage_seconds",
                                      {"stage": "x"})
        assert count == 3
        assert total >= 0


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_packets_total", "Frames seen").inc(7)
        hist = registry.histogram("repro_stage_seconds", "Latency",
                                  {"stage": "drain"},
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP repro_packets_total Frames seen" in text
        assert "# TYPE repro_packets_total counter" in text
        assert "repro_packets_total 7" in text
        # Buckets are cumulative in the exposition (internal storage
        # is per-bucket so merges stay elementwise).
        assert 'repro_stage_seconds_bucket{stage="drain",le="0.1"} 1' \
            in text
        assert 'repro_stage_seconds_bucket{stage="drain",le="1.0"} 2' \
            in text
        assert ('repro_stage_seconds_bucket{stage="drain",le="+Inf"} 3'
                in text)
        assert 'repro_stage_seconds_count{stage="drain"} 3' in text

    def test_to_json_stable_and_parseable(self):
        registry = _random_registry(8)
        parsed = json.loads(registry.to_json())
        assert parsed == registry.snapshot()
        assert registry.to_json() == registry.to_json()


# --- event log --------------------------------------------------------------


class TestEventLog:
    def test_emit_and_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            assert log.clock is None
            log.emit("checkpoint", path="ck", consumed=12)
            log.set_clock(120.5)
            log.emit("eviction_sweep", emitted=3)
        events = read_events(path)
        assert [e["event"] for e in events] == ["checkpoint",
                                                "eviction_sweep"]
        assert events[0]["clock"] is None
        assert events[0]["consumed"] == 12
        assert events[1]["clock"] == 120.5
        assert all(e["wall"] > 0 for e in events)

    def test_append_only_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("a")
        with EventLog(path) as log:
            log.emit("b")
            assert log.count == 1
        assert [e["event"] for e in read_events(path)] == ["a", "b"]

    def test_emit_after_close_is_counted_noop(self, tmp_path):
        # Shutdown races: a serving thread may emit after the owner
        # closed the log. That must drop (and count), never raise.
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("before")
        log.close()
        log.emit("late", detail=1)
        log.emit("later")
        assert log.dropped == 2
        assert log.count == 1
        assert [e["event"] for e in read_events(path)] == ["before"]

    def test_close_is_idempotent(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.close()
        log.close()
        assert log.dropped == 0


# --- HTTP endpoint ----------------------------------------------------------


def _get(port: int, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestMetricsServer:
    def test_serves_metrics_health_and_404(self):
        registry = MetricsRegistry()
        registry.counter("repro_packets_total", "pkts").inc(42)
        with MetricsServer(lambda: registry, port=0) as server:
            status, body = _get(server.port, "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok"}
            status, body = _get(server.port, "/metrics")
            assert status == 200
            assert b"repro_packets_total 42" in body
            status, body = _get(server.port, "/metrics.json")
            assert status == 200
            assert json.loads(body)["metrics"][0]["value"] == 42
            status, _ = _get(server.port, "/nope")
            assert status == 404

    def test_collect_failure_is_500_and_keeps_serving(self):
        calls = {"n": 0}

        def collect():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker wedged")
            registry = MetricsRegistry()
            registry.counter("repro_ok", "ok").inc()
            return registry

        with MetricsServer(collect, port=0) as server:
            status, body = _get(server.port, "/metrics")
            assert status == 500
            assert b"worker wedged" in body
            assert server.last_collect_error == "worker wedged"
            status, body = _get(server.port, "/metrics")
            assert status == 200
            assert b"repro_ok 1" in body
            assert server.last_collect_error is None

    def test_health_callback_drives_healthz(self):
        state = {"ok": True}

        def health():
            return HealthReport((
                ComponentHealth("ingest", state["ok"],
                                "" if state["ok"] else "thread died"),
                ComponentHealth("workers", True)))

        registry = MetricsRegistry()
        with MetricsServer(lambda: registry, port=0,
                           health=health) as server:
            status, body = _get(server.port, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            state["ok"] = False
            status, body = _get(server.port, "/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "unhealthy"
            failing = [c for c in payload["components"]
                       if not c["healthy"]]
            assert [c["component"] for c in failing] == ["ingest"]
            assert failing[0]["detail"] == "thread died"

    def test_crashing_health_callback_is_503_not_crash(self):
        def health():
            raise RuntimeError("probe exploded")

        registry = MetricsRegistry()
        with MetricsServer(lambda: registry, port=0,
                           health=health) as server:
            status, body = _get(server.port, "/healthz")
            assert status == 503
            assert b"probe exploded" in body

    def test_mounts_dispatch_by_longest_prefix(self):
        calls = []

        def api(method, path, query, body):
            calls.append((method, path, query, body))
            return 200, b"api", "text/plain"

        def api_sub(method, path, query, body):
            return 200, b"sub", "text/plain"

        def boom(method, path, query, body):
            raise RuntimeError("handler exploded")

        registry = MetricsRegistry()
        with MetricsServer(lambda: registry, port=0) as server:
            server.mount("/api", api)
            server.mount("/api/deep", api_sub)
            server.mount("/boom", boom)
            assert _get(server.port, "/api/x?q=1")[1] == b"api"
            assert calls[0][0] == "GET"
            assert calls[0][2] == {"q": ["1"]}
            assert _get(server.port, "/api/deep/y")[1] == b"sub"
            # built-in paths always win over mounts
            assert _get(server.port, "/metrics")[0] == 200
            status, body = _get(server.port, "/boom")
            assert status == 500
            assert b"handler exploded" in body
            # POST bodies reach the handler
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/api/z",
                data=b"payload", method="POST")
            with urllib.request.urlopen(request, timeout=10):
                pass
            assert calls[-1][0] == "POST"
            assert calls[-1][3] == b"payload"

    def test_bad_mount_prefix_rejected(self):
        server = MetricsServer(MetricsRegistry, port=0)
        try:
            with pytest.raises(ValueError):
                server.mount("api", lambda *a: (200, b"", "t"))
            with pytest.raises(ValueError):
                server.mount("/api/", lambda *a: (200, b"", "t"))
        finally:
            server.close()


# --- pipeline instrumentation ----------------------------------------------


class TestPipelineInstrumentation:
    def test_instrumentation_never_perturbs_results(self, bank, frames):
        plain = RealtimePipeline(bank, batch_size=8)
        inst = RealtimePipeline(bank, batch_size=8, metrics=True)
        for pipeline in (plain, inst):
            _feed(pipeline, frames)
            pipeline.flush()
        assert inst.counters == plain.counters
        assert list(inst.store) == list(plain.store)

    def test_raw_mode_records_promotions_and_spans(self, bank, frames):
        pipeline = RealtimePipeline(bank, batch_size=8, metrics=True)
        _feed(pipeline, frames)
        pipeline.flush()
        registry = pipeline.export_metrics()
        assert registry.value("repro_promotions_total") > 0
        drains, total = registry.value("repro_stage_seconds",
                                       {"stage": "classify_drain"})
        assert drains > 0 and total > 0
        batches, flows = registry.value("repro_classify_batch_flows")
        assert batches == drains
        assert flows == pipeline.counters.classified + \
            pipeline.counters.partial + pipeline.counters.unknown

    def test_eager_mode_promotions_stay_zero(self, bank, frames):
        pipeline = RealtimePipeline(bank, batch_size=8, metrics=True)
        for data, timestamp in frames:
            pipeline.process_packet(Packet.from_bytes(data, timestamp))
        pipeline.flush()
        # Eager mode builds full Packets up front: the promotion
        # counter is structurally zero (which is why promotions live
        # in the obs registry, not in PipelineCounters — they would
        # break the eager==raw counter equality otherwise).
        assert pipeline.export_metrics().value(
            "repro_promotions_total") == 0

    def test_eviction_sweep_counts_and_times(self, bank, frames):
        pipeline = RealtimePipeline(bank, batch_size=8, metrics=True)
        _feed(pipeline, frames)
        last = max(t for _, t in frames)
        emitted = pipeline.flush_idle(now=last + 10_000.0,
                                      idle_timeout=60.0)
        registry = pipeline.export_metrics()
        assert pipeline.counters.evicted == emitted > 0
        assert registry.value("repro_evicted_flows_total") == \
            pipeline.counters.evicted
        sweeps, _ = registry.value("repro_stage_seconds",
                                   {"stage": "eviction_sweep"})
        assert sweeps == 1

    def test_export_derives_counts_even_when_disabled(self, bank,
                                                      frames):
        """Count metrics come from PipelineCounters at export time, so
        an uninstrumented pipeline still exports them — only timing
        spans need metrics=True."""
        pipeline = RealtimePipeline(bank, batch_size=8)
        _feed(pipeline, frames)
        pipeline.flush()
        registry = pipeline.export_metrics()
        assert registry.value("repro_packets_total") == \
            pipeline.counters.packets
        assert registry.value("repro_stage_seconds",
                              {"stage": "classify_drain"}) is None

    def test_export_is_idempotent(self, bank, frames):
        pipeline = RealtimePipeline(bank, batch_size=8, metrics=True)
        _feed(pipeline, frames)
        pipeline.flush()
        assert pipeline.export_metrics().snapshot() == \
            pipeline.export_metrics().snapshot()


def _prediction(confidence: float) -> PlatformPrediction:
    status = "classified" if confidence >= 0.8 else "unknown"
    return PlatformPrediction(
        status=status,
        platform="windows_chrome" if status == "classified" else None,
        device="windows" if status == "classified" else None,
        agent="chrome" if status == "classified" else None,
        confidence=confidence, device_confidence=confidence,
        agent_confidence=confidence)


class TestDriftAlarmHook:
    def test_on_alarm_fires_once_per_transition(self):
        fired = []
        monitor = ConceptDriftMonitor(
            ph_delta=0.01, ph_threshold=0.5,
            on_alarm=lambda p, t: fired.append((p, t)))
        scenario = (Provider.YOUTUBE, Transport.TCP)

        def shift():
            # Page–Hinkley alarms on a *mean shift*, so drive a
            # healthy stream into a degraded one.
            for _ in range(50):
                monitor.observe(*scenario, _prediction(0.95))
            for _ in range(50):
                monitor.observe(*scenario, _prediction(0.3))

        shift()
        assert fired == [scenario]
        # Sticky state: further low-confidence flow does not re-fire.
        monitor.observe(*scenario, _prediction(0.3))
        assert len(fired) == 1
        # reset() re-arms the transition.
        monitor.reset(*scenario)
        shift()
        assert fired == [scenario, scenario]


# --- ingest events ----------------------------------------------------------


class TestIngestEvents:
    def test_sweep_checkpoint_and_resume_events(self, bank, frames,
                                                pcap, tmp_path):
        events_path = tmp_path / "events.jsonl"
        ck = tmp_path / "ck"
        span = max(frames[-1][1] - frames[0][1], 1.0)
        schedule = dict(idle_timeout=span / 3,
                        checkpoint_interval=span / 6)
        pipeline = RealtimePipeline(bank, batch_size=8)
        with EventLog(events_path) as log:
            ingest_pcap(pipeline, pcap, checkpoint_dir=ck,
                        events=log, **schedule)
        pipeline.flush()
        events = read_events(events_path)
        kinds = {e["event"] for e in events}
        assert "eviction_sweep" in kinds
        assert "checkpoint" in kinds
        checkpoint = next(e for e in events
                          if e["event"] == "checkpoint")
        assert checkpoint["path"] == str(ck)
        assert checkpoint["consumed"] > 0
        assert checkpoint["duration_seconds"] >= 0
        # Every mid-replay event carries the capture clock.
        assert all(e["clock"] is not None for e in events)

        # Resume from the checkpoint: the operator-visible signature
        # of a *planned* restart is an ingest_resume event.
        resumed = RealtimePipeline.restore(ck, bank)
        resume_events = tmp_path / "resume.jsonl"
        with EventLog(resume_events) as log:
            ingest_pcap(resumed, pcap, checkpoint_dir=ck,
                        resume_dir=ck, events=log, **schedule)
        resumed.flush()
        resume = read_events(resume_events)[0]
        assert resume["event"] == "ingest_resume"
        assert resume["consumed"] > 0
        assert resume["resume_dir"] == str(ck)


# --- parallel runtime -------------------------------------------------------


class TestParallelObservability:
    def test_worker_respawn_event_and_metrics(self, bank_dir, frames,
                                              tmp_path):
        """SIGKILL a worker mid-replay: recovery must leave an
        operator-distinguishable trace — a worker_respawn event with
        journal-replay accounting, and the respawn/replay counters —
        so crash recovery never masquerades as a clean run."""
        events_path = tmp_path / "events.jsonl"
        k = len(frames) // 2
        with EventLog(events_path) as log, \
                ParallelShardedPipeline(
                    bank_dir, num_workers=2, batch_size=8,
                    checkpoint_dir=tmp_path / "ck", chunk_items=16,
                    metrics=True, events=log) as par:
            _feed(par, frames[:k])
            par.save_checkpoint()
            _feed(par, frames[k:k + 40])
            victim = par._workers[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            _feed(par, frames[k + 40:])
            par.flush()
            registry = par.export_metrics()
            assert registry.value("repro_worker_respawns_total") >= 1
            replayed = registry.value(
                "repro_journal_replayed_commands_total")
            recoveries, elapsed = registry.value(
                "repro_journal_replay_seconds")
            assert recoveries >= 1 and elapsed > 0
        respawns = [e for e in read_events(events_path)
                    if e["event"] == "worker_respawn"]
        assert len(respawns) >= 1
        assert respawns[0]["worker"] == 1
        assert respawns[0]["replayed_commands"] == replayed
        assert respawns[0]["replay_seconds"] > 0
        assert "cause" in respawns[0]

    def test_shard_live_flows_and_worker_timings(self, bank_dir,
                                                 frames):
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=8,
                                     metrics=True) as par:
            _feed(par, frames)
            per_shard = par.shard_live_flows
            assert len(per_shard) == 2
            assert sum(per_shard) == par.live_flows
            par.flush()
            registry = par.export_metrics()
            # Per-shard gauges labeled by the parent.
            total = sum(
                registry.value("repro_shard_live_flows",
                               {"shard": str(i)}) for i in range(2))
            assert total == par.live_flows
            # Worker-side timing registries merged through the sync
            # barrier: both workers drained at least once.
            drains, _ = registry.value("repro_stage_seconds",
                                       {"stage": "classify_drain"})
            assert drains >= 2


# --- CLI --------------------------------------------------------------------


class TestCliObservability:
    @pytest.fixture(scope="class")
    def cli_out(self, bank_dir, pcap, tmp_path_factory):
        """One classify run per worker count over the shm transport,
        each with --metrics-out and --event-log."""
        from repro.cli import main

        root = tmp_path_factory.mktemp("cli-obs")
        outputs = {}
        for workers in (1, 2, 4):
            prom = root / f"metrics-{workers}.prom"
            events = root / f"events-{workers}.jsonl"
            rc = main(["classify", "--bank", str(bank_dir),
                       "--pcap", str(pcap),
                       "--workers", str(workers),
                       "--idle-timeout", "120",
                       "--metrics-out", str(prom),
                       "--event-log", str(events), "--limit", "2"])
            assert rc == 0
            outputs[workers] = (prom.read_text(), events)
        return outputs

    def test_flags_work_across_worker_counts(self, cli_out):
        for workers, (text, events) in cli_out.items():
            assert "# TYPE repro_packets_total counter" in text
            assert events.exists()

    def test_metric_values_identical_across_worker_counts(self,
                                                          cli_out):
        def count_lines(text):
            return sorted(
                line for line in text.splitlines()
                if not line.startswith("#")
                and line.split("{")[0].split(" ")[0] in (
                    "repro_packets_total", "repro_flows_total",
                    "repro_video_flows_total",
                    "repro_classifications_total",
                    "repro_evicted_flows_total"))

        base = count_lines(cli_out[1][0])
        assert count_lines(cli_out[2][0]) == base
        assert count_lines(cli_out[4][0]) == base

    def test_metrics_out_json_flavor(self, bank_dir, pcap, tmp_path):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        assert main(["classify", "--bank", str(bank_dir),
                     "--pcap", str(pcap),
                     "--metrics-out", str(out), "--limit", "1"]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["format_version"] == 1
        assert any(m["name"] == "repro_packets_total"
                   for m in parsed["metrics"])

    def test_metrics_port_serves_during_campus(self, bank_dir, capsys,
                                               tmp_path):
        from repro.cli import main

        assert main(["campus", "--bank", str(bank_dir),
                     "--sessions", "20", "--seed", "3",
                     "--metrics-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "Serving metrics on http://127.0.0.1:" in err
