"""Checkpoint/restore equivalence and crash-recovery suite.

The contract (mirroring PR 1–4's equivalence discipline): a campus
replay interrupted at an arbitrary point — including a SIGKILLed
parallel worker — and resumed from the last checkpoint must finish
with counters, predictions, record order, and rollup snapshot bytes
identical to an uninterrupted run *with the same checkpoint schedule*,
at any worker count, through both ingest paths. Checkpointing itself
is equivalence-preserving at a boundary (it drains the classification
buffer and flushes sketch buffers), which is why the oracle runs the
schedule too.
"""

import json
import os
import signal

import pytest

from repro.errors import ConfigError
from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, PcapWriter, decode_block
from repro.pipeline import (
    ClassifierBank,
    ConceptDriftMonitor,
    ParallelShardedPipeline,
    RealtimePipeline,
    ShardedPipeline,
    checkpoint_kind,
    ingest_pcap,
    load_ingest_position,
    save_bank,
)
from repro.telemetry import save_rollup
from repro.trafficgen import generate_lab_dataset

def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=47, scale=0.05)


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=5, max_depth=12, random_state=1))


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("bank") / "bank"
    save_bank(bank, path)
    return path


@pytest.fixture(scope="module")
def retrained_bank(lab):
    """A deliberately different bank (fewer, shallower trees over a
    different seed) so hot-reload tests can tell which bank classified
    a flow."""
    return ClassifierBank.train(
        generate_lab_dataset(seed=11, scale=0.05),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=3, max_depth=8, random_state=7))


@pytest.fixture(scope="module")
def retrained_bank_dir(retrained_bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("bank2") / "bank"
    save_bank(retrained_bank, path)
    return path


@pytest.fixture(scope="module")
def campus_frames(lab):
    """Timestamp-ordered video handshakes from every scenario — the
    replay under interruption."""
    flows = list(lab)[::5][:60]
    frames = [(p.to_bytes(), p.timestamp)
              for flow in flows for p in flow.packets]
    frames.sort(key=lambda pair: pair[1])
    return frames


@pytest.fixture(scope="module")
def campus_pcap(campus_frames, tmp_path_factory):
    path = tmp_path_factory.mktemp("pcap") / "campus.pcap"
    with PcapWriter(path) as writer:
        for data, timestamp in campus_frames:
            writer.write_bytes(data, timestamp)
    return path


def _assert_identical(left, right, tmp_path, tag):
    """Counters, record order, predictions, and rollup snapshot bytes
    all equal — the full byte-level contract."""
    assert left.counters == right.counters
    left_records = list(left.store)
    right_records = list(right.store)
    assert left_records == right_records
    assert [(str(r.key), r.prediction) for r in left_records] == \
        [(str(r.key), r.prediction) for r in right_records]
    left_rollup = getattr(left, "rollup", None)
    if left_rollup is not None:
        save_rollup(left_rollup, tmp_path / f"{tag}-a")
        save_rollup(right.rollup, tmp_path / f"{tag}-b")
        assert (tmp_path / f"{tag}-a" / "rollup.json").read_bytes() == \
            (tmp_path / f"{tag}-b" / "rollup.json").read_bytes()


class _Crash(Exception):
    """The simulated mid-replay process death."""


class _CrashAfter:
    """Pipeline proxy that dies after ``n`` processed frames — the
    'interrupt anywhere' knob for ingest-driven tests."""

    def __init__(self, pipeline, n):
        self._pipeline = pipeline
        self._left = n

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def _tick(self):
        if self._left <= 0:
            raise _Crash()
        self._left -= 1

    def process_block(self, decoded):
        # A span the budget cannot cover dies before any of it lands.
        if self._left < len(decoded):
            raise _Crash()
        self._left -= len(decoded)
        self._pipeline.process_block(decoded)

    def process_packet(self, packet):
        self._tick()
        self._pipeline.process_packet(packet)


class TestRealtimeCheckpoint:
    @pytest.mark.parametrize("cut", (0.2, 0.55, 0.9))
    def test_restore_equals_continuation(self, bank, campus_frames,
                                         tmp_path, cut):
        """Interrupt at an arbitrary frame: the restored pipeline and
        the original (which kept running after its checkpoint) finish
        byte-identically."""
        k = int(len(campus_frames) * cut)
        original = RealtimePipeline(bank, batch_size=8,
                                    retention="both")
        _feed(original, campus_frames[:k])
        original.save_checkpoint(tmp_path / "ck")
        restored = RealtimePipeline.restore(tmp_path / "ck", bank)
        _feed(original, campus_frames[k:])
        original.flush()
        _feed(restored, campus_frames[k:])
        restored.flush()
        _assert_identical(restored, original, tmp_path, f"cut{cut}")

    def test_checkpoint_preserves_live_flow_table(self, bank,
                                                  campus_frames,
                                                  tmp_path):
        pipeline = RealtimePipeline(bank, batch_size=8)
        _feed(pipeline, campus_frames[:len(campus_frames) // 3])
        pipeline.save_checkpoint(tmp_path / "ck")
        restored = RealtimePipeline.restore(tmp_path / "ck", bank)
        assert restored.live_flows == pipeline.live_flows
        assert restored.live_flows > 0
        # Checkpointing drained the buffer on both sides.
        assert restored.pending_classifications == 0
        assert pipeline.pending_classifications == 0

    def test_restore_rejects_kind_and_retention_mismatch(
            self, bank, campus_frames, tmp_path):
        pipeline = RealtimePipeline(bank, batch_size=8)
        _feed(pipeline, campus_frames[:40])
        pipeline.save_checkpoint(tmp_path / "ck")
        with pytest.raises(ConfigError):
            ShardedPipeline.restore(tmp_path / "ck", bank)
        with pytest.raises(ConfigError):
            RealtimePipeline.restore(tmp_path / "ck", bank,
                                     retention="rollup")
        sharded = ShardedPipeline(bank, num_shards=2)
        sharded.save_checkpoint(tmp_path / "sck")
        with pytest.raises(ConfigError):
            RealtimePipeline.restore(tmp_path / "sck", bank)
        assert checkpoint_kind(tmp_path / "ck") == "realtime"
        assert checkpoint_kind(tmp_path / "sck") == "sharded"
        assert checkpoint_kind(tmp_path / "nothing-here") is None

    def test_monitor_state_rides_checkpoints(self, bank, campus_frames,
                                             tmp_path):
        monitor = ConceptDriftMonitor(min_observations=5)
        pipeline = RealtimePipeline(bank, batch_size=4,
                                    monitor=monitor)
        _feed(pipeline, campus_frames)
        pipeline.drain()
        observed = sum(r.observed_flows for r in monitor.reports())
        assert observed == pipeline.counters.video_flows
        pipeline.save_checkpoint(tmp_path / "ck")
        restored = RealtimePipeline.restore(tmp_path / "ck", bank)
        assert restored.monitor is not None
        assert restored.monitor.state_dict() == monitor.state_dict()


class TestIngestResume:
    """The pcap-replay resume path: crash anywhere, restore from the
    last checkpoint, replay the delta, finish identical to the
    uninterrupted oracle running the same checkpoint schedule."""

    def _schedule(self, campus_frames):
        start = campus_frames[0][1]
        end = campus_frames[-1][1]
        span = max(end - start, 1.0)
        return dict(idle_timeout=span / 3,
                    checkpoint_interval=span / 6)

    @pytest.mark.parametrize("mode", ("bulk", "eager"))
    @pytest.mark.parametrize("crash_at", (120, 260))
    def test_serial_resume_identical(self, bank, campus_frames,
                                     campus_pcap, tmp_path, mode,
                                     crash_at):
        schedule = self._schedule(campus_frames)
        oracle = RealtimePipeline(bank, batch_size=8, retention="both")
        oracle_result = ingest_pcap(
            oracle, campus_pcap, mode=mode,
            checkpoint_dir=tmp_path / "oracle-ck",
            idle_timeout=schedule["idle_timeout"],
            checkpoint_interval=schedule["checkpoint_interval"])
        oracle.flush()

        victim = RealtimePipeline(bank, batch_size=8, retention="both")
        with pytest.raises(_Crash):
            ingest_pcap(_CrashAfter(victim, crash_at), campus_pcap,
                        mode=mode, checkpoint_dir=tmp_path / "ck",
                        idle_timeout=schedule["idle_timeout"],
                        checkpoint_interval=schedule[
                            "checkpoint_interval"])
        position = load_ingest_position(tmp_path / "ck")
        assert 0 < position.consumed <= crash_at

        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        result = ingest_pcap(
            resumed, campus_pcap, mode=mode,
            checkpoint_dir=tmp_path / "ck",
            resume_dir=tmp_path / "ck",
            idle_timeout=schedule["idle_timeout"],
            checkpoint_interval=schedule["checkpoint_interval"])
        resumed.flush()
        assert result == oracle_result
        _assert_identical(resumed, oracle, tmp_path,
                          f"{mode}{crash_at}")

    @pytest.mark.parametrize("shards", (2, 4))
    def test_sharded_resume_identical(self, bank, campus_frames,
                                      campus_pcap, tmp_path, shards):
        schedule = self._schedule(campus_frames)
        oracle = ShardedPipeline(bank, num_shards=shards, batch_size=8,
                                 retention="both")
        ingest_pcap(oracle, campus_pcap,
                    checkpoint_dir=tmp_path / "oracle-ck", **schedule)
        oracle.flush()

        victim = ShardedPipeline(bank, num_shards=shards, batch_size=8,
                                 retention="both")
        with pytest.raises(_Crash):
            ingest_pcap(_CrashAfter(victim, 200), campus_pcap,
                        checkpoint_dir=tmp_path / "ck", **schedule)
        resumed = ShardedPipeline.restore(tmp_path / "ck", bank)
        ingest_pcap(resumed, campus_pcap, checkpoint_dir=tmp_path / "ck",
                    resume_dir=tmp_path / "ck", **schedule)
        resumed.flush()
        assert resumed.counters == oracle.counters
        assert list(resumed.telemetry) == list(oracle.telemetry)
        save_rollup(resumed.rollup, tmp_path / "rr")
        save_rollup(oracle.rollup, tmp_path / "ro")
        assert (tmp_path / "rr" / "rollup.json").read_bytes() == \
            (tmp_path / "ro" / "rollup.json").read_bytes()

    def test_resume_without_position_rejected(self, bank, campus_frames,
                                              tmp_path):
        pipeline = RealtimePipeline(bank)
        _feed(pipeline, campus_frames[:20])
        pipeline.save_checkpoint(tmp_path / "ck")  # no ingest sidecar
        with pytest.raises(ConfigError):
            load_ingest_position(tmp_path / "ck")

    def test_resume_without_interval_knobs(self, bank, campus_frames,
                                           campus_pcap, tmp_path):
        """Resuming a checkpoint whose run had eviction + checkpoint
        ticks, with neither knob set this time, must drop the saved
        deadlines (not fire them against a None interval)."""
        schedule = self._schedule(campus_frames)
        victim = RealtimePipeline(bank, batch_size=8)
        with pytest.raises(_Crash):
            ingest_pcap(_CrashAfter(victim, 200), campus_pcap,
                        checkpoint_dir=tmp_path / "ck", **schedule)
        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        result = ingest_pcap(resumed, campus_pcap,
                             resume_dir=tmp_path / "ck")
        resumed.flush()
        plain = RealtimePipeline(bank, batch_size=8)
        ingest_pcap(plain, campus_pcap)
        plain.flush()
        assert result.frames == len(campus_frames)
        assert resumed.counters.video_flows == \
            plain.counters.video_flows
        assert len(list(resumed.store)) == len(list(plain.store))

    def test_corrupt_position_sidecar_rejected_at_restore(
            self, bank, campus_frames, campus_pcap, tmp_path):
        """The replay-position sidecar is covered by the checkpoint's
        digest scheme: a flipped byte in ingest.json (which would
        silently skip/replay hundreds of records) fails the restore."""
        schedule = self._schedule(campus_frames)
        victim = RealtimePipeline(bank, batch_size=8)
        with pytest.raises(_Crash):
            ingest_pcap(_CrashAfter(victim, 200), campus_pcap,
                        checkpoint_dir=tmp_path / "ck", **schedule)
        path = tmp_path / "ck" / "ingest.json"
        data = path.read_text().replace('"consumed"', '"consuned"')
        path.write_text(data)
        with pytest.raises(ConfigError):
            RealtimePipeline.restore(tmp_path / "ck", bank)

    def test_corrupt_sidecar_rejected_on_sharded_meta(self, bank,
                                                      campus_frames,
                                                      tmp_path):
        sharded = ShardedPipeline(bank, num_shards=2, batch_size=8)
        _feed(sharded, campus_frames[:60])
        sharded.save_checkpoint(tmp_path / "ck",
                                extra={"ingest.json": "{\"x\": 1}"})
        (tmp_path / "ck" / "ingest.json").write_text("{\"x\": 2}")
        with pytest.raises(ConfigError):
            ShardedPipeline.restore(tmp_path / "ck", bank)

    def test_checkpoint_dir_requires_interval(self, bank, campus_pcap):
        pipeline = RealtimePipeline(bank)
        with pytest.raises(ValueError):
            ingest_pcap(pipeline, campus_pcap,
                        checkpoint_dir="somewhere")

    def test_resume_against_truncated_capture_rejected(
            self, bank, campus_frames, campus_pcap, tmp_path):
        """Pointing a resume at a capture shorter than the saved
        position (wrong file, truncated file) must fail loudly, not
        return stale totals."""
        schedule = self._schedule(campus_frames)
        victim = RealtimePipeline(bank, batch_size=8)
        with pytest.raises(_Crash):
            ingest_pcap(_CrashAfter(victim, 250), campus_pcap,
                        checkpoint_dir=tmp_path / "ck", **schedule)
        position = load_ingest_position(tmp_path / "ck")
        short = tmp_path / "short.pcap"
        with PcapWriter(short) as writer:
            for data, timestamp in \
                    campus_frames[:position.consumed // 2]:
                writer.write_bytes(data, timestamp)
        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        with pytest.raises(ConfigError, match="fewer records"):
            ingest_pcap(resumed, short, resume_dir=tmp_path / "ck")

    def test_interrupted_swap_window_heals(self, bank, campus_frames,
                                           tmp_path):
        """A crash between the swap's two renames leaves the previous
        checkpoint under <dir>.replaced; the next load puts it back."""
        pipeline = RealtimePipeline(bank, batch_size=8)
        _feed(pipeline, campus_frames[:80])
        pipeline.save_checkpoint(tmp_path / "ck")
        expected_counters = RealtimePipeline.restore(
            tmp_path / "ck", bank).counters
        # Simulate the window: target renamed away, new dir not yet in.
        (tmp_path / "ck").rename(tmp_path / "ck.replaced")
        assert checkpoint_kind(tmp_path / "ck") == "realtime"
        restored = RealtimePipeline.restore(tmp_path / "ck", bank)
        assert restored.counters == expected_counters


class TestParallelCrashRecovery:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sigkill_worker_mid_replay(self, bank, bank_dir,
                                       campus_frames, tmp_path,
                                       workers):
        """SIGKILL one worker after a checkpoint: the parent respawns
        it from the shard checkpoint, replays the journaled delta, and
        the merged views finish byte-identical to the uninterrupted
        serial oracle with the same checkpoint boundary."""
        k = len(campus_frames) // 2
        oracle = ShardedPipeline(bank, num_shards=workers, batch_size=8,
                                 retention="both")
        _feed(oracle, campus_frames[:k])
        oracle.save_checkpoint(tmp_path / "oracle-ck")
        _feed(oracle, campus_frames[k:])
        oracle.flush()

        par = ParallelShardedPipeline(bank_dir, num_workers=workers,
                                      batch_size=8, retention="both",
                                      checkpoint_dir=tmp_path / "ck",
                                      chunk_items=16)
        try:
            _feed(par, campus_frames[:k])
            par.save_checkpoint()
            # Feed part of the delta, then kill a worker cold.
            _feed(par, campus_frames[k:k + 60])
            victim = par._workers[workers - 1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            _feed(par, campus_frames[k + 60:])
            par.flush()
            assert par.counters == oracle.counters
            assert par.shard_loads == oracle.shard_loads
            assert list(par.telemetry) == list(oracle.telemetry)
            save_rollup(par.rollup, tmp_path / "pr")
            save_rollup(oracle.rollup, tmp_path / "or")
            assert (tmp_path / "pr" / "rollup.json").read_bytes() == \
                (tmp_path / "or" / "rollup.json").read_bytes()
            assert sum(par._restarts) >= 1
        finally:
            par.close()

    def test_sigkill_before_any_checkpoint_replays_from_scratch(
            self, bank, bank_dir, campus_frames, tmp_path):
        """With checkpoint_dir armed but no checkpoint saved yet, the
        journal reaches back to construction and recovery replays the
        whole stream into a fresh worker."""
        oracle = ShardedPipeline(bank, num_shards=2, batch_size=8)
        _feed(oracle, campus_frames)
        oracle.flush()
        par = ParallelShardedPipeline(bank_dir, num_workers=2,
                                      batch_size=8,
                                      checkpoint_dir=tmp_path / "ck",
                                      chunk_items=16)
        try:
            _feed(par, campus_frames[:80])
            victim = par._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            _feed(par, campus_frames[80:])
            par.flush()
            assert par.counters == oracle.counters
            assert list(par.telemetry) == list(oracle.telemetry)
        finally:
            par.close()

    def test_without_checkpoint_dir_stays_fail_fast(self, bank_dir,
                                                    campus_frames):
        par = ParallelShardedPipeline(bank_dir, num_workers=1,
                                      chunk_items=16)
        par._workers[0].terminate()
        par._workers[0].join()
        with pytest.raises(RuntimeError, match="worker 0"):
            _feed(par, campus_frames)
        par.terminate()

    def test_restart_budget_exhausts(self, bank_dir, campus_frames,
                                     tmp_path):
        """A worker that keeps dying burns its per-window restart
        budget and the failure finally surfaces."""
        par = ParallelShardedPipeline(bank_dir, num_workers=1,
                                      checkpoint_dir=tmp_path / "ck",
                                      chunk_items=8,
                                      max_worker_restarts=0)
        par._workers[0].terminate()
        par._workers[0].join()
        with pytest.raises(RuntimeError, match="recovery gave up"):
            _feed(par, campus_frames)
        par.terminate()


class TestRestoreVariants:
    def test_restore_with_hot_reloaded_bank(self, bank, retrained_bank,
                                            campus_frames, tmp_path):
        """Crash, restore, hot-swap the retrained bank at the
        checkpoint boundary: identical to an uninterrupted run that
        swapped at the same boundary — and the swap visibly changes
        classifications versus never swapping."""
        k = len(campus_frames) // 2
        oracle = RealtimePipeline(bank, batch_size=8)
        _feed(oracle, campus_frames[:k])
        oracle.save_checkpoint(tmp_path / "oracle-ck")
        oracle.reload_bank(retrained_bank)
        _feed(oracle, campus_frames[k:])
        oracle.flush()

        victim = RealtimePipeline(bank, batch_size=8)
        _feed(victim, campus_frames[:k])
        victim.save_checkpoint(tmp_path / "ck")
        # victim dies here; restore into a fresh process + new bank
        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        resumed.reload_bank(retrained_bank)
        _feed(resumed, campus_frames[k:])
        resumed.flush()
        assert resumed.counters == oracle.counters
        assert list(resumed.store) == list(oracle.store)

        # The reload mattered: a no-swap run classifies differently.
        noswap = RealtimePipeline.restore(tmp_path / "ck", bank)
        _feed(noswap, campus_frames[k:])
        noswap.flush()
        assert [r.prediction for r in noswap.store] != \
            [r.prediction for r in resumed.store]

    def test_parallel_restore_with_reloaded_bank(
            self, bank, bank_dir, retrained_bank, retrained_bank_dir,
            campus_frames, tmp_path):
        k = len(campus_frames) // 2
        oracle = ShardedPipeline(bank, num_shards=2, batch_size=8)
        _feed(oracle, campus_frames[:k])
        oracle.save_checkpoint(tmp_path / "oracle-ck")
        oracle.reload_bank(retrained_bank)
        _feed(oracle, campus_frames[k:])
        oracle.flush()

        first = ParallelShardedPipeline(bank_dir, num_workers=2,
                                        batch_size=8,
                                        checkpoint_dir=tmp_path / "ck")
        _feed(first, campus_frames[:k])
        first.save_checkpoint()
        first.terminate()  # simulated hard death of the whole process

        resumed = ParallelShardedPipeline.restore(
            tmp_path / "ck", bank_dir, num_workers=2)
        try:
            resumed.reload_bank(retrained_bank_dir)
            _feed(resumed, campus_frames[k:])
            resumed.flush()
            assert resumed.counters == oracle.counters
            assert list(resumed.telemetry) == list(oracle.telemetry)
        finally:
            resumed.close()

    @pytest.mark.parametrize("before,after", ((2, 4), (4, 2), (2, 1)))
    def test_restore_into_different_worker_count(
            self, bank, bank_dir, campus_frames, tmp_path, before,
            after):
        """Re-sharding a checkpoint keeps the merged views exact:
        counters, the record multiset, and every continued flow."""
        k = len(campus_frames) // 2
        oracle = RealtimePipeline(bank, batch_size=8)
        _feed(oracle, campus_frames[:k])
        oracle.save_checkpoint(tmp_path / "rt-ck")
        _feed(oracle, campus_frames[k:])
        oracle.flush()

        first = ShardedPipeline(bank, num_shards=before, batch_size=8)
        _feed(first, campus_frames[:k])
        first.save_checkpoint(tmp_path / "ck")

        resumed = ShardedPipeline.restore(tmp_path / "ck", bank,
                                          num_shards=after)
        assert resumed.num_shards == after
        _feed(resumed, campus_frames[k:])
        resumed.flush()
        assert resumed.counters == oracle.counters
        assert sorted((str(r.key), r.start_time, r.prediction)
                      for r in resumed.telemetry) == \
            sorted((str(r.key), r.start_time, r.prediction)
                   for r in oracle.store)

        par = ParallelShardedPipeline.restore(
            tmp_path / "ck", bank_dir, num_workers=after)
        try:
            _feed(par, campus_frames[k:])
            par.flush()
            assert par.counters == oracle.counters
            assert sorted((str(r.key), r.start_time, r.prediction)
                          for r in par.telemetry) == \
                sorted((str(r.key), r.start_time, r.prediction)
                       for r in oracle.store)
        finally:
            par.close()


class TestCheckpointCLI:
    def test_classify_checkpoint_then_resume(self, bank_dir, campus_pcap,
                                             tmp_path, capsys):
        from repro.cli import main

        span_args = ["--checkpoint-interval", "2000"]
        assert main(["classify", "--bank", str(bank_dir),
                     "--pcap", str(campus_pcap),
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     *span_args]) == 0
        first = capsys.readouterr().out
        assert checkpoint_kind(tmp_path / "ck") == "realtime"
        position = load_ingest_position(tmp_path / "ck")
        assert position.consumed > 0
        # Resuming the *finished* run replays only the tail after the
        # last checkpoint and prints the same classified totals.
        assert main(["classify", "--bank", str(bank_dir),
                     "--pcap", str(campus_pcap),
                     "--resume", str(tmp_path / "ck"),
                     *span_args]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_campus_workers_checkpoint_resume(self, bank_dir,
                                              campus_pcap, tmp_path,
                                              capsys):
        from repro.cli import main

        args = ["campus", "--bank", str(bank_dir),
                "--pcap", str(campus_pcap), "--workers", "2",
                "--checkpoint-interval", "2000"]
        assert main([*args, "--checkpoint-dir",
                     str(tmp_path / "ck")]) == 0
        first = capsys.readouterr().out
        assert main([*args, "--resume", str(tmp_path / "ck")]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_resume_inherits_checkpointed_retention(self, bank_dir,
                                                    campus_pcap,
                                                    tmp_path, capsys):
        """--resume without restating --retention/--batch-size picks
        up the checkpointed values instead of failing on the argparse
        defaults."""
        from repro.cli import main

        assert main(["campus", "--bank", str(bank_dir),
                     "--pcap", str(campus_pcap),
                     "--retention", "both", "--batch-size", "16",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--checkpoint-interval", "2000"]) == 0
        first = capsys.readouterr().out
        assert main(["campus", "--bank", str(bank_dir),
                     "--pcap", str(campus_pcap),
                     "--resume", str(tmp_path / "ck")]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_resume_nonexistent_dir_fails_cleanly(self, bank_dir,
                                                  campus_pcap,
                                                  tmp_path):
        from repro.cli import main

        with pytest.raises(ConfigError):
            main(["classify", "--bank", str(bank_dir),
                  "--pcap", str(campus_pcap),
                  "--resume", str(tmp_path / "missing")])
