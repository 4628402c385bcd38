"""Golden-trace regression tripwire.

``tests/golden/golden.pcap`` is a committed, seeded campus capture;
``tests/golden/expected.json`` pins the counters, every per-flow
prediction (with exact confidences), the record order, and the rollup
snapshot digests a bank trained with the pinned parameters must
produce on it. This suite replays the committed bytes through
eager/bulk ingest x serial/sharded/parallel (queue and shm) runtimes
and fails on *any* drift: the cheapest tier-1 guard for every future
fast-path change.

If a change moves these bytes **intentionally**, regenerate with::

    PYTHONPATH=src python tests/golden/make_golden_trace.py

and commit the updated fixture with the change (the generator is
seeded, so regeneration is reproducible).
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.pipeline import (
    ParallelShardedPipeline,
    RealtimePipeline,
    ShardedPipeline,
    ingest_pcap,
    save_bank,
)
from repro.telemetry import save_rollup

from golden.make_golden_trace import record_rows, train_bank

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "expected.json").read_text())


@pytest.fixture(scope="module")
def bank():
    return train_bank()


@pytest.fixture(scope="module")
def bank_dir(bank, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden-bank") / "bank"
    save_bank(bank, path)
    return path


def _rollup_digest(cube, tmp_path, tag) -> str:
    target = tmp_path / f"rollup-{tag}"
    save_rollup(cube, target)
    return hashlib.sha256(
        (target / "rollup.json").read_bytes()).hexdigest()


class TestGoldenTrace:
    @pytest.mark.parametrize("mode", ("eager", "bulk"))
    def test_serial_replay_matches_pinned_bytes(self, bank, expected,
                                                tmp_path, mode):
        pipeline = RealtimePipeline(bank, batch_size=8,
                                    retention="both")
        result = ingest_pcap(pipeline, GOLDEN / "golden.pcap",
                             mode=mode)
        pipeline.flush()
        assert result.frames == expected["ingest"]["frames"]
        assert result.skipped == expected["ingest"]["skipped"]
        assert asdict(pipeline.counters) == expected["counters"]
        assert record_rows(pipeline.store) == expected["records"]
        assert _rollup_digest(pipeline.rollup, tmp_path, mode) == \
            expected["rollup_sha256_serial"]

    @pytest.mark.parametrize("mode", ("eager", "bulk"))
    def test_sharded_replay_matches_pinned_bytes(self, bank, expected,
                                                 tmp_path, mode):
        pipeline = ShardedPipeline(bank, num_shards=3, batch_size=8,
                                   retention="both")
        ingest_pcap(pipeline, GOLDEN / "golden.pcap", mode=mode)
        pipeline.flush()
        assert asdict(pipeline.counters) == expected["counters"]
        # Record *order* is shard-major (pinned via the merged rollup
        # digest + the serial order above); the multiset must still
        # match the serial records exactly.
        assert sorted(map(tuple, record_rows(pipeline.store))) == \
            sorted(map(tuple, expected["records"]))
        assert _rollup_digest(pipeline.rollup, tmp_path, mode) == \
            expected["rollup_sha256_sharded3"]

    def test_parallel_replay_matches_pinned_bytes(self, bank_dir,
                                                  expected, tmp_path):
        with ParallelShardedPipeline(bank_dir, num_workers=3,
                                     batch_size=8,
                                     retention="both") as pipeline:
            ingest_pcap(pipeline, GOLDEN / "golden.pcap")
            pipeline.flush()
            assert asdict(pipeline.counters) == expected["counters"]
            assert sorted(map(tuple, record_rows(pipeline.telemetry))) \
                == sorted(map(tuple, expected["records"]))
            # The multiprocess runtime must land on the same merged
            # rollup bytes as the serial 3-shard dispatcher.
            assert _rollup_digest(pipeline.rollup, tmp_path, "par") == \
                expected["rollup_sha256_sharded3"]

    def test_parallel_shm_bulk_matches_pinned_bytes(self, bank_dir,
                                                    expected, tmp_path):
        """The fully optimized path — vectorized bulk decode over the
        shared-memory ring transport — must land on the same pinned
        bytes as every other mode x runtime combination."""
        with ParallelShardedPipeline(bank_dir, num_workers=3,
                                     batch_size=8, retention="both",
                                     transport="shm") as pipeline:
            ingest_pcap(pipeline, GOLDEN / "golden.pcap", mode="bulk")
            pipeline.flush()
            assert asdict(pipeline.counters) == expected["counters"]
            assert sorted(map(tuple, record_rows(pipeline.telemetry))) \
                == sorted(map(tuple, expected["records"]))
            assert _rollup_digest(pipeline.rollup, tmp_path, "shm") == \
                expected["rollup_sha256_sharded3"]

    @pytest.mark.parametrize("transport", ("queue", "shm"))
    def test_parallel_eager_matches_pinned_bytes(self, bank_dir,
                                                 expected, tmp_path,
                                                 transport):
        """The oracle ingest through the worker fleet (packets ride
        the command queue whichever way blocks would travel)."""
        with ParallelShardedPipeline(bank_dir, num_workers=3,
                                     batch_size=8, retention="both",
                                     transport=transport) as pipeline:
            ingest_pcap(pipeline, GOLDEN / "golden.pcap", mode="eager")
            pipeline.flush()
            assert asdict(pipeline.counters) == expected["counters"]
            assert sorted(map(tuple, record_rows(pipeline.telemetry))) \
                == sorted(map(tuple, expected["records"]))
            assert _rollup_digest(pipeline.rollup, tmp_path, transport) \
                == expected["rollup_sha256_sharded3"]

    @pytest.mark.parametrize("workers", (1, 4))
    def test_worker_count_equivalence_under_builtin_pack(
            self, bank_dir, expected, workers):
        """The committed builtin fingerprint pack reproduces the pinned
        golden trace at any worker count — the CI gate for the pack
        refactor: dissolving the hardcoded library into pack files
        moved zero bytes, serial or parallel."""
        from repro.fingerprints.packs import BUILTIN_PACK_NAME, active_pack
        assert active_pack().name == BUILTIN_PACK_NAME
        with ParallelShardedPipeline(bank_dir, num_workers=workers,
                                     batch_size=8,
                                     retention="both") as pipeline:
            ingest_pcap(pipeline, GOLDEN / "golden.pcap")
            pipeline.flush()
            assert asdict(pipeline.counters) == expected["counters"]
            assert sorted(map(tuple, record_rows(pipeline.telemetry))) \
                == sorted(map(tuple, expected["records"]))

    def test_checkpointed_replay_matches_pinned_bytes(self, bank,
                                                      expected,
                                                      tmp_path):
        """Checkpointing mid-replay and resuming must not move the
        golden bytes either: the additive state (counters, records,
        predictions) is checkpoint-schedule-invariant."""
        victim = RealtimePipeline(bank, batch_size=8)
        ingest_pcap(victim, GOLDEN / "golden.pcap",
                    checkpoint_dir=tmp_path / "ck",
                    checkpoint_interval=20.0)
        resumed = RealtimePipeline.restore(tmp_path / "ck", bank)
        ingest_pcap(resumed, GOLDEN / "golden.pcap",
                    checkpoint_dir=tmp_path / "ck",
                    resume_dir=tmp_path / "ck",
                    checkpoint_interval=20.0)
        resumed.flush()
        assert asdict(resumed.counters) == expected["counters"]
        assert record_rows(resumed.store) == expected["records"]

    def test_parallel_metrics_match_serial_on_golden_trace(
            self, bank, bank_dir, expected, tmp_path):
        """The observability plane's core equivalence: count metrics
        exported by the instrumented multiprocess runtime (merged
        across workers) must be *byte-identical* to a serial run's on
        the pinned trace — and both must agree with the pinned
        counters. Timing series are excluded (wall time is not
        deterministic); everything additive must be."""
        serial = RealtimePipeline(bank, batch_size=8, retention="both",
                                  metrics=True)
        ingest_pcap(serial, GOLDEN / "golden.pcap")
        serial.flush()
        with ParallelShardedPipeline(bank_dir, num_workers=3,
                                     batch_size=8, retention="both",
                                     transport="shm",
                                     metrics=True) as par:
            ingest_pcap(par, GOLDEN / "golden.pcap", mode="bulk")
            par.flush()
            par_metrics = par.export_metrics()
        serial_metrics = serial.export_metrics()

        count_names = ("repro_packets_total", "repro_flows_total",
                       "repro_video_flows_total",
                       "repro_non_video_flows_total",
                       "repro_classifications_total",
                       "repro_parse_failures_total",
                       "repro_incomplete_flows_total",
                       "repro_evicted_flows_total")

        def count_lines(registry):
            return [line for line in
                    registry.render_prometheus().splitlines()
                    if not line.startswith("#")
                    and line.split("{")[0].split(" ")[0] in count_names]

        serial_lines = count_lines(serial_metrics)
        assert count_lines(par_metrics) == serial_lines
        # Both views agree with the pinned golden counters.
        assert serial_metrics.value("repro_packets_total") == \
            expected["counters"]["packets"]
        assert serial_metrics.value("repro_video_flows_total") == \
            expected["counters"]["video_flows"]
        assert serial_metrics.value(
            "repro_classifications_total",
            {"status": "classified"}) == \
            expected["counters"]["classified"]

    def test_fixture_files_are_committed(self):
        assert (GOLDEN / "golden.pcap").stat().st_size > 10_000
        expected = json.loads((GOLDEN / "expected.json").read_text())
        assert expected["counters"]["video_flows"] > 0
        assert len(expected["records"]) == \
            expected["counters"]["video_flows"]
