"""Parallel runtime equivalence suite.

The in-process :class:`ShardedPipeline` is the oracle, the
multiprocess :class:`ParallelShardedPipeline` is the product. On the
same campus-mix capture the two must produce identical counters,
identical per-shard placement, identical predictions and telemetry
(same records, same order), and byte-identical rollup snapshots — for
worker counts 1, 2, and 4, through the raw-frame path, the eager
packet path, the flow-summary path, and a pcap replay with idle
eviction ticking.
"""

from itertools import zip_longest

import pytest

from repro.errors import ConfigError
from repro.fingerprints import Provider, Transport, UserPlatform, get_profile
from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, Packet, PcapWriter, TCPHeader, decode_block, make_tcp_packet
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    ShardedPipeline,
    ingest_pcap,
    load_bank,
    save_bank,
)
from repro.telemetry import save_rollup
from repro.trafficgen import (
    CampusConfig,
    CampusWorkload,
    FlowBuildRequest,
    FlowFactory,
    generate_lab_dataset,
)
from repro.util import SeededRNG

def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=47, scale=0.05)


@pytest.fixture(scope="module")
def bank_dir(lab, tmp_path_factory):
    bank = ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=6, max_depth=14, random_state=1))
    path = tmp_path_factory.mktemp("bank") / "bank"
    save_bank(bank, path)
    return path


@pytest.fixture(scope="module")
def bank(bank_dir):
    # The oracle runs on the *persisted* bank too, so the suite
    # isolates the parallel machinery rather than the save/load
    # round trip (itself pinned elsewhere).
    return load_bank(bank_dir)


@pytest.fixture(scope="module")
def campus_frames(lab):
    """Video flows of every scenario interleaved with non-video TLS
    and non-443 bulk — the regime the tap lives in."""
    flows = list(lab)[::6][:60]
    factory = FlowFactory(SeededRNG(29))
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    for i in range(8):
        flows.append(factory.build(FlowBuildRequest(
            platform_label="windows_chrome", provider=Provider.YOUTUBE,
            transport=Transport.TCP, profile=profile,
            sni=f"www.site{i}.example.net",
            client_ip=f"10.{40 + i}.3.7", start_time=12.0 + i)))
    rows = zip_longest(*[flow.packets for flow in flows])
    video = [p for row in rows for p in row if p is not None]
    rng = SeededRNG(83)
    mixed = []
    for i, packet in enumerate(video):
        mixed.append(packet)
        tcp = TCPHeader(src_port=40000 + i % 300,
                        dst_port=8080 if i % 2 else 443,
                        seq=i * 900, flag_ack=True)
        mixed.append(make_tcp_packet(
            f"10.{i % 90}.6.4", "93.184.216.34", tcp,
            payload=rng.token_bytes(300), timestamp=15.0 + i * 0.0007))
    return [(p.to_bytes(), p.timestamp) for p in mixed]


def _run_serial(bank, frames, num_shards, **kw):
    pipeline = ShardedPipeline(bank, num_shards=num_shards,
                               batch_size=8, **kw)
    _feed(pipeline, frames)
    pipeline.flush()
    return pipeline


def _assert_equivalent(par, serial, tmp_path, tag):
    assert par.counters == serial.counters
    assert par.shard_loads == serial.shard_loads
    par_records = list(par.telemetry)
    serial_records = list(serial.telemetry)
    assert par_records == serial_records
    assert [(str(r.key), r.prediction) for r in par_records] == \
        [(str(r.key), r.prediction) for r in serial_records]
    if serial.shards[0].rollup is not None:
        save_rollup(par.rollup, tmp_path / f"{tag}-par")
        save_rollup(serial.rollup, tmp_path / f"{tag}-serial")
        assert (tmp_path / f"{tag}-par" / "rollup.json").read_bytes() \
            == (tmp_path / f"{tag}-serial" / "rollup.json").read_bytes()


class TestParallelVsSharded:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_raw_frames_identical(self, bank, bank_dir, campus_frames,
                                  tmp_path, workers):
        serial = _run_serial(bank, campus_frames, workers,
                             retention="both")
        with ParallelShardedPipeline(bank_dir, num_workers=workers,
                                     batch_size=8,
                                     retention="both") as par:
            _feed(par, campus_frames)
            par.flush()
            _assert_equivalent(par, serial, tmp_path, f"w{workers}")
            assert par.counters.video_flows > 0
            assert par.counters.non_video_flows > 0

    def test_eager_packet_path_identical(self, bank, bank_dir,
                                         campus_frames):
        serial = ShardedPipeline(bank, num_shards=3, batch_size=4)
        for data, timestamp in campus_frames:
            serial.process_packet(Packet.from_bytes(data, timestamp))
        serial.flush()
        with ParallelShardedPipeline(bank_dir, num_workers=3,
                                     batch_size=4) as par:
            for data, timestamp in campus_frames:
                par.process_packet(Packet.from_bytes(data, timestamp))
            par.flush()
            assert par.counters == serial.counters
            assert list(par.telemetry) == list(serial.telemetry)

    def test_flow_summary_path_identical(self, bank, bank_dir):
        workload = CampusConfig(days=1, sessions_per_day=40, seed=5)
        serial = ShardedPipeline(bank, num_shards=2, batch_size=8)
        serial.process_flows(CampusWorkload(workload).flows())
        serial.flush()
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=8) as par:
            par.process_flows(CampusWorkload(workload).flows())
            par.flush()
            assert par.counters == serial.counters
            assert list(par.telemetry) == list(serial.telemetry)

    def test_pcap_replay_with_idle_eviction(self, bank, bank_dir,
                                            campus_frames, tmp_path):
        path = tmp_path / "campus.pcap"
        with PcapWriter(path) as writer:
            for data, timestamp in campus_frames:
                writer.write_bytes(data, timestamp)
        serial = ShardedPipeline(bank, num_shards=2, batch_size=8)
        res_serial = ingest_pcap(serial, path, idle_timeout=2.0)
        serial.flush()
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=8) as par:
            res_par = ingest_pcap(par, path, idle_timeout=2.0)
            par.flush()
            assert res_par == res_serial
            assert par.counters == serial.counters
            assert list(par.telemetry) == list(serial.telemetry)

    def test_live_flow_and_pending_views(self, bank, bank_dir,
                                         campus_frames):
        serial = _run_serial(bank, campus_frames, 2)
        with ParallelShardedPipeline(bank_dir, num_workers=2,
                                     batch_size=8) as par:
            _feed(par, campus_frames)
            # Before any flush: the live flow table must look exactly
            # like the serial dispatcher's.
            serial_live = ShardedPipeline(bank, num_shards=2,
                                          batch_size=8)
            _feed(serial_live, campus_frames)
            assert par.live_flows == serial_live.live_flows
            assert par.pending_classifications == \
                serial_live.pending_classifications
            par.flush()
            assert par.live_flows == 0
            assert par.counters == serial.counters


class TestParallelLifecycle:
    def test_missing_bank_dir_fails_in_parent(self, tmp_path):
        with pytest.raises(ConfigError):
            ParallelShardedPipeline(tmp_path / "nope")

    def test_rejects_bad_arguments(self, bank_dir):
        with pytest.raises(ValueError):
            ParallelShardedPipeline(bank_dir, num_workers=0)
        with pytest.raises(ValueError):
            ParallelShardedPipeline(bank_dir, num_workers=1,
                                    batch_size=0)
        with pytest.raises(ValueError):
            ParallelShardedPipeline(bank_dir, num_workers=1,
                                    retention="tape")

    def test_close_is_idempotent_and_final(self, bank_dir,
                                           campus_frames):
        par = ParallelShardedPipeline(bank_dir, num_workers=2)
        _feed(par, campus_frames[:50])
        par.flush()
        counters = par.counters
        par.close()
        par.close()
        # Merged views survive close (final state is synced first) ...
        assert par.counters == counters
        # ... but feeding a closed pipeline is an error.
        with pytest.raises(RuntimeError):
            _feed(par, campus_frames[:2])
        with pytest.raises(RuntimeError):
            par.flush()

    def test_dead_worker_fails_fast_on_ship(self, bank_dir,
                                            campus_frames):
        """A dead worker must surface at the next shipped chunk, not
        hours later at the final flush barrier (the parent would
        otherwise pickle the rest of the capture into a queue nobody
        drains)."""
        par = ParallelShardedPipeline(bank_dir, num_workers=1,
                                      chunk_items=16)
        par._workers[0].terminate()
        par._workers[0].join()
        with pytest.raises(RuntimeError, match="worker 0"):
            _feed(par, campus_frames)
        par.terminate()

    def test_worker_error_surfaces_in_parent(self, bank_dir):
        par = ParallelShardedPipeline(bank_dir, num_workers=1)
        # A frame that parses in the parent but is then corrupted
        # cannot happen through the public surface; inject a poison
        # command instead to prove worker tracebacks propagate.
        par._cmd_queues[0].put(("flows", [object()]))
        with pytest.raises(RuntimeError, match="worker 0 failed"):
            par.flush()
        par.terminate()
