"""Property-based round-trip suite for every persistence surface.

Three artifact families — trained banks (``pipeline/persist.py``),
rollup cubes (``telemetry/snapshot.py``), and mid-replay checkpoints
(``pipeline/checkpoint.py``) — share one contract:

* **save → load → save is byte-equal** (JSON files byte-for-byte, npz
  arrays exactly; npz container bytes are excluded because the zip
  layer stamps timestamps);
* **loading a corrupted, truncated, or version-bumped artifact raises
  ConfigError** — never an arbitrary exception, never garbage state.

Randomization is plain seeded ``random`` (no new dependencies): the
cube contents, the checkpoint cut points, and the corruption positions
all come from per-test ``random.Random`` streams, so failures replay
exactly.
"""

import json
import random
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fingerprints import Provider, Transport
from repro.ml import RandomForestClassifier
from repro.net import FrameBlock, decode_block
from repro.net.flow import FlowKey
from repro.pipeline import (
    ClassifierBank,
    PlatformPrediction,
    RealtimePipeline,
    TelemetryRecord,
    load_bank,
    restore_realtime,
    save_bank,
)
from repro.telemetry import (
    RollupConfig,
    RollupCube,
    load_rollup,
    save_rollup,
)
from repro.trafficgen import generate_lab_dataset


def _feed(pipeline, frames):
    """Raw ``(bytes, timestamp)`` frames through the block path."""
    pipeline.process_block(decode_block(FrameBlock.from_frames(frames)))


@pytest.fixture(scope="module")
def lab():
    return generate_lab_dataset(seed=47, scale=0.05)


@pytest.fixture(scope="module")
def bank(lab):
    return ClassifierBank.train(
        lab,
        model_factory=lambda: RandomForestClassifier(
            n_estimators=4, max_depth=10, random_state=3))


@pytest.fixture(scope="module")
def campus_frames(lab):
    flows = list(lab)[::5][:50]
    frames = [(p.to_bytes(), p.timestamp)
              for flow in flows for p in flow.packets]
    frames.sort(key=lambda pair: pair[1])
    return frames


def _dir_digests(root: Path) -> dict:
    """Byte content of every JSON/bin file plus exact npz array
    contents, keyed by relative path (the byte-equality fingerprint of
    a persisted artifact)."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                out[rel] = {name: (arrays[name].dtype.str,
                                   arrays[name].tobytes())
                            for name in sorted(arrays.files)}
        else:
            out[rel] = zlib.crc32(path.read_bytes())
    return out


def _random_record(rng: random.Random, session: int) -> TelemetryRecord:
    provider = rng.choice(list(Provider))
    transport = rng.choice(list(Transport))
    status = rng.choice(("classified", "partial", "unknown"))
    confidence = rng.random()
    start = rng.uniform(0, 3 * 86400)
    return TelemetryRecord(
        key=FlowKey(6, f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
                    rng.randrange(1024, 65535), "93.184.216.34", 443),
        provider=provider, transport=transport,
        role=rng.choice(("content", "browse")),
        start_time=start, duration=rng.uniform(0, 7200),
        bytes_down=rng.randrange(10 ** 9),
        bytes_up=rng.randrange(10 ** 7),
        prediction=PlatformPrediction(
            status=status,
            platform="windows_chrome" if status == "classified"
            else None,
            device="windows" if status != "unknown" else None,
            agent=None, confidence=confidence,
            device_confidence=rng.random(),
            agent_confidence=rng.random()),
        session_id=session,
    )


class TestBankRoundtrip:
    def test_save_load_save_byte_equal(self, bank, tmp_path):
        save_bank(bank, tmp_path / "a")
        reloaded = load_bank(tmp_path / "a")
        save_bank(reloaded, tmp_path / "b")
        assert _dir_digests(tmp_path / "a") == \
            _dir_digests(tmp_path / "b")

    def test_reloaded_bank_classifies_identically(self, bank, lab,
                                                  tmp_path):
        save_bank(bank, tmp_path / "bank")
        reloaded = load_bank(tmp_path / "bank")
        pipeline_a = RealtimePipeline(bank)
        pipeline_b = RealtimePipeline(reloaded)
        for flow in list(lab)[::17][:25]:
            record_a = pipeline_a.process_flow(flow)
            record_b = pipeline_b.process_flow(flow)
            assert (record_a is None) == (record_b is None)
            if record_a is not None:
                assert record_a.prediction == record_b.prediction


class TestRollupRoundtrip:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_randomized_cube_save_load_save(self, tmp_path, seed):
        rng = random.Random(0xA11CE + seed)
        cube = RollupCube(RollupConfig(
            bucket_seconds=rng.choice((900.0, 3600.0, 86400.0)),
            epsilon=rng.choice((0.005, 0.01, 0.05))))
        for i in range(rng.randrange(50, 400)):
            cube.ingest(_random_record(rng, session=i % 37))
        save_rollup(cube, tmp_path / "a")
        save_rollup(load_rollup(tmp_path / "a"), tmp_path / "b")
        assert (tmp_path / "a" / "rollup.json").read_bytes() == \
            (tmp_path / "b" / "rollup.json").read_bytes()
        assert _dir_digests(tmp_path / "a") == \
            _dir_digests(tmp_path / "b")


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_cut_save_load_save(self, bank, campus_frames,
                                       tmp_path, seed):
        """A checkpoint taken at a random point of a replay survives
        save → load → save byte-identically — state.json, packets.bin
        (the pickled handshake buffers), and the rollup snapshot."""
        rng = random.Random(0xBEEF + seed)
        cut = rng.randrange(1, len(campus_frames))
        pipeline = RealtimePipeline(bank, batch_size=rng.choice((1, 8)),
                                    retention="both")
        _feed(pipeline, campus_frames[:cut])
        pipeline.save_checkpoint(tmp_path / "a")
        restored = restore_realtime(tmp_path / "a", bank)
        restored.save_checkpoint(tmp_path / "b")
        assert (tmp_path / "a" / "state.json").read_bytes() == \
            (tmp_path / "b" / "state.json").read_bytes()
        assert (tmp_path / "a" / "packets.bin").read_bytes() == \
            (tmp_path / "b" / "packets.bin").read_bytes()
        assert _dir_digests(tmp_path / "a") == \
            _dir_digests(tmp_path / "b")


def _corrupt(path: Path, rng: random.Random) -> None:
    data = bytearray(path.read_bytes())
    pos = rng.randrange(len(data))
    data[pos] ^= 1 + rng.randrange(255)
    path.write_bytes(bytes(data))


class TestCorruptionRejected:
    """Damaged artifacts must raise ConfigError — the deployment
    refuses to come back up on garbage rather than classifying with
    it."""

    @pytest.fixture()
    def bank_dir(self, bank, tmp_path):
        path = tmp_path / "bank"
        save_bank(bank, path)
        return path

    @pytest.fixture()
    def rollup_dir(self, tmp_path):
        rng = random.Random(7)
        cube = RollupCube(RollupConfig())
        for i in range(120):
            cube.ingest(_random_record(rng, session=i % 11))
        path = tmp_path / "rollup"
        save_rollup(cube, path)
        return path

    @pytest.fixture()
    def checkpoint_dir(self, bank, campus_frames, tmp_path):
        pipeline = RealtimePipeline(bank, batch_size=8,
                                    retention="both")
        _feed(pipeline, campus_frames[:150])
        path = tmp_path / "ck"
        pipeline.save_checkpoint(path)
        return path

    def test_bank_version_bump_rejected(self, bank_dir):
        manifest = json.loads((bank_dir / "manifest.json").read_text())
        manifest["format_version"] = 99
        (bank_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            load_bank(bank_dir)

    def test_bank_corrupt_npz_rejected(self, bank_dir):
        rng = random.Random(13)
        victim = sorted(bank_dir.glob("*.npz"))[0]
        _corrupt(victim, rng)
        with pytest.raises(ConfigError):
            load_bank(bank_dir)

    def test_bank_truncated_scenario_json_rejected(self, bank_dir):
        victim = sorted(p for p in bank_dir.glob("*.json")
                        if p.name != "manifest.json")[0]
        victim.write_bytes(victim.read_bytes()[:40])
        with pytest.raises(ConfigError):
            load_bank(bank_dir)

    def test_bank_missing_scenario_file_rejected(self, bank_dir):
        sorted(bank_dir.glob("*.npz"))[0].unlink()
        with pytest.raises(ConfigError):
            load_bank(bank_dir)

    @pytest.mark.parametrize("n_estimators", [None, 0])
    def test_bank_zero_trees_rejected(self, bank_dir, n_estimators):
        """A hand-edited bank whose forest has no trees must fail at
        load, typed, not at the first prediction."""
        victim = sorted(p for p in bank_dir.glob("*.json")
                        if p.name != "manifest.json")[0]
        meta = json.loads(victim.read_text())
        meta["models"]["platform"]["n_trees"] = 0
        if n_estimators is not None:
            meta["models"]["platform"]["params"]["n_estimators"] = \
                n_estimators
        victim.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="n_trees|n_estimators"):
            load_bank(bank_dir)

    def test_bank_garbage_manifest_rejected(self, bank_dir):
        (bank_dir / "manifest.json").write_bytes(b"\x00\xff{{{")
        with pytest.raises(ConfigError):
            load_bank(bank_dir)

    def test_rollup_version_bump_rejected(self, rollup_dir):
        manifest = json.loads((rollup_dir / "rollup.json").read_text())
        manifest["format_version"] = 99
        (rollup_dir / "rollup.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            load_rollup(rollup_dir)

    def test_rollup_truncated_manifest_rejected(self, rollup_dir):
        path = rollup_dir / "rollup.json"
        path.write_bytes(path.read_bytes()[:60])
        with pytest.raises(ConfigError):
            load_rollup(rollup_dir)

    def test_rollup_corrupt_npz_rejected(self, rollup_dir):
        # Stomp a span in the middle of the archive: whatever member
        # it lands in, decompression or the zip CRC must notice.
        path = rollup_dir / "rollup.npz"
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        data[mid:mid + 24] = b"\xff" * 24
        path.write_bytes(bytes(data))
        with pytest.raises(ConfigError):
            load_rollup(rollup_dir)

    def test_rollup_truncated_npz_rejected(self, rollup_dir):
        path = rollup_dir / "rollup.npz"
        path.write_bytes(path.read_bytes()[:-120])
        with pytest.raises(ConfigError):
            load_rollup(rollup_dir)

    def test_rollup_missing_npz_rejected(self, rollup_dir):
        (rollup_dir / "rollup.npz").unlink()
        with pytest.raises(ConfigError):
            load_rollup(rollup_dir)

    @pytest.mark.parametrize("seed", range(6))
    def test_checkpoint_any_state_flip_rejected(self, checkpoint_dir,
                                                seed):
        """The payload digest makes *any* byte flip in state.json a
        ConfigError — even flips that would still parse as valid JSON
        with plausible values."""
        rng = random.Random(0xD00D + seed)
        _corrupt(checkpoint_dir / "state.json", rng)
        with pytest.raises(ConfigError):
            restore_realtime(checkpoint_dir, None)

    @pytest.mark.parametrize("seed", range(3))
    def test_checkpoint_packet_flip_rejected(self, checkpoint_dir,
                                             seed):
        rng = random.Random(0xF00 + seed)
        _corrupt(checkpoint_dir / "packets.bin", rng)
        with pytest.raises(ConfigError):
            restore_realtime(checkpoint_dir, None)

    def test_checkpoint_truncation_rejected(self, checkpoint_dir):
        path = checkpoint_dir / "state.json"
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ConfigError):
            restore_realtime(checkpoint_dir, None)

    def test_checkpoint_version_bump_rejected(self, checkpoint_dir):
        path = checkpoint_dir / "state.json"
        document = json.loads(path.read_text())
        document["format_version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigError):
            restore_realtime(checkpoint_dir, None)

    def test_checkpoint_missing_rollup_rejected(self, checkpoint_dir):
        shutil.rmtree(checkpoint_dir / "rollup")
        with pytest.raises(ConfigError):
            restore_realtime(checkpoint_dir, None)

    def test_checkpoint_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            restore_realtime(tmp_path / "nope", None)
