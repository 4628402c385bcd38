"""The calling conventions the ledger's layer replays depend on.

``benchmarks/ledger/layers.py`` tests each lane of
``partition_https_indices`` for truth (``if not indices:``) and wraps
``pack_chunks(indices, max_bytes=...)`` in ``list``; a rewrite that
returned arrays would pass every parity test and then die in the
benchmark run. The tier-1 ledger smoke traces ``handshake_storm`` only,
so the replay the ON-OFF claims are located by runs here, over the
golden capture.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def test_capture_file_replay_runs_over_the_golden_capture(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "ledger"))
    import layers

    expected = json.loads((GOLDEN / "expected.json").read_text())
    totals = layers.capture_file(GOLDEN / "golden.pcap")
    ingest = expected["ingest"]
    assert totals["frames"] == ingest["frames"] + ingest["skipped"]
    assert totals["invalid"] == ingest["skipped"]
    assert 0 < totals["https"] <= totals["frames"]
    assert totals["pack_bytes"] > 0
    assert math.isfinite(totals["skew"]) and totals["skew"] >= 1.0
    for stage in ("read_s", "decode_s", "partition_s", "pack_s",
                  "unpack_s", "ring_s"):
        assert totals[stage] > 0.0, stage
