"""The product under test, named once.

Everything the ledger knows about the program lives here: the six
knobs it pins (and why), the public names it imports (so a refactor
can tell what is measured), and the constructors every workload goes
through. ``construct`` drops a keyword its target no longer accepts,
so deleting a knob from the product (ROADMAP item 2) needs no edit to
the benchmark — the measurement simply follows the shipped default.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from typing import Any

from repro.ml import RandomForestClassifier
from repro.pipeline import (
    ClassifierBank,
    ParallelShardedPipeline,
    RealtimePipeline,
    ingest_pcap,
    save_bank,
)
from repro.trafficgen import generate_lab_dataset

#: knob -> (value, why it is pinned). ``serve_live`` passes none of
#: these except ``idle_timeout``: it measures the shipped defaults.
PINNED_KNOBS: dict[str, tuple[Any, str]] = {
    "num_workers": (2, "the reference box has 2 vCPUs; parent + 2 workers "
                       "is the smallest fleet that can be worker-bound"),
    "batch_size": (64, "the daemon's default classification drain; 1 would "
                       "measure the reference path, not the product"),
    "retention": ("rollup", "bounded memory is the only retention a "
                            "months-long tap can run"),
    "mode": ("bulk", "the vectorised ingest is the product path; eager is "
                     "the oracle and is only used to check it"),
    "idle_timeout": (60.0, "shorter than the gap between trace epochs, so "
                           "the flow table is bounded and counters are "
                           "additive across epochs"),
    "transport": ("shm", "faster than queue at every worker count in "
                         "BENCH_parallel.json; batch parallel only"),
}

#: Public names the ledger calls or times. A refactor that renames or
#: removes one of these changes what the benchmark measures.
LOAD_BEARING_NAMES = (
    "repro.cli serve (subprocess: --bank --source tail: --port "
    "--idle-timeout)",
    "repro.features.extract.extract_attributes",
    "repro.features.extract.parse_flow_handshake",
    "repro.ml.RandomForestClassifier",
    "repro.net.pcap.PcapReader.blocks",
    "repro.net.rawpacket.DecodedBlock.https_indices",
    "repro.net.rawpacket.DecodedBlock.promote",
    "repro.net.rawpacket.FrameBlock.pack_chunks",
    "repro.net.rawpacket.FrameBlock.unpack",
    "repro.net.rawpacket.decode_block",
    "repro.pipeline.ClassifierBank.classify_batch",
    "repro.pipeline.ClassifierBank.train",
    "repro.pipeline.ParallelShardedPipeline",
    "repro.pipeline.RealtimePipeline",
    "repro.pipeline.ingest_pcap",
    "repro.pipeline.load_bank",
    "repro.pipeline.save_bank",
    "repro.pipeline.sharded.partition_https_indices",
    "repro.pipeline.shmring.FrameRing",
    "repro.pipeline.shmring.RingReader",
    "repro.quic.initial.unprotect_client_initial",
    "repro.reporting.render_rollup_report",
    "repro.service.sources.PcapTailSource.poll",
    "repro.telemetry.RollupCube.ingest",
    "repro.telemetry.RollupCube.merge_from",
    "repro.telemetry.snapshot.load_rollup",
    "repro.telemetry.snapshot.save_rollup",
    "repro.trafficgen.FlowFactory",
    "repro.trafficgen.generate_lab_dataset",
    "GET /api/status /api/counters /api/report /api/rollup /metrics "
    "/readyz, POST /api/flush",
)

# The bank every workload classifies with: small enough that training
# stays a fraction of set-up, deep enough that the forest pass is real
# (the smoke self-test only needs *a* bank).
_LAB_SCALE = 0.02
_TREES = {"full": 8, "smoke": 2}


def knobs(*names: str) -> dict[str, Any]:
    return {name: PINNED_KNOBS[name][0] for name in names}


def construct(target: Any, *args: Any, **keywords: Any) -> Any:
    """``target(*args, **keywords)`` minus the keywords ``target`` does
    not accept (any more)."""
    accepted = inspect.signature(target).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
        keywords = {k: v for k, v in keywords.items() if k in accepted}
    return target(*args, **keywords)


def train_bank(seed: int, bank_dir: Path,
               scale: str = "full") -> ClassifierBank:
    """Lab dataset -> trained bank -> ``save_bank``: the program's share
    of set-up that does not depend on the runtime."""
    dataset = generate_lab_dataset(seed=seed, scale=_LAB_SCALE,
                                   name="ledger-lab")
    bank = ClassifierBank.train(
        dataset, model_factory=lambda: RandomForestClassifier(
            n_estimators=_TREES[scale], max_depth=20, max_features=34,
            random_state=0))
    save_bank(bank, bank_dir)
    return bank


def serial_pipeline(bank: ClassifierBank, **extra: Any) -> RealtimePipeline:
    return construct(RealtimePipeline, bank,
                     **{**knobs("batch_size", "retention"), **extra})


def parallel_pipeline(bank_dir: str | Path,
                      **extra: Any) -> ParallelShardedPipeline:
    return construct(ParallelShardedPipeline, bank_dir,
                     **{**knobs("num_workers", "batch_size", "retention",
                                "transport"), **extra})


def ingest(pipeline: Any, pcap: str | Path, **override: Any) -> Any:
    """The product ingest call (``override`` is for the eager oracle)."""
    return construct(ingest_pcap, pipeline, pcap,
                     **{**knobs("mode", "idle_timeout"), **override})


def serve_argv(bank_dir: str | Path, tail: str | Path) -> list[str]:
    """The operator's command line; every flag not named is a default."""
    return [sys.executable, "-m", "repro.cli", "serve",
            "--bank", str(bank_dir), "--source", f"tail:{tail}",
            "--port", "0",
            "--idle-timeout", str(PINNED_KNOBS["idle_timeout"][0])]
