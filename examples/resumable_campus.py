"""Resumable campus replay (§5.1 operability): checkpoint a running
replay, kill it mid-capture, restore in a "fresh process", hot-reload a
retrained bank (the §5.3 driftwatch handoff), and finish — then prove
the resumed run is byte-identical to one that never died.

Run:  python examples/resumable_campus.py
"""

import tempfile
from pathlib import Path

from repro.ml import RandomForestClassifier
from repro.pipeline import (
    ClassifierBank,
    ConceptDriftMonitor,
    RealtimePipeline,
    ingest_pcap,
    load_ingest_position,
)
from repro.net import PcapWriter
from repro.telemetry import save_rollup
from repro.trafficgen import generate_lab_dataset


class SimulatedCrash(Exception):
    pass


class DiesAfter:
    """Wrap a pipeline so the process 'dies' mid-replay."""

    def __init__(self, pipeline, frames_left):
        self._pipeline = pipeline
        self._frames_left = frames_left

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def process_block(self, decoded):
        if self._frames_left < len(decoded):
            raise SimulatedCrash()
        self._frames_left -= len(decoded)
        self._pipeline.process_block(decoded)


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="resumable-campus-"))
    print("Training the deployment bank (and a 'retrained' one)...")
    bank = ClassifierBank.train(
        generate_lab_dataset(seed=5, scale=0.08),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=8, max_depth=14, random_state=0))
    retrained = ClassifierBank.train(
        generate_lab_dataset(seed=23, scale=0.08),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=8, max_depth=14, random_state=4))

    print("Writing a campus capture to replay...")
    lab = generate_lab_dataset(seed=61, scale=0.06)
    frames = sorted(((p.to_bytes(), p.timestamp)
                     for flow in list(lab)[::3][:80]
                     for p in flow.packets), key=lambda pair: pair[1])
    pcap = work / "campus.pcap"
    with PcapWriter(pcap) as writer:
        for data, timestamp in frames:
            writer.write_bytes(data, timestamp)
    span = frames[-1][1] - frames[0][1]
    schedule = dict(idle_timeout=span / 3,
                    checkpoint_interval=span / 8)

    # --- the oracle: a run nothing ever interrupts -----------------------
    oracle = RealtimePipeline(bank, batch_size=16, retention="both",
                              monitor=ConceptDriftMonitor())
    ingest_pcap(oracle, pcap, checkpoint_dir=work / "oracle-ck",
                **schedule)
    oracle.reload_bank(retrained)  # same boundary as the resumed run
    oracle.flush()

    # --- the deployment: dies mid-replay ---------------------------------
    ck = work / "ck"
    victim = RealtimePipeline(bank, batch_size=16, retention="both",
                              monitor=ConceptDriftMonitor())
    try:
        ingest_pcap(DiesAfter(victim, len(frames) * 2 // 3), pcap,
                    checkpoint_dir=ck, **schedule)
    except SimulatedCrash:
        position = load_ingest_position(ck)
        print(f"Crash near frame {len(frames) * 2 // 3}; last "
              f"checkpoint covers {position.consumed} records "
              f"({position.frames} processed, "
              f"{position.skipped} skipped).")
    del victim  # the process is gone; only ck/ survives

    # --- restart: restore, resume the replay, hot-swap the bank ----------
    print("Restoring from the checkpoint and resuming the replay...")
    resumed = RealtimePipeline.restore(ck, bank)
    print(f"  restored {resumed.live_flows} live flows, "
          f"{resumed.counters.video_flows} video flows so far, "
          f"driftwatch state intact: {resumed.monitor is not None}")
    ingest_pcap(resumed, pcap, checkpoint_dir=ck, resume_dir=ck,
                **schedule)
    print("Hot-reloading the retrained bank (no flows dropped)...")
    resumed.reload_bank(retrained)
    resumed.flush()

    # --- proof: byte-identical to the uninterrupted run ------------------
    assert resumed.counters == oracle.counters
    assert list(resumed.store) == list(oracle.store)
    save_rollup(resumed.rollup, work / "rollup-resumed")
    save_rollup(oracle.rollup, work / "rollup-oracle")
    resumed_bytes = (work / "rollup-resumed" / "rollup.json").read_bytes()
    oracle_bytes = (work / "rollup-oracle" / "rollup.json").read_bytes()
    assert resumed_bytes == oracle_bytes
    print(f"\nResumed run == uninterrupted run: "
          f"{resumed.counters.video_flows} video flows, "
          f"{len(list(resumed.store))} records, rollup snapshots "
          f"byte-identical ({len(resumed_bytes)} bytes).")
    print(f"Artifacts under {work}")


if __name__ == "__main__":
    main()
