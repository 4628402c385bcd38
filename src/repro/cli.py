"""Command-line interface for the repro toolkit.

Three operator-facing commands mirroring the paper's workflow:

* ``train`` — synthesize a lab dataset (or load one exported with
  ``export-dataset``) and train + persist the classifier bank;
* ``classify`` — run a pcap through the real-time pipeline with a
  trained bank and print per-flow platform predictions;
* ``campus`` — simulate campus days through the pipeline and print the
  §5.2 insight report;
* ``export-dataset`` — write a synthetic lab dataset to pcap + labels;
* ``report`` — render the §5.2 paper tables from a saved rollup
  snapshot, without any raw records;
* ``serve`` — run the live service daemon: ingest frames from a
  tailed capture, socket stream or AF_PACKET tap and answer §5.2
  rollup queries over HTTP until drained by SIGTERM;
* ``packs`` — list, validate, show and diff fingerprint packs.

``train``, ``classify`` and ``campus`` accept ``--pack`` to run against
a fingerprint pack other than the committed builtin.

Usage::

    python -m repro.cli train --out bank/ --scale 0.2
    python -m repro.cli export-dataset --out dataset/ --scale 0.05
    python -m repro.cli classify --bank bank/ --pcap dataset/flows.pcap
    python -m repro.cli classify --bank bank/ --pcap cap.pcap \
        --ingest eager
    python -m repro.cli classify --bank bank/ --pcap cap.pcap \
        --workers 4 --idle-timeout 120
    python -m repro.cli campus --bank bank/ --sessions 300
    python -m repro.cli campus --bank bank/ --pcap campus-day.pcap
    python -m repro.cli campus --bank bank/ --retention rollup \
        --save-rollup rollup/
    python -m repro.cli campus --bank bank/ --pcap campus-day.pcap \
        --checkpoint-dir ck/ --checkpoint-interval 600
    python -m repro.cli campus --bank bank/ --pcap campus-day.pcap \
        --resume ck/ --reload-bank bank-v2/
    python -m repro.cli campus --bank bank/ --pcap campus-day.pcap \
        --metrics-port 9107 --event-log events.jsonl \
        --metrics-out metrics.prom
    python -m repro.cli report --rollup rollup/
    python -m repro.cli serve --bank bank/ --source tail:live.pcap \
        --port 9107 --workers 2 --checkpoint-dir ck/
    python -m repro.cli serve --bank bank/ \
        --source socket:127.0.0.1:9999 --port 9107 --resume \
        --checkpoint-dir ck/
    python -m repro.cli packs list
    python -m repro.cli packs validate
    python -m repro.cli packs show tls-lib-2023q3
    python -m repro.cli packs diff builtin-2023q3 tls-lib-2023q3
    python -m repro.cli train --out bank-tls/ --pack tls-lib-2023q3 \
        --label-mode tls_library
    python -m repro.cli classify --bank bank-tls/ \
        --pack tls-lib-2023q3 --pcap dataset/flows.pcap
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigError
from repro.analysis import (
    bandwidth_by_device,
    excluded_share,
    watch_time_by_device,
)
from repro.fingerprints import Provider
from repro.fingerprints.packs import (
    FingerprintPack,
    PackRegistry,
    builtin_data_dir,
    canonical_json,
    load_pack,
    resolve_payload,
    set_active_pack,
)
from repro.ml import RandomForestClassifier
from repro.pipeline import (
    ClassifierBank,
    INGEST_MODES,
    LABEL_MODES,
    RETENTION_MODES,
    ParallelShardedPipeline,
    RealtimePipeline,
    ShardedPipeline,
    checkpoint_kind,
    ingest_pcap,
    load_bank,
    save_bank,
)
from repro.obs import EventLog, MetricsServer
from repro.reporting import render_rollup_report
from repro.telemetry import load_rollup, save_rollup
from repro.telemetry import queries as rollup_queries
from repro.trafficgen import (
    CampusConfig,
    CampusWorkload,
    generate_lab_dataset,
    load_dataset,
    save_dataset,
)
from repro.util import format_table

# Capture-time seconds between periodic replay checkpoints when
# --checkpoint-dir (or --resume) is given without an explicit
# --checkpoint-interval.
DEFAULT_CHECKPOINT_INTERVAL = 300.0

# Classification batch size when --batch-size is not given.
DEFAULT_BATCH_SIZE = 64


def _pack_dirs(args: argparse.Namespace) -> list[Path]:
    return [Path(d) for d in (getattr(args, "pack_dir", None) or [])]


def _resolve_pack_arg(token: str, pack_dirs: list[Path]
                      ) -> tuple[FingerprintPack, Path]:
    """``--pack`` accepts either a pack file path or a pack name looked
    up in ``--pack-dir`` directories (plus the committed packs)."""
    path = Path(token)
    if path.exists():
        dirs = [path.parent, *pack_dirs, builtin_data_dir()]
        return load_pack(path, search_dirs=dirs), path
    registry = PackRegistry(pack_dirs or None)
    return registry.get(token), registry.path(token)


def _activate_pack(args: argparse.Namespace,
                   events: EventLog | None = None
                   ) -> FingerprintPack | None:
    """Honor ``--pack``/``--pack-dir`` before anything touches the
    active pack (bank loads check its digest, generators draw from
    it). Returns the activated pack, or None when the builtin stays
    active."""
    if getattr(args, "pack", None) is None:
        return None
    pack, path = _resolve_pack_arg(args.pack, _pack_dirs(args))
    set_active_pack(pack)
    print(f"Using fingerprint pack {pack.name}@{pack.version} "
          f"({pack.digest[:12]}) from {path}", file=sys.stderr)
    if events is not None:
        events.emit("pack_loaded", path=str(path), **pack.info())
    return pack


def _model_factory_for(args: argparse.Namespace):
    return lambda: RandomForestClassifier(
        n_estimators=args.trees, max_depth=20, max_features=34,
        random_state=args.seed)


def cmd_train(args: argparse.Namespace) -> int:
    _activate_pack(args)
    if args.dataset:
        print(f"Loading dataset from {args.dataset} ...")
        dataset = load_dataset(args.dataset)
    else:
        print(f"Synthesizing lab dataset (scale {args.scale}) ...")
        dataset = generate_lab_dataset(seed=args.seed, scale=args.scale)
    print(f"  {len(dataset)} flows")
    bank = ClassifierBank.train(dataset,
                                model_factory=_model_factory_for(args),
                                label_mode=args.label_mode)
    save_bank(bank, args.out)
    print(f"Trained {len(bank.scenarios)} scenarios -> {args.out}")
    if bank.pack_info is not None:
        print(f"  pack {bank.pack_info['name']}"
              f"@{bank.pack_info['version']} "
              f"({bank.pack_info['digest'][:12]}), "
              f"label mode {bank.label_mode}")
    return 0


def cmd_export_dataset(args: argparse.Namespace) -> int:
    dataset = generate_lab_dataset(seed=args.seed, scale=args.scale)
    root = save_dataset(dataset, args.out)
    print(f"Wrote {len(dataset)} flows to {root}/flows.pcap "
          f"(+ labels.json)")
    return 0


class _Obs:
    """Lifecycle owner for the observability flags shared by classify
    and campus: the JSONL event log (``--event-log``), the opt-in
    ``/metrics`` endpoint (``--metrics-port``), and the end-of-run
    metrics write (``--metrics-out``). When no flag asked for
    anything, every hook stays None and the pipelines run with
    instrumentation disabled."""

    def __init__(self, args: argparse.Namespace):
        # The registries exist only when something will read them; the
        # event log alone does not pay for per-batch timing spans.
        self.metrics = (args.metrics_out is not None
                        or args.metrics_port is not None)
        self.events = (EventLog(args.event_log)
                       if args.event_log else None)
        self._out = args.metrics_out
        self._port = args.metrics_port
        self._server: MetricsServer | None = None

    def serve(self, pipeline) -> None:
        """Start the ``/metrics`` + ``/healthz`` endpoint against a
        live pipeline (``--metrics-port 0`` binds an ephemeral port,
        announced on stderr either way)."""
        if self._port is None:
            return
        self._server = MetricsServer(pipeline.export_metrics,
                                     port=self._port).start()
        print(f"Serving metrics on "
              f"http://127.0.0.1:{self._server.port}/metrics",
              file=sys.stderr)

    def write_out(self, pipeline) -> None:
        """Write ``--metrics-out`` while the pipeline is still live
        (the multiprocess runtime's export needs its workers). A
        ``.json`` suffix picks the JSON snapshot; anything else gets
        Prometheus text exposition."""
        if self._out is None:
            return
        registry = pipeline.export_metrics()
        text = (registry.to_json() if self._out.endswith(".json")
                else registry.render_prometheus())
        out = Path(self._out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"Wrote metrics -> {out}", file=sys.stderr)

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "_Obs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _build_pipeline(args: argparse.Namespace, obs: _Obs):
    """Honor the batch/shard/worker/retention knobs shared by classify
    and campus. ``--workers`` gives the shards real processes (each
    loads the bank from ``--bank`` on its own); ``--shards`` keeps the
    serial in-process dispatcher. ``--resume DIR`` rebuilds whichever
    runtime from a checkpoint instead of starting empty, and
    ``--reload-bank DIR`` hot-swaps a retrained bank into the (possibly
    restored) pipeline before any traffic flows.

    Worker processes are fed over the shared-memory rings
    (``transport="shm"``): a replay ships blocks, and blocks are
    cheaper through the ring than pickled. ``serve`` ships blocks too
    but takes the queue: the ring's segments and resource tracker cost
    more resident memory than its daemon can spare (see
    ``build_daemon``)."""
    if args.workers > 1 and args.shards > 1:
        print("--workers (multiprocess) and --shards (in-process) are "
              "alternative runtimes; pick one", file=sys.stderr)
        raise SystemExit(2)
    # Pack first: bank loads (parent and workers) verify their manifest
    # digest against whatever is active.
    _activate_pack(args, obs.events)
    if args.resume:
        pipeline = _restore_pipeline(args, obs)
    else:
        # --retention/--batch-size are None unless the user set them,
        # so a resumed pipeline can default to its checkpointed
        # values; fresh pipelines fall back to the classic defaults.
        retention = args.retention or "raw"
        batch_size = args.batch_size or DEFAULT_BATCH_SIZE
        if args.workers > 1:
            pipeline = ParallelShardedPipeline(
                args.bank, num_workers=args.workers,
                batch_size=batch_size, retention=retention,
                transport="shm",
                checkpoint_dir=args.checkpoint_dir,
                metrics=obs.metrics, events=obs.events)
        else:
            bank = load_bank(args.bank)
            if args.shards > 1:
                pipeline = ShardedPipeline(bank,
                                           num_shards=args.shards,
                                           batch_size=batch_size,
                                           retention=retention,
                                           metrics=obs.metrics)
            else:
                pipeline = RealtimePipeline(bank,
                                            batch_size=batch_size,
                                            retention=retention,
                                            metrics=obs.metrics)
    if args.reload_bank:
        if isinstance(pipeline, ParallelShardedPipeline):
            pipeline.reload_bank(args.reload_bank)
        else:
            pipeline.reload_bank(load_bank(args.reload_bank))
        if obs.events is not None:
            obs.events.emit("bank_reload", bank=str(args.reload_bank))
    return pipeline


def _pipeline_retention(pipeline) -> str:
    """The retention a (possibly restored) pipeline actually runs
    with — the CLI flag is None unless explicitly set, and a resumed
    pipeline inherits its checkpointed retention."""
    retention = getattr(pipeline, "retention", None)
    if retention is None:  # ShardedPipeline holds it per shard
        retention = pipeline.shards[0].retention
    return retention


def _restore_pipeline(args: argparse.Namespace, obs: _Obs):
    """Rebuild the selected runtime from ``--resume DIR``. Retention
    and batch size left unset on the command line default to the
    checkpointed values."""
    kind = checkpoint_kind(args.resume)
    if kind is None:
        raise ConfigError(f"no checkpoint at {args.resume}")
    if args.workers > 1:
        # New checkpoints (and crash-recovery journaling) default to
        # the resume directory, matching _ingest_args: a resumed run
        # stays recoverable without restating --checkpoint-dir.
        return ParallelShardedPipeline.restore(
            args.resume, args.bank, num_workers=args.workers,
            batch_size=args.batch_size, retention=args.retention,
            transport="shm",
            checkpoint_dir=args.checkpoint_dir or args.resume,
            metrics=obs.metrics, events=obs.events)
    bank = load_bank(args.bank)
    if kind == "sharded":
        return ShardedPipeline.restore(
            args.resume, bank,
            num_shards=args.shards if args.shards > 1 else None,
            batch_size=args.batch_size, retention=args.retention,
            metrics=obs.metrics)
    if args.shards > 1:
        raise ConfigError(
            f"checkpoint at {args.resume} is a single-pipeline "
            f"snapshot; drop --shards to resume it")
    return RealtimePipeline.restore(args.resume, bank,
                                    batch_size=args.batch_size,
                                    retention=args.retention,
                                    metrics=obs.metrics)


def _ingest_args(args: argparse.Namespace) -> dict:
    """The checkpoint/resume knobs every pcap replay forwards to
    ``ingest_pcap``. New checkpoints land in ``--checkpoint-dir``
    (falling back to the resume directory, so an interrupted resumed
    run stays resumable); the replay position comes from ``--resume``."""
    checkpoint_dir = args.checkpoint_dir or args.resume
    interval = args.checkpoint_interval
    if interval is None and checkpoint_dir:
        interval = DEFAULT_CHECKPOINT_INTERVAL
    return dict(
        idle_timeout=args.idle_timeout,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=interval,
        resume_dir=args.resume,
    )


def cmd_classify(args: argparse.Namespace) -> int:
    if args.retention == "rollup":
        # The per-flow prediction table needs raw records; rollup
        # cells only hold aggregates.
        print("classify needs raw records for its per-flow table; "
              "use --retention raw or both", file=sys.stderr)
        return 2
    # Every runtime shares the context-manager lifecycle: no-op for
    # the in-process flavors, close-on-success / terminate-on-error
    # for the multiprocess one (so a close-time barrier against an
    # already-dead worker never masks the original traceback).
    with _Obs(args) as obs, _build_pipeline(args, obs) as pipeline:
        if _pipeline_retention(pipeline) == "rollup":
            # Reachable via --resume of a rollup-only checkpoint.
            print("classify needs raw records for its per-flow table; "
                  "this checkpoint retains rollup cells only",
                  file=sys.stderr)
            return 2
        obs.serve(pipeline)
        result = ingest_pcap(pipeline, args.pcap, mode=args.ingest,
                             events=obs.events, **_ingest_args(args))
        pipeline.flush()
        obs.write_out(pipeline)
        if result.skipped:
            print(f"Skipped {result.skipped} unparseable frames "
                  f"(non-IPv4/non-TCP-UDP)", file=sys.stderr)
        counters = pipeline.counters
        rows = []
        for record in list(pipeline.store)[:args.limit]:
            prediction = record.prediction
            rows.append((
                str(record.key), record.provider.short,
                record.transport.value, prediction.status,
                prediction.platform or prediction.device
                or prediction.agent or "-",
                f"{prediction.confidence:.2f}",
            ))
    print(format_table(
        ("flow", "provider", "transport", "status", "platform",
         "conf"), rows,
        title=f"Classified {counters.video_flows} video flows "
              f"({counters.non_video_flows} non-video, "
              f"{counters.parse_failures} unparseable, "
              f"{counters.incomplete} incomplete)"))
    return 0


def cmd_campus(args: argparse.Namespace) -> int:
    with _Obs(args) as obs, _build_pipeline(args, obs) as pipeline:
        retention = _pipeline_retention(pipeline)
        if args.save_rollup and retention == "raw":
            print("--save-rollup requires --retention rollup or both",
                  file=sys.stderr)
            return 2
        obs.serve(pipeline)
        return _run_campus(pipeline, args, retention, obs)


def _run_campus(pipeline, args: argparse.Namespace,
                retention: str, obs: _Obs) -> int:
    if args.pcap:
        # Replay a captured campus trace through the packet path
        # instead of synthesizing flow summaries.
        result = ingest_pcap(pipeline, args.pcap, mode=args.ingest,
                             events=obs.events, **_ingest_args(args))
        pipeline.flush()
        if result.skipped:
            print(f"Skipped {result.skipped} unparseable frames "
                  f"(non-IPv4/non-TCP-UDP)", file=sys.stderr)
    else:
        workload = CampusWorkload(CampusConfig(
            days=args.days, sessions_per_day=args.sessions,
            seed=args.seed))
        pipeline.process_flows(workload.flows())
        pipeline.flush()
    obs.write_out(pipeline)
    # Bind the merged cube once: on a sharded pipeline ``rollup`` is a
    # fresh O(cells) merge per access.
    cube = pipeline.rollup if retention != "raw" else None
    if retention == "rollup":
        # No raw records were retained: answer from the rollup cube.
        excluded = rollup_queries.excluded_share(cube)
        sessions = rollup_queries.distinct_sessions(cube)
        by_device = rollup_queries.watch_time_by_device(cube)
        bandwidth = rollup_queries.bandwidth_by_device(cube)
    else:
        store = pipeline.store
        excluded = excluded_share(store)
        sessions = store.distinct_sessions()
        by_device = watch_time_by_device(store)
        bandwidth = bandwidth_by_device(store)
    print(f"{pipeline.counters.video_flows} video flows from "
          f"{sessions} distinct sessions; "
          f"{excluded:.0%} excluded as low-confidence\n")
    rows = []
    for provider in Provider:
        hours = sum(by_device.get(provider, {}).values())
        medians = bandwidth.get(provider, {})
        top = max(medians.items(), key=lambda kv: kv[1]["median"],
                  default=(None, None))
        rows.append((provider.short, f"{hours:.0f}",
                     top[0] or "-",
                     f"{top[1]['median']:.1f}" if top[1] else "-"))
    print(format_table(
        ("provider", "watch h/day", "hungriest device",
         "its median Mbps"), rows, title="Campus insight summary"))
    if args.save_rollup:
        save_rollup(cube, args.save_rollup)
        print(f"\nSaved rollup snapshot ({len(cube)} cells) -> "
              f"{args.save_rollup}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the §5.2 tables from a rollup snapshot alone — what a
    months-long ``retention=rollup`` deployment can answer after a
    restart, with no raw records anywhere. The rendering is shared
    verbatim with the daemon's ``GET /api/report``."""
    cube = load_rollup(args.rollup)
    sys.stdout.write(render_rollup_report(cube, limit=args.limit))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the live service daemon: pipeline + source + HTTP API,
    until SIGTERM/SIGINT drains it (final checkpoint, exit 0)."""
    from repro.service import build_daemon, open_source

    events = EventLog(args.event_log) if args.event_log else None
    _activate_pack(args, events)
    interval = args.checkpoint_interval
    if interval is None and args.checkpoint_dir:
        interval = DEFAULT_CHECKPOINT_INTERVAL
    source = open_source(args.source)
    daemon = build_daemon(
        args.bank, source,
        num_workers=args.workers,
        retention=args.retention or "rollup",
        batch_size=args.batch_size,
        host=args.host, port=args.port,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=interval,
        resume=args.resume,
        events=events,
        poll_timeout=args.poll_timeout)
    print(f"repro serve: ingesting {source.describe()}, API on "
          f"http://{args.host}:{daemon.server.port} "
          f"(/metrics /healthz /readyz /api/...)", file=sys.stderr)
    return daemon.run()


def _pack_file(token: str, pack_dirs: list[Path]) -> Path:
    """Path for a ``packs`` operand: a file path as-is, otherwise a
    name looked up in the registry."""
    path = Path(token)
    if path.exists():
        return path
    return PackRegistry(pack_dirs or None).path(token)


def cmd_packs_list(args: argparse.Namespace) -> int:
    registry = PackRegistry(_pack_dirs(args) or None)
    rows = []
    for pack in registry.packs():
        rows.append((
            pack.name, pack.version, pack.digest[:12],
            str(len(pack.all_pairs())),
            "yes" if pack.has_tls_library_axis() else "no",
            str(registry.path(pack.name)),
        ))
    print(format_table(
        ("name", "version", "digest", "cells", "tls-lib", "path"),
        rows, title="Fingerprint packs"))
    return 0


def cmd_packs_validate(args: argparse.Namespace) -> int:
    """Load (= fully validate) each named pack, or every committed and
    ``--pack-dir`` pack when none are named. Any failure prints the
    loader's diagnosis and fails the command — the CI gate for the
    repository's committed packs."""
    paths: list[Path]
    if args.packs:
        dirs = _pack_dirs(args)
        paths = [_pack_file(token, dirs) for token in args.packs]
    else:
        paths = sorted(builtin_data_dir().glob("*.json"))
        for directory in _pack_dirs(args):
            paths.extend(sorted(Path(directory).glob("*.json")))
    failed = 0
    for path in paths:
        try:
            pack = load_pack(path)
        except ConfigError as exc:
            print(f"FAIL {path}: {exc}")
            failed += 1
            continue
        print(f"ok   {pack.name}@{pack.version} "
              f"({pack.digest[:12]}) {path}")
    if failed:
        print(f"{failed} of {len(paths)} packs failed validation",
              file=sys.stderr)
        return 1
    print(f"{len(paths)} packs valid")
    return 0


def cmd_packs_show(args: argparse.Namespace) -> int:
    pack, path = _resolve_pack_arg(args.pack, _pack_dirs(args))
    print(f"{pack.name}@{pack.version}  digest {pack.digest}")
    print(f"  source: {path}")
    if pack.description:
        print(f"  {pack.description}")
    pairs = pack.all_pairs()
    platforms = sorted({platform.label for platform, _ in pairs})
    providers = sorted({provider.value for _, provider in pairs})
    print(f"  {len(pairs)} (platform, provider) cells over "
          f"{len(platforms)} platforms and {len(providers)} providers")
    print(f"  {len(pack.tcp_stacks)} TCP stacks, "
          f"{len(pack.hello_specs)} ClientHello specs, "
          f"{len(pack.quic_specs)} QUIC specs, "
          f"{len(pack.unknown_platform_labels)} unknown profiles")
    if pack.has_tls_library_axis():
        rows = sorted(
            (platform.label, provider.value,
             pack.tls_library(platform, provider) or "-")
            for platform, provider in pairs)
        print(format_table(
            ("platform", "provider", "tls library"), rows,
            title="TLS-library lineage axis"))
    else:
        print("  no TLS-library lineage labels")
    return 0


def _flatten_payload(payload: dict) -> dict[str, bytes]:
    """One canonical-JSON blob per comparable unit: per named spec for
    the dict sections, per (platform, provider) entry for the profile
    lists, whole-section for the ordered lists."""
    flat: dict[str, bytes] = {}
    for section, value in sorted(payload.items()):
        if section in ("tcp_stacks", "hello_specs", "quic_specs",
                       "providers"):
            for key, sub in value.items():
                flat[f"{section}/{key}"] = canonical_json(sub)
        elif section in ("profiles", "unknown_profiles"):
            for entry in value:
                key = (f"{entry.get('platform')}"
                       f"@{entry.get('provider', '*')}")
                flat[f"{section}/{key}"] = canonical_json(entry)
        else:
            flat[section] = canonical_json(value)
    return flat


def cmd_packs_diff(args: argparse.Namespace) -> int:
    """Structural diff of two packs' *effective* payloads (extends
    chains resolved). Exit status follows ``diff``: 0 identical,
    1 different."""
    dirs = _pack_dirs(args)
    path_a = _pack_file(args.pack_a, dirs)
    path_b = _pack_file(args.pack_b, dirs)
    doc_a, payload_a = resolve_payload(path_a)
    doc_b, payload_b = resolve_payload(path_b)
    flat_a = _flatten_payload(payload_a)
    flat_b = _flatten_payload(payload_b)
    lines = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if key not in flat_b:
            lines.append(f"- {key}")
        elif key not in flat_a:
            lines.append(f"+ {key}")
        elif flat_a[key] != flat_b[key]:
            lines.append(f"~ {key}")
    label_a = f"{doc_a['name']}@{doc_a.get('version', '?')}"
    label_b = f"{doc_b['name']}@{doc_b.get('version', '?')}"
    if not lines:
        print(f"{label_a} and {label_b} have identical effective "
              f"payloads")
        return 0
    print(f"--- {label_a} ({path_a})")
    print(f"+++ {label_b} ({path_b})")
    for line in lines:
        print(line)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train + persist a bank")
    train.add_argument("--out", required=True, help="bank directory")
    train.add_argument("--scale", type=float, default=0.2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--trees", type=_positive_int, default=15)
    train.add_argument("--dataset",
                       help="train from an exported dataset directory")
    train.add_argument(
        "--label-mode", choices=LABEL_MODES, default="platform",
        help="platform model target: OS/browser platform labels, or "
             "TLS-library lineage labels from the active pack")
    _add_pack_args(train)
    train.set_defaults(func=cmd_train)

    export = sub.add_parser("export-dataset",
                            help="write a lab dataset to pcap+labels")
    export.add_argument("--out", required=True)
    export.add_argument("--scale", type=float, default=0.05)
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=cmd_export_dataset)

    classify = sub.add_parser("classify",
                              help="classify video flows in a pcap")
    classify.add_argument("--bank", required=True)
    classify.add_argument("--pcap", required=True)
    classify.add_argument("--limit", type=int, default=20,
                          help="max rows to print")
    _add_scaling_args(classify)
    _add_pack_args(classify)
    classify.set_defaults(func=cmd_classify)

    campus = sub.add_parser("campus", help="simulate a campus deployment")
    campus.add_argument("--bank", required=True)
    campus.add_argument("--days", type=int, default=1)
    campus.add_argument("--sessions", type=int, default=300)
    campus.add_argument("--seed", type=int, default=7)
    campus.add_argument("--pcap",
                        help="replay this capture through the packet "
                             "path instead of simulating sessions")
    campus.add_argument("--save-rollup", metavar="DIR",
                        help="persist the rollup cube to DIR "
                             "(requires --retention rollup|both)")
    _add_scaling_args(campus)
    _add_pack_args(campus)
    campus.set_defaults(func=cmd_campus)

    report = sub.add_parser(
        "report", help="render §5.2 tables from a rollup snapshot")
    report.add_argument("--rollup", required=True,
                        help="rollup snapshot directory "
                             "(from campus --save-rollup)")
    report.add_argument("--limit", type=_positive_int, default=6,
                        help="max devices listed per provider")
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve",
        help="run the live service daemon: ingest a live source, "
             "serve §5.2 queries + metrics + health over HTTP")
    serve.add_argument("--bank", required=True,
                       help="trained classifier bank directory")
    serve.add_argument(
        "--source", required=True, metavar="SPEC",
        help="live frame source: tail:PCAP (follow a growing capture "
             "file across rotations), socket:HOST:PORT (length-"
             "prefixed frame stream), afpacket:IFACE (Linux raw "
             "socket; needs CAP_NET_RAW); a bare path means tail:")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="HTTP port for /metrics /healthz /readyz /api "
             "(default 0 = ephemeral; the bound address is printed "
             "to stderr)")
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="worker processes running the sharded pipeline "
             "(default 2)")
    serve.add_argument("--batch-size", type=_positive_int, default=None,
                       help="flows buffered per classification drain")
    serve.add_argument(
        "--retention", choices=RETENTION_MODES, default=None,
        help="per-record retention (default rollup: bounded memory "
             "for unbounded live runs)")
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="evict flows idle this long in capture time "
             "(default: no eviction)")
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="periodically snapshot pipeline state + source position "
             "into DIR (wall-clock cadence), and write a final "
             "checkpoint on graceful shutdown")
    serve.add_argument(
        "--checkpoint-interval", type=_positive_float, default=None,
        metavar="SECONDS",
        help="wall-clock seconds between checkpoints (default "
             f"{DEFAULT_CHECKPOINT_INTERVAL:.0f} once a checkpoint "
             "directory is set)")
    serve.add_argument(
        "--resume", action="store_true",
        help="restore pipeline state and source position from "
             "--checkpoint-dir before ingesting")
    serve.add_argument(
        "--poll-timeout", type=_positive_float, default=0.2,
        metavar="SECONDS",
        help="max seconds the ingest loop blocks waiting for frames "
             "(bounds shutdown latency; default 0.2)")
    serve.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="append structured JSONL operational events to PATH")
    _add_pack_args(serve)
    serve.set_defaults(func=cmd_serve)

    packs = sub.add_parser(
        "packs", help="inspect + validate fingerprint packs")
    packs_sub = packs.add_subparsers(dest="packs_command", required=True)

    packs_list = packs_sub.add_parser(
        "list", help="list discoverable packs")
    _add_pack_dir_arg(packs_list)
    packs_list.set_defaults(func=cmd_packs_list)

    packs_validate = packs_sub.add_parser(
        "validate",
        help="fully load each pack, failing on any schema, digest or "
             "consistency error")
    packs_validate.add_argument(
        "packs", nargs="*", metavar="PACK",
        help="pack files or names (default: every committed pack plus "
             "any --pack-dir packs)")
    _add_pack_dir_arg(packs_validate)
    packs_validate.set_defaults(func=cmd_packs_validate)

    packs_show = packs_sub.add_parser(
        "show", help="summarize one pack's contents")
    packs_show.add_argument("pack", metavar="PACK",
                            help="pack file or name")
    _add_pack_dir_arg(packs_show)
    packs_show.set_defaults(func=cmd_packs_show)

    packs_diff = packs_sub.add_parser(
        "diff",
        help="compare two packs' effective payloads (exit 1 when they "
             "differ)")
    packs_diff.add_argument("pack_a", metavar="PACK_A",
                            help="pack file or name")
    packs_diff.add_argument("pack_b", metavar="PACK_B",
                            help="pack file or name")
    _add_pack_dir_arg(packs_diff)
    packs_diff.set_defaults(func=cmd_packs_diff)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}")
    return value


def _add_pack_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pack-dir", action="append", metavar="DIR", default=None,
        help="extra directory searched for packs, highest precedence "
             "first (repeatable; the committed packs are always "
             "searched last)")


def _add_pack_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pack", metavar="PACK", default=None,
        help="activate this fingerprint pack (a pack file path, or a "
             "pack name resolved via --pack-dir and the committed "
             "packs) instead of the builtin pack")
    _add_pack_dir_arg(parser)


def _add_scaling_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size", type=_positive_int, default=None,
        help=f"flows buffered per batched classification drain "
             f"(1 = classify each flow as its handshake parses; "
             f"default {DEFAULT_BATCH_SIZE}, or the checkpointed "
             f"value under --resume)")
    parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="worker pipelines partitioned by 5-tuple hash "
             "(1 = single unsharded pipeline)")
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="run the shards as real OS processes, each loading the "
             "bank from --bank (1 = stay in-process; mutually "
             "exclusive with --shards)")
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="evict flows idle this long (capture time) during pcap "
             "replay, bounding the flow table on long captures "
             "(default: no eviction)")
    parser.add_argument(
        "--retention", choices=RETENTION_MODES, default=None,
        help="per-record retention: raw store, bounded-memory rollup "
             "cube, or both (default raw, or the checkpointed value "
             "under --resume)")
    parser.add_argument(
        "--ingest", choices=INGEST_MODES, default="bulk",
        help="pcap ingest path: bulk vectorized block decode (the "
             "default), or eager per-record Packet.from_bytes (the "
             "oracle; byte-identical results)")
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="periodically snapshot full pipeline state (+ replay "
             "position during pcap replay) into DIR, atomically; with "
             "--workers this also arms per-worker crash recovery")
    parser.add_argument(
        "--checkpoint-interval", type=_positive_float, default=None,
        metavar="SECONDS",
        help="capture-time seconds between checkpoints (default "
             f"{DEFAULT_CHECKPOINT_INTERVAL:.0f} once a checkpoint "
             "directory is set)")
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="restore pipeline state (and, for pcap replay, the "
             "position) from a checkpoint written by --checkpoint-dir "
             "and continue")
    parser.add_argument(
        "--reload-bank", metavar="DIR", default=None,
        help="hot-swap a retrained bank directory into the pipeline "
             "before traffic flows (driftwatch's retraining handoff; "
             "combine with --resume to swap at a checkpoint boundary)")
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's merged metrics to PATH on completion "
             "(Prometheus text exposition, or the JSON snapshot when "
             "PATH ends in .json)")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics (Prometheus text), /metrics.json "
             "and /healthz on 127.0.0.1:PORT for the duration of the "
             "run (0 = ephemeral port; the bound address is printed "
             "to stderr)")
    parser.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="append structured JSONL operational events "
             "(checkpoints, eviction sweeps, bank reloads, resume and "
             "worker-respawn transitions) to PATH, stamped with both "
             "wall and capture clocks")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
