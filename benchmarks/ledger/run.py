"""The repo's one benchmark: ``python benchmarks/ledger/run.py``.

    python benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--scale full|smoke] [--json OUT]
        [--selfcheck]

Runs each named workload (all five when none is named) in its own
fresh process tree, checks its outputs against the oracle, prints
every metric by name with its unit on stderr, and prints one JSON
result line per workload on stdout — the last line of a one-workload
run is the contract ``BENCHMARK.json`` describes:

    {"correct": true, "attempted": 31, "failed": 0,
     "metrics": {"pkt_per_s": {"value": 154651.3, "unit": "1/s"}, ...}}

``--trace 0`` measures the end-to-end metrics with tracing off,
``--trace 1`` the per-layer stage ledger; without ``--trace`` both
passes run. ``--json OUT`` appends this run (machine context, trace
manifests, quartiles, both passes) to the run set in ``OUT`` — several
seeds into one file is what ``compare.py`` compares. ``--selfcheck``
runs the end-to-end pass twice on the same code and fails if the two
disagree beyond the bounds. The metric names, units and bounds are
read from ``BENCHMARK.json`` — the one place they are defined.

The command supervises itself: it re-runs its own arguments in a child
process (the one that measures) and, as that child's sub-reaper, ends
and waits for every process the child leaves behind — the
``multiprocessing`` resource tracker that shared-memory rings start
outlives the process that started it — so nothing it started is alive
when it returns, on any path out.

Exit code: 0 when every gate held; 1 when an output was wrong, the
traced pass's ledger or workload-identity gates did not hold, or a
selfcheck disagreed; 2 when the program under test is not there or the
arguments make no sense.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_SECONDS = 10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        metavar="NAME")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long each pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only; "
                             "omitted: both")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--json", metavar="OUT", default=None)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--supervised", metavar="WORK", default=None,
                        help=argparse.SUPPRESS)
    return parser


# -- supervision: nothing this command starts outlives it ---------------------

_PR_SET_CHILD_SUBREAPER = 36
_GRACE_SECONDS = 10.0   # for orphans that end by themselves (trackers)


def _supervise(argv: list[str]) -> int:
    """Run the measurement (``argv`` + ``--supervised WORK``) in a child
    and return its exit code once every process under this one has
    ended and the work directory is gone.

    As the child's sub-reaper this process inherits whatever the child
    orphans (a resource tracker, a batch child's or the daemon's
    workers after a crash) instead of init, so it can wait for them —
    and kill the ones that do not end by themselves."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("ledger: cannot become a sub-reaper; orphaned processes "
              "will not be waited for", file=sys.stderr)

    def _terminated(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _terminated)

    work = ROOT / ".ledger_work" / str(os.getpid())
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv,
         "--supervised", str(work)])
    grace = _GRACE_SECONDS
    try:
        code = child.wait()
    except BaseException:
        child.kill()
        grace = 0.0     # and what it leaves is killed at once, too
        raise
    finally:
        _end_descendants(grace)
        child.wait()    # reaped above; this only tells the Popen so
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using its own sub-directory
    return code


def _end_descendants(grace: float) -> None:
    """Wait until this process has no children left; those still alive
    after ``grace`` seconds are killed, with everything below them."""
    import measure

    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for descendant in measure.process_tree(os.getpid())[1:]:
                try:
                    os.kill(descendant, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def _context() -> dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a driver checkout is not a git repository
    return {"cpu_count": os.cpu_count(), "python":
            platform.python_version(), "machine": platform.machine(),
            "commit": commit}


def _emit(name: str, values: dict[str, float], units: dict[str, str],
          failures: list[str], attempted: int) -> None:
    """Print one pass of one workload: the table on stderr, the
    contract line on stdout."""
    print(f"\n== {name} ==", file=sys.stderr)
    for metric, value in values.items():
        print(f"  {metric:<48} {value:>16.6g} {units[metric]}",
              file=sys.stderr)
    for failure in failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in values.items()}}
    print(json.dumps(line), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.selfcheck and args.trace == 1:
        parser.error("--selfcheck compares end-to-end passes; "
                     "it cannot run with --trace 1")
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"ledger: no program under test at {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.supervised is None:
        return _supervise(sys.argv[1:] if argv is None else argv)
    import compare
    import ledger
    import product

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in contract["workloads"]]
    unknown = [name for name in names if name not in ledger.WORKLOADS]
    if unknown:
        print(f"ledger: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    passes = {0: ("end_to_end", ledger.end_to_end),
              1: ("per_layer", ledger.traced)}
    wanted = (0, 1) if args.trace is None else (args.trace,)
    this_run: dict[str, object] = {
        "context": _context(), "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "workloads": {}}
    ok = True
    run = ledger.Run(seed=args.seed, seconds=args.seconds, scale=args.scale,
                     work=Path(args.supervised))
    for name in names:
        entry = this_run["workloads"].setdefault(name, {})
        for which in wanted:
            key, measure_pass = passes[which]
            units = {m["name"]: m["unit"] for m in contract[key]}
            values, checks, detail = measure_pass(run, name)
            values = {metric: values[metric] for metric in units}
            _emit(f"{name} ({key})", values, units, checks.failures,
                  checks.attempted)
            ok = ok and not checks.failures
            entry[key] = {"metrics": values, "detail": detail,
                          "failures": checks.failures}
            if which == 0 and args.selfcheck:
                again, _, _ = measure_pass(run, name)
                entry["selfcheck"] = {m: again[m] for m in units}
    if args.json:
        out = Path(args.json)
        document = json.loads(out.read_text()) if out.exists() else {
            "pinned_knobs": {knob: {"value": value, "why": why} for
                             knob, (value, why) in
                             product.PINNED_KNOBS.items()},
            "load_bearing_names": list(product.LOAD_BEARING_NAMES),
            "runs": []}
        document["runs"].append(this_run)
        out.write_text(json.dumps(document, indent=1) + "\n")
    if args.selfcheck:
        ok = compare.selfcheck(this_run, contract) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
