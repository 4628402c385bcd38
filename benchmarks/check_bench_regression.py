#!/usr/bin/env python
"""Compare a regenerated BENCH_*.json against the committed baseline.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline baseline/BENCH_obs.json --fresh BENCH_obs.json

Entries are matched by ``(mode, workers)``. Two kinds of comparison,
each with a 20% tolerance:

* **pkt/s** — only meaningful on the same machine context (equal CPU
  count, same Python minor version, same smoke flag). Mismatched
  contexts are skipped loudly, never silently passed.
* **speedup** — dimensionless, so single-worker ratios (metrics
  enabled vs disabled) transfer across machines and are always enforced.
  Multi-worker scaling ratios are only enforced when *both* sides
  measured on >=4 cores; a 1-core box produces inverted scaling that
  would be meaningless as a floor.

A baseline entry may additionally carry a ``floor`` field: an
*absolute* speedup floor the fresh run must reach regardless of the
committed value (used by BENCH_obs.json to pin the <=3% observability
overhead budget as ``floor: 0.97`` — a budget, not a ratchet, so a
lucky committed 0.999x never tightens it). When present, the absolute
floor replaces the relative 80%-of-committed speedup comparison.

Exit status 1 on any regression beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

TOLERANCE = 0.8  # fresh must reach 80% of the committed value


def _minor(python: str) -> str:
    return ".".join(python.split(".")[:2])


def _context_comparable(baseline: dict, fresh: dict) -> list[str]:
    reasons = []
    if baseline.get("cpu_count") != fresh.get("cpu_count"):
        reasons.append(
            f"cpu_count {baseline.get('cpu_count')} vs "
            f"{fresh.get('cpu_count')}")
    if _minor(baseline.get("python", "")) != \
            _minor(fresh.get("python", "")):
        reasons.append(f"python {baseline.get('python')} vs "
                       f"{fresh.get('python')}")
    if bool(baseline.get("smoke")) != bool(fresh.get("smoke")):
        reasons.append(f"smoke {baseline.get('smoke')} vs "
                       f"{fresh.get('smoke')}")
    return reasons


def check(baseline: dict, fresh: dict) -> int:
    name = baseline.get("bench", "?")
    failures = 0
    context_reasons = _context_comparable(baseline, fresh)
    if context_reasons:
        print(f"[{name}] SKIP pkt/s comparisons — machine context "
              f"differs ({'; '.join(context_reasons)})")
    fresh_by_key = {(e["mode"], e["workers"]): e
                    for e in fresh.get("entries", [])}
    scaling_ok = (baseline.get("cpu_count", 0) >= 4
                  and fresh.get("cpu_count", 0) >= 4)
    for entry in baseline.get("entries", []):
        key = (entry["mode"], entry["workers"])
        other = fresh_by_key.get(key)
        tag = f"[{name}] {entry['mode']}/w{entry['workers']}"
        if other is None:
            print(f"{tag} FAIL — entry missing from fresh results")
            failures += 1
            continue
        if not context_reasons:
            floor = entry["pkt_per_s"] * TOLERANCE
            if other["pkt_per_s"] < floor:
                print(f"{tag} FAIL — pkt/s {other['pkt_per_s']:,} < "
                      f"80% of committed {entry['pkt_per_s']:,}")
                failures += 1
            else:
                print(f"{tag} ok — pkt/s {other['pkt_per_s']:,} vs "
                      f"committed {entry['pkt_per_s']:,}")
        floor_abs = entry.get("floor")
        if floor_abs is not None:
            if other["speedup"] < floor_abs:
                print(f"{tag} FAIL — speedup {other['speedup']}x "
                      f"below the absolute floor {floor_abs}x")
                failures += 1
            else:
                print(f"{tag} ok — speedup {other['speedup']}x >= "
                      f"absolute floor {floor_abs}x")
            continue
        if entry["workers"] > 1 and not scaling_ok:
            print(f"{tag} SKIP speedup — scaling ratio needs >=4 "
                  f"cores on both sides (baseline "
                  f"{baseline.get('cpu_count')}, fresh "
                  f"{fresh.get('cpu_count')})")
            continue
        floor = entry["speedup"] * TOLERANCE
        if other["speedup"] < floor:
            print(f"{tag} FAIL — speedup {other['speedup']}x < 80% of "
                  f"committed {entry['speedup']}x")
            failures += 1
        else:
            print(f"{tag} ok — speedup {other['speedup']}x vs "
                  f"committed {entry['speedup']}x")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly regenerated BENCH_*.json")
    args = parser.parse_args()
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    failures = check(baseline, fresh)
    if failures:
        print(f"{failures} benchmark regression(s) beyond the 20% "
              f"tolerance", file=sys.stderr)
        return 1
    print("benchmark trajectory holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
