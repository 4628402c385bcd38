"""Compare two run sets, one row per (end-to-end metric, workload).

    python benchmarks/ledger/compare.py BASE.json CHANGE.json

Each file is what ``run.py --json`` writes — and appends to, so running
it ten times with ten seeds into one file makes a run set. A row shows
both medians with their quartiles, the ratio ``change / base`` (the
base is always the first file), two bounds and a verdict.

The two bounds are different things. ``gate`` is the bound in
``BENCHMARK.json``: the driver rejects a change beyond it, and it has
to be wider than the ten-seed spread of the reference box or the
driver rejects the benchmark itself. ``bound`` is the regression bound
ISSUE 11 set for the pair (:data:`REVIEW_BOUNDS`) and the one a change
is reviewed against here:

* ``regressed`` — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over
  median) of either side exceeds the bound, so the row can show
  neither a regression nor its absence: take more runs, on a quieter
  host;
* ``ok`` — otherwise.

Exit code 1 when any row regressed. ``selfcheck`` holds the two
end-to-end passes ``run.py --selfcheck`` makes on one code to the gate:
they must agree within it in both directions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import measure

ROOT = Path(__file__).resolve().parents[2]

#: ISSUE 11's regression bounds. Throughput is held tighter on the
#: serial workloads than on the ones with several processes.
REVIEW_BOUNDS = {"setup_s": 0.15, "cpu_s_per_mpkt": 0.08,
                 "peak_rss_mb": 0.10}
_THROUGHPUT_BOUNDS = {"tap_onoff": 0.08, "handshake_storm": 0.08}


def review_bound(metric: str, workload: str) -> float:
    if metric == "pkt_per_s":
        return _THROUGHPUT_BOUNDS.get(workload, 0.10)
    return REVIEW_BOUNDS[metric]


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of
    ``base`` (negative when it is better)."""
    ratio = change / base
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def _samples(document: dict[str, Any], workload: str,
             metric: str) -> list[float]:
    return [run["workloads"][workload]["end_to_end"]["metrics"][metric]
            for run in document["runs"]
            if "end_to_end" in run["workloads"].get(workload, {})]


def rows(base: dict[str, Any], change: dict[str, Any],
         contract: dict[str, Any]) -> list[dict[str, Any]]:
    out = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = _samples(base, workload, metric["name"])
            b = _samples(change, workload, metric["name"])
            if not a or not b:
                continue
            sa, sb = measure.summary(a), measure.summary(b)
            spread = max((s["q3"] - s["q1"]) / s["median"]
                         for s in (sa, sb))
            worse = worse_by(sa["median"], sb["median"], metric["better"])
            bound = review_bound(metric["name"], workload)
            verdict = ("unresolved" if spread > bound else
                       "regressed" if worse > bound else "ok")
            out.append({"workload": workload, "metric": metric["name"],
                        "unit": metric["unit"], "base": sa, "change": sb,
                        "ratio": sb["median"] / sa["median"],
                        "bound": bound, "gate": metric["bound"],
                        "verdict": verdict})
    return out


def render(table: list[dict[str, Any]]) -> str:
    def cell(s: dict[str, float]) -> str:
        return (f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                f"n={s['n']}")

    lines = [f"{'workload':<16} {'metric':<15} {'base':<38} "
             f"{'change':<38} {'change/base':>11} {'bound':>6} "
             f"{'gate':>5}  verdict"]
    for row in table:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<15} "
            f"{cell(row['base']):<38} {cell(row['change']):<38} "
            f"{row['ratio']:>11.4f} {row['bound']:>6.2f} "
            f"{row['gate']:>5.2f}  {row['verdict']}")
    return "\n".join(lines)


def selfcheck(run: dict[str, Any], contract: dict[str, Any]) -> bool:
    """Do the two end-to-end passes of one ``--selfcheck`` run agree
    within every gate?"""
    agreed = True
    for workload, entry in run["workloads"].items():
        first, second = entry["end_to_end"]["metrics"], entry["selfcheck"]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            apart = max(worse_by(first[name], second[name],
                                 metric["better"]),
                        worse_by(second[name], first[name],
                                 metric["better"]))
            verdict = "ok" if apart <= metric["bound"] else "DISAGREE"
            agreed = agreed and verdict == "ok"
            print(f"  selfcheck {workload:<16} {name:<15} "
                  f"{first[name]:>12.5g} {second[name]:>12.5g} "
                  f"apart {apart:6.3f} gate {metric['bound']:.2f}  "
                  f"{verdict}", file=sys.stderr)
    return agreed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = (json.loads(Path(arg).read_text()) for arg in argv[1:])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(base, change, contract)
    print(render(table))
    return 1 if any(r["verdict"] == "regressed" for r in table) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
