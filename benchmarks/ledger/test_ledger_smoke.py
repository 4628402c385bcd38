"""Tier-1 self-test of the ledger benchmark (``--scale smoke`` only —
nothing here produces a committed number).

All five workloads run end to end with tracing off, one traced pass
runs every ledger section, and the output is held against
``BENCHMARK.json``: every metric the contract names is printed with a
finite value and its unit, nothing the contract does not name is
printed, and no correctness gate failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seconds", "0.2", *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-4000:]
    return [json.loads(line) for line in done.stdout.splitlines()]


def _check(line: dict, key: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert set(line["metrics"]) == set(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert math.isfinite(metric["value"]), name


def test_every_workload_runs_end_to_end(tmp_path):
    out = tmp_path / "ledger.json"
    lines = _run("--trace", "0", "--json", str(out))
    assert len(lines) == len(CONTRACT["workloads"])
    for line in lines:
        _check(line, "end_to_end")
        assert all(m["value"] > 0 for m in line["metrics"].values())
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 1 and runs[0]["scale"] == "smoke"
    assert list(runs[0]["workloads"]) == \
        [w["name"] for w in CONTRACT["workloads"]]


def test_traced_pass_reports_every_layer():
    (line,) = _run("--trace", "1", "--workload", "handshake_storm")
    _check(line, "per_layer")
