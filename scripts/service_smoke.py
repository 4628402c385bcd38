"""End-to-end smoke test for the ``repro serve`` daemon, CI-runnable.

Drives the real CLI entry point the way an operator (or a unit file)
would: train a small bank, start the daemon tailing a growing copy of
the committed golden capture, wait for readiness, query the §5.2
rollup API, flush and hold the live daemon to the equivalence contract
at operator level — every appended record accounted for, and ``GET
/api/report`` byte-identical to ``repro campus --pcap`` + ``repro
report`` over the same capture and bank — then SIGTERM it and assert a
clean drain — exit 0 and a resumable checkpoint on disk — before
resuming once to prove the restart path boots.

Run:  PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "golden.pcap"

_RECORD_HEADER = struct.Struct("<IIII")


def split_records(pcap: bytes) -> tuple[bytes, list[bytes]]:
    header, records = pcap[:24], []
    offset = 24
    while offset < len(pcap):
        _, _, incl_len, _ = _RECORD_HEADER.unpack_from(pcap, offset)
        end = offset + 16 + incl_len
        records.append(pcap[offset:end])
        offset = end
    return header, records


def get(port: int, path: str, data: bytes | None = None
        ) -> tuple[int, bytes]:
    """GET ``path``, or POST ``data`` to it when given."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data)
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def cli(*args: str, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" \
        f"{env.get('PYTHONPATH', '')}"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args], env=env, **kwargs)


def serve(bank: Path, live: Path, ck: Path,
          resume: bool) -> tuple[subprocess.Popen, int]:
    args = ["serve", "--bank", str(bank), "--source", f"tail:{live}",
            "--port", "0", "--workers", "2",
            "--checkpoint-dir", str(ck)]
    if resume:
        args.append("--resume")
    process = cli(*args, stderr=subprocess.PIPE, text=True)
    line = process.stderr.readline()
    assert "http://127.0.0.1:" in line, f"no bind line: {line!r}"
    port = int(line.split("http://127.0.0.1:")[1].split()[0])
    return process, port


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result is not None:
            return result
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


def drained(port: int, target: int):
    try:
        if get(port, "/readyz")[0] != 200:
            return None
        status = json.loads(get(port, "/api/status")[1])
    except OSError:
        return None
    done = status["frames"] + status["skipped"] >= target
    return status if done else None


def batch_report(bank: Path, work: Path) -> bytes:
    """What the batch CLI says about the golden capture: ``repro
    campus --pcap`` saving its rollup, then ``repro report`` over it."""
    snap = work / "batch-rollup"
    assert cli("campus", "--bank", str(bank), "--pcap", str(GOLDEN),
               "--retention", "rollup", "--save-rollup", str(snap),
               stdout=subprocess.DEVNULL).wait() == 0
    report = cli("report", "--rollup", str(snap),
                 stdout=subprocess.PIPE)
    out, _ = report.communicate()
    assert report.returncode == 0
    return out


def terminate(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    bank, live, ck = work / "bank", work / "live.pcap", work / "ck"
    print("[smoke] training a small bank ...")
    assert cli("train", "--out", str(bank), "--scale", "0.05",
               "--trees", "4", stdout=subprocess.DEVNULL).wait() == 0

    header, records = split_records(GOLDEN.read_bytes())
    half = len(records) // 2
    live.write_bytes(header + b"".join(records[:half]))

    print("[smoke] starting repro serve on a growing capture ...")
    process, port = serve(bank, live, ck, resume=False)
    try:
        wait_for(lambda: drained(port, half), 120, "first half")
        print("[smoke] ready; growing the capture ...")
        with live.open("ab") as fh:
            fh.write(b"".join(records[half:]))
        status = wait_for(lambda: drained(port, len(records)), 120,
                          "full capture")
        print(f"[smoke] ingested {status['frames']} frames "
              f"({status['skipped']} skipped)")
        code, body = get(port, "/api/rollup?query=sessions")
        assert code == 200, body
        assert json.loads(body)["format_version"] == 1
        assert get(port, "/api/report")[0] == 200
        assert get(port, "/healthz")[0] == 200
        print("[smoke] flush -> live report vs batch CLI ...")
        assert get(port, "/api/flush", data=b"")[0] == 200
        status = json.loads(get(port, "/api/status")[1])
        assert status["frames"] + status["skipped"] == len(records), \
            (status, len(records))
        code, live_report = get(port, "/api/report")
        assert code == 200, live_report
        assert live_report == batch_report(bank, work), \
            "live /api/report differs from campus --pcap + report"
        print("[smoke] SIGTERM -> graceful drain ...")
    finally:
        exit_code = terminate(process)
    assert exit_code == 0, f"serve exited {exit_code}"
    assert (ck / "service.json").exists(), "no final checkpoint"
    consumed = json.loads((ck / "service.json").read_text())["consumed"]
    assert consumed == len(records), (consumed, len(records))

    print("[smoke] restarting with --resume ...")
    process, port = serve(bank, live, ck, resume=True)
    try:
        status = wait_for(lambda: drained(port, len(records)), 120,
                          "resumed daemon readiness")
        assert status["consumed"] == len(records), status
    finally:
        exit_code = terminate(process)
    assert exit_code == 0, f"resumed serve exited {exit_code}"

    shutil.rmtree(work, ignore_errors=True)
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
