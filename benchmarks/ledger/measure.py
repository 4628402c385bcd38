"""Measurement primitives shared by every ledger module: order
statistics, ``/proc`` accounting for a process tree, and the in-memory
span recorder the traced runs wrap around layer calls."""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

_TICKS = os.sysconf("SC_CLK_TCK")


def summary(values: Iterable[float]) -> dict[str, float]:
    """Median, quartiles and ``n`` — how every timing is reported."""
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def quiet_rounds(walls: Iterable[float]) -> list[int]:
    """Indices of the fastest quarter of ``walls`` (at least two). On a
    shared host a neighbour can only ever slow a round down, never
    speed it up, so the fast rounds are the ones that measured the
    program; the rest measured the neighbour too. A quarter, and never
    fewer than two rounds, keeps the figure from resting on one
    sample."""
    walls = list(walls)
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[:max(2, len(order) // 4)]


def undisturbed(values: Iterable[float], best: str = "low") -> float:
    """Mean over the :func:`quiet_rounds` of ``values`` (``best="high"``
    when they are rates)."""
    values = list(values)
    keyed = [-v for v in values] if best == "high" else values
    return statistics.fmean(values[i] for i in quiet_rounds(keyed))


def percentile(values: Iterable[float], p: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(len(values) * p / 100))]


def tail_percentile(values: Iterable[float]) -> tuple[int, float]:
    """The highest percentile (a multiple of 5, at most 95) that still
    has ten samples beyond it, and its value — p95 needs n >= 200."""
    values = list(values)
    n = len(values)
    p = max(50, min(95, int((1 - 10 / n) * 20) * 5)) if n > 20 else 50
    return p, percentile(values, p)


# -- process-tree accounting -------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after it.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, by walking ``/proc``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """user + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the high-water resident set sizes (``VmHWM``) in MiB."""
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total / 1024


# -- spans --------------------------------------------------------------------

class Spans:
    """An in-memory span log: ``(name, start, end, parent, round)``
    tuples appended at layer boundaries, summarised when the run ends.
    Nothing is written or aggregated while the clock runs."""

    def __init__(self) -> None:
        self.log: list[tuple[str, float, float, str | None, int]] = []
        self.round = 0
        self.peaks: dict[str, float] = {}
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.log.append((name, start, time.perf_counter(), parent,
                             self.round))
            self._stack.pop()

    def per_round(self, name: str) -> list[float]:
        """Total seconds inside ``name`` spans, one entry per round."""
        totals: dict[int, float] = {}
        for span_name, start, end, _, rnd in self.log:
            if span_name == name:
                totals[rnd] = totals.get(rnd, 0.0) + end - start
        return [totals.get(r, 0.0) for r in range(self.round)]

    def count(self, name: str) -> int:
        return sum(1 for entry in self.log if entry[0] == name)


class TimedPipeline:
    """Delegating proxy that records a span around each call the
    ingest loop makes into a pipeline — ``process_block`` and
    ``flush_idle`` — so the real ``ingest_pcap`` drives the traced run
    and the spans sit exactly on the layer boundary."""

    def __init__(self, pipeline: Any, spans: Spans, prefix: str,
                 watch_live: bool = False) -> None:
        self._pipeline = pipeline
        self._spans = spans
        self._prefix = prefix
        # ``live_flows`` is a ``len()`` on the serial engine but a full
        # worker barrier on the parallel runtime: only watch the former.
        self._watch_live = watch_live

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pipeline, name)

    def sample_live(self) -> None:
        """Note the flow-table size (the count at this boundary)."""
        if self._watch_live:
            peaks = self._spans.peaks
            peaks["live_flows"] = max(peaks.get("live_flows", 0),
                                      self._pipeline.live_flows)

    def process_block(self, decoded: Any) -> None:
        with self._spans.span(self._prefix + "process_block"):
            self._pipeline.process_block(decoded)

    def flush_idle(self, *args: Any, **keywords: Any) -> int:
        self.sample_live()
        with self._spans.span(self._prefix + "flush_idle"):
            return self._pipeline.flush_idle(*args, **keywords)
