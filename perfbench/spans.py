"""Leaf spans around the benchmark's calls into the library, kept in memory.

A span is (name, start_ns, end_ns, workload) on the monotonic clock that
time.perf_counter_ns reads; child processes read the same clock, so their
spans line up with the parent's.  Spans are written once, as NDJSON, when
the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    workload = ""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def add(self, name, start, end):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self, seed: int):
        self.seed = seed
        self.spans: list[tuple[str, int, int, str]] = []
        self.counts: Counter = Counter()

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter_ns(), self.workload))

    def count(self, name, n):
        self.counts[name] += n

    def add(self, name, start, end):
        self.spans.append((name, start, end, self.workload))

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, workload in self.spans:
                record = {"name": name, "start": start, "end": end, "workload": workload, "seed": self.seed}
                handle.write(json.dumps(record) + "\n")
