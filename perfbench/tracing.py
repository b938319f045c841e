"""In-memory spans around the benchmark's own calls into spinmux.

A span records a name ("<layer>.<function>"), start and end times, the span
that encloses it and the operation it belongs to.  Spans stay in memory and
are written out as JSON lines when the run ends.  Nothing inside the package
is instrumented: every span wraps a public call made by the benchmark.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

# Layers reported by self time.  "bench" is the harness itself: pass and
# probe bookkeeping around the calls.
LAYERS = ("import", "config_io", "fields", "dynamics", "experiments",
          "synthesis", "pulse_io", "cli", "bench")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    section: str
    reps: int = 1

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.section = "workload"

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, reps: int = 1):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, op,
                      self.section, reps)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans, section: str | None = None) -> dict:
    """Seconds per layer spent in a span and not in any of its children."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if section is None or s.section == section:
            totals[s.layer] += s.duration - child_time.get(s.span_id, 0.0)
    return totals


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/tracing.py SPANS.jsonl")
    spans = read_spans(sys.argv[1])
    for section in sorted({s.section for s in spans}):
        print(f"[{section}] self seconds per layer")
        for layer, seconds in self_times(spans, section).items():
            if seconds:
                print(f"  {layer:12s} {seconds:10.4f}")
