"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call or block: its name, the index of the span that was
open when it started (its parent, -1 for a root), and its start and end on
the ``perf_counter_ns`` clock.  Every span of a run shares the tracer's run
id.  Spans stay in memory while the run measures and are written out once,
when it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

NAME, PARENT, START, END = range(4)


class Tracer:
    """Spans of one run, recorded from the benchmark's side of each call."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter_ns(), -1])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed while another span is innermost")
        self._open.pop()
        self.spans[index][END] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def duration_ns(self, index: int) -> int:
        span = self.spans[index]
        return span[END] - span[START]

    def durations_ns(self, name: str) -> list[int]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[PARENT] == index]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap, because the benchmark is single
        threaded and closes spans innermost first.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, parent, start_ns, end_ns, self_ns, run_id]."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans are still open")
        rows = [
            [s[NAME], s[PARENT], s[START], s[END], self_ns, self.run_id]
            for s, self_ns in zip(self.spans, self.self_times_ns())
        ]
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "parent", "start_ns", "end_ns", "self_ns", "run_id"],
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
