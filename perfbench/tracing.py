"""In-memory spans for the traced run, and the self-time arithmetic on them.

Spans come only from the benchmark's own thread, around its calls into the
library, so a span's children never overlap one another.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, call id, attributes) per span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.call_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "call": self.call_id,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Seconds per span: its duration minus the durations of its children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path) -> None:
        """Dump every span once, times in ms from the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**s, "start": (s["start"] - origin) * 1e3, "end": (s["end"] - origin) * 1e3}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead."""

    call_id = 0

    def span(self, name: str, **attrs):
        return nullcontext()
