"""In-memory spans recorded around calls into the library's public layers.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span, a run id shared by the spans of one recovery run, the
configuration label, and the exception type if the call raised. Spans stay in
memory until the pass ends; :meth:`Tracer.write` then stores them as JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, run, config):
        rec = {
            "name": name,
            "run": run,
            "config": config,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, run, config, fn, *args, **kwargs):
        with self.span(name, run, config):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out
