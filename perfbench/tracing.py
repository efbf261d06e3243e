"""In-memory spans around the benchmark's calls into magpol's layers.

A span records its name, start, end, the span that caused it and the op it
belongs to (the id of its root span), plus free-form attributes such as the
op kind.  Spans stay in memory until the run ends and `dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._by_id: dict[int, dict] = {}
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else span_id,
            "attrs": attrs,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            self._by_id[span_id] = record

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str, kind: str | None = None) -> list[float]:
        """Durations (s) of spans called `name`, optionally only those whose
        parent span carries the attribute kind=`kind`."""
        out = []
        for span in self.spans:
            if span["name"] != name:
                continue
            if kind is not None:
                parent = self._by_id.get(span["parent"])
                if parent is None or parent["attrs"].get("kind") != kind:
                    continue
            out.append(span["end"] - span["start"])
        return out

    def dump(self, path: str, **header) -> None:
        spans = [
            {
                **span,
                "start": span["start"] - self.origin,
                "end": span["end"] - self.origin,
            }
            for span in sorted(self.spans, key=lambda s: s["id"])
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "time_unit": "s", "spans": spans}, handle)
