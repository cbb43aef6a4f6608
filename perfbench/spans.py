"""In-memory spans recorded from the benchmark around calls into layers.

Each span has a name (the layer it enters), a start and end time, its
op id and its parent span, so a layer's self time is its duration minus
what its child spans cover.  Spans stay in memory during the run and
are written out once at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans; ``span(name)`` is a context manager."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextlib.contextmanager
    def span(self, name: str, op: "int | None" = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent]["op"] if parent is not None else 0
        record = {
            "id": sid,
            "parent": parent,
            "op": op,
            "workload": self.workload,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """``{name: {"count", "total_s", "self_s"}}`` over finished spans."""
        child_cover: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_cover[s["parent"]] += s["end"] - s["start"]
        table: dict[str, dict] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            row = table.setdefault(
                s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            total = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += total - child_cover[s["id"]]
        return table

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """The untraced mode: spans cost one shared no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def __init__(self, workload: str = "") -> None:
        self.workload = workload

    def new_op(self) -> int:
        return 0

    def span(self, name: str, op: "int | None" = None):
        return self._null
