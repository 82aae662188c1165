"""Span recorder for the traced run.

Spans are recorded around public calls into each layer, from outside the
program: the benchmark swaps a timing wrapper in for a function where its
callers look it up, and swaps the original back afterwards.  A span holds
its name, start and end (``perf_counter_ns``), the index of its parent span
and the round id.  Spans stay in memory in flat arrays and are written as
JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.round_ids = array("i")
        self.rows: dict[str, int] = {}
        self.max_bytes = 0
        self._stack: list[int] = []
        self._round = -1
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.rows[name] = 0
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round_ids.append(self._round)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def round(self, round_id: int):
        """Record spans for the block, under a root span ``round``."""
        self._round = round_id
        self.active = True
        idx = self._open(self._id("round"))
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    def wrap(self, name: str, fn, rows=None):
        """``fn`` recording a span per call while the recorder is active;
        ``rows(args, kwargs)`` gives the call's input array, counted as rows
        and bytes."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if rows is not None:  # an input array, or a row count without bytes
                arr = rows(args, kwargs)
                self.rows[name] += int(arr.shape[0]) if hasattr(arr, "shape") else int(arr)
                self.max_bytes = max(self.max_bytes, int(getattr(arr, "nbytes", 0)))
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and span count per name: a span's duration
        minus the durations of its direct children."""
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        out = {name: [0, 0] for name in self.names}
        for nid, ns in zip(self.name, self_ns):
            acc = out[self.names[nid]]
            acc[0] += ns
            acc[1] += 1
        return {k: (v[0] * 1e-9, v[1]) for k, v in out.items()}

    def write_jsonl(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start_ns": self.start[i] - t0,
                    "end_ns": self.end[i] - t0,
                    "parent": self.parent[i],
                    "round": self.round_ids[i],
                }, separators=(",", ":")) + "\n")


@contextmanager
def patched(targets):
    """Set each ``(owner, attribute, value)`` for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
