"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, op id, parent index, start ns, end ns).  Spans are kept
in a list and written out once, when the run ends.  With recording off,
``span`` returns a shared no-op context manager, so an untraced op pays
one attribute store and an empty ``with`` per layer call.

Either way the recorder remembers the last span entered, so when a call
raises, the failure is attributed to the layer whose call it was.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Spans:
    def __init__(self, record: bool = False):
        self.record = record
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.last = ""

    def span(self, name: str):
        self.last = name
        return _Span(self, name) if self.record else _NULL

    def layer_of_last(self) -> str:
        """Module name of the most recently entered span."""
        return self.last.split(".", 1)[0]

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (count, total self ns); self = duration minus child coverage.

        Children of one span never overlap (one thread), so their
        coverage is the sum of their durations.
        """
        covered = [0] * len(self.rows)
        for name, op, parent, t0, t1 in self.rows:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (name, op, parent, t0, t1), cov in zip(self.rows, covered):
            acc = out[name]
            acc[0] += 1
            acc[1] += t1 - t0 - cov
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, t0, t1 in self.rows:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self):
        s = self.spans
        parent = s._stack[-1] if s._stack else -1
        self.index = len(s.rows)
        s.rows.append([self.name, s.op_id, parent, time.perf_counter_ns(), 0])
        s._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        s = self.spans
        s.rows[self.index][4] = time.perf_counter_ns()
        s._stack.pop()
        return False
