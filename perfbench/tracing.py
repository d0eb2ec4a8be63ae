"""In-memory spans around the calls the benchmark makes into grayfilt.

A span records its name, layer, start, end, parent and the id of the op it
belongs to. The layer of a call is the grayfilt module that defines the
function, so attribution follows the code if a function moves. Spans stay
in memory until the run ends; self time is a span's duration minus the time
its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Plain:
    """Untraced replay context: calls go straight through."""

    @staticmethod
    def call(fn, *args):
        return fn(*args)

    @staticmethod
    def span(name, layer):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []   # [id, parent, op_id, name, layer, start, end, failed]
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name: str, layer: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  self.op_id, name, layer, time.perf_counter(), None, False]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        except BaseException:
            record[7] = True
            raise
        finally:
            record[6] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args):
        layer = fn.__module__.rsplit(".", 1)[-1]
        with self.span(f"{layer}.{fn.__name__}", layer):
            return fn(*args)

    @contextmanager
    def op(self, op_id: str, layer: str):
        """Root span of one op; its children share ``op_id``."""
        self.op_id = op_id
        try:
            with self.span(f"op.{op_id}", layer) as record:
                yield record
        finally:
            self.op_id = None

    def layer_totals(self) -> dict:
        """{layer: {"calls", "busy_s", "failed"}} from self times."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for sid, _, _, _, layer, start, end, failed in self.spans:
            t = totals.setdefault(layer, {"calls": 0, "busy_s": 0.0, "failed": 0})
            t["calls"] += 1
            t["busy_s"] += (end - start) - child_time[sid]
            t["failed"] += failed
        return totals

    def write(self, path) -> None:
        keys = ("id", "parent", "op_id", "name", "layer", "start", "end", "failed")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
