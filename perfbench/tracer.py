"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id). Spans are opened around
calls into the program's layers from the benchmark's own code, kept in
flat arrays while the run lasts, and written out once at the end.
A layer's self time is its span's duration minus the time covered by
its child spans.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from typing import Callable, Dict, Iterator

import numpy as np

_now = time.perf_counter_ns


@contextlib.contextmanager
def no_span(name: str, new_op: bool = False) -> Iterator[None]:
    """Stands in for ``Tracer.span`` in an untraced run."""
    yield


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str, new_op: bool = False) -> int:
        """Open a span; ``new_op`` starts a new operation id for it and its children."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if new_op:
            self._op += 1
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, new_op: bool = False) -> Iterator[None]:
        idx = self.begin(name, new_op)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn: Callable, new_op: bool = False) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        begin, finish = self.begin, self.finish

        def traced(*args):
            idx = begin(name, new_op)
            try:
                return fn(*args)
            finally:
                finish(idx)

        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total (inclusive) ns and self ns."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "count": int(mask.sum()),
                "total_ns": float(dur[mask].sum()),
                "self_ns": float(self_ns[mask].sum()),
            }
        return out

    def write(self, path: str) -> None:
        """Write every span as arrays: name ids index ``names``; parent -1 is a root."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
