"""In-memory span recording around calls into the checkpointing layers.

Only the traced run records spans. They are recorded from the
benchmark's side of each call: a wrapper installed as an *instance*
attribute (``store.append = recorder.wrap(...)``) shadows the class
method for that one object, so the object's type -- and every
``isinstance`` decision the session and sink make on it -- is unchanged.
Module functions that the library imports by name (``replay_epochs``
inside ``repro.core.storage``) are patched for the duration of a
``with`` block and put back afterwards.

While :attr:`SpanRecorder.enabled` is false the wrappers call straight
through and record nothing; the traced run uses this to interleave
untraced operations with traced ones, so the tracing overhead is the
difference between the two on the same workload and seed. (The untraced
ones still pass through the disabled wrappers and the ``gc.callbacks``
monitor, so that difference slightly understates the overhead.)

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` is the index of the root
span, so every span of one commit or restore shares it. The epoch index
of each op is attached when its root call returns. Spans stay in memory
until :meth:`SpanRecorder.dump` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter


class SpanRecorder:
    """Collects spans; one stack, one thread (the benchmark is closed-loop)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: record spans (False: wrappers call straight through)
        self.enabled = True
        #: op (root span index) -> epoch index the op committed or restored
        self.epochs: Dict[int, Optional[int]] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        op = self.spans[stack[0]][4] if stack else index
        self.spans.append([name, _clock(), 0.0, parent, op])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_method(self, obj, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a traced wrapper on this instance only."""
        setattr(obj, method, self.wrap(getattr(obj, method), name))

    @contextlib.contextmanager
    def patch(self, module, attr: str, name: str):
        """Trace calls to ``module.attr`` until the block exits."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def set_epoch(self, op: int, epoch: Optional[int]) -> None:
        self.epochs[op] = epoch

    # -- derived views ------------------------------------------------------

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def children(self, index: int) -> List[int]:
        # spans are appended in start order, so a span's children follow it
        found = []
        end = self.spans[index][2]
        for i in range(index + 1, len(self.spans)):
            span = self.spans[i]
            if span[1] > end:
                break
            if span[3] == index:
                found.append(i)
        return found

    def self_time(self, index: int) -> float:
        """Duration minus the part covered by direct children."""
        return self.duration(index) - sum(
            self.duration(c) for c in self.children(index)
        )

    def op_range(self, op: int) -> range:
        """Indices of every span of op ``op`` (they are contiguous)."""
        end = op + 1
        while end < len(self.spans) and self.spans[end][4] == op:
            end += 1
        return range(op, end)

    def descendants(self, op: int, name: str) -> List[int]:
        return [i for i in self.op_range(op) if self.spans[i][0] == name]

    def op_total(self, op: int, name: str) -> float:
        """Summed duration of ``name`` spans inside op ``op``."""
        return sum(self.duration(i) for i in self.descendants(op, name))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, epoch)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "epoch": self.epochs.get(op),
                }) + "\n")


class GcMonitor:
    """Counts CPython collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause = 0.0
        self._started = 0.0
        self._paused = False

    def _callback(self, phase: str, info: dict) -> None:
        if self._paused:
            return
        if phase == "start":
            self._started = _clock()
        else:
            self.collections += 1
            self.pause += _clock() - self._started

    @contextlib.contextmanager
    def watching(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)

    @contextlib.contextmanager
    def paused(self):
        """Ignore collections the benchmark itself forces."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
