"""Spans and counters around the benchmark's calls into library layers.

A span is recorded at each call the benchmark makes into a public
function of a ``supercalc`` module: its name, start, end and the span
that caused it (the check it belongs to).  Spans are kept in memory and
summarised when the run ends.  With tracing off, ``call`` is a plain
call, so the untraced run measures the library and nothing else.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        # (name, start, end, parent index or -1); index = position in list
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        return idx

    def _leave(self, idx: int) -> None:
        self._open.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span ``name`` (``<module>.<operation>``)."""
        if not self.on:
            return fn(*args, **kwargs)
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            self._leave(idx)

    @contextmanager
    def check(self):
        """Context for one check; library spans inside it are its children."""
        if not self.on:
            yield
            return
        idx = self._enter("bench.check")
        try:
            yield
        finally:
            self._leave(idx)

    def count(self, name: str, amount: int = 1) -> None:
        if self.on:
            self.counts[name] += amount

    def maximum(self, name: str, value: int) -> None:
        if self.on and value > self.maxima[name]:
            self.maxima[name] = value

    def fail(self, module: str) -> None:
        if self.on:
            self.errors[module] += 1

    def summary(self) -> dict:
        """Total call time per span name, self time per module, counts."""
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            module = name.split(".")[0]
            self_time[module] += end - start - child_time[idx]
        return {"time": dict(total), "self": dict(self_time),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "errors": dict(self.errors)}
