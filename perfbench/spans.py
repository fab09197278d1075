"""In-memory spans for the benchmark's traced run.

The tracer replaces a layer's public function, at the module attribute its
caller looks up, with a wrapper that records one span per call: name,
start, end and parent. Spans live in flat integer arrays while the run
measures and are written out once it ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(counts, args, result)``
        runs after the span closes and adds to the tracer's counters."""

        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, patches) -> Iterator[None]:
        """Swap in wrappers for ``(module, attribute, span name, count)``
        patches and put the original functions back on exit."""
        saved = []
        try:
            for module, attr, name, count in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child_ns[i]
        return {n: (calls[k], self_ns[k]) for k, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV; ``op`` is the index of the root span, so
        spans of one op share it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        root = array("q", bytes(8 * len(self.start)))
        with gzip.open(path, "wt", newline="\n") as out:
            out.write("span\top\tname\tparent\tstart_ns\tend_ns\n")
            for i, p in enumerate(self.parent):
                root[i] = i if p < 0 else root[p]
                out.write(
                    f"{i}\t{root[i]}\t{self.names[self.name_id[i]]}\t{p}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
