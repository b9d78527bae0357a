"""In-memory spans around calls into cbkit, and self times from them.

A span is (id, parent id, name, start ns, end ns, job id, work) where
work is an optional count the wrapper read from the call's arguments.
Calls made once per node (rank parsing while loading a tree, each op of
a calculus batch) would swamp the trace as one span each, so those
wrappers only add their calls and nanoseconds to an aggregate held by
the enclosing span.  A layer's self time is its span's duration minus
the time its child spans and aggregates cover; children of one span run
one after another in a single thread, so their durations simply add.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

monotonic_ns = time.monotonic_ns


class Tracer:
    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[int | None, str], list[int]] = {}
        self.stack: list[int] = []
        self.next_id = 0

    def record(self, name: str, start: int, end: int) -> None:
        """A top-level span timed by the caller."""
        self.spans.append((self.next_id, None, name, start, end, self.job, None))
        self.next_id += 1

    def span(self, name: str, fn, work=None):
        """fn wrapped so that each call records one span; work(args) gives its count."""

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                self.stack.pop()
                count = None if work is None else work(args, kwargs)
                self.spans.append((sid, parent, name, start, end, self.job, count))

        return wrapper

    def tally(self, name: str, fn):
        """fn wrapped so that its calls and time add to the enclosing span's aggregate."""
        aggregates, stack = self.aggregates, self.stack

        def wrapper(*args, **kwargs):
            start = monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = monotonic_ns() - start
                key = (stack[-1] if stack else None, name)
                slot = aggregates.get(key)
                if slot is None:
                    aggregates[key] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper

    def wrap(self, module, attr: str, name: str, hot: bool = False, work=None) -> None:
        fn = getattr(module, attr)
        setattr(module, attr, self.tally(name, fn) if hot else self.span(name, fn, work))

    def to_obj(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[parent, name, calls, ns] for (parent, name), (calls, ns) in self.aggregates.items()],
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_obj()))


def layer_totals(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name; `<name>.work` sums work counts."""
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, name, start, end, job, work in trace["spans"]:
        if parent is not None:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for parent, name, calls, ns in trace["aggregates"]:
        if parent is not None:
            covered[parent] += ns
        self_s[name] += ns / 1e9
        counts[name] += calls
    for sid, parent, name, start, end, job, work in trace["spans"]:
        self_s[name] += (end - start - covered[sid]) / 1e9
        counts[name] += 1
        if work is not None:
            counts[name + ".work"] += work
    return dict(self_s), dict(counts)
