"""In-memory spans around calls, recorded by wrapping module attributes.

A span is one call of a wrapped function: its name, start and end
(perf_counter nanoseconds), the thread it ran on and the span that was open
on that thread when it began (its parent).  Spans stay in memory until the
traced process writes them out.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        counts(args, kwargs, result) returns a dict of counts stored on the
        span; it runs after the span has closed.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident()}
            stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(owner, attr, traced)


def duration(span) -> int:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: duration(s) - covered(s["start"], s["end"],
                                           children[s["id"]])
            for s in spans}


def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of intervals."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
