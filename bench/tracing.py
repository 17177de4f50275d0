"""In-memory spans recorded around miniprob's layer boundaries.

A ``Tracer`` replaces a function or method at the place its caller looks it
up (a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and optional attributes.  Spans
stay in memory until the caller writes them out; nothing inside ``src/`` is
changed.  ``Counter`` is the untraced counterpart: it only counts calls.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 at the top
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


class _Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer(_Patcher):
    """Records one span per call of every wrapped function."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Trace ``owner.attr`` under ``name``; ``annotate(span, args, result)``
        may add attributes after each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                span = Span(name, clock(), 0, stack[-1] if stack else -1)
                spans.append(span)
                stack.append(len(spans) - 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span.end = clock()
                if annotate is not None:
                    annotate(span, args, result)
                return result
            return traced

        self.patch(owner, attr, make_wrapper)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            out = csv.writer(f)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "attrs"])
            for i, s in enumerate(self.spans):
                attrs = ";".join(f"{k}={v}" for k, v in sorted(s.attrs.items()))
                out.writerow([i, s.name, s.start, s.end, s.parent, attrs])


class Counter(_Patcher):
    """Counts calls of wrapped functions without timing them."""

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = {}

    def wrap(self, owner, attr: str, name: str) -> None:
        counts = self.counts
        counts.setdefault(name, 0)

        def make_wrapper(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        self.patch(owner, attr, make_wrapper)
