"""In-memory span recorder used by the traced benchmark run.

A span is one call into a library function: a label, start and end times
in nanoseconds, the index of the enclosing span (-1 for none) and the
number of frames the call processed. Spans are kept in lists while the
command runs and summarized once it has finished.
"""

from __future__ import annotations

import functools
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    label: str
    start_ns: int
    end_ns: int
    parent: int
    frames: int = 1

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def covered_ns(start_ns: int, end_ns: int, intervals) -> int:
    """Length of [start_ns, end_ns) covered by the union of `intervals`."""
    clipped = sorted(
        (max(s, start_ns), min(e, end_ns)) for s, e in intervals if e > start_ns and s < end_ns
    )
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    return [
        span.duration_ns - covered_ns(span.start_ns, span.end_ns, kids)
        for span, kids in zip(spans, children)
    ]


@dataclass
class Tracer:
    """Records a span around every call of the functions it wraps."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def _record(self, label, frames, fn, args, kwargs):
        index = len(self.spans)
        span = Span(label, 0, 0, self._stack[-1] if self._stack else -1, frames)
        self.spans.append(span)
        self._stack.append(index)
        span.start_ns = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, label: str, frames_of=None):
        """Wrap `fn` so each call records a span; `frames_of(args)` counts frames."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = frames_of(args) if frames_of is not None else 1
            return self._record(label, frames, fn, args, kwargs)

        return traced

    def wrap_first(self, fn, first_label: str, label: str, frames_of=None):
        """Like :meth:`wrap`, but the first call on each system (argument 1)
        is recorded under `first_label`: it carries the one-off setup.
        Systems are held weakly where they allow it, so tracing keeps no
        factorization alive."""
        seen = weakref.WeakSet()
        pinned: list = []  # systems that cannot be weakly referenced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            system = args[1] if len(args) > 1 else kwargs.get("sys")
            first = system not in seen and not any(s is system for s in pinned)
            if first:
                try:
                    seen.add(system)
                except TypeError:
                    pinned.append(system)
            frames = frames_of(args) if frames_of is not None else 1
            return self._record(first_label if first else label, frames, fn, args, kwargs)

        return traced

    def summary(self) -> dict:
        """Per label: call count, total and self seconds, per-frame microseconds."""
        out: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, self_times_ns(self.spans)):
            entry = out.setdefault(
                span.label, {"calls": 0, "frames": 0, "total_s": 0.0, "self_s": 0.0, "frame_us": []}
            )
            entry["calls"] += 1
            entry["frames"] += span.frames
            entry["total_s"] += span.duration_ns / 1e9
            entry["self_s"] += self_ns / 1e9
            per_frame = span.duration_ns / 1e3 / max(span.frames, 1)
            entry["frame_us"].extend([per_frame] * max(span.frames, 1))
        return out
