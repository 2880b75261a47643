"""In-memory spans around calls into bfkit, and the statistics drawn from them.

A span is ``[name, start, end, parent, group]``; its id is its index in
``Tracer.spans``. ``parent`` is the id of the span that was open when it
started, and ``group`` identifies the trial or t-point the span belongs to
(children inherit it). Times are ``time.perf_counter`` seconds. Spans stay
in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans and per-span time marks; ``enabled`` is True."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.marks: dict[int, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def open(self, name: str, group=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if group is None and parent is not None:
            group = self.spans[parent][4]
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, group])
        self._stack.append(sid)
        self.spans[sid][1] = perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, group_of=None):
        """``fn`` with a span around every call; ``group_of(args)`` names its group."""

        def traced(*args, **kwargs):
            sid = self.open(name, None if group_of is None else group_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def mark(self) -> None:
        """Time-stamp the innermost open span (e.g. once per decoder iteration)."""
        self.marks[self._stack[-1]].append(perf_counter())


class NullTracer:
    """Same interface as ``Tracer``; records nothing."""

    enabled = False

    def open(self, name, group=None):
        return None

    def close(self, sid):
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def mark(self):
        pass


# -- statistics over spans ---------------------------------------------------


def durations(tracer, name: str) -> list[float]:
    return [end - start for n, start, end, _, _ in tracer.spans if n == name]


def children_seconds(tracer) -> dict[int, float]:
    """Summed duration of each span's direct children, by parent id."""
    out: dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in tracer.spans:
        if parent is not None:
            out[parent] += end - start
    return out


def self_seconds(tracer, name: str) -> list[float]:
    """Duration minus direct children, for every span called ``name``.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    kids = children_seconds(tracer)
    return [
        end - start - kids.get(sid, 0.0)
        for sid, (n, start, end, _, _) in enumerate(tracer.spans)
        if n == name
    ]


def layer_seconds_under(tracer, root: str) -> float:
    """Total time of the direct children of every span called ``root``."""
    kids = children_seconds(tracer)
    return sum(kids.get(sid, 0.0) for sid, span in enumerate(tracer.spans) if span[0] == root)


def first_mark_seconds(tracer, name: str) -> list[float]:
    """Span start to its first mark, for every marked span called ``name``."""
    return [
        tracer.marks[sid][0] - span[1]
        for sid, span in enumerate(tracer.spans)
        if span[0] == name and tracer.marks.get(sid)
    ]


def mark_gaps(tracer, name: str) -> list[float]:
    """Gaps between successive marks inside spans called ``name``."""
    gaps: list[float] = []
    for sid, stamps in tracer.marks.items():
        if tracer.spans[sid][0] == name:
            gaps.extend(b - a for a, b in zip(stamps, stamps[1:]))
    return gaps


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def write_jsonl(tracer, path) -> None:
    """One JSON object per span, times in microseconds from the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, group) in enumerate(tracer.spans):
            rec = {
                "id": sid,
                "name": name,
                "start_us": (start - origin) * 1e6,
                "end_us": (end - origin) * 1e6,
                "parent": parent,
                "group": group,
            }
            if sid in tracer.marks:
                rec["marks_us"] = [(m - origin) * 1e6 for m in tracer.marks[sid]]
            fh.write(json.dumps(rec) + "\n")
