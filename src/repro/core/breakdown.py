"""End-to-end wall-clock attribution by activity class (Fig. 1).

Attributes every nanosecond of an application's span to exactly one
category with a fixed priority order (kernel execution wins over
queuing, etc.) with :func:`repro.core.intervals.carve`, producing the
paper's Fig.-1 style stacked overview of where time goes under
CC-off / CC-on / CC-on+UVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..profiler import EventKind, Trace
from . import intervals


# Attribution priority: earlier categories claim overlapping time.
CATEGORIES = (
    "kernel",  # KET
    "copy",  # T_mem
    "launch",  # KLO
    "kernel_queue",  # KQT
    "launch_queue",  # LQT
    "mgmt",  # alloc + free
    "sync",  # exposed synchronization
    "recovery",  # fault recovery (wasted attempts, backoff, re-attest)
    "idle",  # everything else inside the span
)


@dataclass(frozen=True)
class Breakdown:
    span_ns: int
    by_category_ns: Dict[str, int]

    def share(self, category: str) -> float:
        if self.span_ns == 0:
            return 0.0
        return self.by_category_ns.get(category, 0) / self.span_ns

    def rows(self) -> List[Tuple[str, int, float]]:
        return [
            (cat, self.by_category_ns.get(cat, 0), self.share(cat))
            for cat in CATEGORIES
        ]


def breakdown(trace: Trace) -> Breakdown:
    """Attribute the trace span across CATEGORIES by priority.

    Queue windows that start before the first event are clipped to the
    span, so the categories always sum to ``span_ns``.
    """
    if not trace.events:
        return Breakdown(0, {cat: 0 for cat in CATEGORIES})
    span_start = min(e.start_ns for e in trace.events)
    span_end = max(e.end_ns for e in trace.events)

    # Every category but the last, "idle", claims time by priority.
    raw: Dict[str, List[Tuple[int, int]]] = {cat: [] for cat in CATEGORIES[:-1]}
    for event in trace.events:
        if event.kind is EventKind.KERNEL:
            raw["kernel"].append((event.start_ns, event.end_ns))
            if event.queue_ns:
                raw["kernel_queue"].append(
                    (event.start_ns - event.queue_ns, event.start_ns)
                )
        elif event.kind is EventKind.LAUNCH:
            raw["launch"].append((event.start_ns, event.end_ns))
            if event.queue_ns:
                raw["launch_queue"].append(
                    (event.start_ns - event.queue_ns, event.start_ns)
                )
        elif event.kind is EventKind.MEMCPY:
            raw["copy"].append((event.start_ns, event.end_ns))
        elif event.kind in (EventKind.ALLOC, EventKind.FREE):
            raw["mgmt"].append((event.start_ns, event.end_ns))
        elif event.kind is EventKind.SYNC:
            raw["sync"].append((event.start_ns, event.end_ns))
        elif event.kind is EventKind.RECOVERY:
            raw["recovery"].append((event.start_ns, event.end_ns))

    result = {cat: 0 for cat in CATEGORIES}
    for start, end, cat in intervals.carve(
        span_start, span_end, list(raw.items()), "idle"
    ):
        result[cat] += end - start
    return Breakdown(span_end - span_start, result)
