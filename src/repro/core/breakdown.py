"""End-to-end wall-clock attribution by activity class (Fig. 1).

:func:`activity` reads a trace once into the raw intervals of each
activity class; :func:`breakdown` attributes every nanosecond of the
span to exactly one category with a fixed priority order (kernel
execution wins over queuing, etc.) with
:func:`repro.core.intervals.carve`, producing the paper's Fig.-1 style
stacked overview of where time goes under CC-off / CC-on / CC-on+UVM.
The Sec.-V model (:func:`repro.core.model.decompose`) carves the same
read with its own priority.
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

#: Event kind -> (category, queue-window category) of its intervals.
_CATEGORIES_OF = {
    EventKind.KERNEL: ("kernel", "kernel_queue"),
    EventKind.LAUNCH: ("launch", "launch_queue"),
    EventKind.MEMCPY: ("copy", None),
    EventKind.ALLOC: ("mgmt", None),
    EventKind.FREE: ("mgmt", None),
    EventKind.SYNC: ("sync", None),
    EventKind.RECOVERY: ("recovery", None),
}


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


def activity(trace: Trace) -> Tuple[int, int, Dict[str, List[intervals.Interval]]]:
    """One read of the trace: ``(lo, hi, raw)``.

    ``[lo, hi)`` is the trace span (``(0, 0)`` for an empty trace) and
    ``raw`` maps every category but ``idle`` to its intervals in event
    order.  Each kernel and launch also appends its queue window
    ``(start - queue_ns, start)``, empty when it did not queue, so
    ``raw["kernel_queue"][i]`` belongs to ``raw["kernel"][i]`` (and
    likewise for launches).  Queue windows may start before ``lo``.
    """
    raw: Dict[str, List[intervals.Interval]] = {cat: [] for cat in CATEGORIES[:-1]}
    events = trace.events
    if not events:
        return 0, 0, raw
    lo, hi = events[0].start_ns, events[0].end_ns
    for event in events:
        start, end = event.start_ns, event.end_ns
        lo, hi = min(lo, start), max(hi, end)
        categories = _CATEGORIES_OF.get(event.kind)
        if categories:
            category, queue = categories
            raw[category].append((start, end))
            if queue:
                raw[queue].append((start - event.queue_ns, start))
    return lo, hi, raw


def breakdown(trace: Trace) -> Breakdown:
    """Attribute the trace span across CATEGORIES by priority.

    Queue windows that start before the first event are clipped to the
    span, so the categories always sum to ``span_ns``.
    """
    lo, hi, raw = activity(trace)
    result = {cat: 0 for cat in CATEGORIES}
    for start, end, cat in intervals.carve(lo, hi, list(raw.items()), "idle"):
        result[cat] += end - start
    return Breakdown(hi - lo, result)
