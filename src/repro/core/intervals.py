"""Interval arithmetic for timeline attribution.

The performance model (Sec. V) needs to know how much of one activity
class overlaps another (the alpha and beta_i parameters).  These
helpers operate on half-open integer intervals [start, end).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[int, int]


def merge(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of intervals as a sorted, disjoint list."""
    items = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Interval] = []
    for start, end in items:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def total_length(merged_intervals: Sequence[Interval]) -> int:
    """Sum of lengths of a disjoint interval list."""
    return sum(end - start for start, end in merged_intervals)


def union_length(intervals: Iterable[Interval]) -> int:
    return total_length(merge(intervals))


def overlap_with_union(
    interval: Interval, merged_intervals: Sequence[Interval]
) -> int:
    """Length of ``interval`` covered by a merged (disjoint) list."""
    start, end = interval
    covered = 0
    for m_start, m_end in merged_intervals:
        if m_end <= start:
            continue
        if m_start >= end:
            break
        covered += min(end, m_end) - max(start, m_start)
    return covered


def union_overlap(
    intervals_a: Iterable[Interval], intervals_b: Iterable[Interval]
) -> int:
    """Length of intersection of two interval unions."""
    merged_b = merge(intervals_b)
    return sum(
        overlap_with_union(interval, merged_b) for interval in merge(intervals_a)
    )


def intersect(
    intervals_a: Iterable[Interval], intervals_b: Iterable[Interval]
) -> List[Interval]:
    """Portions of union(a) also covered by union(b)."""
    result: List[Interval] = []
    merged_b = merge(intervals_b)
    index = 0
    for start, end in merge(intervals_a):
        while index < len(merged_b) and merged_b[index][1] <= start:
            index += 1
        probe = index
        while probe < len(merged_b) and merged_b[probe][0] < end:
            b_start, b_end = merged_b[probe]
            result.append((max(start, b_start), min(end, b_end)))
            probe += 1
    return result


def subtract(
    intervals_a: Iterable[Interval], intervals_b: Iterable[Interval]
) -> List[Interval]:
    """Portions of union(a) not covered by union(b)."""
    result: List[Interval] = []
    merged_b = merge(intervals_b)
    for start, end in merge(intervals_a):
        cursor = start
        for b_start, b_end in merged_b:
            if b_end <= cursor:
                continue
            if b_start >= end:
                break
            if b_start > cursor:
                result.append((cursor, min(b_start, end)))
            cursor = max(cursor, b_end)
            if cursor >= end:
                break
        if cursor < end:
            result.append((cursor, end))
    return result
