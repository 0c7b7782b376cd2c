"""Interval arithmetic for timeline attribution.

The attribution views — the Fig.-1 categories, the Sec.-V model parts
and the serving components — give each instant to one activity class
by priority (:func:`carve`); the model's per-kernel beta_i measures one
interval against a union (:func:`overlap_with_union`).  These helpers
operate on half-open integer intervals [start, end).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

Interval = Tuple[int, int]
Segment = Tuple[int, int, str]
Layer = Tuple[str, Iterable[Interval]]


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


def union_length(intervals: Iterable[Interval]) -> int:
    """Length of the union of intervals."""
    return sum(end - start for start, end in merge(intervals))


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


def carve(
    lo: int, hi: int, layers: Sequence[Layer], rest: str
) -> List[Segment]:
    """Gap-free ``(start, end, label)`` segmentation of [lo, hi).

    Each instant goes to the first ``(label, intervals)`` layer whose
    intervals cover it, and to ``rest`` when none does.  Each layer is
    merged and clipped to the window, the marks of all layers are
    sorted once and swept once; adjacent segments with the same label
    coalesce.
    """
    labels = [label for label, _ in layers]
    marks: List[Tuple[int, int]] = []
    for rank, (_, spans) in enumerate(layers):
        bit = 1 << rank
        for start, end in merge(spans):
            start, end = max(start, lo), min(end, hi)
            if start < end:
                marks.append((start, bit))
                marks.append((end, bit))
    marks.sort()
    marks.append((hi, 0))
    # A layer's merged intervals never touch, so each of its marks
    # flips its bit; the lowest set bit is the covering layer.
    segments: List[Segment] = []
    cursor, active = lo, 0
    for at, bit in marks:
        if at > cursor:
            label = labels[(active & -active).bit_length() - 1] if active else rest
            if segments and segments[-1][2] == label:
                segments[-1] = (segments[-1][0], at, label)
            else:
                segments.append((cursor, at, label))
            cursor = at
        active ^= bit
    return segments
