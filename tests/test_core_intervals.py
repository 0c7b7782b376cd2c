"""Unit + property tests for interval arithmetic."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intervals


def test_merge_disjoint():
    assert intervals.merge([(0, 5), (10, 15)]) == [(0, 5), (10, 15)]


def test_merge_overlapping_and_touching():
    assert intervals.merge([(0, 5), (3, 8), (8, 10)]) == [(0, 10)]


def test_merge_ignores_empty():
    assert intervals.merge([(5, 5), (7, 3)]) == []


def test_union_length():
    assert intervals.union_length([(0, 10), (5, 15), (20, 25)]) == 20


def test_overlap_with_union():
    merged = intervals.merge([(0, 10), (20, 30)])
    assert intervals.overlap_with_union((5, 25), merged) == 10
    assert intervals.overlap_with_union((10, 20), merged) == 0
    assert intervals.overlap_with_union((-5, 40), merged) == 20


def _totals(lo, hi, layers):
    """Per-label lengths of ``carve(lo, hi, layers, "rest")``."""
    totals = Counter()
    for start, end, label in intervals.carve(lo, hi, layers, "rest"):
        totals[label] += end - start
    return totals


def _subtract(a, b):
    """A \\ B as a carve: with B ranked first, A keeps what B leaves."""
    return [
        (start, end)
        for start, end, label in intervals.carve(
            -100, 1100, [("b", b), ("a", a)], "rest"
        )
        if label == "a"
    ]


def test_union_overlap():
    # |A n B| = |A| - |A \ B|.
    a = [(0, 10), (20, 30)]
    b = [(5, 25)]
    assert intervals.union_length(a) - _totals(0, 30, [("b", b), ("a", a)])["a"] == 10


def test_subtract_middle():
    assert _subtract([(0, 10)], [(3, 7)]) == [(0, 3), (7, 10)]


def test_subtract_all():
    assert _subtract([(0, 10)], [(0, 10)]) == []


def test_subtract_none():
    assert _subtract([(0, 10)], [(20, 30)]) == [(0, 10)]


def test_carve_priority_gaps_and_coalescing():
    layers = [("k", [(2, 4), (6, 9)]), ("q", [(0, 7)]), ("c", [(8, 12)])]
    assert intervals.carve(0, 10, layers, "idle") == [
        (0, 2, "q"), (2, 4, "k"), (4, 6, "q"), (6, 9, "k"), (9, 10, "c"),
    ]
    # Adjacent segments with one label coalesce; uncovered time is rest.
    assert intervals.carve(0, 10, [("a", [(1, 3), (3, 5)])], "r") == [
        (0, 1, "r"), (1, 5, "a"), (5, 10, "r"),
    ]


def test_carve_clips_to_the_window():
    assert intervals.carve(5, 8, [("a", [(0, 6)]), ("b", [(7, 20)])], "r") == [
        (5, 6, "a"), (6, 7, "r"), (7, 8, "b"),
    ]
    assert intervals.carve(5, 5, [("a", [(0, 9)])], "r") == []
    assert intervals.carve(0, 3, [], "r") == [(0, 3, "r")]


interval_list = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ).map(lambda t: (min(t), max(t))),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(a=interval_list, b=interval_list)
def test_property_inclusion_exclusion(a, b):
    # |A u B| = |A| + |B| - |A n B|, where either carve order gives
    # the same |A n B|: |A| - |A \ B| = |B| - |B \ A|.
    len_a = intervals.union_length(a)
    len_b = intervals.union_length(b)
    a_first = _totals(0, 1000, [("a", a), ("b", b)])
    b_first = _totals(0, 1000, [("b", b), ("a", a)])
    assert (a_first["a"], b_first["b"]) == (len_a, len_b)
    inter = len_a - b_first["a"]
    assert inter == len_b - a_first["b"]
    assert intervals.union_length(a + b) == len_a + len_b - inter


@settings(max_examples=80, deadline=None)
@given(a=interval_list, b=interval_list)
def test_property_subtract_partitions(a, b):
    # |A \ B| + |A n B| = |A|, with A \ B what the carve leaves A
    # under B and A n B counted per nanosecond.
    diff = intervals.union_length(_subtract(a, b))
    inter = sum(
        1
        for t in range(1000)
        if any(s <= t < e for s, e in a) and any(s <= t < e for s, e in b)
    )
    assert diff + inter == intervals.union_length(a)


@settings(max_examples=60, deadline=None)
@given(a=interval_list)
def test_property_merge_is_disjoint_sorted(a):
    merged = intervals.merge(a)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    for s, e in merged:
        assert s < e


#: Intervals that may reach outside the carve window (-50..1050).
_wide_interval = st.tuples(
    st.integers(min_value=-50, max_value=1050),
    st.integers(min_value=-50, max_value=1050),
).map(lambda t: (min(t), max(t)))


@st.composite
def _carve_case(draw):
    labels = draw(st.lists(
        st.sampled_from("abcdef"), min_size=0, max_size=5, unique=True,
    ))
    layers = [
        (label, draw(st.lists(_wide_interval, max_size=6)))
        for label in labels
    ]
    lo = draw(st.integers(min_value=0, max_value=1000))
    hi = draw(st.integers(min_value=0, max_value=1000))
    return lo, hi, layers


@settings(max_examples=150, deadline=None)
@given(case=_carve_case())
def test_property_carve_matches_per_nanosecond_painter(case):
    lo, hi, layers = case
    segments = intervals.carve(lo, hi, layers, "rest")
    painted = [
        next(
            (label for label, spans in layers
             if any(s <= t < e for s, e in spans)),
            "rest",
        )
        for t in range(lo, hi)
    ]
    assert [label for s, e, label in segments for _ in range(s, e)] == painted
    cursor = lo
    for start, end, _ in segments:
        assert start == cursor < end
        cursor = end
    assert cursor == max(lo, hi)
    for (_, _, left), (_, _, right) in zip(segments, segments[1:]):
        assert left != right
