"""Unit + property tests for interval arithmetic."""

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


def test_union_overlap():
    a = [(0, 10), (20, 30)]
    b = [(5, 25)]
    assert intervals.union_overlap(a, b) == 10


def test_subtract_middle():
    assert intervals.subtract([(0, 10)], [(3, 7)]) == [(0, 3), (7, 10)]


def test_subtract_all():
    assert intervals.subtract([(0, 10)], [(0, 10)]) == []


def test_subtract_none():
    assert intervals.subtract([(0, 10)], [(20, 30)]) == [(0, 10)]


def test_intersect_clips_to_both():
    assert intervals.intersect([(2, 7)], [(0, 4), (5, 9)]) == [(2, 4), (5, 7)]
    assert intervals.intersect([(4, 9)], [(0, 4)]) == []
    assert intervals.intersect([(0, 3), (5, 9)], [(2, 6)]) == [(2, 3), (5, 6)]


def test_intersect_merges_its_inputs():
    assert intervals.intersect([(5, 9), (0, 6)], [(8, 20), (1, 2)]) == [
        (1, 2), (8, 9),
    ]
    assert intervals.intersect([(0, 10)], []) == []


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
    # |A u B| = |A| + |B| - |A n B| over interval unions.
    union_all = intervals.union_length(a + b)
    len_a = intervals.union_length(a)
    len_b = intervals.union_length(b)
    inter = intervals.union_overlap(a, b)
    assert union_all == len_a + len_b - inter


@settings(max_examples=80, deadline=None)
@given(a=interval_list, b=interval_list)
def test_property_subtract_partitions(a, b):
    # |A \ B| + |A n B| = |A|.
    diff = intervals.total_length(intervals.subtract(a, b))
    inter = intervals.union_overlap(a, b)
    assert diff + inter == intervals.union_length(a)


@settings(max_examples=60, deadline=None)
@given(a=interval_list)
def test_property_merge_is_disjoint_sorted(a):
    merged = intervals.merge(a)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    for s, e in merged:
        assert s < e


@settings(max_examples=80, deadline=None)
@given(a=interval_list, b=interval_list)
def test_property_intersect_and_subtract_partition(a, b):
    # A n B and A \ B are disjoint, sorted, and together cover A.
    inter = intervals.intersect(a, b)
    assert intervals.total_length(inter) == intervals.union_overlap(a, b)
    for (s1, e1), (s2, e2) in zip(inter, inter[1:]):
        assert e1 < s2
    assert all(s < e for s, e in inter)
    rest = intervals.subtract(a, b)
    assert intervals.merge(inter + rest) == intervals.merge(a)
    assert intervals.union_overlap(inter, rest) == 0
