"""Tests for the profiling layer: events, traces, CDFs, flame graphs,
and trace exports."""

import json

import pytest

from repro.config import CopyKind, MemoryKind
from repro.profiler import (
    EventKind,
    SummaryStats,
    Span,
    Trace,
    TraceEvent,
    cdf,
    cdf_at,
    frame_share,
    memcpy_event,
    ratio_of_means,
    ratio_of_totals,
    render_ascii,
    tree_from_spans,
)


# --- events ------------------------------------------------------------


def test_event_end_and_validation():
    event = TraceEvent(EventKind.KERNEL, "k", 100, 50, queue_ns=10, stream=0)
    assert event.end_ns == 150
    with pytest.raises(ValueError):
        TraceEvent(EventKind.KERNEL, "k", 0, -1, stream=0)
    with pytest.raises(ValueError):
        TraceEvent(EventKind.LAUNCH, "l", 0, 1, queue_ns=-1, stream=0)


def test_memcpy_event_attrs():
    event = memcpy_event(
        CopyKind.H2D, 0, 100, 4096, MemoryKind.PINNED, managed=True
    )
    assert event.attrs["copy_kind"] is CopyKind.H2D
    assert event.attrs["bytes"] == 4096
    assert event.attrs["managed"] is True
    assert event.name == "memcpy_h2d"


# --- trace -------------------------------------------------------------


def _sample_trace():
    trace = Trace(label="sample")
    trace.add(TraceEvent(EventKind.LAUNCH, "l1", 0, 5, stream=0,
                         attrs={"first": False}))
    trace.add(TraceEvent(EventKind.KERNEL, "k1", 10, 100, queue_ns=5, stream=0,
                         attrs={"uvm": False, "faulted_pages": 0}))
    trace.add(memcpy_event(CopyKind.D2H, 120, 30, 1024, MemoryKind.PAGEABLE))
    trace.add(TraceEvent(EventKind.SYNC, "sync", 150, 10))
    return trace


def test_trace_queries():
    trace = _sample_trace()
    assert len(trace) == 4
    assert len(trace.launches()) == 1
    assert len(trace.kernels()) == 1
    assert len(trace.memcpys()) == 1
    assert trace.total_duration_ns(EventKind.KERNEL) == 100
    assert trace.span_ns() == 160
    assert trace.filter(lambda e: e.duration_ns > 20) == [
        trace.events[1], trace.events[2]
    ]


def test_trace_sorted_by_start():
    trace = Trace()
    trace.add(TraceEvent(EventKind.KERNEL, "late", 100, 10, stream=0))
    trace.add(TraceEvent(EventKind.KERNEL, "early", 0, 10, stream=0))
    assert [e.name for e in trace.sorted_by_start()] == ["early", "late"]


def test_chrome_trace_export_valid_json():
    payload = json.loads(_sample_trace().to_chrome_trace())
    events = payload["traceEvents"]
    x_rows = [e for e in events if e["ph"] == "X"]
    meta_rows = [e for e in events if e["ph"] == "M"]
    assert len(x_rows) == 4
    kernel = next(e for e in x_rows if e["name"] == "k1")
    assert kernel["ph"] == "X"
    assert kernel["ts"] == pytest.approx(0.01)  # ns -> us
    # Perfetto needs integer pid/tid; track naming rides in "M" rows.
    assert isinstance(kernel["pid"], int)
    assert isinstance(kernel["tid"], int)
    thread_names = {
        m["args"]["name"]: m["tid"]
        for m in meta_rows
        if m["name"] == "thread_name"
    }
    assert thread_names["GPU:compute"] == kernel["tid"]
    process = next(m for m in meta_rows if m["name"] == "process_name")
    assert process["args"]["name"] == "sample"
    copy = next(e for e in x_rows if e["name"].startswith("memcpy"))
    assert copy["args"]["copy_kind"] == "d2h"


# --- statistics ----------------------------------------------------------


def test_summary_stats():
    stats = SummaryStats.of([1, 2, 3, 4, 5])
    assert stats.mean == 3
    assert stats.median == 3
    assert stats.minimum == 1
    assert stats.maximum == 5
    assert stats.total == 15
    assert SummaryStats.of([]).count == 0


def test_cdf_basic():
    values, probs = cdf([3, 1, 2])
    assert values == [1, 2, 3]
    assert probs == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]


def test_cdf_trim_top_matches_paper_rule():
    values, _ = cdf(list(range(10)), trim_top=5)
    assert values == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        cdf([1], trim_top=-1)
    assert cdf([], trim_top=3) == ([], [])


def test_cdf_at():
    assert cdf_at([1, 2, 3, 4], 2) == 0.5
    assert cdf_at([], 2) == 0.0


def test_ratio_helpers():
    assert ratio_of_means([2, 4], [1, 1]) == 3.0
    assert ratio_of_totals([2, 4], [1, 2]) == 2.0
    assert ratio_of_means([1], []) == float("inf")
    assert ratio_of_totals([], []) == 1.0


# --- flame graphs ---------------------------------------------------------


def _flame(*rows):
    """Fold hand-built spans given as (span_id, parent_id, name, ns)."""
    return tree_from_spans(
        Span(span_id, parent_id, name, "driver", 0, duration_ns)
        for span_id, parent_id, name, duration_ns in rows
    )


def test_flame_tree_aggregation():
    tree = _flame((1, None, "a", 100), (2, 1, "b", 60), (3, 1, "c", 30))
    assert tree.name == "root"
    assert tree.total_ns == 100
    a = tree.children["a"]
    assert a.total_ns == 100
    assert a.self_ns == 10
    assert a.children["b"].total_ns == 60


def test_frame_share():
    tree = _flame((1, None, "a", 100), (2, 1, "hot", 75), (3, 1, "cold", 25))
    assert frame_share(tree, "hot") == pytest.approx(0.75)
    assert frame_share(tree, "missing") == 0.0


def test_render_ascii_contains_frames_and_shares():
    tree = _flame((1, None, "launch", 100), (2, 1, "hypercall", 90))
    text = render_ascii(tree)
    assert "launch" in text
    assert "hypercall" in text
    assert "90.0%" in text
