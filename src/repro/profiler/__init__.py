"""Nsight-Systems-like profiling layer: trace events, hierarchical
spans, metrics, collection, statistics (CDFs), and flame-graph
folding."""

from ..obs import MetricsRegistry, Span, SpanRecorder
from .analysis import SummaryStats, cdf, cdf_at, ratio_of_means, ratio_of_totals
from .collector import Trace
from .events import EventKind, TraceEvent, memcpy_event
from .flamegraph import (
    FlameNode,
    folded_from_spans,
    frame_share,
    render_ascii,
    tree_from_spans,
)
from .importers import (
    TraceImportError,
    from_chrome_trace,
    from_rows,
    load_chrome_trace,
)
from .schema import assert_valid_chrome_trace, validate_chrome_trace

__all__ = [
    "EventKind",
    "FlameNode",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "SummaryStats",
    "Trace",
    "TraceEvent",
    "TraceImportError",
    "assert_valid_chrome_trace",
    "cdf",
    "cdf_at",
    "folded_from_spans",
    "frame_share",
    "from_chrome_trace",
    "from_rows",
    "load_chrome_trace",
    "memcpy_event",
    "ratio_of_means",
    "ratio_of_totals",
    "render_ascii",
    "tree_from_spans",
    "validate_chrome_trace",
]
