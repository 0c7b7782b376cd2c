"""Trace reads: the span and copy queries that build no derived event
answer exactly what the full event list answers, and the event list is
never served stale."""

import json

import pytest

from repro.config import SystemConfig
from repro.core import copy_time_by_kind
from repro.cuda import run_app
from repro.faults import DMA, FaultPlan, SiteFaults
from repro.profiler import EventKind, Trace, from_chrome_trace
from repro.profiler import collector
from repro.workloads import CATALOG, FIG5_APPS


def _run(app, config, uvm=False):
    trace, _ = run_app(CATALOG[app].app(uvm), config, label=app)
    return trace


def _events_span_ns(trace):
    events = trace.events
    if not events:
        return 0
    return max(e.end_ns for e in events) - min(e.start_ns for e in events)


def _assert_reads_match_events(trace):
    span_ns, memcpys = trace.span_ns(), trace.memcpys()
    assert span_ns == _events_span_ns(trace)
    assert memcpys == [e for e in trace.events if e.kind is EventKind.MEMCPY]


@pytest.mark.parametrize("cc", [False, True], ids=["base", "cc"])
def test_fig5_reads_match_events(cc):
    config = SystemConfig.confidential(seed=42) if cc else SystemConfig.base(seed=42)
    for app in FIG5_APPS:
        _assert_reads_match_events(_run(app, config))


def test_uvm_reads_match_events():
    trace = _run("srad", SystemConfig.confidential(seed=42), uvm=True)
    assert any(k.attrs["uvm"] for k in trace.kernels())
    _assert_reads_match_events(trace)


def test_dma_fault_reads_match_events():
    config = SystemConfig.confidential(seed=42).replace(
        faults=FaultPlan.from_mapping({DMA: SiteFaults(rate=0.05)})
    )
    trace = _run("srad", config)
    assert trace.recoveries()
    _assert_reads_match_events(trace)


def test_imported_trace_reads_match_events():
    clone = from_chrome_trace(_run("srad", SystemConfig.confidential(seed=42)).to_chrome_trace())
    _assert_reads_match_events(clone)
    # Recorded launch rows win over launch spans: the span at ts 0 derives
    # nothing, so it cannot widen the span; the kernel span still derives.
    rows = [
        {"ph": "X", "cat": "launch", "name": "k", "ts": 2, "dur": 3,
         "args": {"queue_us": 0.0, "stream": 0}},
        {"ph": "X", "cat": "span", "name": "cudaLaunchKernel", "ts": 0,
         "dur": 5, "args": {"id": 1, "parent": None, "layer": "driver",
                            "attrs": {"kernel": "k", "stream": 0}}},
        {"ph": "X", "cat": "span", "name": "k", "ts": 8, "dur": 100,
         "args": {"id": 2, "parent": None, "layer": "gpu.compute",
                  "attrs": {"stream": 0, "kqt_ns": 3000}}},
        {"ph": "X", "cat": "memcpy", "name": "memcpy_h2d", "ts": 110,
         "dur": 10, "args": {"copy_kind": "h2d", "bytes": 64}},
    ]
    imported = from_chrome_trace(json.dumps(rows))
    assert imported.span_ns() == 118_000
    assert [e.kind for e in imported.memcpys()] == [EventKind.MEMCPY]
    _assert_reads_match_events(imported)


def test_catalogue_span_and_copy_reads_derive_no_events(monkeypatch):
    trace = _run("srad", SystemConfig.confidential(seed=42))
    calls = []
    derive = collector.derive_events
    monkeypatch.setattr(
        collector, "derive_events", lambda spans: calls.append(1) or derive(spans)
    )
    trace.span_ns()
    copy_time_by_kind(trace)
    assert calls == []
    trace.launches()
    assert calls == [1]


def test_events_read_under_an_open_span_are_not_kept():
    now = [0]
    trace = Trace()
    trace.bind_clock(lambda: now[0])
    with trace.spans.span("cudaMalloc", "driver", bytes=64):
        assert trace.events[0].duration_ns == 0
        now[0] = 100
    (alloc,) = trace.events
    assert alloc.duration_ns == 100
    assert trace.span_ns() == 100
    # Once every span is closed, the list is kept until something is added.
    assert trace.events is trace.events
