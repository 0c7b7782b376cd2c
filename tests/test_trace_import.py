"""Tests for trace import: chrome-trace round trip and row import."""

import json

import pytest

from repro.config import CopyKind, SystemConfig
from repro.core import decompose, launch_metrics, kernel_metrics
from repro.cuda import run_app
from repro.faults import GCM_TAG, HYPERCALL, FaultPlan, SiteFaults
from repro.gpu import nanosleep_kernel
from repro.profiler import (
    EventKind,
    Trace,
    TraceEvent,
    TraceImportError,
    from_chrome_trace,
    from_rows,
    load_chrome_trace,
)
from repro import units


def _app(rt):
    dev = yield from rt.malloc(4 * units.MiB)
    host = yield from rt.host_alloc(4 * units.MiB)
    yield from rt.memcpy(dev, host)
    for _ in range(3):
        yield from rt.launch(nanosleep_kernel(units.us(40), name="k"))
        yield from rt.synchronize()
    yield from rt.free(dev)
    yield from rt.free(host)


def test_chrome_roundtrip_preserves_metrics():
    trace, _ = run_app(_app, SystemConfig.confidential())
    clone = from_chrome_trace(trace.to_chrome_trace())
    assert len(clone) == len(trace)
    assert clone.span_ns() == trace.span_ns()
    original_launch = launch_metrics(trace)
    cloned_launch = launch_metrics(clone)
    assert cloned_launch.klo_ns == original_launch.klo_ns
    assert cloned_launch.lqt_ns == original_launch.lqt_ns
    assert kernel_metrics(clone).kqt_ns == kernel_metrics(trace).kqt_ns


def test_roundtrip_model_decomposition_identical():
    trace, _ = run_app(_app, SystemConfig.base())
    clone = from_chrome_trace(trace.to_chrome_trace())
    original = decompose(trace)
    imported = decompose(clone)
    assert imported.part_b_ns == original.part_b_ns
    assert imported.part_c_ns == original.part_c_ns
    assert imported.t_mem_ns == original.t_mem_ns
    assert imported.predicted_ns == original.predicted_ns


def test_memcpy_enums_revived():
    trace, _ = run_app(_app, SystemConfig.base())
    clone = from_chrome_trace(trace.to_chrome_trace())
    copy = clone.memcpys()[0]
    assert copy.attrs["copy_kind"] is CopyKind.H2D


# Two hypercall retries and one GCM-tag retry: recovery spans nested
# under a launch and a copy.
_FAULTED_CC = SystemConfig.confidential().replace(
    faults=FaultPlan.from_mapping({
        HYPERCALL: SiteFaults(schedule=(0, 1)),
        GCM_TAG: SiteFaults(schedule=(0,)),
    })
)


def _uvm_app(rt):
    """One managed buffer touched by a cold kernel, then a warm one."""
    buf = yield from rt.malloc_managed(4 * units.MiB)
    for name in ("cold", "warm"):
        yield from rt.launch(
            nanosleep_kernel(units.us(40), name=name),
            managed_touches=[(buf, 4 * units.MiB)],
        )
        yield from rt.synchronize()
    yield from rt.free(buf)


@pytest.mark.parametrize("config, app", [
    pytest.param(SystemConfig.base(), _app, id="base"),
    pytest.param(SystemConfig.confidential(), _app, id="cc"),
    pytest.param(_FAULTED_CC, _app, id="cc-faults"),
    pytest.param(SystemConfig.confidential(), _uvm_app, id="cc-uvm"),
])
def test_roundtrip_is_byte_identical(config, app):
    """Export -> import -> export reproduces the same bytes.  The clone
    holds each API call, kernel and recovery once: as the imported row,
    not again as an event derived from the imported span."""
    trace, _ = run_app(app, config, label="rt")
    text = trace.to_chrome_trace()
    clone = from_chrome_trace(text)
    assert clone.to_chrome_trace() == text
    assert len(trace.recoveries()) == (3 if config.faults.active else 0)
    assert clone.launches() == trace.launches()
    assert clone.recoveries() == trace.recoveries()
    assert clone.kernels() == trace.kernels()
    for kind in (EventKind.SYNC, EventKind.ALLOC, EventKind.FREE):
        assert clone.of_kind(kind) == trace.of_kind(kind)
    # One kernel event per gpu.compute span, its KQT the span's kqt_ns.
    compute = [s for s in trace.spans if s.layer == "gpu.compute"]
    assert [
        (k.name, k.start_ns, k.duration_ns, k.queue_ns, k.stream)
        for k in trace.kernels()
    ] == [
        (s.name, s.start_ns, s.duration_ns, s.attrs["kqt_ns"], s.attrs["stream"])
        for s in compute
    ]
    if app is _uvm_app:
        cold, warm = trace.kernels()
        assert cold.attrs["uvm"] and cold.attrs["faulted_pages"] > 0
        assert warm.attrs == {"uvm": True, "faulted_pages": 0}
    else:
        assert all(k.attrs == {"uvm": False, "faulted_pages": 0}
                   for k in trace.kernels())


def test_roundtrip_preserves_recovery_queue_and_stream():
    trace = Trace(label="faulty")
    trace.add(TraceEvent(EventKind.KERNEL, "k", 10, 100, queue_ns=7, stream=3,
                         attrs={"uvm": False, "faulted_pages": 0}))
    trace.add(TraceEvent(EventKind.RECOVERY, "recover:crypto.gcm_tag", 120, 40,
                         attrs={"site": "crypto.gcm_tag", "attempt": 2,
                                "action": "retry"}))
    clone = from_chrome_trace(trace.to_chrome_trace())
    kernel = clone.kernels()[0]
    assert kernel.queue_ns == 7
    assert kernel.stream == 3
    (recovery,) = clone.recoveries()
    assert recovery.name == "recover:crypto.gcm_tag"
    assert recovery.start_ns == 120 and recovery.duration_ns == 40
    assert recovery.attrs["attempt"] == 2
    assert recovery.attrs["action"] == "retry"
    assert clone.recovery_ns() == trace.recovery_ns() == 40


def test_roundtrip_preserves_spans():
    trace, _ = run_app(_app, SystemConfig.confidential())
    clone = from_chrome_trace(trace.to_chrome_trace())
    assert len(clone.spans) == len(trace.spans)
    for original, revived in zip(trace.spans, clone.spans):
        assert revived.span_id == original.span_id
        assert revived.parent_id == original.parent_id
        assert revived.name == original.name
        assert revived.layer == original.layer
        assert revived.start_ns == original.start_ns
        assert revived.duration_ns == original.duration_ns
    assert clone.spans.layer_busy_ns() == trace.spans.layer_busy_ns()


def test_roundtrip_preserves_counters_and_gauges():
    trace, _ = run_app(_app, SystemConfig.confidential())
    clone = from_chrome_trace(trace.to_chrome_trace())
    assert clone.metrics.names() == trace.metrics.names()
    for original, revived in zip(
        trace.metrics.sampled(), clone.metrics.sampled()
    ):
        assert revived.kind == original.kind
        assert revived.series == original.series
    assert clone.metrics.counter("tdx.hypercalls").value > 0


def test_import_error_is_value_error():
    assert issubclass(TraceImportError, ValueError)
    with pytest.raises(TraceImportError):
        from_chrome_trace("{nope")


def test_load_from_file(tmp_path):
    trace, _ = run_app(_app, SystemConfig.base())
    path = tmp_path / "trace.json"
    path.write_text(trace.to_chrome_trace())
    clone = load_chrome_trace(str(path))
    assert len(clone) == len(trace)
    assert clone.label == str(path)


def test_foreign_events_skipped():
    payload = {
        "traceEvents": [
            {"ph": "M", "name": "process_name"},  # metadata
            {"ph": "X", "cat": "python", "name": "foreign", "ts": 0, "dur": 1},
            {"ph": "X", "cat": "kernel", "name": "k", "ts": 10.0, "dur": 5.0,
             "args": {"queue_us": 2.0}},
        ]
    }
    trace = from_chrome_trace(json.dumps(payload))
    assert len(trace) == 1
    kernel = trace.kernels()[0]
    assert kernel.start_ns == 10_000
    assert kernel.queue_ns == 2_000


def test_bare_array_variant_accepted():
    rows = [{"ph": "X", "cat": "sync", "name": "s", "ts": 0, "dur": 3}]
    trace = from_chrome_trace(json.dumps(rows))
    assert len(trace) == 1


def test_malformed_inputs_rejected():
    with pytest.raises(TraceImportError, match="invalid JSON"):
        from_chrome_trace("{nope")
    with pytest.raises(TraceImportError, match="traceEvents"):
        from_chrome_trace('{"other": 1}')
    with pytest.raises(TraceImportError, match="bad ts/dur"):
        from_chrome_trace(json.dumps(
            {"traceEvents": [{"ph": "X", "cat": "kernel", "name": "k",
                              "ts": "NaN?", "dur": None}]}
        ))
    with pytest.raises(TraceImportError, match="unknown copy kind"):
        from_chrome_trace(json.dumps(
            {"traceEvents": [{"ph": "X", "cat": "memcpy", "name": "m",
                              "ts": 0, "dur": 1,
                              "args": {"copy_kind": "sideways"}}]}
        ))


@pytest.mark.parametrize("args", [
    {"id": 1 << 63, "parent": None},
    {"id": 1, "parent": -(1 << 63)},
    {"id": 1, "parent": "root"},
])
def test_span_ids_outside_64_bits_rejected(args):
    """Span ids live in 64-bit columns: one that does not fit fails
    the import naming the row, not a later read."""
    row = {"ph": "X", "cat": "span", "name": "s", "ts": 0, "dur": 1,
           "args": {**args, "layer": "driver"}}
    with pytest.raises(TraceImportError, match=r"traceEvents\[0\]: bad span row"):
        from_chrome_trace(json.dumps([row]))


@pytest.mark.parametrize("index, name, layer", [
    (0, "cudaLaunchKernel", "driver"),
    (1, "k", "gpu.compute"),
])
def test_span_without_derived_attrs_rejected(index, name, layer):
    """A span that derives an event must carry the attributes it is
    derived from, or the import fails naming the row."""
    rows = [
        {"ph": "X", "cat": "span", "name": "cudaLaunchKernel", "ts": 0,
         "dur": 5, "args": {"id": 1, "parent": None, "layer": "driver",
                            "attrs": {"kernel": "k", "stream": 0}}},
        {"ph": "X", "cat": "span", "name": "k", "ts": 8, "dur": 100,
         "args": {"id": 2, "parent": None, "layer": "gpu.compute",
                  "attrs": {"stream": 0, "kqt_ns": 3000}}},
    ]
    assert [e.kind for e in from_chrome_trace(json.dumps(rows)).events] == [
        EventKind.LAUNCH, EventKind.KERNEL,
    ]
    del rows[index]["args"]["attrs"]
    with pytest.raises(TraceImportError,
                       match=rf"traceEvents\[{index}\]: '{name}' span"):
        from_chrome_trace(json.dumps(rows))


def test_from_rows_minimal():
    trace = from_rows(
        [
            ("launch", "k", 0.0, 5.0),
            ("kernel", "k", 8.0, 100.0, 3.0),
            ("memcpy", "h2d", 120.0, 40.0),
        ]
    )
    assert len(trace) == 3
    assert [e.name for e in trace.launches()] == ["k"]
    assert [e.name for e in trace.kernels()] == ["k"]
    assert trace.kernels()[0].queue_ns == 3_000
    # The model runs on row-imported traces too.
    model = decompose(trace)
    assert model.span_ns == 160_000


def test_from_rows_validation():
    with pytest.raises(TraceImportError, match="unknown kind"):
        from_rows([("warp", "k", 0, 1)])
    with pytest.raises(TraceImportError, match="expected 4 or 5"):
        from_rows([("kernel",)])
