"""Trace collection and querying.

A :class:`Trace` is the full observability record of one run: the flat
Nsight-style event list, the hierarchical span tree, and the sampled
metrics registry (see :mod:`repro.obs`).  Each CPU-side CUDA API call,
each GPU kernel and each fault recovery is recorded once, as a span;
its event is derived from that span when the trace is read.  Export
produces Perfetto-grade Chrome tracing JSON — integer pid/tid with
"M"-phase process/thread name metadata, one thread track per event
category and per span layer, and "C"-phase counter tracks — that
round-trips losslessly (byte-identically) through
:mod:`repro.profiler.importers`.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.spans import Span, SpanRecorder
from .events import EventKind, TraceEvent

# Exported process id (one simulated application per trace).
TRACE_PID = 1

# Fixed thread-track ids for the flat event categories.
EVENT_TRACKS: Dict[EventKind, Tuple[int, str]] = {
    EventKind.ALLOC: (1, "CPU:api"),
    EventKind.FREE: (1, "CPU:api"),
    EventKind.SYNC: (1, "CPU:api"),
    EventKind.LAUNCH: (2, "CPU:driver"),
    EventKind.RECOVERY: (3, "CPU:recovery"),
    EventKind.KERNEL: (4, "GPU:compute"),
    EventKind.MEMCPY: (5, "GPU:copy"),
}

# Fixed thread-track ids for the canonical span layers; layers outside
# the table get deterministic ids after the reserved range.
LAYER_TRACKS: Dict[str, int] = {
    "td": 10,
    "tdx_module": 11,
    "hypervisor": 12,
    "driver": 13,
    "dma": 14,
    "gpu.copy": 15,
    "gpu.compute": 16,
    "recovery": 17,
}
_FIRST_DYNAMIC_TID = 20

# Metadata row that carries histogram metrics through export/import.
HISTOGRAM_ROW_NAME = "repro.histograms"

# CUDA API spans and the kind of event each one derives.
API_EVENT_KINDS: Dict[str, EventKind] = {
    **dict.fromkeys(("cudaMalloc", "cudaMallocHost", "cudaMallocManaged"), EventKind.ALLOC),
    **dict.fromkeys(("cudaFree", "cudaFree(managed)", "cudaFreeHost"), EventKind.FREE),
    **dict.fromkeys(("cudaStreamSynchronize", "cudaDeviceSynchronize"), EventKind.SYNC),
    **dict.fromkeys(("cudaLaunchKernel", "cudaGraphLaunch"), EventKind.LAUNCH),
}

# Span layers whose every span derives an event of one kind.
LAYER_EVENT_KINDS: Dict[str, EventKind] = {
    "gpu.compute": EventKind.KERNEL,
    "recovery": EventKind.RECOVERY,
}

# The span attributes an event is derived from, by span name or, for a
# layer in LAYER_EVENT_KINDS, by layer; the importer rejects a span
# that lacks one.
DERIVED_SPAN_ATTRS: Dict[str, Tuple[str, ...]] = {
    "cudaLaunchKernel": ("kernel", "stream"),
    "cudaGraphLaunch": ("nodes", "stream"),
    "gpu.compute": ("stream", "kqt_ns"),
}


def derive_events(spans: Iterable[Span]) -> List[TraceEvent]:
    """The events of the CUDA API calls (:data:`API_EVENT_KINDS`),
    kernels (layer ``gpu.compute``) and fault recoveries (layer
    ``recovery``) among ``spans``, in record order.  A launch's LQT is
    the gap since the previous launch span ended (Sec. V), 0 for the
    first launch; a kernel's KQT is its span's ``kqt_ns``, and a kernel
    is UVM exactly when its span carries ``faulted_pages``.
    """
    events = []
    last_launch_end: Optional[int] = None
    for span in spans:
        kind = LAYER_EVENT_KINDS.get(span.layer) or API_EVENT_KINDS.get(span.name)
        if kind is None:
            continue
        if kind is EventKind.KERNEL:
            attrs = span.attrs
            pages = attrs.get("faulted_pages")
            events.append(TraceEvent(
                kind, span.name, span.start_ns, span.duration_ns,
                queue_ns=attrs["kqt_ns"], stream=attrs["stream"],
                attrs={"uvm": pages is not None, "faulted_pages": pages or 0},
            ))
            continue
        # Alloc, free and recovery spans carry exactly their event's attrs.
        attrs = {} if kind is EventKind.SYNC else dict(span.attrs)
        event = TraceEvent(kind, span.name, span.start_ns, span.duration_ns, attrs=attrs)
        if kind is EventKind.LAUNCH:
            if last_launch_end is not None:
                event.queue_ns = max(0, span.start_ns - last_launch_end)
            last_launch_end = span.end_ns
            event.name = (
                attrs.pop("kernel") if span.name == "cudaLaunchKernel"
                else f"graph[{attrs.pop('nodes')}]"
            )
            event.stream = attrs.pop("stream")
            attrs.setdefault("first", False)
        events.append(event)
    return events


class Trace:
    """An ordered collection of trace events for one application run.

    GPU copies and imported rows are recorded with :meth:`add`; the
    other events are derived from spans (:func:`derive_events`) when
    :attr:`events` is read, after the run (an open span would derive a
    zero duration).  No span matches a copy event: a blocking copy's
    event sits inside ``cudaMemcpy`` and matches none of its stage
    spans, the ``gpu.copy`` span also covers the DMA retries, and
    neither carries ``memory`` or ``managed``.  A kind with recorded
    events derives none: an imported trace keeps exactly its rows.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        self._recorded: List[TraceEvent] = []
        self._derived_at: Optional[Tuple[int, int]] = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the simulated-time clock used by spans and metrics."""
        self.spans.bind_clock(clock)
        self.metrics.bind_clock(clock)

    def add(self, event: TraceEvent) -> TraceEvent:
        self._recorded.append(event)
        return event

    @property
    def events(self) -> List[TraceEvent]:
        """Recorded events, then the derived ones; rebuilt only when an
        event or span was added since the last read."""
        key = (len(self._recorded), len(self.spans))
        if key != self._derived_at:
            recorded = {e.kind for e in self._recorded}
            derived = [e for e in derive_events(self.spans) if e.kind not in recorded]
            self._events, self._derived_at = self._recorded + derived, key
        return self._events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: EventKind) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def launches(self) -> List[TraceEvent]:
        return self.of_kind(EventKind.LAUNCH)

    def kernels(self) -> List[TraceEvent]:
        return self.of_kind(EventKind.KERNEL)

    def memcpys(self) -> List[TraceEvent]:
        return self.of_kind(EventKind.MEMCPY)

    def recoveries(self) -> List[TraceEvent]:
        return self.of_kind(EventKind.RECOVERY)

    def recovery_ns(self) -> int:
        """Total fault-recovery time (wasted attempts + backoff)."""
        return self.total_duration_ns(EventKind.RECOVERY)

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        return [e for e in self.events if predicate(e)]

    def total_duration_ns(self, kind: Optional[EventKind] = None) -> int:
        events: Iterable[TraceEvent] = (
            self.events if kind is None else self.of_kind(kind)
        )
        return sum(e.duration_ns for e in events)

    def span_ns(self) -> int:
        """Wall-clock span from first event start to last event end."""
        if not self.events:
            return 0
        return max(e.end_ns for e in self.events) - min(
            e.start_ns for e in self.events
        )

    def sorted_by_start(self) -> List[TraceEvent]:
        return sorted(self.events, key=lambda e: (e.start_ns, e.end_ns))

    # -- export --------------------------------------------------------------

    def _layer_tids(self) -> Dict[str, int]:
        """Deterministic layer -> tid map (fixed table + extras)."""
        tids = {}
        dynamic = [
            layer
            for layer in self.spans.layers()
            if layer not in LAYER_TRACKS
        ]
        for offset, layer in enumerate(sorted(dynamic)):
            tids[layer] = _FIRST_DYNAMIC_TID + offset
        for layer in self.spans.layers():
            if layer in LAYER_TRACKS:
                tids[layer] = LAYER_TRACKS[layer]
        return tids

    def to_chrome_trace(self) -> str:
        """Perfetto-grade Chrome tracing JSON.

        Emits integer pid/tid plus "M"-phase process/thread name
        metadata (loads cleanly in Perfetto, not just chrome://tracing),
        one "X" row per event and per span (grouped on per-layer thread
        tracks), and "C"-phase counter tracks for sampled metrics.  The
        output is deterministic and round-trips byte-identically
        through :func:`repro.profiler.importers.from_chrome_trace`.
        """
        label = self.label or "app"
        layer_tids = self._layer_tids()
        used_tids: Dict[int, str] = {}

        event_rows = []
        for event in self.sorted_by_start():
            tid, track = EVENT_TRACKS[event.kind]
            used_tids[tid] = track
            args = {
                key: (value.value if hasattr(value, "value") else value)
                for key, value in event.attrs.items()
            }
            # Preserve queue time and stream so the trace round-trips
            # through repro.profiler.importers losslessly.
            args["queue_us"] = event.queue_ns / 1000.0
            if event.stream is not None:
                args["stream"] = event.stream
            event_rows.append(
                {
                    "name": event.name,
                    "cat": event.kind.value,
                    "ph": "X",
                    "ts": event.start_ns / 1000.0,  # chrome uses us
                    "dur": event.duration_ns / 1000.0,
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )

        # Per-request tracks: serving-telemetry request spans (layer
        # "serve.req") get one thread track per request id so Perfetto
        # shows each request's lifecycle on its own row.  Tids are
        # allocated after every layer tid, sorted by request id —
        # deterministic, and invisible to the importer (which
        # reconstructs spans from args, not tids), so traces still
        # round-trip byte-identically.
        request_ids = sorted({
            span.attrs["req"]
            for span in self.spans
            if span.layer == "serve.req" and "req" in span.attrs
        })
        next_tid = max(
            list(layer_tids.values()) + [_FIRST_DYNAMIC_TID - 1]
        ) + 1
        request_tids = {
            req_id: next_tid + offset
            for offset, req_id in enumerate(request_ids)
        }

        span_rows = []
        for span in sorted(
            self.spans, key=lambda s: (s.start_ns, s.span_id)
        ):
            if span.layer == "serve.req" and "req" in span.attrs:
                tid = request_tids[span.attrs["req"]]
                used_tids[tid] = f"req:{span.attrs['req']}"
            else:
                tid = layer_tids[span.layer]
                used_tids[tid] = f"layer:{span.layer}"
            args = {
                "id": span.span_id,
                "parent": span.parent_id,
                "layer": span.layer,
            }
            if span.attrs:
                args["attrs"] = {
                    key: (value.value if hasattr(value, "value") else value)
                    for key, value in span.attrs.items()
                }
            span_rows.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.start_ns / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )

        counter_rows = []
        for metric in self.metrics.sampled():
            for t_ns, value in metric.series:
                counter_rows.append(
                    {
                        "name": metric.name,
                        "cat": metric.kind,
                        "ph": "C",
                        "ts": t_ns / 1000.0,
                        "pid": TRACE_PID,
                        "args": {"value": value},
                    }
                )

        meta_rows = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "args": {"name": label},
            }
        ]
        for tid in sorted(used_tids):
            meta_rows.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": used_tids[tid]},
                }
            )
        histograms = self.metrics.histograms()
        if histograms:
            meta_rows.append(
                {
                    "name": HISTOGRAM_ROW_NAME,
                    "ph": "M",
                    "pid": TRACE_PID,
                    "args": {h.name: list(h.values) for h in histograms},
                }
            )

        rows = meta_rows + event_rows + span_rows + counter_rows
        return json.dumps({"traceEvents": rows}, indent=1, sort_keys=True)
