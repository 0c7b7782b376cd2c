"""Trace importers: apply the paper's analysis to external captures.

Two formats:

* **Chrome trace JSON** — the format this repository exports
  (:meth:`Trace.to_chrome_trace`), and what Perfetto/`nsys export`
  pipelines can be massaged into.  Events are complete-phase ("ph":
  "X") rows; the importer maps categories back onto the trace-event
  vocabulary, revives span rows (``cat == "span"``) into the
  hierarchical :class:`repro.obs.SpanRecorder`, counter ("C"-phase)
  rows into the metrics registry, and histogram metadata — so
  ``decompose`` / ``breakdown`` / the span summaries run on imported
  traces exactly as on simulated ones, and an export → import →
  re-export round trip is byte-identical.
* **Nsight-style CSV rows** via :func:`from_rows` — a minimal
  programmatic entry point (kind, name, start_us, dur_us, queue_us)
  for users who already parsed their profiler output.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..config import CopyKind, MemoryKind
from ..obs.spans import Span
from .collector import DERIVED_SPAN_ATTRS, HISTOGRAM_ROW_NAME, Trace
from .events import EventKind, TraceEvent


class TraceImportError(ValueError):
    """Malformed trace input."""


_KIND_BY_NAME = {kind.value: kind for kind in EventKind}
_COPY_BY_NAME = {kind.value: kind for kind in CopyKind}
_MEMORY_BY_NAME = {kind.value: kind for kind in MemoryKind}


def _ns(value: float) -> int:
    return int(round(float(value) * 1000))


def _revive_attrs(kind: EventKind, args: Dict) -> Tuple[Dict, int, Optional[int]]:
    attrs = dict(args)
    queue_ns = _ns(attrs.pop("queue_us", 0.0))
    stream = attrs.pop("stream", None)
    if kind is EventKind.MEMCPY:
        copy_name = attrs.get("copy_kind")
        if isinstance(copy_name, str):
            if copy_name not in _COPY_BY_NAME:
                raise TraceImportError(f"unknown copy kind {copy_name!r}")
            attrs["copy_kind"] = _COPY_BY_NAME[copy_name]
        memory_name = attrs.get("memory")
        if isinstance(memory_name, str):
            if memory_name not in _MEMORY_BY_NAME:
                raise TraceImportError(f"unknown memory kind {memory_name!r}")
            attrs["memory"] = _MEMORY_BY_NAME[memory_name]
    return attrs, queue_ns, stream


def _import_metadata(trace: Trace, row: Dict) -> Optional[str]:
    """Handle one "M" row; returns the process name when present."""
    args = row.get("args") or {}
    name = row.get("name")
    if name == "process_name":
        return args.get("name")
    if name == HISTOGRAM_ROW_NAME and isinstance(args, dict):
        for metric_name, values in args.items():
            if isinstance(values, list):
                trace.metrics.import_histogram(metric_name, values)
    return None


def _import_span(trace: Trace, index: int, row: Dict) -> None:
    args = row.get("args") or {}
    try:
        span_id = int(args["id"])
        layer = str(args["layer"])
        start_ns = _ns(row["ts"])
        duration_ns = _ns(row.get("dur", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceImportError(f"traceEvents[{index}]: bad span row") from exc
    name = str(row.get("name", "span"))
    attrs = dict(args.get("attrs") or {})
    needed = DERIVED_SPAN_ATTRS.get(layer) or DERIVED_SPAN_ATTRS.get(name, ())
    missing = [key for key in needed if key not in attrs]
    if missing:
        raise TraceImportError(
            f"traceEvents[{index}]: {name!r} span lacks attrs {missing}"
        )
    parent = args.get("parent")
    try:
        trace.spans.add(
            Span(
                span_id=span_id,
                parent_id=int(parent) if parent is not None else None,
                name=name,
                layer=layer,
                start_ns=start_ns,
                duration_ns=duration_ns,
                attrs=attrs,
            )
        )
    except (TypeError, ValueError) as exc:
        raise TraceImportError(f"traceEvents[{index}]: bad span row") from exc


def from_chrome_trace(text: str, label: Optional[str] = None) -> Trace:
    """Parse a Chrome-trace JSON string into a :class:`Trace`.

    ``label`` defaults to the exported ``process_name`` metadata (so a
    round trip preserves the label), falling back to ``"imported"``.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceImportError(f"invalid JSON: {exc}") from exc
    if isinstance(payload, dict):
        rows = payload.get("traceEvents")
    elif isinstance(payload, list):
        rows = payload  # bare-array chrome trace variant
    else:
        rows = None
    if not isinstance(rows, list):
        raise TraceImportError("expected a traceEvents array")
    trace = Trace(label=label or "imported")
    process_name: Optional[str] = None
    counter_series: Dict[Tuple[str, str], list] = {}
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        phase = row.get("ph")
        if phase == "M":
            found = _import_metadata(trace, row)
            if found is not None:
                process_name = found
            continue
        if phase == "C":
            name = row.get("name")
            kind = row.get("cat", "counter")
            if not isinstance(name, str) or kind not in ("counter", "gauge"):
                continue
            args = row.get("args") or {}
            try:
                sample = (_ns(row["ts"]), args["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceImportError(
                    f"traceEvents[{index}]: bad counter row"
                ) from exc
            counter_series.setdefault((name, kind), []).append(sample)
            continue
        if phase != "X":
            continue  # ignore instant/async events
        category = row.get("cat")
        if category == "span":
            _import_span(trace, index, row)
            continue
        if category not in _KIND_BY_NAME:
            continue  # foreign categories are skipped, not fatal
        kind = _KIND_BY_NAME[category]
        try:
            start_ns = _ns(row["ts"])
            duration_ns = _ns(row.get("dur", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceImportError(f"traceEvents[{index}]: bad ts/dur") from exc
        attrs, queue_ns, stream = _revive_attrs(kind, row.get("args", {}))
        trace.add(
            TraceEvent(
                kind=kind,
                name=str(row.get("name", category)),
                start_ns=start_ns,
                duration_ns=duration_ns,
                queue_ns=queue_ns,
                stream=stream,
                attrs=attrs,
            )
        )
    for (name, kind), samples in counter_series.items():
        trace.metrics.import_series(name, kind, samples)
    if label is None and process_name is not None:
        trace.label = process_name
    return trace


def load_chrome_trace(path: str, label: Optional[str] = None) -> Trace:
    with open(path) as handle:
        return from_chrome_trace(handle.read(), label=label or path)


def from_rows(
    rows: Iterable[Sequence],
    label: str = "imported",
) -> Trace:
    """Build a trace from (kind, name, start_us, dur_us[, queue_us]) rows.

    ``kind`` is one of launch/kernel/memcpy/alloc/free/sync.  This is
    the minimal shape a user can extract from ``nsys stats`` CSVs.
    """
    trace = Trace(label=label)
    for index, row in enumerate(rows):
        if len(row) not in (4, 5):
            raise TraceImportError(
                f"row {index}: expected 4 or 5 fields, got {len(row)}"
            )
        kind_name, name, start_us, dur_us = row[:4]
        queue_us = row[4] if len(row) == 5 else 0.0
        if kind_name not in _KIND_BY_NAME:
            raise TraceImportError(f"row {index}: unknown kind {kind_name!r}")
        trace.add(
            TraceEvent(
                kind=_KIND_BY_NAME[kind_name],
                name=str(name),
                start_ns=_ns(start_us),
                duration_ns=_ns(dur_us),
                queue_ns=_ns(queue_us),
            )
        )
    return trace
