"""Observability subsystem: hierarchical spans and a metrics registry.

This package is the simulator's answer to the paper's methodology —
the paper dissects CC overhead by *looking at traces* (Nsight
timelines, perf flame graphs, per-phase counters), so the simulator
records the same structure first-class:

* :mod:`repro.obs.spans` — hierarchical spans with parent/child
  causality and a layer taxonomy (``td -> tdx_module -> hypervisor ->
  driver -> dma -> gpu.copy -> gpu.compute``), recorded by the
  instrumentation hooks wired through the TDX, CUDA, memory, GPU and
  fault layers.
* :mod:`repro.obs.metrics` — counters/gauges/histograms sampled in
  *simulated* time (bounce-pool occupancy, engine utilisation,
  launch-queue depth, encrypted bytes, hypercall and retry counts).
* :mod:`repro.obs.summary` — per-layer attribution tables, Sec.-V
  model-term extraction, and run-vs-run diffing behind the
  ``repro trace`` CLI (imported explicitly; not re-exported here to
  keep the package import-cycle free).

There is one recording mode: every guest records into a ``Trace``.
Recording is pure bookkeeping: no simulated time is ever consumed by
an observability hook, so stubbing the recorders out leaves every
simulated timing byte-identical (guarded by a benchmark test).
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from .spans import CANONICAL_LAYERS, Span, SpanHandle, SpanRecorder, layer_sort_key

__all__ = [
    "CANONICAL_LAYERS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanHandle",
    "SpanRecorder",
    "layer_sort_key",
    "percentile",
]
