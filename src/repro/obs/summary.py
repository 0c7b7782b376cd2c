"""Cross-run overhead attribution built on spans + metrics.

Produces the ``repro trace summarize`` and ``repro trace diff``
reports:

* :func:`layer_table` — per-layer busy/total time from the span tree
  (the taxonomy td -> tdx_module -> hypervisor -> driver -> dma ->
  gpu.copy -> gpu.compute);
* :func:`model_components` — the paper's Sec.-V model terms measured
  from the same trace: T (memory time), E (software encryption, from
  crypto-flagged spans), L (KLO), Q (LQT + KQT), K (KET), D (T_other)
  and recovery;
* :func:`summarize` — one-trace report whose component table is
  computed by :func:`repro.core.breakdown` (so the sums match it
  *exactly*, not approximately);
* :func:`diff` — CC-on vs CC-off attribution: per-component deltas,
  each component's share of the total overhead, and a drift check of
  the Sec.-V model prediction against the observed span.
* :func:`serve_attributions` / :func:`serve_tail_diff` — serving-trace
  awareness: traces carrying per-request telemetry spans (layer
  ``serve.req``, see :mod:`repro.serve.telemetry`) get their request
  records reconstructed, a serving section in :func:`summarize`, and a
  tail-forensics diff attributing the base-vs-CC TTFT p99 delta to the
  same Sec.-V components.

This module deliberately lives outside ``repro.obs.__init__`` —
importing it pulls in :mod:`repro.core`, which imports the profiler,
which imports ``repro.obs``; keeping it out of the package root keeps
that cycle one-directional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import units
from ..core.breakdown import CATEGORIES, breakdown
from ..core.metrics import kernel_metrics, launch_metrics
from ..core.model import decompose
from ..profiler.collector import Trace
from .spans import Span, layer_sort_key

# Report order of the Sec.-V model terms.
COMPONENTS = ("T", "E", "L", "Q", "K", "D", "recovery")

_COMPONENT_LABELS = {
    "T": "T: memory transfer",
    "E": "E: software encryption",
    "L": "L: launch overhead (KLO)",
    "Q": "Q: queuing (LQT+KQT)",
    "K": "K: kernel execution (KET)",
    "D": "D: alloc/free/sync",
    "recovery": "recovery: fault handling",
}


def crypto_ns(trace: Trace) -> int:
    """Total software-crypto time: sum of crypto-flagged spans."""
    return sum(end - start for start, end in trace.spans.flagged("crypto"))


def model_components(trace: Trace) -> Dict[str, int]:
    """The Sec.-V model terms, measured from one trace.

    T, D and recovery come from :func:`repro.core.model.decompose`;
    L, Q and K from :mod:`repro.core.metrics`; E is the sum of
    crypto-flagged spans (AES-GCM staging, pushbuffer encryption,
    encrypted paging).  E overlaps T/L by construction — it answers
    "how much time went into software crypto", not "which wall-clock
    nanoseconds", and is reported alongside rather than summed.
    """
    deco = decompose(trace)
    launches = launch_metrics(trace)
    kernels = kernel_metrics(trace)
    return {
        "T": deco.t_mem_ns,
        "E": crypto_ns(trace),
        "L": launches.total_klo_ns,
        "Q": launches.total_lqt_ns + kernels.total_kqt_ns,
        "K": kernels.total_ket_ns,
        "D": deco.t_other_ns,
        "recovery": deco.t_recovery_ns,
    }


@dataclass(frozen=True)
class LayerRow:
    layer: str
    busy_ns: int  # union of the layer's span intervals
    total_ns: int  # plain sum (double-counts overlap/nesting)
    spans: int


def layer_table(trace: Trace) -> List[LayerRow]:
    """Per-layer time table in taxonomy order."""
    busy = trace.spans.layer_busy_ns()
    totals: Dict[str, List[int]] = {}
    for layer, _, duration, _ in trace.spans.scan(lambda name, layer, keys: layer):
        row = totals.setdefault(layer, [0, 0])
        row[0] += duration
        row[1] += 1
    return [
        LayerRow(
            layer=layer,
            busy_ns=busy[layer],
            total_ns=totals[layer][0],
            spans=totals[layer][1],
        )
        for layer in sorted(totals, key=layer_sort_key)
    ]


def serve_attributions(trace: Trace) -> List:
    """Reconstruct per-request telemetry records from a serving trace.

    The inverse of :func:`repro.serve.telemetry.record_telemetry_spans`
    for the ``serve.req`` root spans; works on live traces and on
    traces re-imported from a Chrome export (attrs round-trip).
    Returns ``[]`` for traces without serving telemetry.  Imported
    lazily to keep the obs -> serve dependency one-directional at
    module load.
    """
    from ..serve.telemetry import (
        ATTRIBUTION_COMPONENTS,
        SERVE_REQUEST_LAYER,
        RequestAttribution,
    )

    def request_keys(name: str, layer: str, keys: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
        return keys if layer == SERVE_REQUEST_LAYER and name == "request" else None

    attributions = []
    for keys, start, duration, values in trace.spans.scan(request_keys):
        attrs = dict(zip(keys, values))
        attributions.append(
            RequestAttribution(
                req_id=int(attrs["req"]),
                tenant=str(attrs["tenant"]),
                status=str(attrs["status"]),
                cause=str(attrs["cause"]),
                arrival_ns=start,
                admitted_ns=attrs["admitted_ns"],
                first_token_ns=attrs["first_token_ns"],
                finish_ns=start + duration,
                prompt_tokens=int(attrs["prompt_tokens"]),
                gen_tokens=int(attrs["gen_tokens"]),
                preemptions=int(attrs["preemptions"]),
                components={
                    c: attrs[f"c_{c}"]
                    for c in ATTRIBUTION_COMPONENTS
                    if attrs.get(f"c_{c}")
                },
                ttft_components={
                    c: attrs[f"f_{c}"]
                    for c in ATTRIBUTION_COMPONENTS
                    if attrs.get(f"f_{c}")
                },
            )
        )
    attributions.sort(key=lambda a: a.req_id)
    return attributions


def serve_tail_diff(base_trace: Trace, cc_trace: Trace) -> Dict:
    """Tail-forensics diff between two serving traces with telemetry.

    Raises ``ValueError`` if either trace carries no per-request
    telemetry spans.  The returned dict is
    :func:`repro.serve.telemetry.forensics_diff` output: per-component
    deltas that sum exactly to the TTFT p99 delta.
    """
    from ..serve.telemetry import forensics_diff

    base = serve_attributions(base_trace)
    cc = serve_attributions(cc_trace)
    if not base or not cc:
        raise ValueError(
            "serve_tail_diff needs two traces with serve telemetry "
            "(run `repro serve --trace` with telemetry enabled)"
        )
    return forensics_diff(base, cc)


def top_spans(trace: Trace, count: int = 10) -> List[Span]:
    """The ``count`` longest spans (ties broken by id for determinism)."""
    return trace.spans.longest(count)


def summarize(trace: Trace, top: int = 10) -> str:
    """Human-readable per-layer + component + top-span report.

    The component table is produced by :func:`repro.core.breakdown` on
    this very trace, so its rows sum to the breakdown totals exactly.
    """
    lines: List[str] = []
    label = trace.label or "trace"
    span_ns = trace.span_ns()
    lines.append(f"trace {label}: span {units.to_ms(span_ns):.3f} ms, "
                 f"{len(trace.events)} events, {len(trace.spans)} spans")

    rows = layer_table(trace)
    if rows:
        lines.append("")
        lines.append("per-layer time (span union / sum / count):")
        for row in rows:
            lines.append(
                f"  {row.layer:<12}{units.to_ms(row.busy_ns):12.3f} ms"
                f"{units.to_ms(row.total_ns):12.3f} ms{row.spans:8d}"
            )

    result = breakdown(trace)
    lines.append("")
    lines.append("wall-clock attribution (core.breakdown):")
    for category, value_ns, share in result.rows():
        lines.append(
            f"  {category:<14}{units.to_ms(value_ns):12.3f} ms"
            f"{share * 100:7.1f}%"
        )
    total = sum(result.by_category_ns.get(c, 0) for c in CATEGORIES)
    lines.append(
        f"  {'total':<14}{units.to_ms(total):12.3f} ms  100.0%"
    )

    comps = model_components(trace)
    lines.append("")
    lines.append("Sec. V model terms:")
    for key in COMPONENTS:
        lines.append(
            f"  {_COMPONENT_LABELS[key]:<28}"
            f"{units.to_ms(comps[key]):12.3f} ms"
        )

    attributions = serve_attributions(trace)
    if attributions:
        from ..serve.telemetry import _component_sums, latency_percentiles

        pct = latency_percentiles(attributions)
        done = sum(1 for a in attributions if a.status == "completed")
        shed = sum(1 for a in attributions if a.status == "shed")
        failed = sum(1 for a in attributions if a.status == "failed")
        lines.append("")
        lines.append(
            f"serving telemetry: {len(attributions)} requests "
            f"({done} completed, {shed} shed, {failed} failed)"
        )
        lines.append(
            f"  ttft p50/p99 {pct['ttft_ms']['p50']:.2f}/"
            f"{pct['ttft_ms']['p99']:.2f} ms  "
            f"e2e p99 {pct['e2e_ms']['p99']:.2f} ms"
        )
        lines.append("  request-time blame: " + ", ".join(
            f"{c}={units.to_ms(v):.2f}ms"
            for c, v in _component_sums(attributions).items() if v
        ))

    counters = [
        m for m in trace.metrics.sampled() if m.values
    ]
    if counters:
        lines.append("")
        lines.append("metrics (final value / samples):")
        for metric in counters:
            lines.append(
                f"  {metric.name:<26}{metric.value:>16}"
                f"{len(metric.values):8d} samples"
            )

    spans = top_spans(trace, top)
    if spans:
        lines.append("")
        lines.append(f"top {len(spans)} spans:")
        for span in spans:
            lines.append(
                f"  {span.name:<28}{span.layer:<12}"
                f"{units.to_ms(span.duration_ns):12.3f} ms"
                f"  @{units.to_ms(span.start_ns):.3f}"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class ComponentDelta:
    component: str
    base_ns: int
    cc_ns: int

    @property
    def delta_ns(self) -> int:
        return self.cc_ns - self.base_ns

    @property
    def ratio(self) -> float:
        if self.base_ns == 0:
            return float("inf") if self.cc_ns else 1.0
        return self.cc_ns / self.base_ns


@dataclass(frozen=True)
class TraceDiff:
    """CC-on vs CC-off attribution with a model drift check."""

    base_label: str
    cc_label: str
    base_span_ns: int
    cc_span_ns: int
    components: List[ComponentDelta]
    # Relative error of the Sec.-V prediction vs observed span, per side.
    base_drift: float
    cc_drift: float
    tolerance: float
    flagged: List[str] = field(default_factory=list)

    @property
    def overhead_ns(self) -> int:
        return self.cc_span_ns - self.base_span_ns

    def component(self, name: str) -> ComponentDelta:
        for row in self.components:
            if row.component == name:
                return row
        raise KeyError(name)


def diff(
    base_trace: Trace, cc_trace: Trace, tolerance: float = 0.01
) -> TraceDiff:
    """Attribute the CC-on vs CC-off gap to the Sec.-V model terms.

    Components are measured per side with :func:`model_components`.
    The drift check flags ``model:base`` / ``model:cc`` when the model
    prediction P = A+B+C+D misses that side's observed span by more
    than ``tolerance``.  As A–D and the uncovered ``idle`` time
    partition the span, that miss is the idle share (within 1 ns): the
    flag fires when more than ``tolerance`` of a side's span is time no
    launch, kernel, copy, alloc, sync or recovery covers.
    """
    base_comps = model_components(base_trace)
    cc_comps = model_components(cc_trace)
    components = [
        ComponentDelta(key, base_comps[key], cc_comps[key])
        for key in COMPONENTS
    ]
    flagged: List[str] = []
    drifts = {}
    for side, trace in (("base", base_trace), ("cc", cc_trace)):
        deco = decompose(trace)
        drifts[side] = abs(deco.prediction_error)
        if drifts[side] > tolerance:
            flagged.append(f"model:{side}")
    return TraceDiff(
        base_label=base_trace.label or "base",
        cc_label=cc_trace.label or "cc",
        base_span_ns=base_trace.span_ns(),
        cc_span_ns=cc_trace.span_ns(),
        components=components,
        base_drift=drifts["base"],
        cc_drift=drifts["cc"],
        tolerance=tolerance,
        flagged=flagged,
    )


def render_diff(result: TraceDiff) -> str:
    lines: List[str] = []
    lines.append(
        f"diff {result.base_label} -> {result.cc_label}: "
        f"{units.to_ms(result.base_span_ns):.3f} ms -> "
        f"{units.to_ms(result.cc_span_ns):.3f} ms "
        f"(+{units.to_ms(result.overhead_ns):.3f} ms)"
    )
    lines.append("")
    lines.append(
        f"  {'component':<28}{'base':>12}{'cc':>12}{'delta':>12}{'x':>8}"
    )
    for row in result.components:
        ratio = (
            f"{row.ratio:7.2f}x" if row.ratio != float("inf") else "    new"
        )
        lines.append(
            f"  {_COMPONENT_LABELS[row.component]:<28}"
            f"{units.to_ms(row.base_ns):11.3f} {units.to_ms(row.cc_ns):11.3f} "
            f"{units.to_ms(row.delta_ns):11.3f} {ratio}"
        )
    lines.append("")
    lines.append(
        f"model drift: base {result.base_drift * 100:.2f}%, "
        f"cc {result.cc_drift * 100:.2f}% "
        f"(tolerance {result.tolerance * 100:.1f}%)"
    )
    if result.flagged:
        lines.append("FLAGGED: " + ", ".join(result.flagged))
    else:
        lines.append("model terms within tolerance")
    return "\n".join(lines)
