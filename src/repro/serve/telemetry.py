"""Request-scoped serving telemetry: per-request CC-tax attribution.

The serving engine pays every cost through the simulated CC stack, but
its SLO histograms only say *that* the tail inflated — never *why*.
This module opens a logical span per request covering its whole
lifecycle (queued -> admitted -> chunked prefill -> decode steps ->
preempt/swap/restore -> retry/re-attest -> terminal state), tags every
cost-paying engine operation with the owning request ids, and folds
the stack's spans and events into a per-request decomposition in the
paper's Sec.-V vocabulary:

===========  ==========================================================
component    meaning (per request, integer nanoseconds)
===========  ==========================================================
``queue``    admission wait (arrival -> first admission; the whole
             lifetime for requests shed before ever being admitted)
``T``        memory-transfer time: prompt upload, per-step token D2H,
             KV swap traffic (bounce staging + DMA, minus the crypto
             and kernel-wait carve-outs below)
``E``        software encryption: AES-GCM staging and pushbuffer
             crypto (crypto-flagged spans)
``L``        kernel-launch overhead (KLO): the ``cudaLaunchKernel``
             driver path including CC hypercalls and module load
``Q``        launch queuing: inter-launch gaps and launch-credit
             backpressure (the LQT remainder of a launch operation)
``K``        kernel execution (KET) the request waited behind
``D``        host-side bookkeeping (per-iteration scheduler work)
``recovery`` fault handling: wasted attempts, backoff, re-attestation
``other``    wall-clock not covered by a tagged engine operation
===========  ==========================================================

**Conservation invariant**: for every request the component breakdown
(including ``queue``) sums *exactly* — integer nanoseconds — to its
end-to-end latency, because the components are computed by slicing a
single non-overlapping, gap-filled timeline of the run and clipping it
to the request's lifetime.  A second breakdown clipped to the TTFT
window (arrival -> first token) sums exactly to TTFT the same way.

**Zero perturbation**: recording only reads the simulated clock and
appends to Python lists; it never yields to the simulator.  A run with
telemetry enabled produces byte-identical simulated timings, verdicts
and goldens to a run without (gated in CI and the test suite).

The analysis surface on top — :func:`tail_report` (top-k slowest with
blame, percentiles recomputed from per-request records),
:func:`tenant_rollup`, :func:`forensics_diff` (which component moved
the TTFT p99 between base and CC), and byte-deterministic
JSONL/CSV exports — feeds ``repro serve report`` and the
``ext_serve_telemetry`` figure.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import units
from ..core.intervals import Interval, intersect, merge, subtract
from ..profiler.collector import Trace
from .slo import RequestOutcome, _latency_block

#: Per-request attribution vocabulary, report order.  These SUM —
#: ``E`` is carved out of the transfer/launch time it occurs in (not
#: double-counted), so every nanosecond belongs to exactly one bucket.
ATTRIBUTION_COMPONENTS = (
    "queue", "T", "E", "L", "Q", "K", "D", "recovery", "other",
)

#: Span layer of the per-request telemetry spans (one Perfetto track
#: per request in the Chrome export).
SERVE_REQUEST_LAYER = "serve.req"
#: Span layer of the tagged engine operations (one shared track).
SERVE_OP_LAYER = "serve.op"

#: Engine operation kind -> component for the interval remainder after
#: the recovery/K/E/L carve-outs.
OP_BASE_COMPONENT = {
    "swap_out": "T",
    "swap_in": "T",
    "prompt_upload": "T",
    "token_d2h": "T",
    "prefill": "Q",
    "decode": "Q",
    "fused_step": "Q",
    "sched": "D",
    "reattest": "recovery",
    # Model-parallel communication: TP all-reduces over secure peer
    # links and PP activation handoffs across the host bridge.
    "tp_comm": "T",
    "pp_comm": "T",
}


class TelemetryError(ValueError):
    """Inconsistent telemetry capture (always a bug in the engine)."""


@dataclass(frozen=True)
class EngineOp:
    """One tagged cost-paying engine operation."""

    kind: str
    start_ns: int
    end_ns: int
    req_ids: Tuple[int, ...] = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class ServeTelemetry:
    """Collects per-request lifecycle marks and tagged engine ops.

    All methods are pure bookkeeping: no simulator interaction, so an
    instrumented run is byte-identical to an uninstrumented one.  With
    ``enabled=False`` every hook is a no-op and nothing is retained
    (the engine uses a shared disabled instance when no telemetry was
    requested).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.ops: List[EngineOp] = []
        self.admitted_ns: Dict[int, int] = {}
        self._clock: Optional[Callable[[], int]] = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    # -- engine hooks ------------------------------------------------------

    def admitted(self, req_id: int, now: int) -> None:
        """First admission of a request (re-admissions after a crash
        restore do not reset the mark: queueing is arrival -> first)."""
        if self.enabled:
            self.admitted_ns.setdefault(req_id, now)

    def op(self, kind: str, req_ids: Sequence[int] = ()):
        """Tag one cost-paying engine operation with its owners.

        Safe around generator code (the ``yield from`` of a runtime
        call): the interval closes when the block exits, exceptions
        included, so a fatal fault still leaves a closed interval.
        Telemetry-off runs get a shared no-op context (the decode loop
        enters one per step, so this path must not allocate).
        """
        if not self.enabled or self._clock is None:
            return _NULL_OP_CONTEXT
        if kind not in OP_BASE_COMPONENT:
            raise TelemetryError(f"unknown engine op kind {kind!r}")
        return _OpContext(self, kind, req_ids)


class _NullOpContext:
    """Shared no-op context for telemetry-off runs."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_OP_CONTEXT = _NullOpContext()


class _OpContext:
    """Records one :class:`EngineOp` interval on block exit."""

    __slots__ = ("_tel", "_kind", "_req_ids", "_start")

    def __init__(
        self, tel: ServeTelemetry, kind: str, req_ids: Sequence[int]
    ) -> None:
        self._tel = tel
        self._kind = kind
        self._req_ids = req_ids

    def __enter__(self) -> None:
        self._start = self._tel._clock()
        return None

    def __exit__(self, *exc: object) -> bool:
        tel = self._tel
        tel.ops.append(
            EngineOp(self._kind, self._start, tel._clock(),
                     tuple(self._req_ids))
        )
        return False


#: Shared inert instance for telemetry-off runs.
NULL_TELEMETRY = ServeTelemetry(enabled=False)


# ---------------------------------------------------------------------------
# Attribution: fold ops + stack spans into one component timeline.
# ---------------------------------------------------------------------------


def component_timeline(
    ops: Sequence[EngineOp], trace: Trace, horizon_ns: int
) -> List[Tuple[int, int, str]]:
    """A non-overlapping, gap-free component segmentation of [0, horizon).

    Each tagged engine-op interval is refined with the stack's own
    record — recovery events, kernel-execution events, crypto-flagged
    spans, ``cudaLaunchKernel`` spans (in that priority) — and the
    remainder falls to the op kind's base component.  Time covered by
    no op (engine idle, allocation prologue, drain epilogue) becomes
    ``other``.  Integer endpoints throughout, so clipping a request's
    lifetime against the result is exact.

    Near-linear: each refinement list is merged and keyed once, and an
    op finds the intervals it touches with two bisections per list.
    """
    refinements = []
    for component, intervals in (
        ("recovery", ((e.start_ns, e.end_ns) for e in trace.recoveries())),
        ("K", ((e.start_ns, e.end_ns) for e in trace.kernels())),
        ("E", ((s.start_ns, s.end_ns) for s in trace.spans
               if s.attrs.get("crypto"))),
        ("L", ((s.start_ns, s.end_ns) for s in trace.spans
               if s.name == "cudaLaunchKernel")),
    ):
        merged = merge(intervals)
        refinements.append((
            component,
            merged,
            [start for start, _ in merged],
            [end for _, end in merged],
        ))

    timeline: List[Tuple[int, int, str]] = []
    cursor = 0
    for op in sorted(ops, key=lambda o: (o.start_ns, o.end_ns)):
        start, end = op.start_ns, op.end_ns
        if end <= start:
            continue
        if start < cursor:
            raise TelemetryError(f"overlapping engine ops at {start} ns")
        if start > cursor:
            timeline.append((cursor, start, "other"))
        remainder: List[Interval] = [(start, end)]
        segments: List[Tuple[int, int, str]] = []
        for component, merged, starts, ends in refinements:
            # The merged intervals ending after the op starts and
            # starting before it ends.
            touched = merged[
                bisect_right(ends, start):bisect_left(starts, end)
            ]
            if not touched:
                continue
            hit = intersect(remainder, touched)
            if hit:
                segments.extend((s, e, component) for s, e in hit)
                remainder = subtract(remainder, hit)
        base = OP_BASE_COMPONENT[op.kind]
        segments.extend((s, e, base) for s, e in remainder)
        segments.sort()
        timeline.extend(segments)
        cursor = end
    if cursor < horizon_ns:
        timeline.append((cursor, horizon_ns, "other"))
    return timeline


#: Per component of a timeline: its segments' starts and ends, and its
#: total length before each segment (int64 arrays, one entry more).
_CumulativeIndex = Dict[str, Tuple[array, array, array]]


def _cumulative_index(
    timeline: Sequence[Tuple[int, int, str]],
) -> _CumulativeIndex:
    index: _CumulativeIndex = {}
    for start, end, component in timeline:
        entry = index.get(component)
        if entry is None:
            entry = index[component] = (
                array("q"), array("q"), array("q", (0,))
            )
        starts, ends, before = entry
        starts.append(start)
        ends.append(end)
        before.append(before[-1] + end - start)
    return index


def _covered_before(entry: Tuple[array, array, array], at: int) -> int:
    """One component's length inside [0, at)."""
    starts, ends, before = entry
    k = bisect_right(starts, at) - 1
    if k < 0:
        return 0
    return before[k] + min(at, ends[k]) - starts[k]


def _window_components(
    index: _CumulativeIndex, lo: int, hi: int
) -> Dict[str, int]:
    """Sum the timeline per component over the window [lo, hi)."""
    totals: Dict[str, int] = {}
    if hi <= lo:
        return totals
    for component, entry in index.items():
        value = _covered_before(entry, hi) - _covered_before(entry, lo)
        if value:
            totals[component] = value
    return totals


@dataclass(frozen=True)
class RequestAttribution:
    """One request's telemetry record: lifecycle + exact blame."""

    req_id: int
    tenant: str
    status: str
    cause: str
    arrival_ns: int
    admitted_ns: Optional[int]
    first_token_ns: Optional[int]
    finish_ns: int
    prompt_tokens: int
    gen_tokens: int
    preemptions: int
    #: Sec.-V breakdown of [arrival, finish); sums exactly to e2e_ns.
    components: Dict[str, int] = field(default_factory=dict)
    #: Same, clipped to [arrival, first token); sums exactly to
    #: ttft_ns.  Empty for requests that never produced a token.
    ttft_components: Dict[str, int] = field(default_factory=dict)

    @property
    def e2e_ns(self) -> int:
        return self.finish_ns - self.arrival_ns

    @property
    def ttft_ns(self) -> Optional[int]:
        if self.first_token_ns is None:
            return None
        return self.first_token_ns - self.arrival_ns

    @property
    def tpot_ns(self) -> int:
        """Mean inter-token gap after the first token (integer ns,
        matching the SLO report's ``int(outcome.tpot_ns)``)."""
        if self.first_token_ns is None or self.gen_tokens <= 1:
            return 0
        return int(
            (self.finish_ns - self.first_token_ns) / (self.gen_tokens - 1)
        )

    def to_record(self) -> Dict[str, object]:
        """Flat JSON/CSV-ready record (integer ns, no floats)."""
        record: Dict[str, object] = {
            "req_id": self.req_id,
            "tenant": self.tenant,
            "status": self.status,
            "cause": self.cause,
            "arrival_ns": self.arrival_ns,
            "admitted_ns": self.admitted_ns,
            "first_token_ns": self.first_token_ns,
            "finish_ns": self.finish_ns,
            "prompt_tokens": self.prompt_tokens,
            "gen_tokens": self.gen_tokens,
            "preemptions": self.preemptions,
            "e2e_ns": self.e2e_ns,
            "ttft_ns": self.ttft_ns,
            "tpot_ns": self.tpot_ns,
        }
        for component in ATTRIBUTION_COMPONENTS:
            record[f"c_{component}"] = self.components.get(component, 0)
        for component in ATTRIBUTION_COMPONENTS:
            record[f"f_{component}"] = self.ttft_components.get(component, 0)
        return record


def attribute_requests(
    outcomes: Sequence[RequestOutcome],
    telemetry: ServeTelemetry,
    trace: Trace,
) -> List[RequestAttribution]:
    """Per-request Sec.-V attribution for one serving run.

    Conservation is enforced, not hoped for: the function raises
    :class:`TelemetryError` if any request's breakdown does not sum
    exactly to its end-to-end latency (or its TTFT window to TTFT).
    """
    horizon = 0
    for op in telemetry.ops:
        horizon = max(horizon, op.end_ns)
    for outcome in outcomes:
        horizon = max(horizon, outcome.finish_ns)
    index = _cumulative_index(
        component_timeline(telemetry.ops, trace, horizon)
    )

    attributions: List[RequestAttribution] = []
    for outcome in sorted(outcomes, key=lambda o: o.req_id):
        admitted = telemetry.admitted_ns.get(outcome.req_id)
        components: Dict[str, int] = {}
        queue_end = admitted if admitted is not None else outcome.finish_ns
        queue_end = min(max(queue_end, outcome.arrival_ns), outcome.finish_ns)
        if queue_end > outcome.arrival_ns:
            components["queue"] = queue_end - outcome.arrival_ns
        if admitted is not None:
            for component, value in _window_components(
                index, queue_end, outcome.finish_ns
            ).items():
                components[component] = components.get(component, 0) + value

        ttft_components: Dict[str, int] = {}
        if outcome.first_token_ns is not None:
            first = outcome.first_token_ns
            ttft_queue_end = min(queue_end, first)
            if ttft_queue_end > outcome.arrival_ns:
                ttft_components["queue"] = ttft_queue_end - outcome.arrival_ns
            if admitted is not None:
                for component, value in _window_components(
                    index, min(queue_end, first), first
                ).items():
                    ttft_components[component] = (
                        ttft_components.get(component, 0) + value
                    )

        attribution = RequestAttribution(
            req_id=outcome.req_id,
            tenant=outcome.tenant,
            status=outcome.status,
            cause=outcome.cause,
            arrival_ns=outcome.arrival_ns,
            admitted_ns=admitted,
            first_token_ns=outcome.first_token_ns,
            finish_ns=outcome.finish_ns,
            prompt_tokens=outcome.prompt_tokens,
            gen_tokens=outcome.gen_tokens,
            preemptions=outcome.preemptions,
            components=components,
            ttft_components=ttft_components,
        )
        total = sum(components.values())
        if total != attribution.e2e_ns:
            raise TelemetryError(
                f"request {outcome.req_id}: components sum {total} ns != "
                f"e2e {attribution.e2e_ns} ns"
            )
        ttft = attribution.ttft_ns
        if ttft is not None and sum(ttft_components.values()) != ttft:
            raise TelemetryError(
                f"request {outcome.req_id}: TTFT components sum "
                f"{sum(ttft_components.values())} ns != ttft {ttft} ns"
            )
        attributions.append(attribution)
    return attributions


def record_telemetry_spans(
    attributions: Sequence[RequestAttribution],
    ops: Sequence[EngineOp],
    trace: Trace,
) -> None:
    """Append the per-request tracks and tagged ops to the trace.

    Called after the run completes, so the stack's own span ids are
    identical to a telemetry-off run; the telemetry spans simply take
    the ids after them (deterministic across processes).  Requests
    export on one Perfetto track each (layer ``serve.req``), engine
    ops on a shared ``serve.op`` track.
    """
    for attribution in attributions:
        attrs: Dict[str, object] = {
            "req": attribution.req_id,
            "tenant": attribution.tenant,
            "status": attribution.status,
            "cause": attribution.cause,
            "admitted_ns": attribution.admitted_ns,
            "first_token_ns": attribution.first_token_ns,
            "prompt_tokens": attribution.prompt_tokens,
            "gen_tokens": attribution.gen_tokens,
            "preemptions": attribution.preemptions,
        }
        for component in ATTRIBUTION_COMPONENTS:
            attrs[f"c_{component}"] = attribution.components.get(component, 0)
        for component in ATTRIBUTION_COMPONENTS:
            attrs[f"f_{component}"] = attribution.ttft_components.get(
                component, 0
            )
        root = trace.spans.record(
            "request",
            SERVE_REQUEST_LAYER,
            attribution.arrival_ns,
            attribution.e2e_ns,
            **attrs,
        )
        queue_ns = attribution.components.get("queue", 0)
        if queue_ns:
            trace.spans.record(
                "queued",
                SERVE_REQUEST_LAYER,
                attribution.arrival_ns,
                queue_ns,
                parent=root,
                req=attribution.req_id,
            )
        if attribution.admitted_ns is not None:
            trace.spans.record(
                "exec",
                SERVE_REQUEST_LAYER,
                attribution.admitted_ns,
                attribution.finish_ns - attribution.admitted_ns,
                parent=root,
                req=attribution.req_id,
            )
        if attribution.first_token_ns is not None:
            trace.spans.record(
                "first_token",
                SERVE_REQUEST_LAYER,
                attribution.first_token_ns,
                0,
                parent=root,
                req=attribution.req_id,
            )
    for op in sorted(ops, key=lambda o: (o.start_ns, o.end_ns)):
        trace.spans.record(
            op.kind,
            SERVE_OP_LAYER,
            op.start_ns,
            op.duration_ns,
            reqs=",".join(str(r) for r in op.req_ids),
        )


# ---------------------------------------------------------------------------
# Analysis surface: rollups, tail forensics, diff, exports.
# ---------------------------------------------------------------------------


def _completed(
    attributions: Sequence[RequestAttribution],
) -> List[RequestAttribution]:
    return [a for a in attributions if a.status == "completed"]


def latency_percentiles(
    attributions: Sequence[RequestAttribution],
) -> Dict[str, Dict[str, float]]:
    """Global TTFT/TPOT/E2E blocks recomputed from per-request records.

    Percentiles reduce through the same nearest-rank helper and the
    same ms conversion as the verdict's SLO report, so equality with
    the verdict is exact (asserted in tests and the figure).
    """
    done = _completed(attributions)
    return {
        "ttft_ms": _latency_block(
            [units.to_ms(a.ttft_ns) for a in done]
        ),
        "tpot_ms": _latency_block([units.to_ms(a.tpot_ns) for a in done]),
        "e2e_ms": _latency_block([units.to_ms(a.e2e_ns) for a in done]),
    }


def _component_sums(
    attributions: Sequence[RequestAttribution],
) -> Dict[str, int]:
    sums = {component: 0 for component in ATTRIBUTION_COMPONENTS}
    for attribution in attributions:
        for component, value in attribution.components.items():
            sums[component] += value
    return sums


def tenant_rollup(
    attributions: Sequence[RequestAttribution],
) -> Dict[str, Dict]:
    """Per-tenant accounting: outcomes, tails and blame sums."""
    rollup: Dict[str, Dict] = {}
    for tenant in sorted({a.tenant for a in attributions}):
        mine = [a for a in attributions if a.tenant == tenant]
        done = _completed(mine)
        causes: Dict[str, int] = {}
        for attribution in mine:
            if attribution.status in ("shed", "failed"):
                cause = attribution.cause or "unspecified"
                causes[cause] = causes.get(cause, 0) + 1
        rollup[tenant] = {
            "requests": len(mine),
            "completed": len(done),
            "shed": sum(1 for a in mine if a.status == "shed"),
            "failed": sum(1 for a in mine if a.status == "failed"),
            "causes": dict(sorted(causes.items())),
            "preemptions": sum(a.preemptions for a in mine),
            "ttft_ms": _latency_block(
                [units.to_ms(a.ttft_ns) for a in done]
            ),
            "e2e_ms": _latency_block([units.to_ms(a.e2e_ns) for a in done]),
            "components_ns": _component_sums(mine),
        }
    return rollup


def pick_percentile_request(
    attributions: Sequence[RequestAttribution], pct: float = 99.0
) -> Optional[RequestAttribution]:
    """The completed request at the nearest-rank TTFT percentile.

    Ordering matches :func:`repro.obs.metrics.percentile` exactly, so
    the picked request's TTFT *is* the verdict's reported percentile
    (ties broken by request id for determinism).
    """
    done = [a for a in _completed(attributions) if a.ttft_ns is not None]
    if not done:
        return None
    ordered = sorted(done, key=lambda a: (a.ttft_ns, a.req_id))
    index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return ordered[index]


def tail_report(
    attributions: Sequence[RequestAttribution], top: int = 5
) -> Dict:
    """Tail forensics: slowest requests with blame + p99 attribution."""
    slowest = sorted(
        attributions, key=lambda a: (-a.e2e_ns, a.req_id)
    )[: max(top, 0)]
    p99 = pick_percentile_request(attributions, 99)
    report: Dict = {
        "requests": len(attributions),
        "completed": len(_completed(attributions)),
        "shed": sum(1 for a in attributions if a.status == "shed"),
        "failed": sum(1 for a in attributions if a.status == "failed"),
        "percentiles": latency_percentiles(attributions),
        "components_ns": _component_sums(attributions),
        "slowest": [a.to_record() for a in slowest],
    }
    if p99 is not None:
        report["ttft_p99"] = {
            "req_id": p99.req_id,
            "tenant": p99.tenant,
            "ttft_ms": units.to_ms(p99.ttft_ns),
            "components_ns": {
                component: p99.ttft_components.get(component, 0)
                for component in ATTRIBUTION_COMPONENTS
            },
        }
    return report


def render_tail_report(report: Dict, by_tenant: Optional[Dict] = None) -> str:
    """Human-readable forensics report (deterministic)."""
    lines: List[str] = []
    pct = report["percentiles"]
    lines.append(
        f"requests {report['requests']}  completed {report['completed']}  "
        f"shed {report['shed']}  failed {report['failed']}"
    )
    lines.append(
        f"ttft p50/p99 {pct['ttft_ms']['p50']:.2f}/"
        f"{pct['ttft_ms']['p99']:.2f} ms  "
        f"tpot p99 {pct['tpot_ms']['p99']:.2f} ms  "
        f"e2e p99 {pct['e2e_ms']['p99']:.2f} ms"
    )
    if "ttft_p99" in report:
        p99 = report["ttft_p99"]
        blame = ", ".join(
            f"{component}={units.to_ms(value):.2f}ms"
            for component, value in p99["components_ns"].items()
            if value
        )
        lines.append(
            f"ttft p99 = req {p99['req_id']} ({p99['tenant']}) "
            f"{p99['ttft_ms']:.2f} ms: {blame}"
        )
    lines.append("")
    lines.append(
        f"top {len(report['slowest'])} slowest requests "
        "(e2e, status, blame):"
    )
    for record in report["slowest"]:
        blame = ", ".join(
            f"{component}={units.to_ms(record[f'c_{component}']):.2f}ms"
            for component in ATTRIBUTION_COMPONENTS
            if record[f"c_{component}"]
        )
        status = record["status"]
        if record["cause"]:
            status += f":{record['cause']}"
        lines.append(
            f"  req {record['req_id']:>4} {record['tenant']:<10}"
            f"{units.to_ms(record['e2e_ns']):10.2f} ms  {status:<16} {blame}"
        )
    if by_tenant:
        lines.append("")
        lines.append("per-tenant rollup:")
        for tenant, row in by_tenant.items():
            lines.append(
                f"  {tenant:<10} n={row['requests']:<4} "
                f"done={row['completed']:<4} shed={row['shed']:<3} "
                f"failed={row['failed']:<3} "
                f"ttft p99 {row['ttft_ms']['p99']:8.2f} ms  "
                f"e2e p99 {row['e2e_ms']['p99']:8.2f} ms"
            )
            blame = ", ".join(
                f"{component}={units.to_ms(value):.2f}ms"
                for component, value in row["components_ns"].items()
                if value
            )
            lines.append(f"             blame: {blame}")
    return "\n".join(lines)


def forensics_diff(
    base: Sequence[RequestAttribution],
    cc: Sequence[RequestAttribution],
) -> Dict:
    """Attribute the base->CC TTFT p99 delta to Sec.-V components.

    Compares the TTFT-window breakdowns of the two sides' p99
    requests; per-component deltas sum exactly to the p99 TTFT delta
    (both sides' breakdowns are conservative), and ``dominant`` names
    the component that moved the most.
    """
    base_p99 = pick_percentile_request(base, 99)
    cc_p99 = pick_percentile_request(cc, 99)
    if base_p99 is None or cc_p99 is None:
        raise TelemetryError("both runs need completed requests to diff")
    deltas = {
        component: (
            cc_p99.ttft_components.get(component, 0)
            - base_p99.ttft_components.get(component, 0)
        )
        for component in ATTRIBUTION_COMPONENTS
    }
    dominant = max(
        ATTRIBUTION_COMPONENTS, key=lambda c: (deltas[c], -ord(c[0]))
    )
    return {
        "base_ttft_p99_ms": units.to_ms(base_p99.ttft_ns),
        "cc_ttft_p99_ms": units.to_ms(cc_p99.ttft_ns),
        "delta_ns": cc_p99.ttft_ns - base_p99.ttft_ns,
        "components_delta_ns": deltas,
        "dominant": dominant,
        "base_req_id": base_p99.req_id,
        "cc_req_id": cc_p99.req_id,
    }


def render_forensics_diff(diff: Dict) -> str:
    lines = [
        f"ttft p99: base {diff['base_ttft_p99_ms']:.2f} ms "
        f"(req {diff['base_req_id']}) -> cc {diff['cc_ttft_p99_ms']:.2f} ms "
        f"(req {diff['cc_req_id']}), "
        f"delta {units.to_ms(diff['delta_ns']):+.2f} ms",
        "per-component delta (exactly sums to the p99 delta):",
    ]
    for component in ATTRIBUTION_COMPONENTS:
        value = diff["components_delta_ns"][component]
        if value:
            lines.append(
                f"  {component:<9}{units.to_ms(value):+10.3f} ms"
            )
    lines.append(f"dominant component: {diff['dominant']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Byte-deterministic per-request exports.
# ---------------------------------------------------------------------------

#: Fixed CSV column order (the JSONL keys, sorted for stability).
EXPORT_COLUMNS: Tuple[str, ...] = (
    "req_id", "tenant", "status", "cause",
    "arrival_ns", "admitted_ns", "first_token_ns", "finish_ns",
    "prompt_tokens", "gen_tokens", "preemptions",
    "e2e_ns", "ttft_ns", "tpot_ns",
) + tuple(f"c_{c}" for c in ATTRIBUTION_COMPONENTS) + tuple(
    f"f_{c}" for c in ATTRIBUTION_COMPONENTS
)


def requests_jsonl(attributions: Sequence[RequestAttribution]) -> str:
    """One sorted-key JSON object per request per line (byte-stable)."""
    import json

    return "\n".join(
        json.dumps(a.to_record(), sort_keys=True) for a in attributions
    ) + ("\n" if attributions else "")


def requests_csv(attributions: Sequence[RequestAttribution]) -> str:
    """Fixed-column CSV of the same records (byte-stable)."""
    lines = [",".join(EXPORT_COLUMNS)]
    for attribution in attributions:
        record = attribution.to_record()
        lines.append(
            ",".join(
                "" if record[column] is None else str(record[column])
                for column in EXPORT_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"
