"""SLO accounting for the serving simulator.

Per-request latency decomposition in the standard serving vocabulary:

* **TTFT** — time to first token (arrival -> first decode completes;
  includes queueing, so it is the metric that blows up past the knee),
* **TPOT** — time per output token after the first (steady decode
  cadence; inflated by CC per-step staging/launch overheads),
* **E2E** — arrival -> last token.

**Goodput** counts only requests that met *both* the TTFT and TPOT
targets — the metric under which CC saturates at a strictly lower
arrival rate than native ("The Serialized Bridge").

All samples are recorded into :class:`~repro.obs.MetricsRegistry`
histograms (global and per-tenant), so reports reduce through the same
nearest-rank percentile helper used everywhere else, and the Chrome
trace carries queue-depth / KV-occupancy counter tracks next to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import units
from ..obs.metrics import MetricsRegistry, percentile
from .arrivals import ServeRequest


@dataclass(frozen=True)
class SLOTargets:
    """Latency targets a request must meet to count toward goodput."""

    ttft_ms: float = 400.0
    tpot_ms: float = 60.0

    def __post_init__(self) -> None:
        if not (self.ttft_ms > 0 and self.tpot_ms > 0):
            raise ValueError(
                f"SLO targets must be > 0, got ttft_ms={self.ttft_ms}, "
                f"tpot_ms={self.tpot_ms}"
            )


@dataclass(frozen=True)
class RequestOutcome:
    """Terminal-request record emitted by the serving engine.

    ``status`` is one of the lifecycle terminal states: ``completed``
    (all tokens generated — the only status that can count toward
    goodput), ``shed`` (terminated by a degradation policy: TTFT
    timeout, deadline, admission pushback) or ``failed`` (the engine
    gave up; ``cause`` names the fault site or policy responsible).
    ``first_token_ns`` is ``None`` for requests that never produced a
    token (a request whose first token genuinely lands at sim-time 0
    is therefore distinguishable from one that never started);
    ``finish_ns`` is the termination time.
    """

    req_id: int
    tenant: str
    arrival_ns: int
    #: Absolute sim time of the first emitted token; ``None`` if the
    #: request never produced one (only possible for shed/failed).
    first_token_ns: Optional[int]
    finish_ns: int  # absolute sim time of last token
    prompt_tokens: int
    gen_tokens: int
    preemptions: int = 0
    status: str = "completed"
    cause: str = ""

    @property
    def ttft_ns(self) -> Optional[int]:
        """Time to first token; ``None`` if no token was emitted."""
        if self.first_token_ns is None:
            return None
        return self.first_token_ns - self.arrival_ns

    @property
    def e2e_ns(self) -> int:
        return self.finish_ns - self.arrival_ns

    @property
    def tpot_ns(self) -> float:
        """Mean inter-token gap after the first token."""
        if self.first_token_ns is None or self.gen_tokens <= 1:
            return 0.0
        return (self.finish_ns - self.first_token_ns) / (self.gen_tokens - 1)

    def meets(self, targets: SLOTargets) -> bool:
        ttft = self.ttft_ns
        if ttft is None:
            return False  # never produced a token -> cannot attain SLO
        return (
            units.to_ms(ttft) <= targets.ttft_ms
            and units.to_ms(int(self.tpot_ns)) <= targets.tpot_ms
        )


class SLOTracker:
    """Streams request outcomes into registry histograms."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        targets: Optional[SLOTargets] = None,
    ) -> None:
        self.metrics = metrics
        self.targets = targets or SLOTargets()
        self.outcomes: List[RequestOutcome] = []

    def observe(self, outcome: RequestOutcome) -> None:
        self.outcomes.append(outcome)
        if outcome.status != "completed":
            # SHED metric taxonomy: shed/failed requests never enter
            # the latency histograms (their latencies are policy
            # artifacts, not service quality) — they get their own
            # counters, globally and per tenant/cause.
            self.metrics.counter(f"serve.{outcome.status}").inc()
            self.metrics.counter(
                f"serve.{outcome.tenant}.{outcome.status}"
            ).inc()
            if outcome.cause:
                self.metrics.counter(
                    f"serve.{outcome.status}.{outcome.cause}"
                ).inc()
            return
        for scope in ("serve", f"serve.{outcome.tenant}"):
            self.metrics.histogram(f"{scope}.ttft_ms").observe(
                units.to_ms(outcome.ttft_ns)
            )
            self.metrics.histogram(f"{scope}.tpot_ms").observe(
                units.to_ms(int(outcome.tpot_ns))
            )
            self.metrics.histogram(f"{scope}.e2e_ms").observe(
                units.to_ms(outcome.e2e_ns)
            )
        self.metrics.counter("serve.completed").inc()
        if outcome.meets(self.targets):
            self.metrics.counter("serve.slo_attained").inc()


def _latency_block(samples: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": (sum(samples) / len(samples)) if samples else 0.0,
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


def build_report(
    outcomes: Sequence[RequestOutcome],
    rejected: Sequence[ServeRequest],
    duration_ns: int,
    targets: SLOTargets,
) -> Dict:
    """Deterministic SLO report (plain dict, JSON-stable ordering is
    the caller's job via ``sort_keys``)."""
    duration_s = units.to_sec(duration_ns)
    completed = [o for o in outcomes if o.status == "completed"]
    shed = [o for o in outcomes if o.status == "shed"]
    failed = [o for o in outcomes if o.status == "failed"]
    attained = [o for o in completed if o.meets(targets)]
    tokens_out = sum(o.gen_tokens for o in completed)
    offered = len(outcomes) + len(rejected)

    def tenant_names() -> List[str]:
        names = {o.tenant for o in outcomes} | {r.tenant for r in rejected}
        return sorted(names)

    def cause_counts(subset: Sequence[RequestOutcome]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in subset:
            cause = o.cause or "unspecified"
            counts[cause] = counts.get(cause, 0) + 1
        return dict(sorted(counts.items()))

    def block(subset: Sequence[RequestOutcome]) -> Dict:
        done = [o for o in subset if o.status == "completed"]
        met = [o for o in done if o.meets(targets)]
        return {
            "completed": len(done),
            "slo_attained": len(met),
            "ttft_ms": _latency_block([units.to_ms(o.ttft_ns) for o in done]),
            "tpot_ms": _latency_block(
                [units.to_ms(int(o.tpot_ns)) for o in done]
            ),
            "e2e_ms": _latency_block([units.to_ms(o.e2e_ns) for o in done]),
            # Per-tenant fault attribution: who paid for the faults.
            "shed": sum(1 for o in subset if o.status == "shed"),
            "failed": sum(1 for o in subset if o.status == "failed"),
        }

    report = {
        "targets": {"ttft_ms": targets.ttft_ms, "tpot_ms": targets.tpot_ms},
        "duration_s": duration_s,
        "offered": offered,
        "rejected": len(rejected),
        "throughput_tok_s": tokens_out / duration_s if duration_s else 0.0,
        "completed_rps": len(completed) / duration_s if duration_s else 0.0,
        "goodput_rps": len(attained) / duration_s if duration_s else 0.0,
        "total_preemptions": sum(o.preemptions for o in outcomes),
        # Degradation accounting: goodput vs shed rate is the figure of
        # merit under faults — a policy trades explicit sheds for
        # keeping the survivors inside their SLOs.
        "shed_rate": len(shed) / offered if offered else 0.0,
        "failed_rate": len(failed) / offered if offered else 0.0,
        "shed_causes": cause_counts(shed),
        "failed_causes": cause_counts(failed),
        **block(outcomes),
        "tenants": {
            name: block([o for o in outcomes if o.tenant == name])
            for name in tenant_names()
        },
    }
    return report
