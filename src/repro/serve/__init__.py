"""Multi-tenant CC inference serving simulator.

The paper dissects single-job CC overheads; this package drives the
same simulated stack with an *open-loop stream of competing requests*
— the serving regime where "The Serialized Bridge" (Yin & Wang, 2026)
finds that per-iteration host<->device round-trips dominate end-to-end
CC cost.  Pipeline:

    arrivals -> admission control -> continuous batching -> backend
             -> KV pager (swap / recompute preemption) -> SLO report

* :mod:`repro.serve.arrivals` — seeded Poisson/Gamma per-tenant
  arrival processes with named prompt/output length traces.
* :mod:`repro.serve.scheduler` — the pure iteration-level batching
  core plus the :class:`ServingEngine` CUDA application that pays
  every simulated CC cost (bounce staging, AES-GCM, hypercalls,
  launch tax) per iteration.
* :mod:`repro.serve.kvpager` — paged KV allocation with
  swap-vs-recompute preemption; swap traffic rides the encrypted
  PCIe path.
* :mod:`repro.serve.slo` — TTFT/TPOT/E2E histograms, goodput and
  degradation accounting (shed/failed rates, per-tenant attribution).
* :mod:`repro.serve.lifecycle` — fault-aware request lifecycle:
  :class:`DegradationPolicy` (deadlines, TTFT timeouts, load shedding,
  circuit breaker, restart budget) and the :class:`LifecycleLedger`
  behind the no-lost-request invariant.
* :mod:`repro.serve.scenario` — :class:`ScenarioSpec`, the one
  definition of a serving scenario.
* :mod:`repro.serve.cluster` — the one serving run path shared by
  ``repro serve``, the serving figures and the tests:
  :func:`run_cluster` (replicas, TP/PP, router, autoscaler) and
  :func:`run_scenario`, its one-replica tp=1/pp=1 case.
* :mod:`repro.serve.telemetry` — request-scoped telemetry: per-request
  CC-tax attribution in the paper's Sec.-V vocabulary, tenant rollups,
  tail-latency forensics and byte-deterministic JSONL/CSV exports
  (``repro serve report``).
"""

from .arrivals import (
    ARRIVAL_PROCESSES,
    TRACES,
    ArrivalError,
    LengthTrace,
    ServeRequest,
    TenantSpec,
    default_tenants,
    generate_arrivals,
    stream_digest,
    tenant_rng,
)
from .cluster import (
    PLACEMENTS,
    ClusterError,
    ClusterResult,
    ClusterSpec,
    ReplicaOutcome,
    cluster_verdict,
    cluster_verdict_json,
    measure_attestation_ns,
    run_cluster,
    run_scenario,
    scenario_verdict,
    verdict_json,
)
from .kvpager import KVPager, PagerStats, PreemptPlan, RestorePlan
from .parallelism import LINK_POLICIES, TP_DEGREES, ParallelismSpec
from .lifecycle import (
    COMPLETED,
    FAILED,
    REJECTED,
    SHED,
    SHED_POLICIES,
    TERMINAL_STATES,
    DegradationPolicy,
    LifecycleError,
    LifecycleLedger,
)
from .scenario import (
    ScenarioSpec,
    fault_plan_summary,
    parse_duration_ns,
    predicted_step_cc_overhead_ns,
)
from .scheduler import (
    POLICIES,
    ContinuousBatchingScheduler,
    EngineResult,
    IterationPlan,
    SchedulerConfig,
    ServingEngine,
    SERVE_MODEL,
)
from .slo import RequestOutcome, SLOTargets, SLOTracker, build_report
from .tuning import (
    KV_BITS_CHOICES,
    MAX_D2H_STREAMS,
    MAX_FLUSH_EVERY,
    EngineTuning,
    TuningError,
)
from .telemetry import (
    ATTRIBUTION_COMPONENTS,
    EngineOp,
    NULL_TELEMETRY,
    RequestAttribution,
    ServeTelemetry,
    TelemetryError,
    attribute_requests,
    component_timeline,
    forensics_diff,
    latency_percentiles,
    pick_percentile_request,
    record_telemetry_spans,
    render_forensics_diff,
    render_tail_report,
    requests_csv,
    requests_jsonl,
    tail_report,
    tenant_rollup,
)

__all__ = [
    "ATTRIBUTION_COMPONENTS",
    "ARRIVAL_PROCESSES",
    "ArrivalError",
    "COMPLETED",
    "ClusterError",
    "ClusterResult",
    "ClusterSpec",
    "ContinuousBatchingScheduler",
    "DegradationPolicy",
    "EngineOp",
    "EngineResult",
    "EngineTuning",
    "FAILED",
    "KV_BITS_CHOICES",
    "MAX_D2H_STREAMS",
    "MAX_FLUSH_EVERY",
    "IterationPlan",
    "KVPager",
    "LengthTrace",
    "LINK_POLICIES",
    "LifecycleError",
    "LifecycleLedger",
    "NULL_TELEMETRY",
    "PLACEMENTS",
    "POLICIES",
    "PagerStats",
    "ParallelismSpec",
    "PreemptPlan",
    "REJECTED",
    "ReplicaOutcome",
    "RequestAttribution",
    "RequestOutcome",
    "RestorePlan",
    "SERVE_MODEL",
    "TP_DEGREES",
    "SHED",
    "SHED_POLICIES",
    "SLOTargets",
    "SLOTracker",
    "ScenarioSpec",
    "SchedulerConfig",
    "ServeRequest",
    "ServeTelemetry",
    "ServingEngine",
    "TERMINAL_STATES",
    "TRACES",
    "TelemetryError",
    "TenantSpec",
    "TuningError",
    "attribute_requests",
    "build_report",
    "cluster_verdict",
    "cluster_verdict_json",
    "component_timeline",
    "default_tenants",
    "fault_plan_summary",
    "forensics_diff",
    "generate_arrivals",
    "latency_percentiles",
    "measure_attestation_ns",
    "parse_duration_ns",
    "run_cluster",
    "pick_percentile_request",
    "predicted_step_cc_overhead_ns",
    "record_telemetry_spans",
    "render_forensics_diff",
    "render_tail_report",
    "requests_csv",
    "requests_jsonl",
    "run_scenario",
    "scenario_verdict",
    "stream_digest",
    "tail_report",
    "tenant_rng",
    "tenant_rollup",
    "verdict_json",
]
