"""One-call serving scenarios: spec -> arrivals -> engine -> report.

The CLI (``repro serve``), the ``ext_serving`` grid figure and the
determinism tests all run through :func:`run_scenario`, so a scenario
is defined exactly once and every consumer sees byte-identical
results for the same (spec, config) pair.

Also home to :func:`predicted_step_cc_overhead_ns`, the Sec.-V model's
prediction for the *fixed* CC tax one decode iteration pays (token
round-trip staging/crypto + launch-path extras) — the bar the measured
TTFT p99 inflation is gated against in ``paper_targets.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..cuda.transfers import plan_copy
from ..sim import Simulator
from ..tdx import GuestContext
from .arrivals import (
    ServeRequest,
    TenantSpec,
    default_tenants,
    generate_arrivals,
    stream_digest,
)
from .lifecycle import DegradationPolicy
from .parallelism import ParallelismSpec
from .scheduler import (
    DEFAULT_KV_BUDGET_BYTES,
    EngineResult,
    SchedulerConfig,
    ServingEngine,
)
from .slo import SLOTargets, build_report
from .tuning import EngineTuning
from .telemetry import (
    RequestAttribution,
    ServeTelemetry,
    attribute_requests,
    record_telemetry_spans,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete multi-tenant serving scenario."""

    rate_rps: float = 8.0
    duration_ns: int = 2 * units.NS_PER_SEC
    tenants: int = 2
    policy: str = "fcfs"
    seed: int = 42
    process: str = "poisson"
    max_num_seqs: int = 16
    max_batch_tokens: int = 2048
    preemption: str = "swap"
    kv_budget_bytes: int = DEFAULT_KV_BUDGET_BYTES
    block_tokens: int = 16
    ttft_slo_ms: float = 400.0
    tpot_slo_ms: float = 60.0
    # Degradation policy (repro.serve.lifecycle): scalar knobs so the
    # spec stays a flat, JSON-friendly record.  Defaults are inert.
    deadline_ms: float = 0.0
    ttft_timeout_ms: float = 0.0
    shed_policy: str = "none"
    circuit_breaker: bool = False
    max_queue_depth: int = 0
    max_engine_restarts: int = 2

    def tenant_specs(self) -> List[TenantSpec]:
        return default_tenants(self.rate_rps, self.tenants, self.process)

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            policy=self.policy,
            max_num_seqs=self.max_num_seqs,
            max_batch_tokens=self.max_batch_tokens,
            preemption=self.preemption,
        )

    def slo_targets(self) -> SLOTargets:
        return SLOTargets(ttft_ms=self.ttft_slo_ms, tpot_ms=self.tpot_slo_ms)

    def degrade(self) -> DegradationPolicy:
        return DegradationPolicy(
            deadline_ms=self.deadline_ms,
            ttft_timeout_ms=self.ttft_timeout_ms,
            shed_policy=self.shed_policy,
            circuit_breaker=self.circuit_breaker,
            max_queue_depth=self.max_queue_depth,
            max_engine_restarts=self.max_engine_restarts,
        )

    def label(self, config: SystemConfig) -> str:
        mode = "cc" if config.cc_on else "base"
        suffix = "-faults" if config.faults.active else ""
        return (
            f"serve-{mode}-{self.policy}-r{self.rate_rps:g}"
            f"-t{self.tenants}-s{self.seed}{suffix}"
        )


def fault_plan_summary(config: SystemConfig) -> Dict:
    """JSON-ready description of the active fault plan (deterministic:
    sites are stored sorted)."""
    sites: Dict[str, Dict] = {}
    for name, site in config.faults.sites:
        entry: Dict = {}
        if site.rate:
            entry["rate"] = site.rate
        if site.schedule:
            entry["schedule"] = list(site.schedule)
        if site.max_faults is not None:
            entry["max_faults"] = site.max_faults
        sites[name] = entry
    return {"active": config.faults.active, "sites": sites}


@dataclass
class ScenarioResult:
    """Everything a scenario run produced (trace kept separately)."""

    spec: ScenarioSpec
    cc: bool
    requests: int
    arrival_digest: str
    engine: EngineResult
    report: Dict
    faults: Optional[Dict] = None
    #: Per-request CC-tax attributions (telemetry runs only).  Kept
    #: out of :func:`scenario_verdict` on purpose: the verdict JSON is
    #: byte-identical whether or not telemetry was enabled.
    attributions: Optional[List[RequestAttribution]] = None

    @property
    def goodput_rps(self) -> float:
        return self.report["goodput_rps"]

    def ttft_p99_ms(self) -> float:
        return self.report["ttft_ms"]["p99"]


def _run_replica(
    spec: ScenarioSpec,
    config: SystemConfig,
    requests: List[ServeRequest],
    label: str,
    telemetry: bool,
    tuning: Optional[EngineTuning] = None,
    parallelism: Optional[ParallelismSpec] = None,
):
    """Serve ``requests`` on one engine built from ``spec``; returns
    ``(trace, EngineResult, attributions)``.  The attributions are
    ``None`` unless ``telemetry`` is on, in which case the per-request
    spans are also appended to the trace."""
    engine = ServingEngine(
        scheduler_config=spec.scheduler_config(),
        kv_budget_bytes=spec.kv_budget_bytes,
        block_tokens=spec.block_tokens,
        targets=spec.slo_targets(),
        degrade=spec.degrade(),
        parallelism=parallelism,
        tuning=tuning,
    )
    tel = ServeTelemetry() if telemetry else None
    trace, result = engine.run(config, requests, label=label, telemetry=tel)
    attributions = None
    if tel is not None:
        attributions = attribute_requests(result.outcomes, tel, trace)
        record_telemetry_spans(attributions, tel.ops, trace)
    return trace, result, attributions


def run_scenario(
    spec: ScenarioSpec,
    config: Optional[SystemConfig] = None,
    telemetry: bool = False,
    tuning: Optional[EngineTuning] = None,
):
    """Run one scenario; returns ``(trace, ScenarioResult)``.

    With ``telemetry=True`` the run also produces per-request CC-tax
    attributions (``result.attributions``) and appends the per-request
    tracks + tagged engine ops to the returned trace.  Telemetry is a
    run *parameter*, not part of :class:`ScenarioSpec`: the spec (and
    therefore the verdict JSON, which embeds it) is identical either
    way — the zero-perturbation invariant.

    ``tuning`` follows the same pattern for the CC-mitigation layer:
    it is a run parameter and the spec stays untouched.  Every tuning
    runs the engine's one token-flush path; the default (``None`` —
    flush after every decode step, no fusion) reproduces the committed
    verdict bytes.  Non-default tunings change engine costs (that is
    their point) and surface themselves under the verdict's ``engine``
    stats.
    """
    config = config or SystemConfig.base()
    requests = generate_arrivals(
        spec.tenant_specs(), spec.duration_ns, spec.seed
    )
    trace, result, attributions = _run_replica(
        spec, config, requests, spec.label(config), telemetry, tuning=tuning
    )
    # Rates are computed over the full busy window (arrival window +
    # drain), so an overloaded run reports its saturation throughput
    # rather than dividing by the nominal duration.
    window_ns = max(spec.duration_ns, result.elapsed_ns)
    report = build_report(
        result.outcomes, result.rejected, window_ns, spec.slo_targets()
    )
    return trace, ScenarioResult(
        spec=spec,
        cc=config.cc_on,
        requests=len(requests),
        arrival_digest=stream_digest(requests),
        engine=result,
        report=report,
        faults=fault_plan_summary(config),
        attributions=attributions,
    )


def scenario_verdict(result: ScenarioResult) -> Dict:
    """Deterministic, JSON-ready verdict for one scenario run."""
    return {
        "command": "serve",
        "spec": asdict(result.spec),
        "cc": result.cc,
        "requests": result.requests,
        "arrival_digest": result.arrival_digest,
        "elapsed_ms": units.to_ms(result.engine.elapsed_ns),
        "engine": dict(sorted(result.engine.stats.items())),
        "faults": result.faults or {"active": False, "sites": {}},
        "slo": result.report,
    }


def verdict_json(result: ScenarioResult) -> str:
    """Byte-stable JSON encoding of the verdict (determinism gate)."""
    return json.dumps(scenario_verdict(result), indent=1, sort_keys=True)


def predicted_step_cc_overhead_ns(
    base_config: SystemConfig,
    cc_config: SystemConfig,
    decode_batch: int = 8,
) -> int:
    """Sec.-V model: fixed CC tax per decode iteration.

    Each iteration crosses the serialized bridge twice — a kernel
    launch (encrypted pushbuffer + occasional doorbell hypercall +
    command-processor auth) and a small D2H token-ids copy (bounce
    staging + AES-GCM + synchronization hypercalls).  This returns the
    config-predicted delta between CC and base for those fixed pieces;
    queueing and roofline terms are identical across modes and cancel.
    """
    token_bytes = max(64, 4 * decode_batch)

    def copy_ns(config: SystemConfig) -> int:
        guest = GuestContext(Simulator(), config)
        plan = plan_copy(
            config, guest, CopyKind.D2H, token_bytes,
            MemoryKind.PINNED, cold=False,
        )
        return plan.total_ns

    copy_delta = copy_ns(cc_config) - copy_ns(base_config)
    launch = cc_config.launch
    launch_delta = (
        launch.klo_cc_extra_ns
        + int(launch.hypercalls_per_launch * cc_config.tdx.td_hypercall_ns)
        + cc_config.command.cc_auth_extra_ns
    )
    return int(copy_delta + launch_delta)


def parse_duration_ns(text: str) -> int:
    """Parse ``2s`` / ``500ms`` / ``1.5s`` into integer nanoseconds."""
    raw = text.strip().lower()
    try:
        if raw.endswith("ms"):
            return int(float(raw[:-2]) * units.NS_PER_SEC / 1000)
        if raw.endswith("s"):
            return int(float(raw[:-1]) * units.NS_PER_SEC)
        return int(float(raw) * units.NS_PER_SEC)
    except ValueError as exc:
        raise ValueError(
            f"cannot parse duration {text!r} (use e.g. '2s' or '500ms')"
        ) from exc
