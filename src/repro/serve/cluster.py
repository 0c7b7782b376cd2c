"""Serving runs: one code path from arrivals to report, for a single
engine or for replicated engines behind a tenant-aware router, with
model parallelism inside each replica.

The paper dissects one guest/GPU pair; "The Serialized Bridge" (Yin &
Wang, 2026) shows the same CC taxes compounding at cluster scale —
every replica pays attestation before it serves, every TP shard syncs
over encrypted peer links, every PP boundary crosses the serialized
host bridge, and the router itself transitions through the TD on every
placement.  :func:`run_cluster` composes those pieces from the existing
layers, and :func:`run_scenario` *is* its one-replica tp=1/pp=1 case:
both call the same run, which skips routing when there is nothing to
place.

* **Replicas** are ordinary :class:`~repro.serve.ServingEngine` runs,
  shaped by a :class:`~repro.serve.parallelism.ParallelismSpec`.
* **The router** is a deterministic admission pass over the global
  arrival stream: per-request ingress cost (base routing work plus a
  TD hypercall under CC), three placement policies (``round-robin``,
  ``least-loaded``, ``kv-affinity`` tenant stickiness with overload
  spill), and a queue-delay estimator built from the same
  :class:`~repro.llm.backends.VLLMBackend` roofline the engines pay.
* **The autoscaler** watches the estimator's per-epoch p95 queue delay
  against the SLO-derived thresholds and adds replicas up to
  ``autoscale_max`` — each new replica becomes ready only after a full
  simulated SPDM attestation, so CC clusters pay more for elasticity
  exactly when they need it most.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .. import units
from ..config import SystemConfig
from ..llm.backends import VLLM_STEP_SCHED_NS, VLLMBackend
from ..llm.config import BF16
from ..obs.metrics import percentile
from ..sim import Simulator
from ..tdx import GuestContext
from ..tdx.spdm import attest_gpu
from .arrivals import ServeRequest, stream_digest
from .parallelism import ParallelismSpec
from .scenario import ScenarioSpec, fault_plan_summary
from .scheduler import SERVE_MODEL, EngineResult, ServingEngine
from .slo import RequestOutcome, build_report
from .telemetry import (
    RequestAttribution,
    ServeTelemetry,
    attribute_requests,
    record_telemetry_spans,
)
from .tuning import EngineTuning

PLACEMENTS = ("round-robin", "least-loaded", "kv-affinity")

#: Router CPU work per placement decision (classify + table lookup).
ROUTER_BASE_NS = units.us(3.0)


class ClusterError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterSpec:
    """A serving cluster: scenario + replica topology + router policy."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    replicas: int = 1
    tp: int = 1
    pp: int = 1
    link_policy: str = "naive"
    placement: str = "round-robin"
    #: 0 disables the autoscaler; otherwise the ceiling it may reach,
    #: above ``replicas``.
    autoscale_max: int = 0
    autoscale_epoch_ms: float = 250.0
    scale_up_queue_ms: float = 200.0
    scale_down_queue_ms: float = 20.0

    def validate(self) -> None:
        problems = []
        if self.replicas < 1:
            problems.append(f"replicas must be >= 1, got {self.replicas}")
        if self.placement not in PLACEMENTS:
            problems.append(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}"
            )
        if self.autoscale_max and self.autoscale_max <= self.replicas:
            problems.append(
                f"autoscale_max ({self.autoscale_max}) must exceed "
                f"replicas ({self.replicas}) or the autoscaler can "
                f"never grow"
            )
        if self.autoscale_epoch_ms <= 0:
            problems.append("autoscale_epoch_ms must be > 0")
        if self.scale_up_queue_ms <= self.scale_down_queue_ms:
            problems.append(
                "scale_up_queue_ms must exceed scale_down_queue_ms"
            )
        if self.link_policy != "naive" and self.tp == 1:
            problems.append(
                "link_policy only shapes tp>1 peer links; use tp 2/4/8"
            )
        if self.placement != "round-robin" and not self.cluster_capable:
            problems.append(
                "placement needs replicas > 1 or autoscale_max (one "
                "fixed replica leaves nothing to place)"
            )
        if problems:
            raise ClusterError("invalid ClusterSpec: " + "; ".join(problems))
        self.parallelism().validate()
        self.scenario.degrade().validate()

    def parallelism(self) -> ParallelismSpec:
        return ParallelismSpec(
            tp=self.tp, pp=self.pp, link_policy=self.link_policy
        )

    @property
    def cluster_capable(self) -> bool:
        """True when the router/autoscaler actually have decisions to
        make; False runs the one engine on the unrouted stream."""
        return self.replicas > 1 or self.autoscale_max > 0

    @property
    def clustered(self) -> bool:
        """True when a run reports as ``serve-cluster`` (verdict and CLI
        header): a router with decisions to make, or model parallelism
        inside the replica.  False is a plain ``serve`` run."""
        return self.cluster_capable or not self.parallelism().trivial


@dataclass
class ReplicaOutcome:
    """One replica engine's share of a serving run."""

    replica_id: int
    requests: int
    engine: EngineResult
    report: Dict


@dataclass
class ClusterResult:
    """Everything one serving run produced (traces kept separately)."""

    spec: ClusterSpec
    cc: bool
    requests: int
    arrival_digest: str
    replicas: List[ReplicaOutcome]
    report: Dict
    router: Dict
    faults: Dict
    #: Per-request CC-tax attributions (telemetry runs only).  Kept
    #: out of the verdicts on purpose: the verdict JSON is
    #: byte-identical whether or not telemetry was enabled.
    attributions: Optional[List[RequestAttribution]] = None

    @property
    def elapsed_ns(self) -> int:
        return max(r.engine.elapsed_ns for r in self.replicas)

    @property
    def engine(self) -> EngineResult:
        """The engine result of a one-replica run."""
        (replica,) = self.replicas
        return replica.engine


def measure_attestation_ns(config: SystemConfig) -> int:
    """Full simulated SPDM attestation time under ``config`` — what a
    freshly scaled-up replica pays before its first request."""
    sim = Simulator()
    guest = GuestContext(sim, config)
    sim.run(sim.process(attest_gpu(sim, guest, config)))
    return sim.now


class _Router:
    """Deterministic placement over the global arrival stream.

    Pure bookkeeping (no Simulator): per-replica busy horizons advance
    by a roofline service estimate, which is what the placement and
    autoscaling decisions key off.  The *engines* then pay the real,
    fault-aware costs; the router only decides who pays where and adds
    its own ingress latency to each request.
    """

    def __init__(self, spec: ClusterSpec, config: SystemConfig) -> None:
        self.spec = spec
        self.config = config
        # One fixed replica leaves nothing to place: its requests
        # bypass the router and pay no ingress.
        self.ingress_ns = 0
        if spec.cluster_capable:
            self.ingress_ns = int(ROUTER_BASE_NS)
            if config.cc_on:
                # Placement runs inside the trust boundary: admitting a
                # request into a TD replica costs a guest transition.
                self.ingress_ns += int(config.tdx.td_hypercall_ns)
        self.attest_ns = 0
        if spec.autoscale_max:
            self.attest_ns = measure_attestation_ns(config)
        # Roofline service estimate, from the same backend the engines
        # use: whole-prompt prefill + per-token decode cadence at a
        # nominal batch of 8.
        self._backend = VLLMBackend(model=SERVE_MODEL, quant=BF16)
        decode = self._backend.decode_kernel(config, 8, 256.0)
        self._decode_step_ns = decode.fixed_duration_ns + VLLM_STEP_SCHED_NS
        # Replica state.
        self.busy_until: Dict[int, int] = {}
        self.ready_at: Dict[int, int] = {}
        self.active: List[int] = []
        for rid in range(spec.replicas):
            self.busy_until[rid] = 0
            self.ready_at[rid] = 0
            self.active.append(rid)
        self._rr_next = 0
        self._pins: Dict[str, int] = {}
        self._epoch_ns = int(spec.autoscale_epoch_ms * units.NS_PER_SEC / 1e3)
        self._epoch_end = self._epoch_ns
        self._epoch_delays_ms: List[float] = []
        self.est_queue_ms: List[float] = []
        self.events: List[Dict] = []
        self.spills = 0
        #: Original arrival of every placed request.
        self._arrival: Dict[int, int] = {}

    def _service_ns(self, request: ServeRequest) -> int:
        prefill = self._backend.prefill_kernel(
            self.config, request.prompt_tokens
        )
        # Batch-of-8 decode cadence: each step advances 8 sequences.
        decode_ns = request.gen_tokens * self._decode_step_ns // 8
        return prefill.fixed_duration_ns + decode_ns

    def _least_loaded(self, now: int) -> int:
        return min(
            self.active,
            key=lambda rid: (max(self.busy_until[rid], now), rid),
        )

    def _backlog_ms(self, rid: int, now: int) -> float:
        return units.to_ms(max(0, self.busy_until[rid] - now))

    def _pick(self, request: ServeRequest, now: int) -> int:
        placement = self.spec.placement
        if placement == "least-loaded":
            return self._least_loaded(now)
        if placement == "kv-affinity":
            # Tenant-sticky: prefix-cache hits come from landing a
            # tenant's stream on the same replica.  Spill (and re-pin)
            # when the pinned replica's backlog crosses the scale-up
            # threshold — latency beats cache affinity past that point.
            rid = self._pins.get(request.tenant)
            if rid is None or rid not in self.active:
                rid = self._least_loaded(now)
                self._pins[request.tenant] = rid
            elif self._backlog_ms(rid, now) > self.spec.scale_up_queue_ms:
                spill = self._least_loaded(now)
                if spill != rid:
                    self.spills += 1
                    self._pins[request.tenant] = spill
                    rid = spill
            return rid
        # round-robin over the active set.
        rid = self.active[self._rr_next % len(self.active)]
        self._rr_next += 1
        return rid

    def _autoscale_tick(self, now: int) -> None:
        """Evaluate scale decisions at every epoch boundary <= now."""
        if not self.spec.autoscale_max:
            return
        while self._epoch_end <= now:
            epoch_t = self._epoch_end
            self._epoch_end += self._epoch_ns
            delays = self._epoch_delays_ms
            self._epoch_delays_ms = []
            if not delays:
                continue
            p95 = percentile(delays, 95)
            if (
                p95 > self.spec.scale_up_queue_ms
                and len(self.active) < self.spec.autoscale_max
            ):
                rid = len(self.busy_until)
                self.busy_until[rid] = 0
                # A new replica serves only after boot + attestation —
                # the CC stack makes scale-up relief slower to arrive.
                self.ready_at[rid] = epoch_t + self.attest_ns
                self.active.append(rid)
                self.events.append({
                    "action": "scale-up",
                    "at_ms": units.to_ms(epoch_t),
                    "replica": rid,
                    "p95_queue_ms": p95,
                    "ready_ms": units.to_ms(self.ready_at[rid]),
                })
            elif (
                p95 < self.spec.scale_down_queue_ms
                and len(self.active) > self.spec.replicas
            ):
                for rid in reversed(self.active):
                    if (
                        rid >= self.spec.replicas
                        and self.busy_until[rid] <= epoch_t
                    ):
                        self.active.remove(rid)
                        self.events.append({
                            "action": "scale-down",
                            "at_ms": units.to_ms(epoch_t),
                            "replica": rid,
                            "p95_queue_ms": p95,
                        })
                        break

    def place(
        self, requests: List[ServeRequest]
    ) -> Dict[int, List[ServeRequest]]:
        """Replica id -> the requests it serves.  A placed request
        arrives at its replica after the ingress and readiness waits;
        with nothing to place, replica 0 serves the stream as given."""
        if not self.spec.cluster_capable:
            return {0: requests}
        placed: Dict[int, List[ServeRequest]] = {}
        for request in requests:
            self._arrival[request.req_id] = request.arrival_ns
            self._autoscale_tick(request.arrival_ns)
            now = request.arrival_ns + self.ingress_ns
            rid = self._pick(request, now)
            start = max(now, self.ready_at[rid])
            queue_ms = self._backlog_ms(rid, start)
            self.est_queue_ms.append(queue_ms)
            self._epoch_delays_ms.append(queue_ms)
            self.busy_until[rid] = (
                max(self.busy_until[rid], start) + self._service_ns(request)
            )
            placed.setdefault(rid, []).append(
                dataclasses.replace(request, arrival_ns=start)
            )
        return placed

    def restore(self, records: List) -> List:
        """``records`` charged from each request's original arrival, so
        router ingress and replica-readiness waits land in TTFT/E2E."""
        if not self._arrival:
            return records
        return [
            dataclasses.replace(r, arrival_ns=self._arrival[r.req_id])
            for r in records
        ]

    def summary(self, placed: Dict[int, List[ServeRequest]]) -> Dict:
        return {
            "placement": self.spec.placement,
            "ingress_ns": self.ingress_ns,
            "attest_ms": units.to_ms(self.attest_ns),
            "replicas_started": self.spec.replicas,
            "replicas_final": len(self.active),
            "replica_requests": {
                str(rid): len(placed.get(rid, ()))
                for rid in sorted(self.busy_until)
            },
            "affinity_spills": self.spills,
            "est_queue_ms": {
                "mean": (
                    sum(self.est_queue_ms) / len(self.est_queue_ms)
                    if self.est_queue_ms else 0.0
                ),
                "p95": percentile(self.est_queue_ms, 95),
            },
            "autoscale_events": self.events,
        }


def _run_replica(
    spec: ScenarioSpec,
    config: SystemConfig,
    requests: List[ServeRequest],
    label: str,
    telemetry: bool,
    tuning: Optional[EngineTuning],
    parallelism: ParallelismSpec,
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


def _serve(
    spec: ClusterSpec,
    config: Optional[SystemConfig],
    telemetry: bool,
    tuning: Optional[EngineTuning],
):
    """The one serving run behind :func:`run_cluster` and
    :func:`run_scenario`; returns ``(traces, ClusterResult)``."""
    spec.validate()
    if telemetry and spec.cluster_capable:
        raise ClusterError(
            "telemetry capture needs a single-replica cluster "
            "(per-request clocks are per-engine)"
        )
    config = config or SystemConfig.base()
    scenario = spec.scenario
    targets = scenario.slo_targets()
    requests = scenario.arrivals()
    router = _Router(spec, config)
    placed = router.place(requests)

    traces: Dict[int, object] = {}
    served = []
    outcomes: List[RequestOutcome] = []
    rejected: List[ServeRequest] = []
    attributions = None
    for rid, replica_requests in sorted(placed.items()):
        label = scenario.label(config)
        if spec.cluster_capable:
            label = f"{label}-rep{rid}"
        # Telemetry runs have one replica, so its attributions are kept.
        trace, engine, attributions = _run_replica(
            scenario, config, replica_requests, label, telemetry, tuning,
            spec.parallelism(),
        )
        traces[rid] = trace
        done = router.restore(engine.outcomes)
        dropped = router.restore(engine.rejected)
        served.append((rid, len(replica_requests), engine, done, dropped))
        outcomes += done
        rejected += dropped

    def report(done, dropped, elapsed_ns: int) -> Dict:
        # Rates are computed over the full busy window (arrival window
        # + drain), so an overloaded run reports its saturation
        # throughput rather than dividing by the nominal duration.
        window_ns = max(scenario.duration_ns, elapsed_ns)
        return build_report(done, dropped, window_ns, targets)

    if len(served) > 1:
        # Deterministic merge order; one engine keeps its own order
        # (sums over floats are order-sensitive).
        outcomes.sort(key=lambda o: o.req_id)
        rejected.sort(key=lambda r: r.req_id)
    elapsed_ns = max(engine.elapsed_ns for _, _, engine, _, _ in served)
    merged = report(outcomes, rejected, elapsed_ns)
    # One engine's report is the run's report.
    replicas = [
        ReplicaOutcome(rid, count, engine, merged if len(served) == 1
                       else report(done, dropped, engine.elapsed_ns))
        for rid, count, engine, done, dropped in served
    ]
    return traces, ClusterResult(
        spec=spec,
        cc=config.cc_on,
        requests=len(requests),
        arrival_digest=stream_digest(requests),
        replicas=replicas,
        report=merged,
        router=router.summary(placed),
        faults=fault_plan_summary(config),
        attributions=attributions,
    )


def run_cluster(
    spec: ClusterSpec,
    config: Optional[SystemConfig] = None,
    telemetry: bool = False,
):
    """Run one cluster scenario; returns ``(traces, ClusterResult)``.

    ``traces`` maps replica id -> Chrome trace.  ``telemetry=True`` is
    only supported on single-replica clusters (per-request attribution
    across replicas would need merged clocks): anything else raises
    :class:`ClusterError`.
    """
    return _serve(spec, config, telemetry, None)


def run_scenario(
    spec: ScenarioSpec,
    config: Optional[SystemConfig] = None,
    telemetry: bool = False,
    tuning: Optional[EngineTuning] = None,
):
    """Run one scenario on one engine; returns ``(trace, ClusterResult)``.

    This is the one-replica tp=1/pp=1 :func:`run_cluster`, plus the
    engine ``tuning``; ``result.engine`` is its engine's result.

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
    traces, result = _serve(ClusterSpec(scenario=spec), config, telemetry, tuning)
    return traces[0], result


def _verdict(result: ClusterResult, command: str, spec: Dict) -> Dict:
    return {
        "command": command,
        "spec": spec,
        "cc": result.cc,
        "requests": result.requests,
        "arrival_digest": result.arrival_digest,
        "elapsed_ms": units.to_ms(result.elapsed_ns),
        "faults": result.faults,
        "slo": result.report,
    }


def scenario_verdict(result: ClusterResult) -> Dict:
    """Deterministic, JSON-ready verdict of a one-engine run."""
    return {
        **_verdict(result, "serve", asdict(result.spec.scenario)),
        "engine": dict(sorted(result.engine.stats.items())),
    }


def verdict_json(result: ClusterResult) -> str:
    """Byte-stable JSON encoding of the verdict (determinism gate)."""
    return json.dumps(scenario_verdict(result), indent=1, sort_keys=True)


def cluster_verdict(result: ClusterResult) -> Dict:
    """Deterministic, JSON-ready verdict for one cluster run."""
    return {
        **_verdict(result, "serve-cluster", asdict(result.spec)),
        "router": result.router,
        "replicas": {
            str(r.replica_id): {
                "requests": r.requests,
                "elapsed_ms": units.to_ms(r.engine.elapsed_ns),
                "engine": dict(sorted(r.engine.stats.items())),
                "goodput_rps": r.report["goodput_rps"],
            }
            for r in result.replicas
        },
    }


def cluster_verdict_json(result: ClusterResult) -> str:
    """Byte-stable JSON encoding of the verdict (determinism gate)."""
    return json.dumps(cluster_verdict(result), indent=1, sort_keys=True)
