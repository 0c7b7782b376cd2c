"""Cluster-scale CC serving: replicated engines behind a tenant-aware
router, with model parallelism inside each replica.

The paper dissects one guest/GPU pair; "The Serialized Bridge" (Yin &
Wang, 2026) shows the same CC taxes compounding at cluster scale —
every replica pays attestation before it serves, every TP shard syncs
over encrypted peer links, every PP boundary crosses the serialized
host bridge, and the router itself transitions through the TD on every
placement.  :func:`run_cluster` composes those pieces from the existing
layers:

* **Replicas** are ordinary :class:`~repro.serve.ServingEngine` runs,
  shaped by a :class:`~repro.serve.parallelism.ParallelismSpec` — so a
  single-replica tp=1/pp=1 cluster reduces *exactly* to
  :func:`~repro.serve.scenario.run_scenario` output (the invariant the
  reduction test pins byte-for-byte).
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
from typing import Dict, List, Optional, Tuple

from .. import units
from ..config import SystemConfig
from ..llm.backends import VLLM_STEP_SCHED_NS, VLLMBackend
from ..llm.config import BF16
from ..obs.metrics import percentile
from ..sim import Simulator
from ..tdx import GuestContext
from ..tdx.spdm import attest_gpu
from .arrivals import ServeRequest, generate_arrivals, stream_digest
from .parallelism import ParallelismSpec
from .scenario import ScenarioSpec, _run_replica, fault_plan_summary
from .scheduler import SERVE_MODEL, EngineResult
from .slo import RequestOutcome, build_report

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
    #: 0 disables the autoscaler; otherwise the ceiling it may reach.
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
        if self.autoscale_max and self.autoscale_max < self.replicas:
            problems.append(
                f"autoscale_max ({self.autoscale_max}) must be >= "
                f"replicas ({self.replicas})"
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
        make; False is the exact-reduction path to the single engine."""
        return self.replicas > 1 or self.autoscale_max > self.replicas


@dataclass
class ReplicaOutcome:
    """One replica engine's share of the cluster run."""

    replica_id: int
    requests: int
    engine: EngineResult
    report: Dict


@dataclass
class ClusterResult:
    """Everything one cluster run produced (traces kept separately)."""

    spec: ClusterSpec
    cc: bool
    requests: int
    arrival_digest: str
    replicas: List[ReplicaOutcome]
    report: Dict
    router: Dict
    elapsed_ns: int
    faults: Optional[Dict] = None
    attributions: Optional[List] = None

    @property
    def goodput_rps(self) -> float:
        return self.report["goodput_rps"]

    def ttft_p99_ms(self) -> float:
        return self.report["ttft_ms"]["p99"]


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
        self.ingress_ns = int(ROUTER_BASE_NS)
        if config.cc_on:
            # Placement runs inside the trust boundary: admitting a
            # request into a TD replica costs a guest transition.
            self.ingress_ns += int(config.tdx.td_hypercall_ns)
        self.attest_ns = 0
        if spec.autoscale_max > spec.replicas:
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

    def _place(self, request: ServeRequest, now: int) -> int:
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

    def route(self, request: ServeRequest) -> Tuple[int, int]:
        """Place one request; returns (replica_id, adjusted_arrival_ns)."""
        self._autoscale_tick(request.arrival_ns)
        now = request.arrival_ns + self.ingress_ns
        rid = self._place(request, now)
        start = max(now, self.ready_at[rid])
        queue_ms = self._backlog_ms(rid, start)
        self.est_queue_ms.append(queue_ms)
        self._epoch_delays_ms.append(queue_ms)
        self.busy_until[rid] = (
            max(self.busy_until[rid], start) + self._service_ns(request)
        )
        return rid, start

    def summary(self, assigned: Dict[int, int]) -> Dict:
        return {
            "placement": self.spec.placement,
            "ingress_ns": self.ingress_ns,
            "attest_ms": units.to_ms(self.attest_ns),
            "replicas_started": self.spec.replicas,
            "replicas_final": len(self.active),
            "replica_requests": {
                str(rid): count for rid, count in sorted(assigned.items())
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


def run_cluster(
    spec: ClusterSpec,
    config: Optional[SystemConfig] = None,
    telemetry: bool = False,
):
    """Run one cluster scenario; returns ``(traces, ClusterResult)``.

    ``traces`` maps replica id -> Chrome trace.  ``telemetry=True`` is
    only supported on single-replica clusters (per-request attribution
    across replicas would need merged clocks); the CLI enforces this.
    """
    spec.validate()
    config = config or SystemConfig.base()
    scenario = spec.scenario
    if telemetry and spec.cluster_capable:
        raise ClusterError(
            "telemetry capture requires a single-replica cluster"
        )
    requests = generate_arrivals(
        scenario.tenant_specs(), scenario.duration_ns, scenario.seed
    )
    par = spec.parallelism()

    # -- routing ---------------------------------------------------------
    router_summary: Dict
    per_replica: Dict[int, List[ServeRequest]] = {}
    original_arrival: Dict[int, int] = {
        r.req_id: r.arrival_ns for r in requests
    }
    if spec.cluster_capable:
        router = _Router(spec, config)
        for request in requests:
            rid, start = router.route(request)
            per_replica.setdefault(rid, []).append(
                dataclasses.replace(request, arrival_ns=start)
            )
        assigned = {rid: len(reqs) for rid, reqs in per_replica.items()}
        for rid in router.busy_until:
            assigned.setdefault(rid, 0)
        router_summary = router.summary(assigned)
    else:
        per_replica[0] = list(requests)
        router_summary = {
            "placement": spec.placement,
            "ingress_ns": 0,
            "attest_ms": 0.0,
            "replicas_started": 1,
            "replicas_final": 1,
            "replica_requests": {"0": len(requests)},
            "affinity_spills": 0,
            "est_queue_ms": {"mean": 0.0, "p95": 0.0},
            "autoscale_events": [],
        }

    # -- replica engines -------------------------------------------------
    traces: Dict[int, object] = {}
    replicas: List[ReplicaOutcome] = []
    all_outcomes: List[RequestOutcome] = []
    all_rejected: List[ServeRequest] = []
    attributions = None
    elapsed_ns = 0
    for rid in sorted(per_replica):
        replica_requests = per_replica[rid]
        label = scenario.label(config)
        if spec.cluster_capable:
            label = f"{label}-rep{rid}"
        # Telemetry runs have one replica, so its attributions are kept.
        trace, result, attributions = _run_replica(
            scenario, config, replica_requests, label, telemetry,
            parallelism=par,
        )
        traces[rid] = trace
        # Latencies are charged from the *original* arrival, so router
        # ingress and replica-readiness waits land in TTFT/E2E.
        outcomes = [
            dataclasses.replace(
                o, arrival_ns=original_arrival[o.req_id]
            )
            for o in result.outcomes
        ]
        rejected = [
            dataclasses.replace(
                r, arrival_ns=original_arrival[r.req_id]
            )
            for r in result.rejected
        ]
        window_ns = max(scenario.duration_ns, result.elapsed_ns)
        replica_report = build_report(
            outcomes, rejected, window_ns, scenario.slo_targets()
        )
        replicas.append(ReplicaOutcome(
            replica_id=rid,
            requests=len(replica_requests),
            engine=result,
            report=replica_report,
        ))
        all_outcomes.extend(outcomes)
        all_rejected.extend(rejected)
        elapsed_ns = max(elapsed_ns, result.elapsed_ns)

    if len(replicas) > 1:
        # Deterministic merge order; with one replica the engine order
        # is kept so the report is float-identical to run_scenario
        # (sums over floats are order-sensitive).
        all_outcomes.sort(key=lambda o: o.req_id)
        all_rejected.sort(key=lambda r: r.req_id)
    window_ns = max(scenario.duration_ns, elapsed_ns)
    report = build_report(
        all_outcomes, all_rejected, window_ns, scenario.slo_targets()
    )
    return traces, ClusterResult(
        spec=spec,
        cc=config.cc_on,
        requests=len(requests),
        arrival_digest=stream_digest(requests),
        replicas=replicas,
        report=report,
        router=router_summary,
        elapsed_ns=elapsed_ns,
        faults=fault_plan_summary(config),
        attributions=attributions,
    )


def cluster_verdict(result: ClusterResult) -> Dict:
    """Deterministic, JSON-ready verdict for one cluster run."""
    spec = result.spec
    return {
        "command": "serve-cluster",
        "spec": {
            "scenario": asdict(spec.scenario),
            "replicas": spec.replicas,
            "tp": spec.tp,
            "pp": spec.pp,
            "link_policy": spec.link_policy,
            "placement": spec.placement,
            "autoscale_max": spec.autoscale_max,
            "autoscale_epoch_ms": spec.autoscale_epoch_ms,
            "scale_up_queue_ms": spec.scale_up_queue_ms,
            "scale_down_queue_ms": spec.scale_down_queue_ms,
        },
        "cc": result.cc,
        "requests": result.requests,
        "arrival_digest": result.arrival_digest,
        "elapsed_ms": units.to_ms(result.elapsed_ns),
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
        "faults": result.faults or {"active": False, "sites": {}},
        "slo": result.report,
    }


def cluster_verdict_json(result: ClusterResult) -> str:
    """Byte-stable JSON encoding of the verdict (determinism gate)."""
    return json.dumps(cluster_verdict(result), indent=1, sort_keys=True)
