"""What a serving scenario is: :class:`ScenarioSpec`.

A scenario fixes the tenants, their seeded arrival stream, the
scheduler, the KV budget, the SLO targets and the degradation policy
of one serving engine.  It is run by
:func:`~repro.serve.cluster.run_scenario`, which *is* the one-replica,
tp=1/pp=1 :func:`~repro.serve.cluster.run_cluster`: one serving run
path behind the CLI (``repro serve``), the serving figures and the
tests, so every consumer sees byte-identical results for the same
(spec, config) pair.

Also home to :func:`predicted_step_cc_overhead_ns`, the Sec.-V model's
prediction for the *fixed* CC tax one decode iteration pays (token
round-trip staging/crypto + launch-path extras) — the bar the measured
TTFT p99 inflation is gated against in ``paper_targets.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..cuda.transfers import plan_copy
from ..sim import Simulator
from ..tdx import GuestContext
from .arrivals import ServeRequest, default_tenants, generate_arrivals
from .lifecycle import DegradationPolicy
from .scheduler import DEFAULT_KV_BUDGET_BYTES, SchedulerConfig
from .slo import SLOTargets


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

    def arrivals(self) -> List[ServeRequest]:
        """The seeded global arrival stream of every tenant."""
        return generate_arrivals(
            default_tenants(self.rate_rps, self.tenants, self.process),
            self.duration_ns,
            self.seed,
        )

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
