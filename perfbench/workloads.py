"""The benchmark's three workloads, each one pass through the public API.

Every workload is open-loop in simulated time (arrivals or app launch
order are fixed by the seed, not by how fast the simulator runs) and
returns a :class:`PassOutput` whose ``digest`` covers the simulated
results, so a pass whose output drifts is counted as failed.

* ``serve_faults`` -- the fault-serving cell family and the tuner's code
  path: CC, all five fault sites, circuit breaker, tuned engine, under
  two fault schedules.
* ``serve_telemetry`` -- one TP=2/PP=2 replica under CC with request
  attribution on: the telemetry and multi-GPU paths.
* ``paper_apps`` -- the paper's application suite, base and CC,
  explicit copies and UVM.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro import units
from repro.calibration import PAPER
from repro.config import CopyKind, SystemConfig
from repro.core import copy_time_by_kind
from repro.cuda import run_app
from repro.figures.ext_fault_serving import fault_plan_for, spec_for
from repro.optim.passes import parse_pipeline
from repro.serve import ScenarioSpec, run_scenario, verdict_json
from repro.serve.cluster import ClusterSpec, cluster_verdict_json, run_cluster
from repro.serve.telemetry import requests_jsonl
from repro.workloads import CATALOG, FIG5_APPS

DEFAULT_SEED = 42
#: The serving workloads replay one Poisson arrival realization at every
#: ``--seed``; the seed drives ``SystemConfig.seed`` (fault draws and
#: launch jitter).  Re-drawing arrivals per seed moves the request count
#: alone by +-25%, and pass time with it, which no bound could absorb.
ARRIVAL_SEED = DEFAULT_SEED

#: Mitigation pipeline the ``serve_faults`` engine runs under.
SERVE_FAULTS_PIPELINE = "fusion+overlap:2+batch:4+staging"
#: Per-occurrence fault rate at the copy sites (see ``fault_plan_for``).
#: At 0.1, 3 of 60 fault schedules exhaust the SPDM retries and the
#: engine gives up, failing up to all 76 requests and halving the pass;
#: at 0.05 none of 60 does, and all five sites still inject.
SERVE_FAULTS_RATE = 0.05
SERVE_DURATION_S = 2.0
SERVE_TELEMETRY_RPS = 24.0


@dataclass
class AppRun:
    """Simulated totals of one catalogue app run."""

    app: str
    mode: str
    uvm: bool
    span_ns: int
    copy_ns: Dict[str, int]

    def record(self) -> list:
        return [self.app, self.mode, self.uvm, self.span_ns,
                [self.copy_ns[kind.value] for kind in CopyKind]]


@dataclass
class PassOutput:
    """What one pass produced: its digest plus the objects the
    per-layer metrics are read from."""

    digest: str
    traces: List = field(default_factory=list)
    engine_stats: List[Dict] = field(default_factory=list)
    reports: List[Dict] = field(default_factory=list)


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def serve_faults(seed: int) -> PassOutput:
    spec, tuning = parse_pipeline(SERVE_FAULTS_PIPELINE).apply(
        spec_for("shed+breaker", ARRIVAL_SEED, SERVE_DURATION_S)
    )
    output = PassOutput(digest="")
    verdicts = []
    # Besides launch jitter, the seed picks the fault schedule, and one
    # schedule moves a pass's work by ~6% between seeds (IQR over seeds
    # 1-10); two disjoint schedules per pass halve that variance.
    for config_seed in (2 * seed, 2 * seed + 1):
        config = SystemConfig.confidential(seed=config_seed).replace(
            faults=fault_plan_for(SERVE_FAULTS_RATE)
        )
        trace, result = run_scenario(spec, config, tuning=tuning)
        verdicts.append(verdict_json(result))
        output.traces.append(trace)
        output.engine_stats.append(result.engine.stats)
        output.reports.append(result.report)
    output.digest = _sha256("".join(verdicts))
    return output


def serve_telemetry(seed: int) -> PassOutput:
    spec = ClusterSpec(
        scenario=ScenarioSpec(
            rate_rps=SERVE_TELEMETRY_RPS,
            duration_ns=int(SERVE_DURATION_S * units.NS_PER_SEC),
            seed=ARRIVAL_SEED,
        ),
        tp=2,
        pp=2,
    )
    traces, result = run_cluster(
        spec, SystemConfig.confidential(seed=seed), telemetry=True
    )
    # The verdict leaves attribution out by design; the request export
    # covers it, so a telemetry change that alters attribution fails.
    payload = cluster_verdict_json(result) + requests_jsonl(result.attributions)
    return PassOutput(
        digest=_sha256(payload),
        traces=[traces[rid] for rid in sorted(traces)],
        engine_stats=[r.engine.stats for r in result.replicas],
        reports=[result.report],
    )


def run_apps(
    seed: int, apps: Sequence[str], with_uvm: bool
) -> Tuple[List, List[AppRun]]:
    """Run each app under base and CC (explicit copies, plus UVM when
    ``with_uvm`` and the app supports it)."""
    traces = []
    runs = []
    modes = (
        ("base", SystemConfig.base(seed=seed)),
        ("cc", SystemConfig.confidential(seed=seed)),
    )
    for name in apps:
        info = CATALOG[name]
        for mode, config in modes:
            for uvm in (False, True) if with_uvm and info.supports_uvm else (False,):
                trace, _ = run_app(info.app(uvm), config, label=name)
                by_kind = copy_time_by_kind(trace)
                traces.append(trace)
                runs.append(AppRun(
                    app=name,
                    mode=mode,
                    uvm=uvm,
                    span_ns=trace.span_ns(),
                    copy_ns={kind.value: ns for kind, ns in by_kind.items()},
                ))
    return traces, runs


def paper_apps(seed: int) -> PassOutput:
    traces, runs = run_apps(seed, list(CATALOG), with_uvm=True)
    return PassOutput(
        digest=_sha256(json.dumps([run.record() for run in runs])),
        traces=traces,
    )


def copy_slowdown_err_pct(runs: Sequence[AppRun]) -> float:
    """Relative error (%) of the mean CC/base explicit-copy slowdown
    over the Fig. 5 apps against the paper's Observation 3."""
    totals: Dict[Tuple[str, str], int] = {}
    for run in runs:
        if not run.uvm and run.app in FIG5_APPS:
            totals[(run.app, run.mode)] = sum(run.copy_ns.values())
    slowdowns = [
        totals[(app, "cc")] / max(totals[(app, "base")], 1) for app in FIG5_APPS
    ]
    mean = sum(slowdowns) / len(slowdowns)
    paper = PAPER["copy.mean_slowdown"].value
    return abs(mean - paper) / paper * 100.0


def paper_copy_err_pct(seed: int) -> float:
    """The copy-slowdown error, from the Fig. 5 apps run on the side
    (explicit copies, base and CC)."""
    return copy_slowdown_err_pct(run_apps(seed, FIG5_APPS, with_uvm=False)[1])


WORKLOADS: Dict[str, Callable[[int], PassOutput]] = {
    "serve_faults": serve_faults,
    "serve_telemetry": serve_telemetry,
    "paper_apps": paper_apps,
}
