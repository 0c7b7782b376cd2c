"""Extension: cluster-scale CC serving (the serialized bridge, scaled).

Sweeps offered arrival rate x CC on/off x tensor-parallel degree
through :mod:`repro.serve.cluster` replicas whose inter-GPU traffic
rides the :mod:`repro.multigpu` secure links, reproducing the
cluster-scale claim of "The Serialized Bridge" (Yin & Wang, 2026):
sharding buys base-mode throughput, but under CC every per-layer
all-reduce pays counter/MAC metadata on the peer links, so the goodput
knee sits strictly left of base at every TP degree — and the gap
*widens* as TP grows (more ring steps, each taxed).  A second section
exercises the cluster router: placement policies over three replicas
and the attestation-delayed autoscaler.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .. import units
from ..config import SystemConfig
from ..serve import ClusterSpec, ScenarioSpec, run_cluster
from .common import KNEE_ATTAINMENT, FigureResult, dispatch, knee

RATES = (8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0, 44.0)
TP_SWEEP = (1, 2, 4)
PLACEMENT_RATE = 32.0
PLACEMENT_REPLICAS = 3


def generate_cluster_serving(
    rates: Sequence[float] = RATES,
    tp_sweep: Sequence[int] = TP_SWEEP,
    duration_s: float = 2.0,
    tenants: int = 2,
    seed: int = 42,
) -> FigureResult:
    """Goodput vs offered rate, base vs CC, per TP degree + router demo."""
    base_config = SystemConfig.base()
    cc_config = SystemConfig.confidential()
    duration_ns = int(duration_s * units.NS_PER_SEC)

    rows = []
    goodput: Dict[Tuple[int, str], Dict[float, float]] = {}
    for tp in tp_sweep:
        for rate in rates:
            spec = ClusterSpec(
                scenario=ScenarioSpec(
                    rate_rps=float(rate),
                    duration_ns=duration_ns,
                    tenants=tenants,
                    seed=seed,
                ),
                tp=tp,
            )
            for mode, config in (("base", base_config), ("cc", cc_config)):
                _, result = run_cluster(spec, config)
                report = result.report
                goodput.setdefault((tp, mode), {})[rate] = report[
                    "goodput_rps"
                ]
                stats = result.replicas[0].engine.stats
                rows.append(
                    (
                        "topology",
                        tp,
                        1,
                        "-",
                        rate,
                        mode,
                        round(report["goodput_rps"], 3),
                        round(report["completed_rps"], 3),
                        round(report["ttft_ms"]["p99"], 3),
                        round(units.to_ms(stats.get("tp_comm_ns", 0)), 3),
                        0,
                    )
                )

    # Router section: placement policies over a small replica pool at a
    # rate past the single-engine knee, plus the CC-attested autoscaler.
    for placement in ("round-robin", "least-loaded", "kv-affinity"):
        spec = ClusterSpec(
            scenario=ScenarioSpec(
                rate_rps=PLACEMENT_RATE,
                duration_ns=duration_ns,
                tenants=tenants,
                seed=seed,
            ),
            replicas=PLACEMENT_REPLICAS,
            placement=placement,
        )
        _, result = run_cluster(spec, cc_config)
        rows.append(
            (
                "placement",
                1,
                PLACEMENT_REPLICAS,
                placement,
                PLACEMENT_RATE,
                "cc",
                round(result.report["goodput_rps"], 3),
                round(result.report["completed_rps"], 3),
                round(result.report["ttft_ms"]["p99"], 3),
                0.0,
                result.router["affinity_spills"],
            )
        )
    autoscale_ready_ms = {}
    for mode, config in (("base", base_config), ("cc", cc_config)):
        spec = ClusterSpec(
            scenario=ScenarioSpec(
                rate_rps=PLACEMENT_RATE,
                duration_ns=duration_ns,
                tenants=tenants,
                seed=seed,
            ),
            replicas=1,
            autoscale_max=PLACEMENT_REPLICAS,
            placement="least-loaded",
        )
        _, result = run_cluster(spec, config)
        events = result.router["autoscale_events"]
        ups = [e for e in events if e["action"] == "scale-up"]
        autoscale_ready_ms[mode] = (
            ups[0]["ready_ms"] - ups[0]["at_ms"] if ups else 0.0
        )
        rows.append(
            (
                "autoscale",
                1,
                result.router["replicas_final"],
                "least-loaded",
                PLACEMENT_RATE,
                mode,
                round(result.report["goodput_rps"], 3),
                round(result.report["completed_rps"], 3),
                round(result.report["ttft_ms"]["p99"], 3),
                0.0,
                len(ups),
            )
        )

    knees = {
        (tp, mode): knee(rates, goodput[(tp, mode)])
        for tp in tp_sweep
        for mode in ("base", "cc")
    }
    degradation = {
        tp: knees[(tp, "base")] - knees[(tp, "cc")] for tp in tp_sweep
    }
    # Predicate 1: CC knee strictly left of base at every TP >= 2.
    knee_holds = [
        knees[(tp, "cc")] < knees[(tp, "base")]
        for tp in tp_sweep
        if tp >= 2
    ]
    # Predicate 2: degradation grows strictly with TP degree.
    ordered = sorted(tp_sweep)
    growth_holds = [
        degradation[a] < degradation[b]
        for a, b in zip(ordered, ordered[1:])
    ]

    figure = FigureResult(
        figure_id="ext_cluster_serving",
        title="Cluster serving: encrypted TP links widen the CC knee gap",
        columns=("section", "tp", "replicas", "placement", "rate_rps",
                 "mode", "goodput_rps", "completed_rps", "ttft_p99_ms",
                 "tp_comm_ms", "events"),
        rows=rows,
        notes=[
            "Replica engines shard kernels across tp GPUs and pay two "
            "ring all-reduces per layer over the secure peer links "
            "(plaintext in base, naive counter/MAC metadata under CC); "
            "a rate is sustained while goodput >= %g%% of it." % (
                100 * KNEE_ATTAINMENT),
            "knees (last sustained rate, rps): " + ", ".join(
                f"tp{tp}/{mode}={knees[(tp, mode)]:g}"
                for tp in tp_sweep
                for mode in ("base", "cc")
            ),
            "knee degradation base-cc (rps): " + ", ".join(
                f"tp{tp}={degradation[tp]:g}" for tp in tp_sweep
            ),
            "autoscale relief latency (scale-up to ready, ms): " + ", ".join(
                f"{mode}={autoscale_ready_ms[mode]:.3f}"
                for mode in ("base", "cc")
            ),
        ],
    )
    figure.add_paper_comparison(
        "CC goodput knee strictly below base under TP>=2 (fraction)",
        sum(knee_holds) / len(knee_holds),
    )
    figure.add_paper_comparison(
        "knee degradation grows with TP degree (fraction of steps)",
        sum(growth_holds) / len(growth_holds),
    )
    return figure


VARIANTS = {"": generate_cluster_serving,
            "cluster_serving": generate_cluster_serving}


def run(config=None):
    """Uniform harness entry point (see :mod:`repro.exec`)."""
    return dispatch(VARIANTS, config, __name__)
