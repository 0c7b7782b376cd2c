"""Extension: multi-tenant serving under CC (the "serialized bridge").

Sweeps offered arrival rate x CC on/off x scheduler policy through the
:mod:`repro.serve` simulator and reproduces the qualitative result of
"The Serialized Bridge" (Yin & Wang, 2026): because every continuous-
batching iteration crosses the host<->device bridge (launch + token
round-trip) and every KV swap rides the encrypted PCIe path, the CC
goodput knee sits at a strictly lower arrival rate than native, and
tail TTFT inflates by at least the Sec.-V model's fixed per-step CC
tax long before saturation.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .. import units
from ..config import SystemConfig
from ..serve import (
    ScenarioSpec,
    predicted_step_cc_overhead_ns,
    run_scenario,
)
from .common import KNEE_ATTAINMENT, FigureResult, dispatch, knee

RATES = (8.0, 16.0, 20.0, 24.0, 28.0, 32.0)
POLICY_LIST = ("fcfs", "spf")


def generate_serving(
    rates: Sequence[float] = RATES,
    policies: Sequence[str] = POLICY_LIST,
    duration_s: float = 2.0,
    tenants: int = 2,
    seed: int = 42,
) -> FigureResult:
    """Goodput/TTFT vs offered rate, base vs CC, per scheduler policy."""
    base_config = SystemConfig.base()
    cc_config = SystemConfig.confidential()
    predicted_ns = predicted_step_cc_overhead_ns(base_config, cc_config)

    rows = []
    goodput: Dict[Tuple[str, str], Dict[float, float]] = {}
    ttft_p99: Dict[Tuple[str, str], Dict[float, float]] = {}
    for policy in policies:
        for rate in rates:
            spec = ScenarioSpec(
                rate_rps=float(rate),
                duration_ns=int(duration_s * units.NS_PER_SEC),
                tenants=tenants,
                policy=policy,
                seed=seed,
            )
            for mode, config in (("base", base_config), ("cc", cc_config)):
                _, result = run_scenario(spec, config)
                report = result.report
                goodput.setdefault((policy, mode), {})[rate] = report[
                    "goodput_rps"
                ]
                ttft_p99.setdefault((policy, mode), {})[rate] = report[
                    "ttft_ms"
                ]["p99"]
                rows.append(
                    (
                        policy,
                        rate,
                        mode,
                        round(report["goodput_rps"], 3),
                        round(report["completed_rps"], 3),
                        round(report["ttft_ms"]["p50"], 3),
                        round(report["ttft_ms"]["p99"], 3),
                        round(report["tpot_ms"]["p99"], 3),
                        result.engine.stats["preemptions"],
                        report["rejected"],
                    )
                )

    knees = {
        (policy, mode): knee(rates, goodput[(policy, mode)])
        for policy in policies
        for mode in ("base", "cc")
    }
    mid_rate = rates[len(rates) // 2]
    knee_holds = [
        knees[(policy, "cc")] < knees[(policy, "base")] for policy in policies
    ]
    predicted_ms = units.to_ms(predicted_ns)
    ttft_holds = [
        ttft_p99[(policy, "cc")][mid_rate]
        - ttft_p99[(policy, "base")][mid_rate]
        >= predicted_ms
        for policy in policies
    ]

    figure = FigureResult(
        figure_id="ext_serving",
        title="Multi-tenant serving: CC moves the goodput knee left",
        columns=("policy", "rate_rps", "mode", "goodput_rps",
                 "completed_rps", "ttft_p50_ms", "ttft_p99_ms",
                 "tpot_p99_ms", "preemptions", "rejected"),
        rows=rows,
        notes=[
            "Open-loop Poisson arrivals over %d tenants; goodput counts "
            "requests meeting both the TTFT and TPOT SLOs; a rate is "
            "sustained while goodput >= %g%% of it." % (
                tenants, 100 * KNEE_ATTAINMENT),
            "knees (last sustained rate, rps): " + ", ".join(
                f"{policy}/{mode}={knees[(policy, mode)]:g}"
                for policy in policies
                for mode in ("base", "cc")
            ),
            "Sec.-V model predicts a fixed CC tax of %.1f us per decode "
            "iteration (launch path + token-copy staging/crypto); TTFT "
            "p99 inflation is checked against it at %g rps." % (
                predicted_ns / 1000.0, mid_rate),
        ],
    )
    figure.add_paper_comparison(
        "CC goodput knee below base (fraction of policies)",
        sum(knee_holds) / len(knee_holds),
    )
    figure.add_paper_comparison(
        "TTFT p99 inflation >= Sec.-V per-step CC tax (fraction)",
        sum(ttft_holds) / len(ttft_holds),
    )
    return figure


VARIANTS = {"": generate_serving, "serving": generate_serving}


def run(config=None):
    """Uniform harness entry point (see :mod:`repro.exec`)."""
    return dispatch(VARIANTS, config, __name__)
