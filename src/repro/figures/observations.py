"""The paper's nine numbered Observations, evaluated against the
simulator.

Each check re-derives the observation's claim from simulated data and
returns (holds, detail).  The bench `benchmarks/test_observations.py`
asserts every observation holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..crypto import throughput as crypto
from ..cuda import run_app
from ..cuda.transfers import achieved_bandwidth_gbps, plan_copy
from ..core import kernel_metrics, launch_metrics
from ..profiler import EventKind
from ..workloads import CATALOG, FIG7_APPS, overlap_experiment


@dataclass
class ObservationResult:
    number: int
    claim: str
    holds: bool
    detail: str


def _bandwidth(config, copy_kind, size, memory):
    plan = plan_copy(config, copy_kind, size, memory, cold=False)
    return achieved_bandwidth_gbps(plan, size)


def observation_1() -> ObservationResult:
    """CC bandwidth drops; pinned/pageable gap disappears under CC."""
    size = 256 * units.MiB
    base_pin = _bandwidth(SystemConfig.base(), CopyKind.H2D, size, MemoryKind.PINNED)
    base_page = _bandwidth(SystemConfig.base(), CopyKind.H2D, size, MemoryKind.PAGEABLE)
    cc_pin = _bandwidth(SystemConfig.confidential(), CopyKind.H2D, size, MemoryKind.PINNED)
    cc_page = _bandwidth(SystemConfig.confidential(), CopyKind.H2D, size, MemoryKind.PAGEABLE)
    holds = (
        cc_pin < 0.25 * base_pin
        and base_pin > 1.4 * base_page
        and abs(cc_pin - cc_page) / cc_page < 0.1
    )
    return ObservationResult(
        1,
        "CC bandwidth drops; pinned==pageable under CC",
        holds,
        f"base pin/page={base_pin:.1f}/{base_page:.1f}, cc pin/page={cc_pin:.2f}/{cc_page:.2f} GB/s",
    )


def observation_2() -> ObservationResult:
    """Software crypto throughput is the transfer ceiling; faster
    algorithms trade away confidentiality."""
    gcm = crypto.spec("aes-128-gcm", crypto.EMR)
    ghash = crypto.spec("ghash", crypto.EMR)
    cc_peak = _bandwidth(
        SystemConfig.confidential(), CopyKind.H2D, units.GiB, MemoryKind.PINNED
    )
    base_peak = _bandwidth(
        SystemConfig.base(), CopyKind.H2D, units.GiB, MemoryKind.PINNED
    )
    holds = (
        cc_peak < gcm.peak_gbps < base_peak
        and ghash.peak_gbps > gcm.peak_gbps
        and not ghash.confidentiality
    )
    return ObservationResult(
        2,
        "AES-GCM caps CC transfers below demand; GHASH faster but no confidentiality",
        holds,
        f"cc_peak={cc_peak:.2f} <= gcm={gcm.peak_gbps} << base={base_peak:.1f} GB/s; ghash={ghash.peak_gbps}",
    )


def _copy_ratios(app_names) -> List[float]:
    ratios = []
    for name in app_names:
        info = CATALOG[name]
        tb, _ = run_app(info.app(False), SystemConfig.base(), label=name)
        tc, _ = run_app(info.app(False), SystemConfig.confidential(), label=name)
        ratios.append(
            tc.total_duration_ns(EventKind.MEMCPY)
            / max(tb.total_duration_ns(EventKind.MEMCPY), 1)
        )
    return ratios


def observation_3() -> ObservationResult:
    """Copies ~5.8x slower on average under CC, up to ~20x."""
    from ..workloads import FIG5_APPS

    ratios = _copy_ratios(FIG5_APPS)
    mean = float(np.mean(ratios))
    holds = 4.0 <= mean <= 8.0 and max(ratios) > 12.0
    return ObservationResult(
        3,
        "CC copies ~5.8x slower on average, up to ~20x (encrypted paging)",
        holds,
        f"mean={mean:.2f}x max={max(ratios):.2f}x (paper: 5.80x / 19.69x)",
    )


def _launch_ratio_table():
    out = {}
    for name in FIG7_APPS:
        info = CATALOG[name]
        tb, _ = run_app(info.app(False), SystemConfig.base(), label=name)
        tc, _ = run_app(info.app(False), SystemConfig.confidential(), label=name)
        lb, lc = launch_metrics(tb), launch_metrics(tc)
        kb, kc = kernel_metrics(tb), kernel_metrics(tc)
        out[name] = {
            "klo": lc.klo_stats().mean / max(lb.klo_stats().mean, 1e-9),
            "lqt": (
                lc.lqt_stats().mean / lb.lqt_stats().mean
                if lb.lqt_stats().mean > 0
                else None
            ),
            "kqt": kc.kqt_stats().mean / max(kb.kqt_stats().mean, 1e-9),
            "launches": lb.count,
        }
    return out


def observation_4() -> ObservationResult:
    """KLO up ~1.42x; KQT amplified for few-launch apps; LQT ~1.43x."""
    table = _launch_ratio_table()
    klo = float(np.mean([row["klo"] for row in table.values()]))
    lqt = float(np.mean([row["lqt"] for row in table.values() if row["lqt"]]))
    kqt = float(np.mean([row["kqt"] for row in table.values()]))
    few = [row["kqt"] for row in table.values() if row["launches"] <= 4]
    many = [row["kqt"] for row in table.values() if row["launches"] >= 100]
    holds = (
        1.2 <= klo <= 1.9
        and 1.1 <= lqt <= 1.8
        and 1.8 <= kqt <= 3.0
        and float(np.mean(few)) > float(np.mean(many))
    )
    return ObservationResult(
        4,
        "KLO ~1.42x, LQT ~1.43x, KQT ~2.32x; few-launch apps amplified",
        holds,
        f"klo={klo:.2f} lqt={lqt:.2f} kqt={kqt:.2f} (paper 1.42/1.43/2.32)",
    )


def observation_5() -> ObservationResult:
    """Non-UVM KET ~unchanged (+0.48%); UVM KET explodes under CC."""
    info = CATALOG["2dconv"]

    def mean_ket(config, uvm):
        trace, _ = run_app(info.app(uvm), config)
        return kernel_metrics(trace).ket_stats().mean

    baseline = mean_ket(SystemConfig.base(), False)
    cc_ratio = mean_ket(SystemConfig.confidential(), False) / baseline
    uvm_cc_ratio = mean_ket(SystemConfig.confidential(), True) / baseline
    holds = abs(cc_ratio - 1.0048) < 0.005 and uvm_cc_ratio > 100
    return ObservationResult(
        5,
        "non-UVM KET +0.48%; UVM encrypted paging catastrophic",
        holds,
        f"cc/base={cc_ratio:.4f}; uvm_cc/base={uvm_cc_ratio:.0f}x",
    )


def observation_6() -> ObservationResult:
    """High KLR hides launch costs; low KLR apps are launch-dominated."""
    from ..core import kernel_to_launch_ratio

    def exec_phase_span(trace) -> int:
        """Span of the launch+kernel phase (copies excluded — Fig. 10
        ignores memory copies for these apps, Sec. VI-B)."""
        events = trace.launches() + trace.kernels()
        return max(e.end_ns for e in events) - min(e.start_ns for e in events)

    outcomes = {}
    for name in ("gb_bfs", "sc"):
        info = CATALOG[name]
        tb, _ = run_app(info.app(False), SystemConfig.base(), label=name)
        tc, _ = run_app(info.app(False), SystemConfig.confidential(), label=name)
        outcomes[name] = {
            "klr": kernel_to_launch_ratio(tb),
            "exec": exec_phase_span(tc) / exec_phase_span(tb),
        }
    high, low = outcomes["gb_bfs"], outcomes["sc"]
    holds = high["klr"] > 3 * low["klr"] and low["exec"] > high["exec"]
    return ObservationResult(
        6,
        "high-KLR apps hide CC launch costs; low-KLR apps dominated by them",
        holds,
        f"gb_bfs: klr={high['klr']:.1f} exec-phase={high['exec']:.2f}x | "
        f"sc: klr={low['klr']:.1f} exec-phase={low['exec']:.2f}x",
    )


def observation_7() -> ObservationResult:
    """First launches cost more; KLO/LQT trend differently under fusion."""
    from ..workloads import fusion_sweep, launch_sequence

    klos = launch_sequence(SystemConfig.confidential(), launches_per_kernel=50)
    steady = sorted(klos)[: len(klos) // 2]
    first_spike = klos[0] / (sum(steady) / len(steady))
    points = fusion_sweep(
        SystemConfig.confidential(), launch_counts=(1, 16, 256),
        total_ket_ns=units.ms(50),
    )
    klo_trend_up = points[-1].total_klo_ns > points[0].total_klo_ns
    mean_klo_down = points[-1].mean_klo_ns < points[0].mean_klo_ns
    holds = first_spike > 5 and klo_trend_up and mean_klo_down
    return ObservationResult(
        7,
        "first-launch KLO spike; fusion trades total KLO against per-launch KLO",
        holds,
        f"first/steady={first_spike:.1f}; total KLO 1->256 launches "
        f"{units.to_us(points[0].total_klo_ns):.0f}->{units.to_us(points[-1].total_klo_ns):.0f} us",
    )


def observation_8() -> ObservationResult:
    """Overlap hides CC data movement; higher compute-to-IO helps."""
    short = overlap_experiment(
        SystemConfig.confidential(), 16, 512 * units.MB, units.ms(1)
    )
    long = overlap_experiment(
        SystemConfig.confidential(), 16, 512 * units.MB, units.ms(100)
    )
    base_short = overlap_experiment(
        SystemConfig.base(), 16, 512 * units.MB, units.ms(1)
    )
    holds = (
        long.overlap_speedup > short.overlap_speedup
        and base_short.overlap_speedup > short.overlap_speedup
        and long.overlap_speedup > 1.1
    )
    return ObservationResult(
        8,
        "overlap improves CC performance; higher KET improves overlap",
        holds,
        f"cc speedup ket1ms={short.overlap_speedup:.2f} ket100ms={long.overlap_speedup:.2f} "
        f"(base ket1ms={base_short.overlap_speedup:.2f})",
    )


def observation_9() -> ObservationResult:
    """FP16 cuts CNN training time; vLLM beats HF robustly under CC."""
    from ..dnn import get, train
    from ..llm import BF16, HFBackend, VLLMBackend, make_requests

    model = get("vgg16")
    cc = SystemConfig.confidential()
    amp = train(model, 1024, "amp", cc)
    fp16 = train(model, 1024, "fp16", cc)
    requests = make_requests(16)
    hf = HFBackend(quant=BF16).serve(SystemConfig.base(), requests, 8)
    vllm_cc = VLLMBackend(quant=BF16).serve(cc, requests, 8)
    holds = (
        fp16.epoch_time_sec < amp.epoch_time_sec
        and vllm_cc.tokens_per_sec > hf.tokens_per_sec
    )
    return ObservationResult(
        9,
        "FP16 quantization cuts training time; vLLM > HF even with CC on",
        holds,
        f"fp16/amp epoch={fp16.epoch_time_sec / amp.epoch_time_sec:.2f}; "
        f"vllm_cc/hf_base={vllm_cc.tokens_per_sec / hf.tokens_per_sec:.2f}",
    )


ALL_OBSERVATIONS: Dict[int, Callable[[], ObservationResult]] = {
    1: observation_1,
    2: observation_2,
    3: observation_3,
    4: observation_4,
    5: observation_5,
    6: observation_6,
    7: observation_7,
    8: observation_8,
    9: observation_9,
}
