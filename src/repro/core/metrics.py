"""Metric extraction: KLO, LQT, KQT, KET, KLR and friends (Sec. V/VI).

Definitions follow the paper exactly:

* **KLO** (Kernel Launch Overhead): duration of a launch operation on
  the CPU (driver work of ``cudaLaunchKernel``).
* **LQT** (Launch Queuing Time): waiting period before the next
  consecutive launch can start — the gap between the end of the
  previous launch and the start of this one.
* **KQT** (Kernel Queuing Time): time a kernel waits in the GPU task
  queue between submission completion and execution start.
* **KET** (Kernel Execution Time): on-GPU execution duration
  (includes UVM fault servicing for managed kernels).
* **KLR** (Kernel-to-Launch Ratio): KET / (KLO + LQT) — Observation 6's
  predictor of whether launch costs dominate end-to-end time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import CopyKind
from ..profiler import EventKind, SummaryStats, Trace


@dataclass(frozen=True)
class LaunchMetrics:
    klo_ns: List[int]
    lqt_ns: List[int]

    @property
    def total_klo_ns(self) -> int:
        return sum(self.klo_ns)

    @property
    def total_lqt_ns(self) -> int:
        return sum(self.lqt_ns)

    @property
    def count(self) -> int:
        return len(self.klo_ns)

    def klo_stats(self) -> SummaryStats:
        return SummaryStats.of(self.klo_ns)

    def lqt_stats(self) -> SummaryStats:
        return SummaryStats.of(self.lqt_ns)


@dataclass(frozen=True)
class KernelMetrics:
    ket_ns: List[int]
    kqt_ns: List[int]

    @property
    def total_ket_ns(self) -> int:
        return sum(self.ket_ns)

    @property
    def total_kqt_ns(self) -> int:
        return sum(self.kqt_ns)

    @property
    def count(self) -> int:
        return len(self.ket_ns)

    def ket_stats(self) -> SummaryStats:
        return SummaryStats.of(self.ket_ns)

    def kqt_stats(self) -> SummaryStats:
        return SummaryStats.of(self.kqt_ns)


def launch_metrics(trace: Trace) -> LaunchMetrics:
    launches = trace.launches()
    return LaunchMetrics(
        klo_ns=[e.duration_ns for e in launches],
        lqt_ns=[e.queue_ns for e in launches],
    )


def kernel_metrics(trace: Trace) -> KernelMetrics:
    kernels = trace.kernels()
    return KernelMetrics(
        ket_ns=[e.duration_ns for e in kernels],
        kqt_ns=[e.queue_ns for e in kernels],
    )


def copy_time_by_kind(trace: Trace) -> Dict[CopyKind, int]:
    """Total memcpy time per direction, using the *Nsight-visible*
    classification: CC pinned copies are reported as Managed D2D
    (Sec. VI-A, Fig. 5)."""
    totals = {kind: 0 for kind in CopyKind}
    for event in trace.memcpys():
        if event.attrs.get("staging"):
            # CPU-side staging half of an async copy: not a separate
            # Nsight copy row (its DMA counterpart carries the bytes).
            continue
        kind = event.attrs["copy_kind"]
        if event.attrs.get("managed"):
            kind = CopyKind.D2D
        totals[kind] += event.duration_ns
    return totals


def mgmt_time_by_api(trace: Trace) -> Dict[str, int]:
    """Alloc/free time per API name (Fig. 6 rows)."""
    totals: Dict[str, int] = {}
    for event in trace.of_kind(EventKind.ALLOC) + trace.of_kind(EventKind.FREE):
        totals[event.name] = totals.get(event.name, 0) + event.duration_ns
    return totals


def kernel_to_launch_ratio(trace: Trace) -> float:
    """KLR = total KET / total (KLO + LQT); Observation 6."""
    launches = launch_metrics(trace)
    kernels = kernel_metrics(trace)
    denominator = launches.total_klo_ns + launches.total_lqt_ns
    if denominator == 0:
        return float("inf") if kernels.total_ket_ns > 0 else 0.0
    return kernels.total_ket_ns / denominator
