"""The paper's GPU performance model (Sec. V, Fig. 3).

End-to-end application time P decomposes into four parts:

    P = (1 - alpha) * T_mem                       (A: data transfer)
      + sum_i (KLO_i + LQT_i)                     (B: launch + queuing)
      + sum_i (1 - beta_i) * (KET_i + KQT_i)      (C: execution + queuing)
      + T_other                                   (D: alloc/free/sync/recovery)

``alpha`` is the fraction of memory-copy time hidden under parts B
and C (raised by CUDA streams, Sec. VII-A); ``beta_i`` is the fraction
of kernel i's (KET+KQT) interval hidden under part B — for a kernel
fully covered by concurrent launch activity beta_i = 1 and it
contributes nothing beyond the launches themselves (the low-KLR
regime of Observation 6).  ``T_other`` is the alloc, free, sync and
fault-recovery time under none of A–C.

:func:`decompose` measures all parameters from one
:func:`~repro.core.breakdown.activity` read of a trace, carved with the
priority B > C > A > D — the Fig.-1 categories are the same read
carved with another priority.  The resulting
:class:`ModelDecomposition` both *predicts* P and reports the part
totals the figures use.  Since the four parts and the uncovered
``idle`` time partition the span, the Fig.-3 prediction error is minus
the idle share by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import units
from ..profiler import Trace
from . import intervals
from .breakdown import activity


@dataclass(frozen=True)
class ModelDecomposition:
    """Measured model parameters and part totals, all in nanoseconds."""

    t_mem_ns: int  # total memory-copy busy time (union)
    alpha: float  # overlapped fraction of T_mem
    part_b_ns: int  # sum(KLO + LQT)
    part_c_raw_ns: int  # sum(KET + KQT), before beta discount
    part_c_ns: int  # sum((1 - beta_i) (KET_i + KQT_i))
    betas: List[float]
    t_other_ns: int  # alloc + free + sync + recovery under none of A-C
    span_ns: int  # observed wall-clock span of the trace
    t_recovery_ns: int = 0  # fault-recovery time (union; subset of D)

    @property
    def part_a_ns(self) -> int:
        return int((1.0 - self.alpha) * self.t_mem_ns)

    @property
    def predicted_ns(self) -> int:
        return self.part_a_ns + self.part_b_ns + self.part_c_ns + self.t_other_ns

    @property
    def mean_beta(self) -> float:
        return sum(self.betas) / len(self.betas) if self.betas else 0.0

    @property
    def prediction_error(self) -> float:
        """Relative error of the model prediction vs observed span."""
        if self.span_ns == 0:
            return 0.0
        return (self.predicted_ns - self.span_ns) / self.span_ns

    def summary(self) -> str:
        rows = [
            ("A: (1-a)*T_mem", self.part_a_ns),
            ("B: sum(KLO+LQT)", self.part_b_ns),
            ("C: sum((1-b)(KET+KQT))", self.part_c_ns),
            ("D: T_other", self.t_other_ns),
            ("P predicted", self.predicted_ns),
            ("P observed", self.span_ns),
        ]
        if self.t_recovery_ns:
            rows.insert(4, ("  of D: recovery", self.t_recovery_ns))
        lines = [
            f"  {label:<26}{units.to_ms(value):12.3f} ms" for label, value in rows
        ]
        lines.append(
            f"  {'alpha':<26}{self.alpha:12.3f}\n"
            f"  {'mean beta':<26}{self.mean_beta:12.3f}\n"
            f"  {'relative error':<26}{self.prediction_error * 100:11.2f} %"
        )
        return "\n".join(lines)


def decompose(trace: Trace) -> ModelDecomposition:
    """Measure the Sec.-V model parameters from a trace.

    Carves one :func:`~repro.core.breakdown.activity` read of the span
    with the priority B (launch windows incl. LQT) > C (kernel windows
    incl. KQT) > A (copies) > D (alloc/free, sync, recovery), the rest
    ``idle``.  Each instant lands in at most one part: an alloc or sync
    under kernel, copy or other D time counts once, and a queue window
    that starts before the first event is clipped to the span.  So
    A + B + C + D + ``idle`` is the span, and the prediction error is
    minus the idle share, within the 1 ns ``part_a_ns`` may round off.

    Unions match the paper's per-kernel sums when kernels run strictly
    in sequence (Fig. 3) and do not double-count shared waiting when
    deep launch queues overlap (KET+KQT) windows, e.g. 254 queued
    3dconv launches.  ``betas`` keep the paper's per-kernel definition:
    the share of kernel i's (KET+KQT) window under part B.
    """
    lo, hi, raw = activity(trace)
    launch_iv = raw["launch_queue"] + raw["launch"]
    kernel_windows = [
        (queued, end)
        for (queued, _), (_, end) in zip(raw["kernel_queue"], raw["kernel"])
    ]
    layers = [
        ("B", launch_iv),
        ("C", kernel_windows),
        ("A", raw["copy"]),
        ("D", raw["mgmt"] + raw["sync"] + raw["recovery"]),
    ]
    parts = {"A": 0, "B": 0, "C": 0, "D": 0, "idle": 0}
    for start, end, part in intervals.carve(lo, hi, layers, "idle"):
        parts[part] += end - start

    t_mem = intervals.union_length(raw["copy"])
    merged_launch = intervals.merge(launch_iv)
    betas = [
        intervals.overlap_with_union((start, end), merged_launch) / (end - start)
        if end > start
        else 0.0
        for start, end in kernel_windows
    ]
    return ModelDecomposition(
        t_mem_ns=t_mem,
        alpha=(t_mem - parts["A"]) / t_mem if t_mem > 0 else 0.0,
        part_b_ns=parts["B"],
        part_c_raw_ns=sum(end - start for start, end in kernel_windows),
        part_c_ns=parts["C"],
        betas=betas,
        t_other_ns=parts["D"],
        span_ns=hi - lo,
        t_recovery_ns=intervals.union_length(raw["recovery"]),
    )
