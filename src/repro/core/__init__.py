"""The paper's primary contribution: the GPU performance model and the
metric definitions used to dissect CC overheads (Sec. V)."""

from .breakdown import CATEGORIES, Breakdown, breakdown
from .metrics import (
    KernelMetrics,
    LaunchMetrics,
    copy_time_by_kind,
    kernel_metrics,
    kernel_to_launch_ratio,
    launch_metrics,
    mgmt_time_by_api,
)
from .model import ModelDecomposition, decompose
from . import intervals

__all__ = [
    "Breakdown",
    "CATEGORIES",
    "KernelMetrics",
    "LaunchMetrics",
    "ModelDecomposition",
    "breakdown",
    "copy_time_by_kind",
    "decompose",
    "intervals",
    "kernel_metrics",
    "kernel_to_launch_ratio",
    "launch_metrics",
    "mgmt_time_by_api",
]
