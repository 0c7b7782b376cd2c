"""Trace event model — the simulator's Nsight-Systems equivalent.

Every timed activity in the runtime/GPU has one :class:`TraceEvent`;
CPU-side API calls, kernels and fault recoveries derive theirs from
spans (:func:`repro.profiler.collector.derive_events`), and only GPU
copies are built here (:func:`memcpy_event`).  The vocabulary
matches the paper's categories: Launch (KLO), Kernel (KET, with queuing
KQT), Memcpy, Alloc, Free, and Sync.  Queuing times are attached to the
event they precede (``lqt_ns`` on launches, ``kqt_ns`` on kernels)
exactly as defined in Sec. V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from ..config import CopyKind, MemoryKind


class EventKind(Enum):
    LAUNCH = "launch"
    KERNEL = "kernel"
    MEMCPY = "memcpy"
    ALLOC = "alloc"
    FREE = "free"
    SYNC = "sync"
    # Fault recovery: wasted failed attempts, backoff waits, degraded
    # staging, re-attestation (repro.faults).
    RECOVERY = "recovery"


@dataclass(slots=True)
class TraceEvent:
    """One timed activity on the CPU or GPU timeline."""

    kind: EventKind
    name: str
    start_ns: int
    duration_ns: int
    # Queuing time immediately preceding this event (Sec. V):
    #   launches carry LQT, kernels carry KQT.
    queue_ns: int = 0
    stream: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise ValueError("event duration must be non-negative")
        if self.queue_ns < 0:
            raise ValueError("queue time must be non-negative")


def memcpy_event(
    copy_kind: CopyKind,
    start_ns: int,
    duration_ns: int,
    size_bytes: int,
    memory: MemoryKind,
    stream: int = 0,
    managed: bool = False,
) -> TraceEvent:
    return TraceEvent(
        EventKind.MEMCPY,
        f"memcpy_{copy_kind.value}",
        start_ns,
        duration_ns,
        stream=stream,
        attrs={
            "copy_kind": copy_kind,
            "bytes": size_bytes,
            "memory": memory,
            # Nsight labels CC pinned-copies as "Managed" D2D (Sec. VI-A).
            "managed": managed,
        },
    )
