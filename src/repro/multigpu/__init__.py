"""Secure multi-GPU substrate: NVLink-class peer links, counter-mode
secure channels with naive vs batched metadata management, and timed
collectives (the scaling direction of paper Sec. VIII)."""

from .collectives import (
    RING_REDUCE_NS_PER_BYTE,
    CollectiveResult,
    best_all_reduce,
    broadcast,
    hierarchical_all_reduce,
    ring_all_reduce,
    tree_all_reduce,
)
from .links import (
    AuthFailure,
    LinkSecurity,
    LinkSpec,
    MultiGPUNode,
    ReplayError,
    SecureChannel,
    effective_bandwidth_gbps,
    transfer_time_ns,
)
from .session import SessionStats, run_ring_all_reduce, wire_bytes

__all__ = [
    "AuthFailure",
    "CollectiveResult",
    "LinkSecurity",
    "LinkSpec",
    "MultiGPUNode",
    "RING_REDUCE_NS_PER_BYTE",
    "ReplayError",
    "SecureChannel",
    "SessionStats",
    "best_all_reduce",
    "broadcast",
    "effective_bandwidth_gbps",
    "hierarchical_all_reduce",
    "ring_all_reduce",
    "run_ring_all_reduce",
    "transfer_time_ns",
    "tree_all_reduce",
    "wire_bytes",
]
