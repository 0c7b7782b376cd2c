"""Collective operations over the multi-GPU node, timed under the
three link-security policies.

Ring all-reduce is the workhorse of multi-GPU training: 2(N-1) steps,
each moving size/N per link, with all links active concurrently.  The
security tax therefore multiplies against the busiest phase of
distributed training — the scaling concern paper Sec. VIII points at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import units
from .links import LinkSecurity, MultiGPUNode, transfer_time_ns

# Element-wise reduction throughput of the ring reduce-scatter half
# (~1.5 TB/s of HBM-bound adds); shared with the executable collective
# path in :mod:`repro.multigpu.session` so both agree to the nanosecond.
RING_REDUCE_NS_PER_BYTE: float = 1.0 / (1500.0 * units.GB) * units.NS_PER_SEC


@dataclass(frozen=True)
class CollectiveResult:
    operation: str
    num_gpus: int
    size_bytes: int
    security: LinkSecurity
    time_ns: int

    @property
    def algo_bandwidth_gbps(self) -> float:
        """Algorithm bandwidth: payload bytes / time."""
        return units.bandwidth_gb_per_sec(self.size_bytes, self.time_ns)


def ring_all_reduce(
    node: MultiGPUNode,
    size_bytes: int,
    security: LinkSecurity,
    reduce_ns_per_byte: float = RING_REDUCE_NS_PER_BYTE,
) -> CollectiveResult:
    """Ring all-reduce of ``size_bytes`` per GPU.

    2(N-1) steps; each step every GPU sends/receives size/N bytes on
    its ring links simultaneously, and the reduce-scatter half also
    pays an element-wise reduction over the received chunk.
    """
    n = node.num_gpus
    chunk = max(1, size_bytes // n)
    step_transfer = transfer_time_ns(node.link, chunk, security)
    reduce_step = int(chunk * reduce_ns_per_byte)
    reduce_scatter = (n - 1) * (step_transfer + reduce_step)
    all_gather = (n - 1) * step_transfer
    return CollectiveResult(
        "all_reduce", n, size_bytes, security, reduce_scatter + all_gather
    )


def broadcast(
    node: MultiGPUNode, size_bytes: int, security: LinkSecurity
) -> CollectiveResult:
    """Binary-tree broadcast from GPU 0: ceil(log2 N) pipelined hops."""
    hops = max(1, (node.num_gpus - 1).bit_length())
    time = hops * transfer_time_ns(node.link, size_bytes, security)
    return CollectiveResult("broadcast", node.num_gpus, size_bytes, security, time)


def tree_all_reduce(
    node: MultiGPUNode,
    size_bytes: int,
    security: LinkSecurity,
    reduce_ns_per_byte: float = RING_REDUCE_NS_PER_BYTE,
) -> CollectiveResult:
    """Binary-tree all-reduce: reduce up the tree, broadcast down.

    Latency-optimal (2·log2 N hops of the full payload) but moves N×
    more bytes per link than the ring — the classic small-message /
    large-message tradeoff :func:`best_all_reduce` picks between.
    """
    hops = max(1, (node.num_gpus - 1).bit_length())
    step = transfer_time_ns(node.link, size_bytes, security)
    reduce_step = int(size_bytes * reduce_ns_per_byte)
    return CollectiveResult(
        "tree_all_reduce",
        node.num_gpus,
        size_bytes,
        security,
        hops * (step + reduce_step) + hops * step,
    )


def best_all_reduce(
    node: MultiGPUNode, size_bytes: int, security: LinkSecurity
) -> CollectiveResult:
    """Pick ring vs tree per message size (as NCCL's tuner would)."""
    ring = ring_all_reduce(node, size_bytes, security)
    tree = tree_all_reduce(node, size_bytes, security)
    return ring if ring.time_ns <= tree.time_ns else tree


def hierarchical_all_reduce(
    config,
    num_islands: int,
    island_size: int,
    size_bytes: int,
    security: LinkSecurity,
    link: "LinkSpec" = None,
) -> CollectiveResult:
    """All-reduce over NVLink islands bridged by PCIe (the H100 *NVL*
    topology of the paper's own testbed: GPUs are NVLink-paired, pairs
    talk over PCIe through the CPU).

    Three phases: intra-island ring reduce-scatter, inter-island ring
    over island leaders across PCIe, intra-island all-gather.  The
    PCIe hop is where this meets the main paper: under CC it routes
    through the bounce buffer with software AES-GCM (a D2H + H2D pair
    per transfer), so the cross-island phase inherits the full CC
    transfer tax — unless ``config.tdx.teeio`` is set.
    """
    from ..config import CopyKind, MemoryKind
    from ..cuda.transfers import plan_copy
    from .links import LinkSpec as _LinkSpec

    link = link or _LinkSpec()
    island = MultiGPUNode(num_gpus=island_size, link=link)

    def pcie_hop_ns(bytes_: int) -> int:
        """GPU -> CPU -> GPU across the PCIe bridge."""
        d2h = plan_copy(
            config, CopyKind.D2H, bytes_, MemoryKind.PINNED, cold=False
        )
        h2d = plan_copy(
            config, CopyKind.H2D, bytes_, MemoryKind.PINNED, cold=False
        )
        return d2h.total_ns + h2d.total_ns

    # Phase 1: intra-island reduce-scatter (ring halves of all_reduce).
    intra = ring_all_reduce(island, size_bytes, security)
    reduce_scatter_ns = intra.time_ns // 2
    all_gather_ns = intra.time_ns - reduce_scatter_ns
    # Phase 2: leaders exchange their shard over PCIe: ring of
    # num_islands leaders, 2(k-1) steps of (size/island_size)/k bytes.
    shard = max(1, size_bytes // island_size)
    if num_islands > 1:
        chunk = max(1, shard // num_islands)
        inter_ns = 2 * (num_islands - 1) * pcie_hop_ns(chunk)
    else:
        inter_ns = 0
    total = reduce_scatter_ns + inter_ns + all_gather_ns
    return CollectiveResult(
        "hierarchical_all_reduce",
        num_islands * island_size,
        size_bytes,
        security,
        total,
    )
