"""Transfer-cost pipelines for explicit memory copies (paper Sec. VI-A).

The driver moves data in staging chunks; total time is the classic
two-stage pipeline fill + steady state.  The stage structure differs by
mode and memory kind:

* base + pinned:      DMA only (no staging) — the fast path.
* base + pageable:    CPU staging memcpy || DMA.
* CC   (any host mem): software AES-GCM into the bounce buffer || DMA,
  plus hypercall-mediated setup.  Pinned memory degenerates to the same
  bounce path (Observation 1), with UVM-style bookkeeping making it a
  hair slower on setup but identical in steady state.

The achieved-bandwidth curves this produces reproduce Fig. 4a: a large
pinned/pageable gap in base mode that *disappears* under CC, with CC
peak throughput capped just below the AES-GCM single-core rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig


@dataclass(frozen=True)
class TransferPlan:
    """Cost breakdown of one explicit copy."""

    total_ns: int  # wall-clock duration of the blocking operation
    cpu_ns: int  # CPU-resident portion (staging copies / crypto)
    dma_ns: int  # engine-resident portion
    setup_ns: int  # fixed setup (descriptors, hypercalls)
    hypercalls: int
    managed_label: bool  # Nsight would label this copy Managed/D2D

    def attribution(self, start_ns: int, cc_on: bool):
        """Per-stage span rows ``(name, layer, start, dur, attrs)``.

        The plan's stages overlap in the chunked pipeline; rows are
        laid out as setup at the front, the CPU-resident stage right
        after it, and the DMA stage flush with the end, all inside
        ``[start_ns, start_ns + total_ns)`` — wall-clock faithful at
        the edges, overlapping in the middle like the real pipeline.
        Shifting ``start_ns`` shifts every row and changes nothing
        else, so a runtime lays the rows out once, at 0.
        """
        end_ns = start_ns + self.total_ns
        rows = []
        if self.setup_ns:
            rows.append(
                ("memcpy.setup", "driver", start_ns, self.setup_ns, {})
            )
        if self.cpu_ns:
            name = "memcpy.encrypt" if cc_on else "memcpy.staging"
            rows.append(
                (
                    name,
                    "td" if cc_on else "driver",
                    start_ns + self.setup_ns,
                    min(self.cpu_ns, self.total_ns - self.setup_ns),
                    {"crypto": True} if cc_on else {},
                )
            )
        if self.dma_ns:
            dma = min(self.dma_ns, self.total_ns)
            rows.append(("memcpy.dma", "dma", end_ns - dma, dma, {}))
        return rows


def _pipeline_ns(stage_a_ns: int, stage_b_ns: int, chunks: int) -> int:
    """Two-stage chunked pipeline: fill + bottleneck steady state."""
    if chunks <= 0:
        return 0
    return stage_a_ns + stage_b_ns + (chunks - 1) * max(stage_a_ns, stage_b_ns)


def plan_copy(
    config: SystemConfig,
    copy_kind: CopyKind,
    size: int,
    memory: MemoryKind,
    cold: bool = True,
) -> TransferPlan:
    """Compute the cost of a blocking cudaMemcpy.

    ``cold`` matters only for CC copies on pinned/managed memory: those
    are UVM-backed (Observation 1), so a first-touch copy pays
    fault-ramp service on top of the encrypt+DMA pipeline.  Bandwidth
    microbenchmarks loop over a warmed buffer (``cold=False``), which
    is why Fig. 4a still shows ~3 GB/s while application copies
    (Fig. 5) are hit far harder — up to ~20x for 2dconv.

    The plan is a function of the arguments alone (``config`` is
    frozen), so a runtime plans each distinct copy once.
    """
    if size <= 0:
        return TransferPlan(0, 0, 0, 0, 0, False)
    if copy_kind is CopyKind.D2D:
        return _plan_d2d(config, size)
    if config.cc_on:
        if config.tdx.teeio:
            return _plan_teeio_host_copy(config, copy_kind, size, memory)
        return _plan_cc_host_copy(config, copy_kind, size, memory, cold)
    return _plan_base_host_copy(config, copy_kind, size, memory)


def _plan_teeio_host_copy(
    config: SystemConfig, copy_kind: CopyKind, size: int, memory: MemoryKind
) -> TransferPlan:
    """TEE-IO / TDX-Connect what-if (Sec. VI-A): the device is a
    trusted DMA agent, so no bounce buffer and no software crypto —
    PCIe IDE encrypts inline at a small link-efficiency cost.  Pinned
    memory works natively again; pageable still stages through the CPU.
    """
    base = _plan_base_host_copy(config, copy_kind, size, memory)
    ide_scale = 1.0 / config.tdx.teeio_link_efficiency
    return TransferPlan(
        total_ns=int(base.total_ns * ide_scale) + config.tdx.teeio_setup_ns,
        cpu_ns=base.cpu_ns,
        dma_ns=int(base.dma_ns * ide_scale),
        setup_ns=base.setup_ns + config.tdx.teeio_setup_ns,
        hypercalls=0,
        managed_label=False,
    )


def _plan_d2d(config: SystemConfig, size: int) -> TransferPlan:
    # On-device copy: read + write through HBM; CC does not encrypt HBM
    # (Sec. III), so this is mode-independent.
    dma = units.transfer_time_ns(2 * size, config.gpu.hbm_bw)
    setup = units.us(3.0)
    return TransferPlan(setup + dma, 0, dma, setup, 0, False)


def _dma_bw(config: SystemConfig, copy_kind: CopyKind) -> float:
    return (
        config.pcie.dma_h2d_bw
        if copy_kind is CopyKind.H2D
        else config.pcie.dma_d2h_bw
    )


def _plan_base_host_copy(
    config: SystemConfig, copy_kind: CopyKind, size: int, memory: MemoryKind
) -> TransferPlan:
    setup = config.pcie.dma_setup_ns
    bw = _dma_bw(config, copy_kind)
    if memory is MemoryKind.PINNED:
        dma = units.transfer_time_ns(size, bw)
        return TransferPlan(setup + dma, 0, dma, setup, 0, False)
    # Pageable: staging memcpy pipelined with DMA.
    chunk = min(config.pcie.staging_chunk_bytes, size)
    chunks = units.pages(size, chunk)
    stage = units.transfer_time_ns(chunk, config.cpu.memcpy_bw)
    dma = units.transfer_time_ns(chunk, bw)
    total = setup + _pipeline_ns(stage, dma, chunks)
    return TransferPlan(
        total,
        cpu_ns=stage * chunks,
        dma_ns=dma * chunks,
        setup_ns=setup,
        hypercalls=0,
        managed_label=False,
    )


def _cc_fault_ramp_ns(
    config: SystemConfig, copy_kind: CopyKind, size: int
) -> int:
    """First-touch fault service for CC UVM-backed (pinned) copies.

    H2D migrations are GPU-fault driven: the prefetcher ramps inside
    each 2 MiB VA block, costing ~5 service round trips per block.
    D2H migrations are CPU-fault driven with only readahead-sized
    batching (one service per 64 KiB) — which is why cold D2H managed
    copies are the worst case in Fig. 5.
    Each CC fault service includes the hypercall round trips.
    """
    uvm = config.uvm
    if copy_kind is CopyKind.H2D:
        # GPU-fault driven; two hypercalls per service round trip.
        per_fault = uvm.fault_service_ns + 2 * config.tdx.td_hypercall_ns
        blocks = units.pages(size, uvm.va_block_bytes)
        ramp_per_block = 5  # 64K -> 128K -> 256K ... -> 2M
        faults = blocks * ramp_per_block
    else:
        # CPU-fault driven (#VE on first access + mapgpa + completion):
        # three guest exits per readahead window.
        per_fault = uvm.fault_service_ns + 3 * config.tdx.td_hypercall_ns
        readahead = 48 * units.KiB
        faults = units.pages(size, readahead)
    return faults * per_fault


def _plan_cc_host_copy(
    config: SystemConfig,
    copy_kind: CopyKind,
    size: int,
    memory: MemoryKind,
    cold: bool,
) -> TransferPlan:
    """The five-step CC copy (Sec. VI-A): prepare in private memory,
    software-encrypt into the bounce buffer, DMA, decrypt on the far
    side (GPU copy-engine hardware, not the bottleneck)."""
    chunk = min(config.pcie.staging_chunk_bytes, size)
    chunks = units.pages(size, chunk)
    # Per-chunk CPU stage: AES-GCM plus bounce-slot bookkeeping (scaled
    # to chunk size so small copies are not overcharged).
    bounce_overhead = int(
        config.tdx.bounce_chunk_overhead_ns
        * min(1.0, chunk / config.pcie.staging_chunk_bytes)
    )
    crypto = config.crypt_time_ns(chunk) + bounce_overhead
    dma = units.transfer_time_ns(chunk, _dma_bw(config, copy_kind))
    hypercalls = 3  # map + doorbell + completion are host-mediated
    setup = config.pcie.dma_setup_ns + hypercalls * config.hypercall_ns()
    # "Pinned" memory under CC is UVM-backed (Observation 1): same bounce
    # pipeline, plus per-copy UVM bookkeeping; Nsight labels it Managed.
    managed_label = memory in (MemoryKind.PINNED, MemoryKind.MANAGED)
    fault_ramp = 0
    if managed_label:
        setup += units.us(6.0)  # VA-block lookup + residency update
        if cold:
            fault_ramp = _cc_fault_ramp_ns(config, copy_kind, size)
    total = setup + fault_ramp + _pipeline_ns(crypto, dma, chunks)
    return TransferPlan(
        total,
        cpu_ns=crypto * chunks,
        dma_ns=dma * chunks,
        setup_ns=setup,
        hypercalls=hypercalls,
        managed_label=managed_label,
    )


def achieved_bandwidth_gbps(plan: TransferPlan, size: int) -> float:
    return units.bandwidth_gb_per_sec(size, plan.total_ns)
