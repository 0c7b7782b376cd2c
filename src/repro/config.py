"""System configuration (paper Table I) and simulator parameters.

Every latency/bandwidth knob of the simulated CC stack lives here, as a
tree of frozen dataclasses rooted at :class:`SystemConfig`.  Defaults
encode the paper's testbed (Table I: dual EMR Xeon 6530, 1 TB DDR5,
H100 NVL 94 GB over PCIe 5.0 x16, TDX 1.5, Ubuntu 22.04) together with
calibrated micro-parameters chosen so the simulator lands on the
paper's reported overhead ratios (see repro.calibration for the
targets and EXPERIMENTS.md for achieved values).

Use :func:`SystemConfig.base` / :func:`SystemConfig.cc` for the two
modes the paper compares, or ``dataclasses.replace`` to build ablation
variants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import units
from .crypto import throughput as crypto_throughput
from .faults.plan import FaultModelSpec, FaultPlan
from .faults.retry import RetryPolicy


class CCMode(Enum):
    """Computation modes compared throughout the paper."""

    OFF = "base"  # regular VM (paper: base / non-CC / CC-off)
    ON = "cc"  # trust domain with GPU in CC mode


class MemoryKind(Enum):
    """Host/device memory kinds relevant to transfer behaviour."""

    PAGEABLE = "pageable"
    PINNED = "pinned"
    MANAGED = "managed"  # UVM (cudaMallocManaged)
    DEVICE = "device"


class CopyKind(Enum):
    """Direction of a memory copy."""

    H2D = "h2d"
    D2H = "d2h"
    D2D = "d2d"


@dataclass(frozen=True)
class CPUSpec:
    """CPU package (Table I: 2x 5th Gen Xeon 6530 Gold @ 2.1 GHz)."""

    name: str = "Intel Xeon Gold 6530 (Emerald Rapids)"
    crypto_cpu: str = crypto_throughput.EMR
    cores: int = 32
    sockets: int = 2
    freq_ghz: float = 2.1
    # Single-thread staging-copy bandwidth (bytes/s): pageable copies
    # stage through write-combined driver buffers, well below raw
    # stream-copy speed.
    memcpy_bw: float = 13.5 * units.GB
    # Multiplicative tax on plain CPU work inside a TD (TME-MK decrypt on
    # LLC misses, extra TLB pressure).  Small by design (Sec. II-A).
    td_compute_tax: float = 1.04


@dataclass(frozen=True)
class PCIeSpec:
    """PCIe 5.0 x16 link between CPU socket and the GPU."""

    generation: int = 5
    lanes: int = 16
    # Effective (measured-class, not theoretical) DMA bandwidths.
    dma_h2d_bw: float = 26.0 * units.GB
    dma_d2h_bw: float = 24.0 * units.GB
    # Fixed DMA transaction setup latency per descriptor.
    dma_setup_ns: int = units.us(4.0)
    # Staging chunk size used by the driver for pageable/bounce pipelines.
    staging_chunk_bytes: int = 1 * units.MiB


@dataclass(frozen=True)
class GPUSpec:
    """NVIDIA H100 NVL 94 GB (Table I)."""

    name: str = "NVIDIA H100 NVL 94GB"
    num_sms: int = 132
    hbm_bytes: int = 94 * units.GiB
    hbm_bw: float = 3900.0 * units.GB  # HBM3
    # Dense peak throughputs (FLOP/s).
    fp32_flops: float = 60.0e12
    fp16_tensor_flops: float = 990.0e12
    bf16_tensor_flops: float = 990.0e12
    int8_tensor_flops: float = 1980.0e12
    # Achievable fraction of peak for real kernels (roofline efficiency).
    default_efficiency: float = 0.45
    # Fixed per-kernel execution overhead (scheduling, tail effects).
    kernel_fixed_ns: int = units.us(1.8)
    num_copy_engines: int = 3  # H2D, D2H, and one extra async engine
    max_concurrent_kernels: int = 32


@dataclass(frozen=True)
class TDXSpec:
    """Intel TDX 1.5 cost model (Sec. II-A, Fig. 8).

    ``hypercall_ns`` is the cost of a plain VM exit in a regular VM;
    ``td_hypercall_ns`` is a tdx_hypercall (TD -> TDX module -> host ->
    back), calibrated to the +470 % increase the paper cites from the
    SIGMETRICS '25 CVM study [16].
    """

    hypercall_ns: int = units.us(1.3)
    td_hypercall_ns: int = units.us(7.4)  # = 1.3us * 5.7 (+470 %)
    # set_memory_decrypted(): private->shared conversion, per 4 KiB page
    # (EPT permission flip + TLB shootdown, amortized).
    page_convert_ns: int = units.us(2.1)
    page_size: int = 4 * units.KiB
    # swiotlb bounce-buffer pool for DMA to/from the untrusted world.
    bounce_pool_bytes: int = 64 * units.MiB
    # Per-staging-chunk bounce bookkeeping during CC transfers (slot
    # recycling, scatter-gather setup, completion polling); this is why
    # the observed CC peak (3.03 GB/s) sits below the raw AES-GCM rate
    # (3.36 GB/s) — Sec. VI-A.
    bounce_chunk_overhead_ns: int = units.us(30.0)
    # Cipher used for PCIe traffic under CC (Sec. II-A: AES-GCM via
    # OpenSSL+AES-NI; single worker thread).
    transfer_cipher: str = crypto_throughput.DEFAULT_TRANSFER_CIPHER
    crypto_threads: int = 1
    # TEE-IO / TDX Connect what-if (Sec. VI-A: "TEE-IO technology
    # offers a potential solution... requires hardware replacement").
    # With PCIe IDE link encryption and trusted DMA, transfers skip the
    # bounce buffer and software AES-GCM entirely; the link pays a
    # small inline-encryption efficiency tax instead.
    teeio: bool = False
    teeio_link_efficiency: float = 0.94
    # Per-transfer TDISP/IOMMU validation cost under TEE-IO.
    teeio_setup_ns: int = units.us(2.5)


@dataclass(frozen=True)
class LaunchPathSpec:
    """CUDA kernel launch cost model (Sec. VI-B, Fig. 7a/8/11a/12a).

    The steady-state launch is a user-space pushbuffer write plus a
    doorbell; CC adds encryption/authentication of the command packet
    and occasional hypercall-mediated driver work.  The *first* launch
    of a kernel additionally loads the module and, under CC, allocates
    and converts bounce pages (dma_direct_alloc + set_memory_decrypted
    — the dominant frames in the paper's Fig. 8 flame graph).
    """

    klo_base_ns: int = units.us(4.4)
    # Extra steady-state CC work per launch (command packet AES-GCM,
    # shared-memory ring maintenance).
    klo_cc_extra_ns: int = units.us(0.3)
    # Every launch performs this many MMIO doorbell/register touches
    # that stay user-space in base mode but are cheap shared-page writes
    # under CC as well; only a fraction escalate to hypercalls.
    hypercalls_per_launch: float = 0.03
    # First-launch extras per kernel module (module load / JIT /
    # channel setup).
    first_launch_extra_ns: int = units.us(96.0)
    # DMA-capable pages the driver allocates+converts per kernel module
    # on its first launch under CC (the dma_direct_alloc +
    # set_memory_decrypted frames of Fig. 8).  Scales with module code
    # size: kernels can override via attrs["module_pages"].  The
    # default keeps ordinary first launches ~1.45x under CC; fat
    # templated modules (dwt2d's fdwt53/97) use ~200 pages, which
    # reproduces its 5.31x KLO blowup.
    first_launch_bounce_pages: int = 8
    # Lognormal jitter applied to each launch duration.
    jitter_sigma: float = 0.14
    # GPU-side launch queue depth (credits before the CPU blocks) —
    # the pushbuffer throttle that creates LQT backpressure for
    # launch-storm apps like sc/3dconv.
    launch_queue_depth: int = 64
    # CPU-side gap between consecutive launches from app code (loop
    # bookkeeping, argument marshalling).
    inter_launch_cpu_ns: int = units.us(1.9)
    # cudaDeviceSynchronize overhead beyond the wait itself; CC pays an
    # extra interrupt/doorbell round trip.
    sync_base_ns: int = units.us(2.2)
    sync_cc_extra_ns: int = units.us(3.8)
    # CUDA-graph costs (Sec. VII-A: launch fusion via cudaGraph).
    graph_capture_per_node_ns: int = units.us(6.5)
    graph_instantiate_base_ns: int = units.us(35.0)
    graph_launch_base_ns: int = units.us(7.0)
    graph_launch_per_node_ns: int = units.ns(320)


@dataclass(frozen=True)
class CommandProcessorSpec:
    """GPU command processor / channel model (Sec. II-A, KQT in Fig. 7c).

    Every command pays a fetch/dispatch latency; under CC the command
    processor additionally authenticates and decrypts the command
    packet, a fixed tax that dominates KQT for apps with few launches
    (Observation 4).
    """

    fetch_ns: int = units.us(1.6)
    cc_auth_extra_ns: int = units.us(3.1)


@dataclass(frozen=True)
class AllocSpec:
    """Memory management cost model (Fig. 6).

    Costs are ``base + per_page * pages`` with separate (base, CC)
    calibrations.  CC factors are dominated by hypercall-mediated ioctls
    and TDX page accept/convert work; see DESIGN.md Sec. 4 for targets.
    """

    # cudaMalloc (device memory)
    dmalloc_base_ns: int = units.us(72.0)
    dmalloc_per_page_ns: float = 14.0
    dmalloc_cc_base_ns: int = units.us(405.0)
    dmalloc_cc_per_page_ns: float = 80.0
    # cudaMallocHost (pinned host memory)
    hmalloc_base_ns: int = units.us(118.0)
    hmalloc_per_page_ns: float = 190.0
    hmalloc_cc_base_ns: int = units.us(670.0)
    hmalloc_cc_per_page_ns: float = 1090.0
    # cudaFree (device memory)
    free_base_ns: int = units.us(46.0)
    free_per_page_ns: float = 11.0
    free_cc_base_ns: int = units.us(485.0)
    free_cc_per_page_ns: float = 116.0
    # cudaMallocManaged (UVM)
    managed_alloc_base_ns: int = units.us(36.5)
    managed_alloc_per_page_ns: float = 7.2
    managed_alloc_cc_base_ns: int = units.us(198.0)
    managed_alloc_cc_per_page_ns: float = 14.2
    # cudaFree of managed memory
    managed_free_base_ns: int = units.us(144.0)
    managed_free_per_page_ns: float = 34.5
    managed_free_cc_base_ns: int = units.us(482.0)
    managed_free_cc_per_page_ns: float = 200.0


@dataclass(frozen=True)
class UVMSpec:
    """Unified Virtual Memory / GMMU model (Sec. II-B, Fig. 9).

    Far faults are serviced by the CPU-side UVM driver in 20-50 us; the
    driver batches faults and prefetches up to a VA-block.  Under CC,
    migrated pages must round-trip through the bounce buffer with
    AES-GCM ("encrypted paging", Observation 3/5), and fault handling
    is hypercall-mediated, which also defeats large-batch prefetching.
    """

    os_page_bytes: int = 4 * units.KiB
    migration_chunk_bytes: int = 64 * units.KiB  # basic migration unit
    va_block_bytes: int = 2 * units.MiB  # prefetch ceiling
    fault_service_ns: int = units.us(25.0)  # paper: 20-50 us
    fault_batch_pages: int = 256
    prefetch_enabled: bool = True
    # Effective migration bandwidth cap in base mode (prefetched
    # streams run close to PCIe speed).
    migration_bw: float = 20.0 * units.GB
    # Fraction of base-mode migration time that actually stalls the
    # kernel: prefetching and warp-level parallelism hide the rest
    # under execution.  CC encrypted paging is fully serialized (the
    # CPU-side crypto worker is on the critical path), so CC stalls
    # are not discounted.
    stall_fraction: float = 0.45
    # Under CC, each migrated chunk is limited to this many bytes
    # (bounce-buffer slots are scarce and per-chunk hypercalls dominate).
    cc_migration_chunk_bytes: int = 32 * units.KiB
    cc_extra_fault_hypercalls: int = 2
    # Device-memory budget for managed allocations; None means the full
    # GPU HBM.  Set lower to study oversubscription: once resident
    # managed data exceeds it, LRU allocations are written back to the
    # host, and the resulting thrash under CC encrypted paging is what
    # produces five-orders-of-magnitude KET blowups (the regime of the
    # paper's 164030x 2dconv datapoint).
    oversubscription_budget_bytes: Optional[int] = None


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated platform: Table I plus all cost models."""

    cc: CCMode = CCMode.OFF
    cpu: CPUSpec = field(default_factory=CPUSpec)
    pcie: PCIeSpec = field(default_factory=PCIeSpec)
    gpu: GPUSpec = field(default_factory=GPUSpec)
    tdx: TDXSpec = field(default_factory=TDXSpec)
    launch: LaunchPathSpec = field(default_factory=LaunchPathSpec)
    command: CommandProcessorSpec = field(default_factory=CommandProcessorSpec)
    alloc: AllocSpec = field(default_factory=AllocSpec)
    uvm: UVMSpec = field(default_factory=UVMSpec)
    # VM/TD resources (Sec. IV: 64 GB, pinned to NUMA node 0, 16 cores).
    vm_memory_bytes: int = 64 * units.GiB
    vm_cores: int = 16
    seed: int = 20250706
    # Fault injection and recovery (repro.faults).  The default plan is
    # empty: no injection, no RNG draws, bit-identical traces.
    faults: FaultPlan = field(default_factory=FaultPlan.none)
    fault_model: FaultModelSpec = field(default_factory=FaultModelSpec)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def cc_on(self) -> bool:
        return self.cc is CCMode.ON

    @staticmethod
    def base(**overrides) -> "SystemConfig":
        """The paper's non-CC setup: regular VM with GPU passthrough."""
        return SystemConfig(cc=CCMode.OFF, **overrides)

    @staticmethod
    def confidential(**overrides) -> "SystemConfig":
        """The paper's CC setup: TD with the GPU in CC mode."""
        return SystemConfig(cc=CCMode.ON, **overrides)

    def replace(self, **changes) -> "SystemConfig":
        """Functional update (alias for dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Sanity-check the configuration; raises ValueError on
        nonsensical parameters.  Called by Machine at boot so ablation
        scripts fail fast instead of producing garbage timings."""
        problems = []
        if self.tdx.td_hypercall_ns < self.tdx.hypercall_ns:
            problems.append("td_hypercall_ns below plain VM-exit cost")
        for name, value in (
            ("cpu.memcpy_bw", self.cpu.memcpy_bw),
            ("pcie.dma_h2d_bw", self.pcie.dma_h2d_bw),
            ("pcie.dma_d2h_bw", self.pcie.dma_d2h_bw),
            ("gpu.hbm_bw", self.gpu.hbm_bw),
            ("gpu.fp32_flops", self.gpu.fp32_flops),
            ("uvm.migration_bw", self.uvm.migration_bw),
        ):
            if value <= 0:
                problems.append(f"{name} must be positive")
        if not 0 < self.gpu.default_efficiency <= 1:
            problems.append("gpu.default_efficiency must be in (0, 1]")
        if not 0 <= self.uvm.stall_fraction <= 1:
            problems.append("uvm.stall_fraction must be in [0, 1]")
        if self.pcie.staging_chunk_bytes <= 0:
            problems.append("pcie.staging_chunk_bytes must be positive")
        if self.uvm.cc_migration_chunk_bytes < self.uvm.os_page_bytes:
            problems.append("cc_migration_chunk_bytes below one OS page")
        if self.launch.launch_queue_depth < 1:
            problems.append("launch_queue_depth must be >= 1")
        if not 0 < self.tdx.teeio_link_efficiency <= 1:
            problems.append("teeio_link_efficiency must be in (0, 1]")
        if self.vm_memory_bytes <= 0 or self.gpu.hbm_bytes <= 0:
            problems.append("memory capacities must be positive")
        for sub in (self.faults, self.fault_model, self.retry):
            try:
                sub.validate()
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ValueError("invalid SystemConfig: " + "; ".join(problems))

    # -- frequently used derived costs ------------------------------------

    def hypercall_ns(self) -> int:
        """Cost of one guest->host transition in the current mode."""
        return self.tdx.td_hypercall_ns if self.cc_on else self.tdx.hypercall_ns


def resolve_system_configs(
    cc: bool = False,
    teeio: bool = False,
    seed: Optional[int] = None,
    fault_plan: str = "",
    fault_rate: Optional[float] = None,
) -> SystemConfig:
    """Resolve user-facing mode flags into one :class:`SystemConfig`.

    This is the single config-resolution path shared by ``repro run``
    and ``repro check`` (and anything else that accepts the CC-mode
    flag set): both CLIs route through here, so a flag added to one
    cannot silently change the other's meaning and make committed
    golden snapshots unreproducible locally.  Raises ValueError on
    conflicting or malformed inputs.
    """
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    if teeio:
        config = config.replace(tdx=dataclasses.replace(config.tdx, teeio=True))
    if seed is not None:
        config = config.replace(seed=seed)
    if fault_plan and fault_rate is not None:
        raise ValueError("--fault-plan and --fault-rate are mutually exclusive")
    if fault_plan:
        try:
            config = config.replace(faults=FaultPlan.load(fault_plan))
        except (OSError, ValueError) as exc:
            raise ValueError(f"--fault-plan: {exc}") from exc
    elif fault_rate is not None:
        plan = FaultPlan.uniform(fault_rate)
        try:
            plan.validate()
        except ValueError as exc:
            raise ValueError(f"--fault-rate: {exc}") from exc
        config = config.replace(faults=plan)
    return config


def grid_system_configs() -> "tuple[SystemConfig, SystemConfig]":
    """The canonical (base, cc) config pair the figure grid runs under.

    Everything that fingerprints or reproduces grid results — the
    result cache (:mod:`repro.exec.fingerprint`), golden snapshots and
    perf baselines (:mod:`repro.check`) — must derive its config hash
    from this pair, never from ad-hoc ``SystemConfig`` constructions.
    """
    return resolve_system_configs(cc=False), resolve_system_configs(cc=True)
