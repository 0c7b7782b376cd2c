"""Microbenchmarks from Sec. VI-A and VII-A (Listings 1 and 2).

* :func:`bandwidth_sweep` — the Fig. 4a PCIe bandwidth test
  (64 B - 1 GB, pageable/pinned, base/cc), warmed-buffer methodology.
* :func:`launch_sequence` — Fig. 12a: two nanosleep kernels launched
  100x each back-to-back; per-launch KLO vs launch index.
* :func:`fusion_sweep` — Fig. 12b: fixed total KET progressively fused
  into fewer launches; KLO and LQT totals follow different trends.
* :func:`overlap_experiment` — Fig. 12c / Listing 2: data transfer
  overlapped with compute across N streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..cuda import CudaRuntime, run_app
from ..cuda.transfers import achieved_bandwidth_gbps, plan_copy
from ..gpu import nanosleep_kernel

# Default size grid of Fig. 4a: 64 B to 1 GB in powers of 4.
DEFAULT_SIZES = [64 * (4 ** i) for i in range(13)]  # 64 B ... 1 GiB


@dataclass(frozen=True)
class BandwidthPoint:
    size_bytes: int
    memory: MemoryKind
    copy_kind: CopyKind
    cc: bool
    gbps: float


def bandwidth_sweep(
    sizes: Optional[Sequence[int]] = None,
    kinds: Sequence[CopyKind] = (CopyKind.H2D, CopyKind.D2H),
) -> List[BandwidthPoint]:
    """Achieved copy bandwidth over transfer size (Fig. 4a)."""
    sizes = list(sizes) if sizes is not None else DEFAULT_SIZES
    points: List[BandwidthPoint] = []
    for cc in (False, True):
        config = SystemConfig.confidential() if cc else SystemConfig.base()
        for memory in (MemoryKind.PAGEABLE, MemoryKind.PINNED):
            for copy_kind in kinds:
                for size in sizes:
                    plan = plan_copy(
                        config, copy_kind, size, memory, cold=False
                    )
                    points.append(
                        BandwidthPoint(
                            size,
                            memory,
                            copy_kind,
                            cc,
                            achieved_bandwidth_gbps(plan, size),
                        )
                    )
    return points


# ---------------------------------------------------------------------------
# Listing 1 microbenchmark: fixed-duration nanosleep kernels
# ---------------------------------------------------------------------------


def launch_sequence_app(
    rt: CudaRuntime,
    launches_per_kernel: int = 100,
    ket_ns: int = units.ms(100),
    unroll: int = 1,
) -> Generator:
    """K0 x N back-to-back, then K1 x N (Fig. 12a methodology)."""
    k0 = nanosleep_kernel(ket_ns, name="microbench_k0", unroll=unroll)
    k1 = nanosleep_kernel(ket_ns, name="microbench_k1", unroll=unroll)
    for kernel in (k0, k1):
        for _ in range(launches_per_kernel):
            yield from rt.launch(kernel)
    yield from rt.synchronize()


def launch_sequence(
    config: SystemConfig,
    launches_per_kernel: int = 100,
    ket_ns: int = units.ms(100),
) -> List[int]:
    """Per-launch KLO (ns) in launch order."""
    trace, _ = run_app(
        launch_sequence_app,
        config,
        launches_per_kernel=launches_per_kernel,
        ket_ns=ket_ns,
    )
    return [e.duration_ns for e in trace.launches()]


# ---------------------------------------------------------------------------
# Fusion sweep (Fig. 12b)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionPoint:
    num_launches: int
    mean_klo_ns: float
    total_klo_ns: int
    total_lqt_ns: int
    end_to_end_ns: int


def fusion_sweep_app(rt: CudaRuntime, num_launches: int, total_ket_ns: int) -> Generator:
    """Total KET held constant, split across ``num_launches`` kernels."""
    per_kernel = max(1, total_ket_ns // num_launches)
    kernel = nanosleep_kernel(per_kernel, name=f"fused_{num_launches}")
    for _ in range(num_launches):
        yield from rt.launch(kernel)
    yield from rt.synchronize()


def fusion_sweep(
    config: SystemConfig,
    launch_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    total_ket_ns: int = units.ms(100),
) -> List[FusionPoint]:
    points = []
    for count in launch_counts:
        trace, _ = run_app(
            fusion_sweep_app, config, num_launches=count, total_ket_ns=total_ket_ns
        )
        launches = trace.launches()
        total_klo = sum(e.duration_ns for e in launches)
        total_lqt = sum(e.queue_ns for e in launches)
        points.append(
            FusionPoint(
                num_launches=count,
                mean_klo_ns=total_klo / len(launches),
                total_klo_ns=total_klo,
                total_lqt_ns=total_lqt,
                end_to_end_ns=trace.span_ns(),
            )
        )
    return points


# ---------------------------------------------------------------------------
# Overlap experiment (Fig. 12c / Listing 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapPoint:
    num_streams: int
    total_bytes: int
    ket_ns: int
    cc: bool
    end_to_end_ns: int
    serial_ns: int

    @property
    def overlap_speedup(self) -> float:
        return self.serial_ns / self.end_to_end_ns if self.end_to_end_ns else 0.0


def overlap_app(
    rt: CudaRuntime, num_streams: int, total_bytes: int, ket_ns: int
) -> Generator:
    """Listing 2: per-stream H2D copy + independent kernel."""
    per_stream = max(4096, total_bytes // num_streams)
    streams = [rt.create_stream() for _ in range(num_streams)]
    devs, hosts = [], []
    for _ in range(num_streams):
        dev = yield from rt.malloc(per_stream)
        host = yield from rt.malloc_host(per_stream)
        devs.append(dev)
        hosts.append(host)
    kernel_template = nanosleep_kernel(ket_ns, name="overlap_kernel")
    for index, stream in enumerate(streams):
        yield from rt.memcpy_async(devs[index], hosts[index], stream=stream)
        yield from rt.launch(kernel_template, stream=stream)
    yield from rt.synchronize()
    for buf in devs + hosts:
        yield from rt.free(buf)


def _serial_reference_app(
    rt: CudaRuntime, num_streams: int, total_bytes: int, ket_ns: int
) -> Generator:
    """Same work, one stream, blocking copies (alpha = 0 reference)."""
    per_stream = max(4096, total_bytes // num_streams)
    kernel = nanosleep_kernel(ket_ns, name="overlap_kernel")
    dev = yield from rt.malloc(per_stream)
    host = yield from rt.malloc_host(per_stream)
    for _ in range(num_streams):
        yield from rt.memcpy(dev, host)
        yield from rt.launch(kernel)
        yield from rt.synchronize()
    yield from rt.free(dev)
    yield from rt.free(host)


def _compute_phase_span(trace) -> int:
    """Span of transfer+kernel activity, excluding setup/teardown."""
    events = trace.kernels() + trace.memcpys()
    if not events:
        return 0
    return max(e.end_ns for e in events) - min(e.start_ns for e in events)


def overlap_experiment(
    config: SystemConfig,
    num_streams: int,
    total_bytes: int,
    ket_ns: int,
) -> OverlapPoint:
    trace, _ = run_app(
        overlap_app,
        config,
        num_streams=num_streams,
        total_bytes=total_bytes,
        ket_ns=ket_ns,
    )
    serial_trace, _ = run_app(
        _serial_reference_app,
        config,
        num_streams=num_streams,
        total_bytes=total_bytes,
        ket_ns=ket_ns,
    )
    return OverlapPoint(
        num_streams=num_streams,
        total_bytes=total_bytes,
        ket_ns=ket_ns,
        cc=config.cc_on,
        end_to_end_ns=_compute_phase_span(trace),
        serial_ns=_compute_phase_span(serial_trace),
    )
