"""Application catalogue modeled on the paper's benchmark suites
(Sec. VI-A: Rodinia, Polybench, UVMBench, GraphBIG, Tigr).

Each app encodes the *operation structure* of the original benchmark —
allocation sizes, explicit-copy pattern, number and duration of kernel
launches, synchronization points — which is what determines its CC
behaviour (launch counts for sc/3dconv/dwt2d are taken from the paper
directly).  Every app has an optional UVM variant that replaces
explicit copies with cudaMallocManaged + on-demand migration, used for
the Fig. 9 KET comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from .. import units
from ..cuda import CudaRuntime
from ..gpu import KernelSpec, elementwise_kernel, gemm_kernel

AppBuilder = Callable[[CudaRuntime, bool], Generator]


@dataclass(frozen=True)
class AppInfo:
    """Catalogue entry for one benchmark application."""

    name: str
    suite: str
    builder: AppBuilder
    supports_uvm: bool = True
    description: str = ""

    def app(self, uvm: bool = False):
        """Bind to an ``app(rt)`` callable for :func:`repro.cuda.run_app`."""
        if uvm and not self.supports_uvm:
            raise ValueError(f"{self.name} has no UVM variant")

        def bound(rt: CudaRuntime) -> Generator:
            return self.builder(rt, uvm)

        bound.__name__ = f"{self.name}{'_uvm' if uvm else ''}"
        return bound


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _alloc_inputs(
    rt: CudaRuntime, sizes: Sequence[int], uvm: bool, pinned: bool
) -> Generator:
    """Allocate one logical array per size and stage it to the GPU.

    Returns (device_or_managed buffers, host buffers or []).  In UVM
    mode nothing is copied — data migrates on first kernel touch.
    """
    if uvm:
        buffers = []
        for size in sizes:
            buf = yield from rt.malloc_managed(size)
            buffers.append(buf)
        return buffers, []
    devs, hosts = [], []
    for size in sizes:
        dev = yield from rt.malloc(size)
        if pinned:
            host = yield from rt.malloc_host(size)
        else:
            host = yield from rt.host_alloc(size)
        yield from rt.memcpy(dev, host)
        devs.append(dev)
        hosts.append(host)
    return devs, hosts


def _teardown(rt: CudaRuntime, buffers, hosts, readback: int = 0) -> Generator:
    """Copy a result back, then free everything (timed, Fig. 6)."""
    if readback and buffers and hosts:
        yield from rt.memcpy(hosts[-1], buffers[-1], min(readback, hosts[-1].size))
    for buf in buffers:
        yield from rt.free(buf)
    for host in hosts:
        yield from rt.free(host)


def _launch(
    rt: CudaRuntime,
    kernel: KernelSpec,
    uvm: bool,
    managed: Sequence[Tuple[object, int]] = (),
) -> Generator:
    return rt.launch(kernel, managed_touches=managed if uvm else ())


def _touch_all(buffers) -> List[Tuple[object, int]]:
    return [(buf, buf.size) for buf in buffers]


# ---------------------------------------------------------------------------
# Polybench-style applications
# ---------------------------------------------------------------------------


def _poly_gemm_chain(
    rt: CudaRuntime,
    uvm: bool,
    num_gemms: int,
    n: int,
    array_bytes: int,
    num_arrays: int,
) -> Generator:
    buffers, hosts = yield from _alloc_inputs(
        rt, [array_bytes] * num_arrays, uvm, pinned=False
    )
    for index in range(num_gemms):
        kernel = gemm_kernel(n, n, n, name=f"mm_kernel{index + 1}")
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=array_bytes)


def app_2mm(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench 2MM: two dependent GEMMs, sync-separated (the paper's
    minimal-KQT example that CC amplifies, Sec. VI-B)."""
    yield from _poly_gemm_chain(rt, uvm, 2, 1024, 4 * units.MiB, 5)


def app_3mm(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench 3MM: three GEMMs."""
    yield from _poly_gemm_chain(rt, uvm, 3, 1024, 4 * units.MiB, 7)


def _poly_matvec(rt: CudaRuntime, uvm: bool, name: str) -> Generator:
    n = 4096
    matrix = n * n * 4
    vec = n * 4
    buffers, hosts = yield from _alloc_inputs(
        rt, [matrix, vec, vec], uvm, pinned=False
    )
    for index in range(2):
        kernel = elementwise_kernel(
            n * n, flops_per_element=2.0, bytes_per_element=4,
            name=f"{name}_kernel{index + 1}",
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=vec)


def app_atax(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench ATAX: A^T(Ax), two short matvec kernels."""
    yield from _poly_matvec(rt, uvm, "atax")


def app_bicg(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench BiCG: two matvec-style kernels."""
    yield from _poly_matvec(rt, uvm, "bicg")


def app_corr(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench CORR: mean/std/center/corr kernels (4 launches)."""
    n = 2048
    data = n * n * 4
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=False)
    for name in ("mean_kernel", "std_kernel", "reduce_kernel", "corr_kernel"):
        kernel = elementwise_kernel(
            n * n, flops_per_element=4.0, bytes_per_element=8, name=name
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_gemm(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench GEMM: one large matmul."""
    n = 2048
    data = n * n * 4
    buffers, hosts = yield from _alloc_inputs(rt, [data] * 3, uvm, pinned=False)
    yield from _launch(
        rt, gemm_kernel(n, n, n, name="gemm_kernel"), uvm, _touch_all(buffers)
    )
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_gramschm(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench Gram-Schmidt: per-column iteration, 3 kernels each —
    data is GPU-resident across iterations, which is why its UVM CC
    slowdown is only ~1.08x (Sec. VI-B)."""
    n = 512
    data = n * n * 4
    columns = 128
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=False)
    for _ in range(columns):
        for name in ("gs_kernel1", "gs_kernel2", "gs_kernel3"):
            kernel = elementwise_kernel(
                n * 64, flops_per_element=6.0, bytes_per_element=8, name=name
            )
            yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_2dconv(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench 2DCONV: single very short stencil over large arrays on
    *pinned* memory — the paper's worst case for CC copies (19.69x)
    and for UVM encrypted paging (164030x KET)."""
    data = 24 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=True)
    kernel = elementwise_kernel(
        data // 4, flops_per_element=9.0, bytes_per_element=8,
        name="convolution2d_kernel",
    )
    yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_3dconv(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench 3DCONV: 254 launches of the same kernel in a loop
    (launch count from Sec. VI-B) — the low-KLR regime of Fig. 10D."""
    data = 8 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=False)
    kernel = elementwise_kernel(
        800_000, flops_per_element=27.0, bytes_per_element=8,
        name="convolution3d_kernel",
    )
    # Launched back-to-back (no per-slice sync): the pushbuffer fills
    # and LQT backpressure dominates — Fig. 10D's low-KLR regime.
    for _ in range(254):
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


# ---------------------------------------------------------------------------
# Rodinia-style applications
# ---------------------------------------------------------------------------


def app_bfs(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia BFS: frontier expansion, level-synchronous, 2 kernels
    per level with strongly varying durations."""
    graph_bytes = 32 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [graph_bytes, 4 * units.MiB], uvm, pinned=False
    )
    levels = 12
    frontier = [0.02, 0.08, 0.25, 0.6, 1.0, 0.9, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01]
    if not uvm:
        stop_flag = yield from rt.host_alloc(4 * units.KiB)
    for level in range(levels):
        work = int(8_000_000 * frontier[level]) + 50_000
        k1 = elementwise_kernel(
            work, flops_per_element=2.0, bytes_per_element=12, name="bfs_kernel1"
        )
        k2 = elementwise_kernel(
            work // 4, flops_per_element=1.0, bytes_per_element=8, name="bfs_kernel2"
        )
        yield from _launch(rt, k1, uvm, _touch_all(buffers))
        yield from _launch(rt, k2, uvm, _touch_all(buffers[1:]))
        # Host checks the continue flag each level (implicit sync).
        if not uvm:
            yield from rt.memcpy(stop_flag, buffers[1], 4 * units.KiB)
        else:
            yield from rt.synchronize()
    if not uvm:
        hosts.append(stop_flag)
    yield from _teardown(rt, buffers, hosts, readback=4 * units.MiB)


def app_kmeans(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia kmeans: iterative cluster/swap kernels with a small
    per-iteration D2H readback of membership deltas."""
    points = 32 * units.MiB
    centroids = 64 * units.KiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [points, centroids], uvm, pinned=False
    )
    if not uvm:
        delta_host = yield from rt.host_alloc(4 * units.KiB)
    for _ in range(20):
        cluster = elementwise_kernel(
            4_000_000, flops_per_element=8.0, bytes_per_element=8,
            name="kmeans_cluster",
        )
        swap = elementwise_kernel(
            500_000, flops_per_element=2.0, bytes_per_element=8,
            name="kmeans_swap",
        )
        yield from _launch(rt, cluster, uvm, _touch_all(buffers))
        yield from _launch(rt, swap, uvm, _touch_all(buffers[1:]))
        yield from rt.synchronize()
        if not uvm:
            yield from rt.memcpy(delta_host, buffers[1], 4 * units.KiB)
    if not uvm:
        hosts.append(delta_host)
    yield from _teardown(rt, buffers, hosts, readback=centroids)


def app_dwt2d(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia DWT2D: exactly 10 kernel launches (Sec. VI-B) across 4
    distinct kernels — first-launch KLO dominates, giving the paper's
    5.31x CC KLO blowup."""
    data = 8 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=True)
    names = [
        "c_CopySrcToComponents",
        "fdwt53_kernel",
        "fdwt53_kernel",
        "fdwt53_kernel",
        "c_CopySrcToComponents2",
        "fdwt97_kernel",
        "fdwt97_kernel",
        "fdwt97_kernel",
        "rdwt_kernel",
        "rdwt_kernel",
    ]
    for name in names:
        # DWT kernels are heavily templated fat binaries: their modules
        # need far more CC DMA-buffer setup on first launch, which is
        # what makes dwt2d the paper's worst KLO case (5.31x).
        kernel = elementwise_kernel(
            data // 8, flops_per_element=4.0, bytes_per_element=8, name=name,
            module_pages=200,
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_sc(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia streamcluster: 1611 launches (Sec. VI-B) of a short
    pgain kernel — the paper's canonical launch-bound app (Fig. 10C)."""
    points = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [points, units.MiB], uvm, pinned=False
    )
    kernel = elementwise_kernel(
        120_000, flops_per_element=4.0, bytes_per_element=8,
        name="kernel_compute_cost",
    )
    # Real streamcluster reads back the per-center gain after every
    # pgain launch — each iteration is launch + small blocking D2H.
    for _ in range(1611):
        yield from _launch(rt, kernel, uvm, _touch_all(buffers[1:]))
        if not uvm:
            yield from rt.memcpy(hosts[1], buffers[1], 4 * units.KiB)
        else:
            yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=units.MiB)


def app_hotspot(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia hotspot: iterative stencil, one kernel per step."""
    grid = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [grid, grid], uvm, pinned=False)
    kernel = elementwise_kernel(
        2_000_000, flops_per_element=8.0, bytes_per_element=12,
        name="calculate_temp",
    )
    for _ in range(60):
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=grid)


def app_nw(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia Needleman-Wunsch: anti-diagonal wavefront, many short
    dependent launches."""
    data = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=False)
    for index in range(255):
        name = "needle_cuda_shared_1" if index < 128 else "needle_cuda_shared_2"
        work = 20_000 + 400 * (index if index < 128 else 255 - index)
        kernel = elementwise_kernel(
            work, flops_per_element=3.0, bytes_per_element=8, name=name
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_gaussian(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia gaussian elimination: 2 launches per row, very short
    kernels — launch-dominated like sc."""
    n = 512
    data = n * n * 4
    buffers, hosts = yield from _alloc_inputs(rt, [data, data], uvm, pinned=False)
    for row in range(n):
        fan1 = elementwise_kernel(
            n - row, flops_per_element=1.0, bytes_per_element=8, name="Fan1"
        )
        fan2 = elementwise_kernel(
            (n - row) * 8, flops_per_element=2.0, bytes_per_element=8, name="Fan2"
        )
        yield from _launch(rt, fan1, uvm, _touch_all(buffers))
        yield from _launch(rt, fan2, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=data)


def app_pathfinder(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia pathfinder: few medium kernels."""
    data = 24 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [data, units.MiB], uvm, pinned=False)
    kernel = elementwise_kernel(
        3_000_000, flops_per_element=4.0, bytes_per_element=8,
        name="dynproc_kernel",
    )
    for _ in range(5):
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=units.MiB)


def app_srad(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia SRAD: two alternating stencil kernels per iteration over
    a speckle image, plus a per-iteration reduction readback."""
    image = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [image, image], uvm, pinned=False)
    if not uvm:
        stats_host = yield from rt.host_alloc(4 * units.KiB)
    for _ in range(50):
        k1 = elementwise_kernel(
            2_000_000, flops_per_element=12.0, bytes_per_element=10, name="srad_cuda_1"
        )
        k2 = elementwise_kernel(
            2_000_000, flops_per_element=8.0, bytes_per_element=10, name="srad_cuda_2"
        )
        yield from _launch(rt, k1, uvm, _touch_all(buffers))
        yield from _launch(rt, k2, uvm, _touch_all(buffers))
        if not uvm:
            yield from rt.memcpy(stats_host, buffers[0], 4 * units.KiB)
        else:
            yield from rt.synchronize()
    if not uvm:
        hosts.append(stats_host)
    yield from _teardown(rt, buffers, hosts, readback=image)


def app_backprop(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia backprop: two layered kernels, forward + weight adjust."""
    weights = 24 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [weights, 4 * units.MiB], uvm, pinned=False
    )
    for name, work in (
        ("bpnn_layerforward_CUDA", 3_000_000),
        ("bpnn_adjust_weights_cuda", 3_000_000),
    ):
        kernel = elementwise_kernel(
            work, flops_per_element=6.0, bytes_per_element=12, name=name
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=4 * units.MiB)


def app_lud(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia LUD: blocked LU decomposition — a diagonal/perimeter/
    internal kernel triple per block step with shrinking work."""
    matrix = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [matrix], uvm, pinned=False)
    steps = 64
    for step in range(steps):
        remaining = steps - step
        for name, work in (
            ("lud_diagonal", 20_000),
            ("lud_perimeter", 60_000 * remaining),
            ("lud_internal", 30_000 * remaining * remaining // steps),
        ):
            kernel = elementwise_kernel(
                max(work, 1_000), flops_per_element=2.0, bytes_per_element=8,
                name=name,
            )
            yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=matrix)


def app_cfd(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia CFD (euler3d): flux/time-step kernel loop, compute-heavy."""
    mesh = 48 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [mesh, mesh // 4], uvm, pinned=False)
    for _ in range(100):
        flux = elementwise_kernel(
            4_000_000, flops_per_element=22.0, bytes_per_element=12,
            name="cuda_compute_flux",
        )
        step = elementwise_kernel(
            1_000_000, flops_per_element=6.0, bytes_per_element=8,
            name="cuda_time_step",
        )
        yield from _launch(rt, flux, uvm, _touch_all(buffers))
        yield from _launch(rt, step, uvm, _touch_all(buffers[1:]))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=mesh // 4)


def app_lavamd(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia lavaMD: one large N-body-style kernel, compute-bound."""
    boxes = 32 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [boxes, boxes // 2], uvm, pinned=False)
    kernel = elementwise_kernel(
        6_000_000, flops_per_element=40.0, bytes_per_element=8,
        name="kernel_gpu_cuda",
    )
    yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=boxes // 2)


def app_particlefilter(rt: CudaRuntime, uvm: bool) -> Generator:
    """Rodinia particlefilter: per-frame likelihood/normalize/resample
    kernels with a tiny D2H of the estimate each frame."""
    particles = 8 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [particles, units.MiB], uvm, pinned=False
    )
    if not uvm:
        estimate = yield from rt.host_alloc(4 * units.KiB)
    for _ in range(30):
        for name, work in (
            ("likelihood_kernel", 800_000),
            ("normalize_weights_kernel", 400_000),
            ("find_index_kernel", 600_000),
        ):
            kernel = elementwise_kernel(
                work, flops_per_element=5.0, bytes_per_element=8, name=name
            )
            yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        if not uvm:
            yield from rt.memcpy(estimate, buffers[1], 4 * units.KiB)
        else:
            yield from rt.synchronize()
    if not uvm:
        hosts.append(estimate)
    yield from _teardown(rt, buffers, hosts, readback=units.MiB)


def app_mvt(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench MVT: two independent matvec kernels."""
    matrix = 64 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [matrix], uvm, pinned=False)
    for index in range(2):
        kernel = elementwise_kernel(
            4096 * 4096, flops_per_element=2.0, bytes_per_element=4,
            name=f"mvt_kernel{index + 1}",
        )
        yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=64 * units.KiB)


def app_syrk(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench SYRK: one rank-k update kernel."""
    buffers, hosts = yield from _alloc_inputs(
        rt, [16 * units.MiB, 16 * units.MiB], uvm, pinned=False
    )
    yield from _launch(
        rt, gemm_kernel(2048, 2048, 2048, name="syrk_kernel"),
        uvm, _touch_all(buffers),
    )
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=16 * units.MiB)


def app_fdtd2d(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench FDTD-2D: three field-update kernels per time step."""
    field = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [field, field, field], uvm, pinned=False
    )
    for _ in range(60):
        for name in ("fdtd_step1_kernel", "fdtd_step2_kernel", "fdtd_step3_kernel"):
            kernel = elementwise_kernel(
                2_000_000, flops_per_element=4.0, bytes_per_element=12, name=name
            )
            yield from _launch(rt, kernel, uvm, _touch_all(buffers))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=field)


def app_adi(rt: CudaRuntime, uvm: bool) -> Generator:
    """Polybench ADI: alternating-direction sweeps, 6 kernels per step."""
    grid = 16 * units.MiB
    buffers, hosts = yield from _alloc_inputs(rt, [grid, grid], uvm, pinned=False)
    for _ in range(30):
        for axis in ("col", "row"):
            for phase in (1, 2, 3):
                kernel = elementwise_kernel(
                    1_500_000, flops_per_element=5.0, bytes_per_element=10,
                    name=f"adi_{axis}_kernel{phase}",
                )
                yield from _launch(rt, kernel, uvm, _touch_all(buffers))
        yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=grid)


# ---------------------------------------------------------------------------
# UVMBench / graph suites
# ---------------------------------------------------------------------------


def app_cnn(rt: CudaRuntime, uvm: bool) -> Generator:
    """UVMBench CNN inference: weights staged once, activations flow
    device-to-device between layers — D2D dominates, so its CC copy
    slowdown is the catalogue minimum (paper: 1.17x)."""
    weights = 256 * units.KiB
    activation = 96 * units.MiB
    buffers, hosts = yield from _alloc_inputs(
        rt, [weights, 128 * units.KiB], uvm, pinned=False
    )
    act_a = yield from rt.malloc(activation)
    act_b = yield from rt.malloc(activation)
    for layer in range(8):
        conv = elementwise_kernel(
            2_000_000, flops_per_element=18.0, bytes_per_element=4,
            name=f"conv_layer",
        )
        relu = elementwise_kernel(
            1_000_000, flops_per_element=1.0, bytes_per_element=8, name="relu"
        )
        yield from _launch(rt, conv, uvm, _touch_all(buffers))
        yield from _launch(rt, relu, uvm, ())
        yield from rt.synchronize()
        src, dst = (act_a, act_b) if layer % 2 == 0 else (act_b, act_a)
        yield from rt.memcpy(dst, src)
    yield from rt.free(act_a)
    yield from rt.free(act_b)
    yield from _teardown(rt, buffers, hosts, readback=4 * units.KiB)


def _graph_app(
    rt: CudaRuntime,
    uvm: bool,
    name: str,
    iterations: int,
    work_per_iter: int,
    graph_bytes: int,
) -> Generator:
    buffers, hosts = yield from _alloc_inputs(
        rt, [graph_bytes, graph_bytes // 8], uvm, pinned=False
    )
    # Iterations chain entirely on-device (vertex state ping-pongs in
    # HBM), so launches go back-to-back and long kernels hide them —
    # the high-KLR regime of Fig. 10A.
    for _ in range(iterations):
        gather = elementwise_kernel(
            work_per_iter, flops_per_element=3.0, bytes_per_element=16,
            name=f"{name}_gather",
        )
        apply_k = elementwise_kernel(
            work_per_iter // 8, flops_per_element=2.0, bytes_per_element=8,
            name=f"{name}_apply",
        )
        yield from _launch(rt, gather, uvm, _touch_all(buffers))
        yield from _launch(rt, apply_k, uvm, _touch_all(buffers[1:]))
    yield from rt.synchronize()
    yield from _teardown(rt, buffers, hosts, readback=graph_bytes // 8)


def app_gb_bfs(rt: CudaRuntime, uvm: bool) -> Generator:
    """GraphBIG BFS: long, diverse kernels hide launch costs
    (Fig. 10A's high-KLR regime)."""
    yield from _graph_app(rt, uvm, "gb_bfs", 15, 12_000_000, 48 * units.MiB)


def app_gb_sssp(rt: CudaRuntime, uvm: bool) -> Generator:
    """GraphBIG SSSP."""
    yield from _graph_app(rt, uvm, "gb_sssp", 25, 8_000_000, 48 * units.MiB)


def app_gb_pagerank(rt: CudaRuntime, uvm: bool) -> Generator:
    """GraphBIG PageRank: fixed iteration count, medium kernels."""
    yield from _graph_app(rt, uvm, "gb_pagerank", 50, 6_000_000, 48 * units.MiB)


def app_tigr_bfs(rt: CudaRuntime, uvm: bool) -> Generator:
    """Tigr BFS on a transformed (degree-balanced) graph."""
    yield from _graph_app(rt, uvm, "tigr_bfs", 30, 5_000_000, 32 * units.MiB)


def app_tigr_sssp(rt: CudaRuntime, uvm: bool) -> Generator:
    """Tigr SSSP."""
    yield from _graph_app(rt, uvm, "tigr_sssp", 40, 4_000_000, 32 * units.MiB)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

CATALOG: Dict[str, AppInfo] = {
    info.name: info
    for info in [
        AppInfo("2mm", "polybench", app_2mm, description="two GEMMs"),
        AppInfo("3mm", "polybench", app_3mm, description="three GEMMs"),
        AppInfo("atax", "polybench", app_atax, description="A^T(Ax)"),
        AppInfo("bicg", "polybench", app_bicg, description="BiCG kernels"),
        AppInfo("corr", "polybench", app_corr, description="correlation"),
        AppInfo("gemm", "polybench", app_gemm, description="one GEMM"),
        AppInfo("gramschm", "polybench", app_gramschm, description="Gram-Schmidt"),
        AppInfo("2dconv", "polybench", app_2dconv, description="2D stencil, pinned"),
        AppInfo("3dconv", "polybench", app_3dconv, description="254-launch loop"),
        AppInfo("bfs", "rodinia", app_bfs, description="frontier BFS"),
        AppInfo("kmeans", "rodinia", app_kmeans, description="iterative kmeans"),
        AppInfo("dwt2d", "rodinia", app_dwt2d, description="10-launch DWT"),
        AppInfo("sc", "rodinia", app_sc, description="1611-launch streamcluster"),
        AppInfo("hotspot", "rodinia", app_hotspot, description="stencil loop"),
        AppInfo("nw", "rodinia", app_nw, description="wavefront"),
        AppInfo("gaussian", "rodinia", app_gaussian, description="1024 tiny launches"),
        AppInfo("pathfinder", "rodinia", app_pathfinder, description="few kernels"),
        AppInfo("srad", "rodinia", app_srad, description="stencil + readback loop"),
        AppInfo("backprop", "rodinia", app_backprop, description="NN fwd + adjust"),
        AppInfo("lud", "rodinia", app_lud, description="blocked LU, 192 launches"),
        AppInfo("cfd", "rodinia", app_cfd, description="euler3d flux loop"),
        AppInfo("lavamd", "rodinia", app_lavamd, description="one big N-body kernel"),
        AppInfo("particlefilter", "rodinia", app_particlefilter,
                description="per-frame kernels + estimate D2H"),
        AppInfo("mvt", "polybench", app_mvt, description="two matvecs"),
        AppInfo("syrk", "polybench", app_syrk, description="rank-k update"),
        AppInfo("fdtd2d", "polybench", app_fdtd2d, description="FDTD time loop"),
        AppInfo("adi", "polybench", app_adi, description="ADI sweeps"),
        AppInfo("cnn", "uvmbench", app_cnn, description="CNN inference, D2D-heavy"),
        AppInfo("gb_bfs", "graphbig", app_gb_bfs, description="GraphBIG BFS"),
        AppInfo("gb_sssp", "graphbig", app_gb_sssp, description="GraphBIG SSSP"),
        AppInfo("gb_pagerank", "graphbig", app_gb_pagerank, description="PageRank"),
        AppInfo("tigr_bfs", "tigr", app_tigr_bfs, description="Tigr BFS"),
        AppInfo("tigr_sssp", "tigr", app_tigr_sssp, description="Tigr SSSP"),
    ]
}

# App subsets used by specific figures.
FIG5_APPS = [
    "2mm", "3mm", "atax", "bicg", "corr", "gemm", "gramschm", "2dconv",
    "3dconv", "bfs", "kmeans", "dwt2d", "sc", "hotspot", "nw", "pathfinder",
    "cnn", "gb_bfs", "gb_pagerank", "tigr_bfs", "srad", "backprop", "cfd",
    "mvt", "fdtd2d",
]
# Fig. 7 excludes apps "with no queuing time (e.g., only a single launch)".
FIG7_APPS = [
    "2mm", "3mm", "atax", "bicg", "corr", "gramschm", "3dconv", "bfs",
    "kmeans", "dwt2d", "sc", "hotspot", "nw", "gaussian", "gb_pagerank",
    "srad", "lud", "fdtd2d", "adi", "particlefilter",
]
FIG9_APPS = [
    "2mm", "gemm", "gramschm", "2dconv", "3dconv", "bfs", "kmeans",
    "hotspot", "nw", "sc", "cnn", "gb_bfs",
]
FIG10_APPS = {  # the four representative traces of Fig. 10
    "A": "gb_bfs",  # few long kernels hide launches entirely
    "B": "tigr_bfs",  # many kernels with diverse durations, still hidden
    "C": "sc",  # launch storm, launch-dominated
    "D": "3dconv",  # iterative single kernel, launch/queue-dominated
}


def get(name: str) -> AppInfo:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; known: {sorted(CATALOG)}"
        ) from None


def names(suite: Optional[str] = None) -> List[str]:
    return sorted(
        name
        for name, info in CATALOG.items()
        if suite is None or info.suite == suite
    )
