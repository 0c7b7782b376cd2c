"""Application catalogue modeled on the paper's benchmark suites
(Sec. VI-A: Rodinia, Polybench, UVMBench, GraphBIG, Tigr).

Each app encodes the *operation structure* of the original benchmark —
allocation sizes, explicit-copy pattern, number and duration of kernel
launches, synchronization points — which is what determines its CC
behaviour (launch counts for sc/3dconv/dwt2d are taken from the paper
directly).  Every app has a UVM variant that replaces explicit copies
with cudaMallocManaged + on-demand migration, used for the Fig. 9 KET
comparison.

Each ``app_*`` function returns the app's operations as
:mod:`repro.workloads.spec` data for one variant; :meth:`AppInfo.spec`
wraps them in a validated :class:`WorkloadSpec`, so the catalogue can
be inspected (``total_launches``, ``to_json``) without running it and
every app runs through the one spec executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence

from .. import units
from .spec import WorkloadSpec

Op = Dict[str, Any]
KiB, MiB = units.KiB, units.MiB


@dataclass(frozen=True)
class AppInfo:
    """Catalogue entry for one benchmark application."""

    name: str
    suite: str
    ops: Callable[[bool], List[Op]]
    description: str = ""

    #: Every catalogue app has a UVM variant.
    supports_uvm: ClassVar[bool] = True

    def spec(self, uvm: bool = False) -> WorkloadSpec:
        """The explicit-copy (or, with ``uvm``, managed-memory) variant."""
        return WorkloadSpec(f"{self.name}{'_uvm' if uvm else ''}", self.ops(uvm))

    def app(self, uvm: bool = False):
        """Bind to an ``app(rt)`` callable for :func:`repro.cuda.run_app`."""
        return self.spec(uvm).app()


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _app(
    sizes: Sequence[int],
    uvm: bool,
    body: List[Op],
    readback: int,
    pinned: bool = False,
    flag: bool = False,
) -> List[Op]:
    """The common app shape around ``body``.

    Allocates one input array ``a<i>`` per size.  Without UVM each is
    staged from a host buffer ``h<i>`` (pinned or pageable), and with
    ``flag`` a 4 KiB pageable ``flag`` buffer for per-iteration host
    checks follows.  After ``body``, up to ``readback`` bytes of the last
    array are copied to the last host buffer; then the arrays are freed,
    then the host buffers.  In UVM mode nothing is copied — data
    migrates on first kernel touch.
    """
    ops: List[Op] = []
    hosts = []
    for index, size in enumerate(sizes):
        if uvm:
            ops.append({"op": "malloc_managed", "name": f"a{index}", "bytes": size})
            continue
        host = "malloc_host" if pinned else "host_alloc"
        ops += [
            {"op": "malloc", "name": f"a{index}", "bytes": size},
            {"op": host, "name": f"h{index}", "bytes": size},
            {"op": "memcpy", "dst": f"a{index}", "src": f"h{index}"},
        ]
        hosts.append((f"h{index}", size))
    if flag and not uvm:
        ops.append({"op": "host_alloc", "name": "flag", "bytes": 4 * KiB})
        hosts.append(("flag", 4 * KiB))
    ops += body
    if hosts:
        last, size = hosts[-1]
        ops.append({
            "op": "memcpy", "dst": last, "src": f"a{len(sizes) - 1}",
            "bytes": min(readback, size),
        })
    ops += [{"op": "free", "name": f"a{index}"} for index in range(len(sizes))]
    ops += [{"op": "free", "name": name} for name, _ in hosts]
    return ops


def _touch(sizes: Sequence[int], uvm: bool, first: int = 0) -> List[List]:
    """Managed touches of arrays ``a<first>``.. in full (none without UVM)."""
    if not uvm:
        return []
    return [[f"a{index}", sizes[index]] for index in range(first, len(sizes))]


def _launch_op(
    name: str, flops: float, mem_bytes: int, touches: Sequence[List], **attrs: Any
) -> Op:
    op = {"op": "launch", "kernel": name, "flops": flops, "mem_bytes": mem_bytes}
    op.update(attrs)
    if touches:
        op["touches"] = touches
    return op


def _kernel(
    name: str,
    elements: int,
    flops_per_element: float,
    bytes_per_element: int,
    touches: Sequence[List] = (),
    **attrs: Any,
) -> Op:
    """Launch of a :func:`repro.gpu.elementwise_kernel` cost profile."""
    return _launch_op(
        name, elements * flops_per_element, elements * bytes_per_element,
        touches, **attrs,
    )


def _gemm(name: str, n: int, touches: Sequence[List]) -> Op:
    """Launch of an n x n x n fp32 :func:`repro.gpu.gemm_kernel`."""
    return _launch_op(name, 2.0 * n * n * n, 3 * n * n * 4, touches)


def _poll(uvm: bool, dst: str, src: str) -> Op:
    """The host's per-iteration wait: a small blocking readback, or a
    sync in UVM mode."""
    if uvm:
        return {"op": "sync"}
    return {"op": "memcpy", "dst": dst, "src": src, "bytes": 4 * KiB}


def _loop(count: int, body: List[Op]) -> Op:
    return {"op": "loop", "count": count, "body": body}


# ---------------------------------------------------------------------------
# Polybench-style applications
# ---------------------------------------------------------------------------


def _poly_gemm_chain(uvm: bool, num_gemms: int, num_arrays: int) -> List[Op]:
    sizes = [4 * MiB] * num_arrays
    body = []
    for index in range(num_gemms):
        body += [
            _gemm(f"mm_kernel{index + 1}", 1024, _touch(sizes, uvm)),
            {"op": "sync"},
        ]
    return _app(sizes, uvm, body, readback=4 * MiB)


def app_2mm(uvm: bool) -> List[Op]:
    """Polybench 2MM: two dependent GEMMs, sync-separated (the paper's
    minimal-KQT example that CC amplifies, Sec. VI-B)."""
    return _poly_gemm_chain(uvm, 2, 5)


def app_3mm(uvm: bool) -> List[Op]:
    """Polybench 3MM: three GEMMs."""
    return _poly_gemm_chain(uvm, 3, 7)


def _poly_matvec(uvm: bool, name: str) -> List[Op]:
    n = 4096
    sizes = [n * n * 4, n * 4, n * 4]
    body = []
    for index in range(2):
        body += [
            _kernel(f"{name}_kernel{index + 1}", n * n, 2.0, 4, _touch(sizes, uvm)),
            {"op": "sync"},
        ]
    return _app(sizes, uvm, body, readback=n * 4)


def app_atax(uvm: bool) -> List[Op]:
    """Polybench ATAX: A^T(Ax), two short matvec kernels."""
    return _poly_matvec(uvm, "atax")


def app_bicg(uvm: bool) -> List[Op]:
    """Polybench BiCG: two matvec-style kernels."""
    return _poly_matvec(uvm, "bicg")


def app_corr(uvm: bool) -> List[Op]:
    """Polybench CORR: mean/std/center/corr kernels (4 launches)."""
    n = 2048
    sizes = [n * n * 4] * 2
    body = []
    for name in ("mean_kernel", "std_kernel", "reduce_kernel", "corr_kernel"):
        body += [_kernel(name, n * n, 4.0, 8, _touch(sizes, uvm)), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=n * n * 4)


def app_gemm(uvm: bool) -> List[Op]:
    """Polybench GEMM: one large matmul."""
    sizes = [2048 * 2048 * 4] * 3
    body = [_gemm("gemm_kernel", 2048, _touch(sizes, uvm)), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=sizes[0])


def app_gramschm(uvm: bool) -> List[Op]:
    """Polybench Gram-Schmidt: per-column iteration, 3 kernels each —
    data is GPU-resident across iterations, which is why its UVM CC
    slowdown is only ~1.08x (Sec. VI-B)."""
    n = 512
    sizes = [n * n * 4] * 2
    column = [
        _kernel(name, n * 64, 6.0, 8, _touch(sizes, uvm))
        for name in ("gs_kernel1", "gs_kernel2", "gs_kernel3")
    ]
    return _app(sizes, uvm, [_loop(128, column + [{"op": "sync"}])], readback=sizes[0])


def app_2dconv(uvm: bool) -> List[Op]:
    """Polybench 2DCONV: single very short stencil over large arrays on
    *pinned* memory — the paper's worst case for CC copies (19.69x)
    and for UVM encrypted paging (164030x KET)."""
    data = 24 * MiB
    sizes = [data, data]
    body = [
        _kernel("convolution2d_kernel", data // 4, 9.0, 8, _touch(sizes, uvm)),
        {"op": "sync"},
    ]
    return _app(sizes, uvm, body, readback=data, pinned=True)


def app_3dconv(uvm: bool) -> List[Op]:
    """Polybench 3DCONV: 254 launches of the same kernel in a loop
    (launch count from Sec. VI-B) — the low-KLR regime of Fig. 10D."""
    sizes = [8 * MiB] * 2
    kernel = _kernel("convolution3d_kernel", 800_000, 27.0, 8, _touch(sizes, uvm))
    # Launched back-to-back (no per-slice sync): the pushbuffer fills
    # and LQT backpressure dominates — Fig. 10D's low-KLR regime.
    return _app(sizes, uvm, [_loop(254, [kernel]), {"op": "sync"}], readback=sizes[0])


# ---------------------------------------------------------------------------
# Rodinia-style applications
# ---------------------------------------------------------------------------


def app_bfs(uvm: bool) -> List[Op]:
    """Rodinia BFS: frontier expansion, level-synchronous, 2 kernels
    per level with strongly varying durations."""
    sizes = [32 * MiB, 4 * MiB]
    frontier = [0.02, 0.08, 0.25, 0.6, 1.0, 0.9, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01]
    body = []
    for share in frontier:
        work = int(8_000_000 * share) + 50_000
        body += [
            _kernel("bfs_kernel1", work, 2.0, 12, _touch(sizes, uvm)),
            _kernel("bfs_kernel2", work // 4, 1.0, 8, _touch(sizes, uvm, 1)),
            # Host checks the continue flag each level (implicit sync).
            _poll(uvm, "flag", "a1"),
        ]
    return _app(sizes, uvm, body, readback=4 * MiB, flag=True)


def app_kmeans(uvm: bool) -> List[Op]:
    """Rodinia kmeans: iterative cluster/swap kernels with a small
    per-iteration D2H readback of membership deltas."""
    sizes = [32 * MiB, 64 * KiB]
    step = [
        _kernel("kmeans_cluster", 4_000_000, 8.0, 8, _touch(sizes, uvm)),
        _kernel("kmeans_swap", 500_000, 2.0, 8, _touch(sizes, uvm, 1)),
        {"op": "sync"},
    ]
    if not uvm:
        step.append({"op": "memcpy", "dst": "flag", "src": "a1", "bytes": 4 * KiB})
    return _app(sizes, uvm, [_loop(20, step)], readback=64 * KiB, flag=True)


def app_dwt2d(uvm: bool) -> List[Op]:
    """Rodinia DWT2D: exactly 10 kernel launches (Sec. VI-B) across 4
    distinct kernels — first-launch KLO dominates, giving the paper's
    5.31x CC KLO blowup."""
    data = 8 * MiB
    sizes = [data, data]
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
    body = []
    for name in names:
        # DWT kernels are heavily templated fat binaries: their modules
        # need far more CC DMA-buffer setup on first launch, which is
        # what makes dwt2d the paper's worst KLO case (5.31x).
        body += [
            _kernel(name, data // 8, 4.0, 8, _touch(sizes, uvm), module_pages=200),
            {"op": "sync"},
        ]
    return _app(sizes, uvm, body, readback=data, pinned=True)


def app_sc(uvm: bool) -> List[Op]:
    """Rodinia streamcluster: 1611 launches (Sec. VI-B) of a short
    pgain kernel — the paper's canonical launch-bound app (Fig. 10C)."""
    sizes = [16 * MiB, MiB]
    # Real streamcluster reads back the per-center gain after every
    # pgain launch — each iteration is launch + small blocking D2H.
    step = [
        _kernel("kernel_compute_cost", 120_000, 4.0, 8, _touch(sizes, uvm, 1)),
        _poll(uvm, "h1", "a1"),
    ]
    return _app(sizes, uvm, [_loop(1611, step)], readback=MiB)


def app_hotspot(uvm: bool) -> List[Op]:
    """Rodinia hotspot: iterative stencil, one kernel per step."""
    sizes = [16 * MiB] * 2
    kernel = _kernel("calculate_temp", 2_000_000, 8.0, 12, _touch(sizes, uvm))
    return _app(sizes, uvm, [_loop(60, [kernel]), {"op": "sync"}], readback=sizes[0])


def app_nw(uvm: bool) -> List[Op]:
    """Rodinia Needleman-Wunsch: anti-diagonal wavefront, many short
    dependent launches."""
    sizes = [16 * MiB] * 2
    body = []
    for index in range(255):
        name = "needle_cuda_shared_1" if index < 128 else "needle_cuda_shared_2"
        work = 20_000 + 400 * (index if index < 128 else 255 - index)
        body.append(_kernel(name, work, 3.0, 8, _touch(sizes, uvm)))
    return _app(sizes, uvm, body + [{"op": "sync"}], readback=sizes[0])


def app_gaussian(uvm: bool) -> List[Op]:
    """Rodinia gaussian elimination: 2 launches per row, very short
    kernels — launch-dominated like sc."""
    n = 512
    sizes = [n * n * 4] * 2
    body = []
    for row in range(n):
        body += [
            _kernel("Fan1", n - row, 1.0, 8, _touch(sizes, uvm)),
            _kernel("Fan2", (n - row) * 8, 2.0, 8, _touch(sizes, uvm)),
        ]
    return _app(sizes, uvm, body + [{"op": "sync"}], readback=sizes[0])


def app_pathfinder(uvm: bool) -> List[Op]:
    """Rodinia pathfinder: few medium kernels."""
    sizes = [24 * MiB, MiB]
    kernel = _kernel("dynproc_kernel", 3_000_000, 4.0, 8, _touch(sizes, uvm))
    return _app(sizes, uvm, [_loop(5, [kernel, {"op": "sync"}])], readback=MiB)


def app_srad(uvm: bool) -> List[Op]:
    """Rodinia SRAD: two alternating stencil kernels per iteration over
    a speckle image, plus a per-iteration reduction readback."""
    sizes = [16 * MiB] * 2
    step = [
        _kernel("srad_cuda_1", 2_000_000, 12.0, 10, _touch(sizes, uvm)),
        _kernel("srad_cuda_2", 2_000_000, 8.0, 10, _touch(sizes, uvm)),
        _poll(uvm, "flag", "a0"),
    ]
    return _app(sizes, uvm, [_loop(50, step)], readback=sizes[0], flag=True)


def app_backprop(uvm: bool) -> List[Op]:
    """Rodinia backprop: two layered kernels, forward + weight adjust."""
    sizes = [24 * MiB, 4 * MiB]
    body = []
    for name in ("bpnn_layerforward_CUDA", "bpnn_adjust_weights_cuda"):
        body += [_kernel(name, 3_000_000, 6.0, 12, _touch(sizes, uvm)), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=4 * MiB)


def app_lud(uvm: bool) -> List[Op]:
    """Rodinia LUD: blocked LU decomposition — a diagonal/perimeter/
    internal kernel triple per block step with shrinking work."""
    sizes = [16 * MiB]
    steps = 64
    body = []
    for step in range(steps):
        remaining = steps - step
        for name, work in (
            ("lud_diagonal", 20_000),
            ("lud_perimeter", 60_000 * remaining),
            ("lud_internal", 30_000 * remaining * remaining // steps),
        ):
            body.append(_kernel(name, max(work, 1_000), 2.0, 8, _touch(sizes, uvm)))
    return _app(sizes, uvm, body + [{"op": "sync"}], readback=sizes[0])


def app_cfd(uvm: bool) -> List[Op]:
    """Rodinia CFD (euler3d): flux/time-step kernel loop, compute-heavy."""
    mesh = 48 * MiB
    sizes = [mesh, mesh // 4]
    step = [
        _kernel("cuda_compute_flux", 4_000_000, 22.0, 12, _touch(sizes, uvm)),
        _kernel("cuda_time_step", 1_000_000, 6.0, 8, _touch(sizes, uvm, 1)),
    ]
    return _app(sizes, uvm, [_loop(100, step), {"op": "sync"}], readback=mesh // 4)


def app_lavamd(uvm: bool) -> List[Op]:
    """Rodinia lavaMD: one large N-body-style kernel, compute-bound."""
    boxes = 32 * MiB
    sizes = [boxes, boxes // 2]
    body = [
        _kernel("kernel_gpu_cuda", 6_000_000, 40.0, 8, _touch(sizes, uvm)),
        {"op": "sync"},
    ]
    return _app(sizes, uvm, body, readback=boxes // 2)


def app_particlefilter(uvm: bool) -> List[Op]:
    """Rodinia particlefilter: per-frame likelihood/normalize/resample
    kernels with a tiny D2H of the estimate each frame."""
    sizes = [8 * MiB, MiB]
    frame = [
        _kernel(name, work, 5.0, 8, _touch(sizes, uvm))
        for name, work in (
            ("likelihood_kernel", 800_000),
            ("normalize_weights_kernel", 400_000),
            ("find_index_kernel", 600_000),
        )
    ]
    frame.append(_poll(uvm, "flag", "a1"))
    return _app(sizes, uvm, [_loop(30, frame)], readback=MiB, flag=True)


def app_mvt(uvm: bool) -> List[Op]:
    """Polybench MVT: two independent matvec kernels."""
    sizes = [64 * MiB]
    body = []
    for index in range(2):
        name = f"mvt_kernel{index + 1}"
        body += [_kernel(name, 4096 * 4096, 2.0, 4, _touch(sizes, uvm)), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=64 * KiB)


def app_syrk(uvm: bool) -> List[Op]:
    """Polybench SYRK: one rank-k update kernel."""
    sizes = [16 * MiB] * 2
    body = [_gemm("syrk_kernel", 2048, _touch(sizes, uvm)), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=16 * MiB)


def app_fdtd2d(uvm: bool) -> List[Op]:
    """Polybench FDTD-2D: three field-update kernels per time step."""
    sizes = [16 * MiB] * 3
    step = [
        _kernel(name, 2_000_000, 4.0, 12, _touch(sizes, uvm))
        for name in ("fdtd_step1_kernel", "fdtd_step2_kernel", "fdtd_step3_kernel")
    ]
    return _app(sizes, uvm, [_loop(60, step), {"op": "sync"}], readback=sizes[0])


def app_adi(uvm: bool) -> List[Op]:
    """Polybench ADI: alternating-direction sweeps, 6 kernels per step."""
    sizes = [16 * MiB] * 2
    step = [
        _kernel(f"adi_{axis}_kernel{phase}", 1_500_000, 5.0, 10, _touch(sizes, uvm))
        for axis in ("col", "row")
        for phase in (1, 2, 3)
    ]
    return _app(sizes, uvm, [_loop(30, step + [{"op": "sync"}])], readback=sizes[0])


# ---------------------------------------------------------------------------
# UVMBench / graph suites
# ---------------------------------------------------------------------------


def app_cnn(uvm: bool) -> List[Op]:
    """UVMBench CNN inference: weights staged once, activations flow
    device-to-device between layers — D2D dominates, so its CC copy
    slowdown is the catalogue minimum (paper: 1.17x)."""
    sizes = [256 * KiB, 128 * KiB]
    layer = [
        _kernel("conv_layer", 2_000_000, 18.0, 4, _touch(sizes, uvm)),
        _kernel("relu", 1_000_000, 1.0, 8),
        {"op": "sync"},
    ]
    # Eight layers; the activation ping-pongs between act_a and act_b.
    layer_pair = layer + [{"op": "memcpy", "dst": "act_b", "src": "act_a"}]
    layer_pair += layer + [{"op": "memcpy", "dst": "act_a", "src": "act_b"}]
    body = [
        {"op": "malloc", "name": "act_a", "bytes": 96 * MiB},
        {"op": "malloc", "name": "act_b", "bytes": 96 * MiB},
        _loop(4, layer_pair),
        {"op": "free", "name": "act_a"},
        {"op": "free", "name": "act_b"},
    ]
    return _app(sizes, uvm, body, readback=4 * KiB)


def _graph_app(
    uvm: bool, name: str, iterations: int, work_per_iter: int, graph_bytes: int
) -> List[Op]:
    sizes = [graph_bytes, graph_bytes // 8]
    # Iterations chain entirely on-device (vertex state ping-pongs in
    # HBM), so launches go back-to-back and long kernels hide them —
    # the high-KLR regime of Fig. 10A.
    step = [
        _kernel(f"{name}_gather", work_per_iter, 3.0, 16, _touch(sizes, uvm)),
        _kernel(f"{name}_apply", work_per_iter // 8, 2.0, 8, _touch(sizes, uvm, 1)),
    ]
    body = [_loop(iterations, step), {"op": "sync"}]
    return _app(sizes, uvm, body, readback=sizes[1])


def app_gb_bfs(uvm: bool) -> List[Op]:
    """GraphBIG BFS: long, diverse kernels hide launch costs
    (Fig. 10A's high-KLR regime)."""
    return _graph_app(uvm, "gb_bfs", 15, 12_000_000, 48 * MiB)


def app_gb_sssp(uvm: bool) -> List[Op]:
    """GraphBIG SSSP."""
    return _graph_app(uvm, "gb_sssp", 25, 8_000_000, 48 * MiB)


def app_gb_pagerank(uvm: bool) -> List[Op]:
    """GraphBIG PageRank: fixed iteration count, medium kernels."""
    return _graph_app(uvm, "gb_pagerank", 50, 6_000_000, 48 * MiB)


def app_tigr_bfs(uvm: bool) -> List[Op]:
    """Tigr BFS on a transformed (degree-balanced) graph."""
    return _graph_app(uvm, "tigr_bfs", 30, 5_000_000, 32 * MiB)


def app_tigr_sssp(uvm: bool) -> List[Op]:
    """Tigr SSSP."""
    return _graph_app(uvm, "tigr_sssp", 40, 4_000_000, 32 * MiB)


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
