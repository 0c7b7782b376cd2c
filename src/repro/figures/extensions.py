"""Extension experiments beyond the paper's figures.

The paper flags several directions it leaves open; each generator here
runs one of them on the simulator:

* :func:`generate_teeio` — the TEE-IO / TDX-Connect hardware what-if
  (Sec. VI-A: "TEE-IO technology offers a potential solution ...
  however, its adoption requires hardware replacement").
* :func:`generate_crypto_scaling` — multi-threaded/pipelined software
  encryption (Sec. VIII: PipeLLM / FastRack-style optimizations).
* :func:`generate_graph_fusion_cc` — "whether [the optimal fusion
  point] holds in CC mode remains unclear, and we leave it for future
  work" (Sec. VII-A): the Ekelund-style cudaGraph batching sweep run
  under both modes.
* :func:`generate_oversubscription` — UVM oversubscription thrash
  under encrypted paging (the regime behind Fig. 9's extreme point).
* :func:`generate_attestation` — SPDM session establishment and time
  to first kernel (Sec. III's attestation machinery).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..cuda import Machine, run_app
from ..cuda.transfers import achieved_bandwidth_gbps, plan_copy
from ..faults import FaultPlan
from ..gpu import nanosleep_kernel
from ..sim import Simulator
from ..tdx import GuestContext, attest_gpu
from ..workloads import CATALOG
from .common import FigureResult, dispatch


def _bandwidth(config: SystemConfig, size: int = 256 * units.MiB) -> float:
    guest = GuestContext(Simulator(), config)
    plan = plan_copy(config, guest, CopyKind.H2D, size, MemoryKind.PINNED, cold=False)
    return achieved_bandwidth_gbps(plan, size)


def generate_teeio() -> FigureResult:
    """CC transfer and end-to-end cost with and without TEE-IO."""
    base = SystemConfig.base()
    cc = SystemConfig.confidential()
    teeio = cc.replace(tdx=dataclasses.replace(cc.tdx, teeio=True))
    rows = []
    spans = {}
    for label, config in (("base", base), ("cc", cc), ("cc+teeio", teeio)):
        bw = _bandwidth(config)
        trace, _ = run_app(CATALOG["2dconv"].app(False), config, label=label)
        spans[label] = trace.span_ns()
        rows.append((label, round(bw, 2), round(units.to_ms(trace.span_ns()), 3)))
    figure = FigureResult(
        figure_id="ext_teeio",
        title="TEE-IO what-if: pinned H2D bandwidth and 2dconv end-to-end",
        columns=("mode", "h2d_GB_per_s", "2dconv_e2e_ms"),
        rows=rows,
        notes=[
            "TEE-IO removes the bounce buffer and software AES-GCM; the "
            "link pays only the PCIe IDE inline-encryption efficiency tax.",
        ],
    )
    figure.add_paper_comparison(
        "teeio recovers transfer bandwidth (teeio/base, ~0.9+)",
        _bandwidth(teeio) / _bandwidth(base),
    )
    figure.add_paper_comparison(
        # TEE-IO fixes the *transfer* path only; memory management and
        # launch-path hypercalls remain, so roughly a third of the CC
        # slowdown survives even with perfect IO hardware.
        "teeio end-to-end vs cc (fraction of CC slowdown removed)",
        (spans["cc"] - spans["cc+teeio"]) / max(spans["cc"] - spans["base"], 1),
    )
    return figure


def generate_crypto_scaling(
    thread_counts: Sequence[int] = (1, 2, 4, 8),
) -> FigureResult:
    """Multi-threaded encryption: the software fix the paper's
    Sec. VIII discusses (PipeLLM, FastRack)."""
    rows = []
    bws = {}
    for threads in thread_counts:
        config = SystemConfig.confidential()
        config = config.replace(
            tdx=dataclasses.replace(config.tdx, crypto_threads=threads)
        )
        bw = _bandwidth(config)
        bws[threads] = bw
        trace, _ = run_app(CATALOG["2dconv"].app(False), config)
        rows.append((threads, round(bw, 2), round(units.to_ms(trace.span_ns()), 3)))
    base_bw = _bandwidth(SystemConfig.base())
    figure = FigureResult(
        figure_id="ext_crypto_scaling",
        title="CC transfer bandwidth vs encryption worker threads",
        columns=("crypto_threads", "h2d_GB_per_s", "2dconv_e2e_ms"),
        rows=rows,
        notes=[
            "Scaling saturates once AES-GCM stops being the pipeline "
            "bottleneck (DMA and bounce bookkeeping take over).",
        ],
    )
    figure.add_paper_comparison(
        # Even with crypto off the critical path, bounce bookkeeping
        # keeps CC transfers short of native bandwidth.
        "8-thread CC bandwidth / base bandwidth (still < 1)",
        bws[8] / base_bw,
    )
    figure.add_paper_comparison(
        "2-thread speedup over 1 thread", bws[2] / bws[1]
    )
    return figure


def _graph_app(rt, num_launches: int, per_kernel_ns: int, graph_batch: int):
    """An iterative single-kernel app (3dconv-style) launched through
    cudaGraphs of ``graph_batch`` nodes, remainder launched singly."""
    kernel = nanosleep_kernel(per_kernel_ns, name="graph_node")
    graph = yield from rt.graph_create([kernel] * graph_batch)
    full, remainder = divmod(num_launches, graph_batch)
    for _ in range(full):
        yield from rt.graph_launch(graph)
    for _ in range(remainder):
        yield from rt.launch(kernel)
    yield from rt.synchronize()


def _graph_batch_times(
    config: SystemConfig,
    num_launches: int,
    per_kernel_ns: int,
    batches: Sequence[int],
) -> Dict[int, int]:
    """Graph-batch size -> end-to-end ns."""
    times = {}
    for batch in batches:
        trace, _ = run_app(
            _graph_app,
            config,
            num_launches=num_launches,
            per_kernel_ns=per_kernel_ns,
            graph_batch=batch,
        )
        times[batch] = trace.span_ns()
    return times


def generate_graph_fusion_cc(
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    num_launches: int = 254,
    per_kernel_ns: int = units.us(5),
) -> FigureResult:
    """Does Ekelund et al.'s optimal cudaGraph batching point move
    under CC?  (The paper's explicitly-deferred question.)"""
    rows = []
    optima = {}
    for label, config in (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    ):
        times = _graph_batch_times(config, num_launches, per_kernel_ns, batches)
        optima[label] = min(times, key=times.get)
        for batch in batches:
            rows.append((label, batch, round(units.to_ms(times[batch]), 4)))
    figure = FigureResult(
        figure_id="ext_graph_fusion_cc",
        title=f"cudaGraph batching sweep ({num_launches} x "
              f"{units.to_us(per_kernel_ns):.0f}us kernels)",
        columns=("mode", "graph_batch", "end_to_end_ms"),
        rows=rows,
        notes=[
            f"optimal batch: base={optima['base']}, cc={optima['cc']} — "
            "CC pushes the optimum toward larger graphs (each avoided "
            "launch saves more when launches are hypercall-taxed).",
        ],
    )
    figure.add_paper_comparison(
        "CC optimal batch >= base optimal batch",
        float(optima["cc"] >= optima["base"]),
    )
    return figure


def _oversub_app(rt, working_sets: int, set_bytes: int, rounds: int):
    buffers = []
    for _ in range(working_sets):
        buf = yield from rt.malloc_managed(set_bytes)
        buffers.append(buf)
    kernel = nanosleep_kernel(units.us(30), name="oversub_kernel")
    for _ in range(rounds):
        for buf in buffers:
            yield from rt.launch(kernel, managed_touches=[(buf, set_bytes)])
            yield from rt.synchronize()
    for buf in buffers:
        yield from rt.free(buf)


def generate_oversubscription(
    ratios: Sequence[float] = (0.5, 0.9, 1.2, 1.8),
    set_bytes: int = 8 * units.MiB,
    working_sets: int = 3,
    rounds: int = 2,
) -> FigureResult:
    """Mean UVM kernel time vs oversubscription ratio, base vs CC."""
    rows = []
    kets = {}
    for ratio in ratios:
        budget = int(working_sets * set_bytes / ratio)
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            config = config.replace(
                uvm=dataclasses.replace(
                    config.uvm, oversubscription_budget_bytes=budget
                )
            )
            trace, _ = run_app(
                _oversub_app, config,
                working_sets=working_sets, set_bytes=set_bytes, rounds=rounds,
            )
            # Steady state: only the final round's kernels (the first
            # round is cold-start migration in every configuration).
            kernels = sorted(trace.kernels(), key=lambda e: e.start_ns)
            steady = kernels[-working_sets:]
            ket = sum(k.duration_ns for k in steady) / len(steady)
            kets[(ratio, label)] = ket
            rows.append((ratio, label, round(units.to_us(ket), 1)))
    figure = FigureResult(
        figure_id="ext_oversubscription",
        title="UVM mean KET vs oversubscription ratio (thrash regime)",
        columns=("oversub_ratio", "mode", "mean_ket_us"),
        rows=rows,
        notes=[
            "Past ratio 1.0 the working sets evict each other every round; "
            "CC encrypted paging amplifies the thrash by another ~30-50x — "
            "the regime that produces the paper's 164030x Fig. 9 extreme.",
        ],
    )
    figure.add_paper_comparison(
        "CC thrash blowup at 1.8x oversubscription (vs in-budget CC)",
        kets[(1.8, "cc")] / kets[(0.5, "cc")],
    )
    figure.add_paper_comparison(
        "base thrash blowup at 1.8x (vs in-budget base)",
        kets[(1.8, "base")] / kets[(0.5, "base")],
    )
    figure.add_paper_comparison(
        "CC/base steady-state ratio while thrashing",
        kets[(1.8, "cc")] / kets[(1.8, "base")],
    )
    return figure


def generate_multigpu(
    gpu_counts: Sequence[int] = (2, 4, 8),
    sizes: Sequence[int] = (16 * units.MiB, 256 * units.MiB, units.GB),
) -> FigureResult:
    """Secure multi-GPU all-reduce: naive vs batched metadata
    management over NVLink-class links (the Sec. VIII scaling
    direction, after Na et al. HPCA'24)."""
    from ..multigpu import LinkSecurity, MultiGPUNode, ring_all_reduce

    rows = []
    bandwidths = {}
    for num_gpus in gpu_counts:
        node = MultiGPUNode(num_gpus=num_gpus)
        for size in sizes:
            for security in LinkSecurity:
                result = ring_all_reduce(node, size, security)
                bandwidths[(num_gpus, size, security)] = (
                    result.algo_bandwidth_gbps
                )
                rows.append(
                    (
                        num_gpus,
                        size // units.MiB,
                        security.value,
                        round(units.to_ms(result.time_ns), 4),
                        round(result.algo_bandwidth_gbps, 1),
                    )
                )
    figure = FigureResult(
        figure_id="ext_multigpu",
        title="Secure multi-GPU ring all-reduce: metadata-policy cost",
        columns=("gpus", "size_MiB", "link_security",
                 "all_reduce_ms", "algo_GB_per_s"),
        rows=rows,
        notes=[
            "Batched metadata management keeps secure collectives within "
            "a few percent of plaintext links; naive per-flit counters "
            "lose ~40 % of bandwidth — the gap the HPCA'24 work closes.",
        ],
    )
    big = units.GB
    figure.add_paper_comparison(
        "batched / plaintext all-reduce bandwidth (8 GPUs, 1 GB)",
        bandwidths[(8, big, LinkSecurity.BATCHED)]
        / bandwidths[(8, big, LinkSecurity.NONE)],
    )
    figure.add_paper_comparison(
        "naive / plaintext all-reduce bandwidth (8 GPUs, 1 GB)",
        bandwidths[(8, big, LinkSecurity.NAIVE)]
        / bandwidths[(8, big, LinkSecurity.NONE)],
    )
    # Hierarchical H100-NVL topology: NVLink islands bridged by PCIe —
    # under CC the cross-island hop pays the main paper's bounce+crypto
    # tax, dominating the collective.
    from ..multigpu import hierarchical_all_reduce

    hier_base = hierarchical_all_reduce(
        SystemConfig.base(), 2, 2, 256 * units.MiB, LinkSecurity.NONE
    )
    hier_cc = hierarchical_all_reduce(
        SystemConfig.confidential(), 2, 2, 256 * units.MiB,
        LinkSecurity.BATCHED,
    )
    figure.rows.append(
        ("2x2-hier", 256, "none", round(units.to_ms(hier_base.time_ns), 4),
         round(hier_base.algo_bandwidth_gbps, 1))
    )
    figure.rows.append(
        ("2x2-hier", 256, "cc-pcie", round(units.to_ms(hier_cc.time_ns), 4),
         round(hier_cc.algo_bandwidth_gbps, 1))
    )
    figure.add_paper_comparison(
        "CC tax on cross-island (hier cc/base, 2x2 NVL pairs)",
        hier_cc.time_ns / hier_base.time_ns,
    )
    return figure


def generate_distributed_training(
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    model_name: str = "resnet50",
    batch_per_gpu: int = 256,
) -> FigureResult:
    """Data-parallel CC training across GPUs and topologies — the
    composition of the paper's single-GPU findings with multi-GPU
    scaling: gradient sync over the CC PCIe bridge (NVL pairs) inherits
    the full transfer tax every step."""
    from ..dnn import data_parallel_train, get

    model = get(model_name)
    rows = []
    eff = {}
    for topology in ("nvlink", "nvl-pairs"):
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            for num_gpus in gpu_counts:
                result = data_parallel_train(
                    model, num_gpus, batch_per_gpu, "fp32", config,
                    topology=topology,
                )
                eff[(topology, label, num_gpus)] = result.scaling_efficiency
                rows.append(
                    (
                        topology,
                        label,
                        num_gpus,
                        round(units.to_ms(result.step_time_ns), 2),
                        round(units.to_ms(result.allreduce_ns), 2),
                        round(result.throughput_img_per_sec, 0),
                        round(result.scaling_efficiency, 3),
                    )
                )
    figure = FigureResult(
        figure_id="ext_distributed_training",
        title=f"Data-parallel {model_name} training (batch {batch_per_gpu}/GPU)",
        columns=("topology", "mode", "gpus", "step_ms",
                 "allreduce_ms", "img_per_s", "scaling_eff"),
        rows=rows,
        notes=[
            "On a full NVLink fabric, CC barely dents scaling; on H100 "
            "NVL pairs the gradient all-reduce crosses the CC PCIe "
            "bounce+crypto path and scaling efficiency collapses.",
        ],
    )
    if 4 in gpu_counts:
        figure.add_paper_comparison(
            "CC scaling efficiency, 4 GPUs on NVLink fabric",
            eff[("nvlink", "cc", 4)],
        )
        figure.add_paper_comparison(
            "CC scaling efficiency, 4 GPUs on NVL pairs",
            eff[("nvl-pairs", "cc", 4)],
        )
        figure.add_paper_comparison(
            "base scaling efficiency, 4 GPUs on NVL pairs",
            eff[("nvl-pairs", "base", 4)],
        )
    return figure


def generate_model_load() -> FigureResult:
    """Time to upload Llama-3-8B's weights (16 GB BF16) under each
    transfer regime — the workload PipeLLM (Sec. VIII [19]) targets:
    model load is a giant H2D burst that CC's software crypto turns
    from sub-second into many seconds."""
    from ..llm import LLAMA3_8B

    weight_bytes = LLAMA3_8B.param_bytes(16)
    chunk = 256 * units.MiB
    chunks = units.pages(weight_bytes, chunk)

    def load_time(config: SystemConfig) -> int:
        guest = GuestContext(Simulator(), config)
        total = 0
        for _ in range(chunks):
            plan = plan_copy(
                config, guest, CopyKind.H2D, chunk, MemoryKind.PINNED,
                cold=False,
            )
            total += plan.total_ns
        return total

    cc = SystemConfig.confidential()
    scenarios = [
        ("base", SystemConfig.base()),
        ("cc", cc),
        ("cc+pipelined-4t", cc.replace(
            tdx=dataclasses.replace(cc.tdx, crypto_threads=4))),
        ("cc+teeio", cc.replace(
            tdx=dataclasses.replace(cc.tdx, teeio=True))),
    ]
    rows = []
    times = {}
    for label, config in scenarios:
        t = load_time(config)
        times[label] = t
        rows.append(
            (
                label,
                round(units.to_sec(t), 3),
                round(units.bandwidth_gb_per_sec(weight_bytes, t), 2),
            )
        )
    figure = FigureResult(
        figure_id="ext_model_load",
        title=f"Llama-3-8B weight upload ({weight_bytes / units.GB:.1f} GB)",
        columns=("mode", "load_time_s", "GB_per_s"),
        rows=rows,
        notes=[
            "PipeLLM-style pipelined multi-worker encryption recovers "
            "most of the CC model-load penalty in software; TEE-IO "
            "removes it in hardware.",
        ],
    )
    figure.add_paper_comparison(
        "cc / base model-load time", times["cc"] / times["base"]
    )
    figure.add_paper_comparison(
        "pipelined recovers (cc / cc+pipelined)",
        times["cc"] / times["cc+pipelined-4t"],
    )
    return figure


def generate_sensitivity(
    seeds: Sequence[int] = tuple(range(8)),
    apps: Sequence[str] = ("2mm", "sc"),
) -> FigureResult:
    """Seed sensitivity of the headline ratios.

    The paper notes that for apps with very few launches "potential
    queuing time variations are not stable and can fluctuate"
    (Sec. VI-B on 3mm/atax/bicg/corr); this experiment quantifies that:
    run the same apps across RNG seeds and report the coefficient of
    variation of the CC/base ratios.
    """
    import numpy as np

    from ..core import launch_metrics
    from ..profiler import EventKind

    rows = []
    covs = {}
    for name in apps:
        info = CATALOG[name]
        klo_ratios, copy_ratios = [], []
        for seed in seeds:
            base = SystemConfig.base().replace(seed=seed)
            cc = SystemConfig.confidential().replace(seed=seed)
            tb, _ = run_app(info.app(False), base)
            tc, _ = run_app(info.app(False), cc)
            klo_ratios.append(
                launch_metrics(tc).klo_stats().mean
                / launch_metrics(tb).klo_stats().mean
            )
            copy_ratios.append(
                tc.total_duration_ns(EventKind.MEMCPY)
                / max(tb.total_duration_ns(EventKind.MEMCPY), 1)
            )
        for metric, values in (("klo", klo_ratios), ("copy", copy_ratios)):
            mean = float(np.mean(values))
            std = float(np.std(values))
            cov = std / mean if mean else 0.0
            covs[(name, metric)] = cov
            rows.append(
                (name, metric, len(seeds), round(mean, 3), round(std, 3),
                 round(100 * cov, 2))
            )
    figure = FigureResult(
        figure_id="ext_sensitivity",
        title="Seed sensitivity of CC/base ratios",
        columns=("app", "metric", "seeds", "mean", "std", "cov_pct"),
        rows=rows,
    )
    if "2mm" in apps and "sc" in apps:
        figure.add_paper_comparison(
            "few-launch app (2mm) KLO ratio noisier than launch-storm (sc)",
            float(covs[("2mm", "klo")] > covs[("sc", "klo")]),
        )
    figure.add_paper_comparison(
        "copy ratios are seed-stable (max CoV, %)",
        100 * max(covs[(name, "copy")] for name in apps),
    )
    return figure


def _first_kernel_app(rt):
    kernel = nanosleep_kernel(units.us(20), name="first")
    yield from rt.launch(kernel)
    yield from rt.synchronize()


def generate_attestation() -> FigureResult:
    """SPDM session establishment and time-to-first-kernel."""
    rows = []
    session_ns = {}
    for label, config in (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    ):
        sim = Simulator()
        guest = GuestContext(sim, config)
        process = sim.process(attest_gpu(sim, guest, config))
        session = sim.run(until=process)
        session_ns[label] = session.elapsed_ns
        trace, _ = run_app(_first_kernel_app, config)
        first_kernel = trace.kernels()[0].end_ns
        rows.append(
            (
                label,
                session.messages,
                round(units.to_ms(session.elapsed_ns), 4),
                round(units.to_us(first_kernel), 1),
                round(units.to_ms(session.elapsed_ns + first_kernel), 4),
            )
        )
    figure = FigureResult(
        figure_id="ext_attestation",
        title="SPDM attestation cost and time to first kernel",
        columns=("mode", "spdm_messages", "spdm_ms",
                 "first_kernel_us", "total_ms"),
        rows=rows,
        notes=[
            "The SPDM flow (GET_VERSION..FINISH) runs once at CC bring-up; "
            "in a TD every doorbell is hypercall-mediated, so session "
            "establishment itself is slower too.",
        ],
    )
    figure.add_paper_comparison(
        "TD attestation / VM attestation time",
        session_ns["cc"] / session_ns["base"],
    )
    return figure


def generate_fault_recovery(
    rates: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.1),
    app_name: str = "srad",
) -> FigureResult:
    """End-to-end CC overhead vs injected fault rate (repro.faults).

    Sweeps a uniform per-occurrence fault rate over every injection
    site and reports how much of the run turns into recovery time
    (wasted attempts, backoff, degraded staging).  The rate-0 row
    doubles as the zero-overhead regression: it must match a run with
    no fault plan exactly.
    """
    info = CATALOG[app_name]
    baseline_trace, _ = run_app(
        info.app(False), SystemConfig.confidential(), label="no-plan"
    )
    baseline_span = baseline_trace.span_ns()
    rows = []
    spans = {}
    recovery = {}
    for rate in rates:
        config = SystemConfig.confidential().replace(
            faults=FaultPlan.uniform(rate)
        )
        machine = Machine(config, label=f"fault-rate-{rate}")
        machine.run(info.app(False))
        trace = machine.trace
        span = trace.span_ns()
        spans[rate] = span
        recovery[rate] = trace.recovery_ns()
        rows.append(
            (
                rate,
                machine.guest.faults.total_injected,
                sum(machine.guest.faults.retries.values()),
                round(units.to_ms(recovery[rate]), 3),
                round(100.0 * recovery[rate] / span, 2) if span else 0.0,
                round(units.to_ms(span), 3),
                round(span / baseline_span, 4),
            )
        )
    top = max(rates)
    figure = FigureResult(
        figure_id="ext_fault_recovery",
        title=f"CC overhead vs injected fault rate ({app_name})",
        columns=("fault_rate", "injected", "retried", "recovery_ms",
                 "recovery_pct", "e2e_ms", "slowdown_vs_no_faults"),
        rows=rows,
        notes=[
            "Uniform per-occurrence rate at all sites (GCM tag, DMA, "
            "hypercall, bounce pool, SPDM); transient faults are retried "
            "with exponential backoff and booked as 'recovery' time.",
            "The rate-0 row is the zero-overhead guarantee: an empty "
            "plan performs no RNG draws, so the trace is byte-identical "
            "to a run without the fault layer.",
        ],
    )
    figure.add_paper_comparison(
        "rate-0 span / no-plan span (zero-overhead guarantee)",
        spans[rates[0]] / baseline_span,
    )
    figure.add_paper_comparison(
        f"slowdown at rate {top} (recovery visible end to end, > 1)",
        spans[top] / baseline_span,
        default=1.0,
    )
    return figure


EXPERIMENTS = ("teeio", "crypto_scaling", "graph_fusion_cc",
               "oversubscription", "attestation", "multigpu",
               "model_load", "sensitivity", "distributed_training",
               "fault_recovery")

VARIANTS = {name: globals()[f"generate_{name}"] for name in EXPERIMENTS}


def run(config=None):
    """Uniform harness entry point (see :mod:`repro.exec`)."""
    return dispatch(VARIANTS, config, __name__)
