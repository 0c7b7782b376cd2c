"""The paper's reported values, per figure and comparison metric.

This table is the single source of truth for every number the figure
modules compare themselves against: each ``FigureResult``'s
paper-vs-measured comparison (``add_paper_comparison`` in
:mod:`repro.figures.common`) resolves its paper value here, and the
accuracy gate (:mod:`repro.check.accuracy`) scores reproduction error
against the same entries — so a figure module cannot silently drift
away from the numbers the gate enforces.

Values come from :data:`repro.calibration.PAPER` where the paper
states them directly (``_ref``), and from the figure modules' own
derived/qualitative expectations otherwise (``_lit``).  A target
marked ``qualitative`` encodes a direction or predicate ("ratio > 1",
"panel A >> panel C") rather than a published magnitude; qualitative
targets are excluded from relative-error scoring — the golden gate
pins their exact values instead.

``ACCURACY_THRESHOLDS`` holds the per-figure accuracy budget: the
maximum allowed per-metric relative error (percent) across that
figure's quantitative comparisons.  Budgets are set from the achieved
calibration quality with headroom (see EXPERIMENTS.md), so a core
refactor that degrades a figure's reproduction trips the gate before
it lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..calibration import PAPER


@dataclass(frozen=True)
class PaperTarget:
    """One paper-reported (or expected) value for a figure metric."""

    value: float
    qualitative: bool = False
    source: str = ""


def _ref(key: str) -> PaperTarget:
    """A value the paper reports directly (see repro.calibration)."""
    target = PAPER[key]
    return PaperTarget(target.value, source=target.source)


def _lit(value: float, qualitative: bool = False, source: str = "") -> PaperTarget:
    return PaperTarget(value, qualitative=qualitative, source=source)


TARGETS: Dict[str, Dict[str, PaperTarget]] = {
    "fig01_overview": {
        "cc-on / cc-off end-to-end (qualitative: > 1)":
            _lit(1.0, qualitative=True, source="Fig. 1 structure"),
        "cc-on-uvm / cc-on end-to-end (qualitative: >> 1)":
            _lit(1.0, qualitative=True, source="Fig. 1 structure"),
    },
    "fig03_perfmodel": {
        "max |prediction error| (qualitative: small)":
            _lit(0.0, qualitative=True, source="Sec. V model fit"),
    },
    "fig04a_bandwidth": {
        "CC pin-h2d peak GB/s": _ref("pcie.cc_pin_h2d_peak_gbps"),
        "base pinned h2d peak GB/s (paper-class ~25)":
            _lit(25.0, source="Fig. 4a (non-CC pinned plateau)"),
    },
    "fig04b_crypto": {
        "AES-GCM peak on EMR GB/s": _ref("crypto.aes_gcm_emr_gbps"),
        "GHASH peak on EMR GB/s": _ref("crypto.ghash_emr_gbps"),
    },
    "fig05_copytime": {
        "mean copy slowdown": _ref("copy.mean_slowdown"),
        "max copy slowdown (2dconv)": _ref("copy.max_slowdown"),
        "min copy slowdown (cnn)": _ref("copy.min_slowdown"),
    },
    "fig06_alloc": {
        "cudaMalloc slowdown": _ref("alloc.dmalloc_slowdown"),
        "cudaMallocHost slowdown": _ref("alloc.hmalloc_slowdown"),
        "cudaFree slowdown": _ref("alloc.free_slowdown"),
        "cudaMallocManaged slowdown": _ref("alloc.managed_alloc_slowdown"),
        "managed free slowdown": _ref("alloc.managed_free_slowdown"),
        "non-CC UVM alloc vs base": _ref("alloc.uvm_alloc_vs_base"),
        "non-CC UVM free vs base": _ref("alloc.uvm_free_vs_base"),
        "CC UVM alloc vs base": _ref("alloc.cc_uvm_alloc_vs_base"),
        "CC UVM free vs base": _ref("alloc.cc_uvm_free_vs_base"),
    },
    "fig07_launch_queuing": {
        "mean KLO slowdown": _ref("launch.klo_mean_slowdown"),
        "max KLO slowdown (dwt2d)": _ref("launch.klo_max_slowdown"),
        "mean LQT slowdown": _ref("launch.lqt_mean_slowdown"),
        "mean KQT slowdown": _ref("launch.kqt_mean_slowdown"),
    },
    "fig08_flamegraph": {
        "share of launch in set_memory_decrypted (qualitative: large)":
            _lit(0.5, qualitative=True, source="Fig. 8"),
        "share of launch in TDX module (__seamcall)":
            _lit(0.1, qualitative=True, source="Fig. 8"),
    },
    "fig09_ket": {
        "non-UVM CC KET increase (%)": _ref("ket.nonuvm_cc_increase_percent"),
        "UVM non-CC mean slowdown": _ref("ket.uvm_noncc_slowdown"),
        "UVM CC mean slowdown": _ref("ket.uvm_cc_mean_slowdown"),
        # The paper's 164030x extreme is a pathological thrash point the
        # simulator deliberately does not chase; direction only.
        "UVM CC max slowdown (2dconv; paper value is pathological thrash)":
            PaperTarget(PAPER["ket.uvm_cc_max_slowdown"].value,
                        qualitative=True,
                        source=PAPER["ket.uvm_cc_max_slowdown"].source),
        "UVM CC min slowdown": _ref("ket.uvm_cc_min_slowdown"),
    },
    "fig10_event_timeline": {
        "KLR panel A >> panel C": _lit(1.0, qualitative=True, source="Obs. 6"),
        "KLR panel B > panel D": _lit(1.0, qualitative=True, source="Obs. 6"),
    },
    "fig11_cdfs": {
        "KLO CDF shifts right under CC (mean ratio > 1)":
            _lit(1.0, qualitative=True, source="Fig. 11a"),
        "KET distribution ~unchanged under CC (mean ratio)":
            _lit(1.0048, source="Fig. 11b / Observation 5"),
    },
    "fig12a_launch_sequence": {
        "first-launch spike over steady (base)":
            _lit(10.0, qualitative=True,
                 source="Fig. 12a (first-launch spike, order of magnitude)"),
        "CC steady-state KLO ratio": _lit(1.25, source="Fig. 12a"),
    },
    "fig12b_fusion": {
        "mean KLO at 1 launch / at max launches (CC)":
            _lit(5.0, qualitative=True, source="Fig. 12b (trend predicate)"),
        "total KLO grows with launches (CC, max/min)":
            _lit(10.0, qualitative=True, source="Fig. 12b (trend predicate)"),
    },
    "fig12c_overlap": {
        "CC overlap speedup, 64 streams, KET 100ms vs 1ms (ratio > 1)":
            _lit(1.0, qualitative=True, source="Observation 8"),
        "base vs CC overlap speedup at 64 streams, KET 1ms (base higher)":
            _lit(1.0, qualitative=True, source="Observation 8"),
    },
    "fig13_cnn": {
        "b64 fp32 CC throughput drop mean (%)":
            _ref("cnn.b64_throughput_drop_mean"),
        "b64 fp32 CC throughput drop max (%)":
            _ref("cnn.b64_throughput_drop_max"),
        "b64 fp32 CC time increase mean (%)":
            _ref("cnn.b64_time_increase_mean"),
        "b64 fp32 CC time increase max (%)":
            _ref("cnn.b64_time_increase_max"),
        "b1024 fp32 CC throughput drop mean (%)":
            _ref("cnn.b1024_throughput_drop_mean"),
        "b1024 fp32 CC time increase mean (%)":
            _ref("cnn.b1024_time_increase_mean"),
        "amp@64 CC throughput drop mean (%)":
            _ref("cnn.amp_b64_throughput_drop_mean"),
        "amp@64 CC throughput drop max (%)":
            _ref("cnn.amp_b64_throughput_drop_max"),
        "amp@64 CC time increase mean (%)":
            _ref("cnn.amp_b64_time_increase_mean"),
        "amp@64 CC time increase max (%)":
            _ref("cnn.amp_b64_time_increase_max"),
        "amp@1024 CC vs base throughput gain mean (%)":
            _ref("cnn.amp_b1024_throughput_gain_mean"),
        "amp@1024 CC vs base throughput gain max (%)":
            _ref("cnn.amp_b1024_throughput_gain_max"),
        "amp@1024 CC vs base time drop mean (%)":
            _ref("cnn.amp_b1024_time_drop_mean"),
        "amp@1024 CC vs base time drop max (%)":
            _ref("cnn.amp_b1024_time_drop_max"),
        "fp16@1024 time drop vs AMP mean (%)":
            _ref("cnn.fp16_b1024_time_drop_mean"),
        "fp16@1024 time drop vs AMP max (%)":
            _ref("cnn.fp16_b1024_time_drop_max"),
    },
    "fig14_llm": {
        "all vLLM speedups > 1 (fraction)": _lit(1.0, source="Fig. 14"),
        "AWQ > BF16 at batch <= 32": _lit(1.0, qualitative=True, source="Fig. 14"),
        "BF16 >= AWQ at batch 64/128": _lit(1.0, qualitative=True, source="Fig. 14"),
        "CC-on <= CC-off (fraction of cells)": _lit(1.0, source="Fig. 14"),
    },
    "ext_teeio": {
        "teeio recovers transfer bandwidth (teeio/base, ~0.9+)":
            _lit(0.94, source="Sec. VI-A TEE-IO what-if"),
        "teeio end-to-end vs cc (fraction of CC slowdown removed)":
            _lit(0.64, source="Sec. VI-A TEE-IO what-if"),
    },
    "ext_crypto_scaling": {
        "8-thread CC bandwidth / base bandwidth (still < 1)":
            _lit(0.58, source="Sec. VIII (PipeLLM/FastRack regime)"),
        "2-thread speedup over 1 thread":
            _lit(1.8, source="Sec. VIII (PipeLLM/FastRack regime)"),
    },
    "ext_graph_fusion_cc": {
        "CC optimal batch >= base optimal batch":
            _lit(1.0, qualitative=True, source="Sec. VII-A deferred question"),
    },
    "ext_oversubscription": {
        "CC thrash blowup at 1.8x oversubscription (vs in-budget CC)":
            _lit(700.0, source="Fig. 9 extreme-point regime"),
        "base thrash blowup at 1.8x (vs in-budget base)":
            _lit(23.0, source="Fig. 9 extreme-point regime"),
        "CC/base steady-state ratio while thrashing":
            _lit(30.0, source="Fig. 9 extreme-point regime"),
    },
    "ext_attestation": {
        "TD attestation / VM attestation time":
            _lit(1.0, qualitative=True, source="Sec. III attestation flow"),
    },
    "ext_multigpu": {
        "batched / plaintext all-reduce bandwidth (8 GPUs, 1 GB)":
            _lit(0.96, source="Sec. VIII scaling (HPCA'24)"),
        "naive / plaintext all-reduce bandwidth (8 GPUs, 1 GB)":
            _lit(0.60, source="Sec. VIII scaling (HPCA'24)"),
        "CC tax on cross-island (hier cc/base, 2x2 NVL pairs)":
            _lit(5.0, qualitative=True,
                 source="Sec. VIII scaling (HPCA'24, order of magnitude)"),
    },
    "ext_model_load": {
        "cc / base model-load time": _lit(8.5, source="Sec. VIII [19] (PipeLLM)"),
        "pipelined recovers (cc / cc+pipelined)":
            _lit(3.5, source="Sec. VIII [19] (PipeLLM)"),
    },
    "ext_sensitivity": {
        "few-launch app (2mm) KLO ratio noisier than launch-storm (sc)":
            _lit(1.0, qualitative=True, source="Sec. VI-B fluctuation note"),
        "copy ratios are seed-stable (max CoV, %)":
            _lit(0.0, qualitative=True, source="Sec. VI-B fluctuation note"),
    },
    "ext_distributed_training": {
        "CC scaling efficiency, 4 GPUs on NVLink fabric":
            _lit(0.99, source="Sec. VIII scaling direction"),
        "CC scaling efficiency, 4 GPUs on NVL pairs":
            _lit(0.57, source="Sec. VIII scaling direction"),
        "base scaling efficiency, 4 GPUs on NVL pairs":
            _lit(0.91, source="Sec. VIII scaling direction"),
    },
    "ext_serving": {
        # Direction predicates (fractions over scheduler policies) for
        # the serving extension: under CC the goodput knee must sit at
        # a strictly lower arrival rate, and tail TTFT must inflate by
        # at least the Sec.-V model's fixed per-iteration CC tax
        # (launch path + token-copy staging/crypto).
        "CC goodput knee below base (fraction of policies)":
            _lit(1.0, source="The Serialized Bridge (Yin & Wang, 2026)"),
        "TTFT p99 inflation >= Sec.-V per-step CC tax (fraction)":
            _lit(1.0, source="Sec. V model + serialized-bridge regime"),
    },
    "ext_cluster_serving": {
        # Cluster-scale direction predicates: with kernels sharded
        # across tp GPUs, every per-layer all-reduce rides the secure
        # peer links, so the CC goodput knee sits strictly left of
        # base at every TP degree, and the knee gap widens as TP grows
        # (more taxed ring steps per sync).
        "CC goodput knee strictly below base under TP>=2 (fraction)":
            _lit(1.0, source="The Serialized Bridge (Yin & Wang, 2026)"),
        "knee degradation grows with TP degree (fraction of steps)":
            _lit(1.0, source="The Serialized Bridge (Yin & Wang, 2026)"),
    },
    "ext_fault_serving": {
        # Resilience predicates (fractions over base/cc modes) for the
        # fault-rate x policy serving sweep: zero-fault runs must be
        # byte-identical to the fault-free build, the policy-free
        # engine must fall off a goodput cliff at the top fault rate
        # (terminal SPDM storm -> give-up), and the shed+breaker
        # policy must degrade gracefully (bounded goodput loss, zero
        # failed requests) and strictly beat no-policy there.
        "zero-fault verdict byte-identical to plain build (fraction)":
            _lit(1.0, source="zero-perturbation guarantee (Sec. III)"),
        "no-policy goodput cliff at top fault rate (fraction of modes)":
            _lit(1.0, source="SPDM re-attestation storm regime (Sec. III)"),
        "shed+breaker graceful at top fault rate, zero failed (fraction)":
            _lit(1.0, source="degradation-policy regime (Sec. VIII)"),
        "shed+breaker beats no-policy at top fault rate (fraction)":
            _lit(1.0, source="degradation-policy regime (Sec. VIII)"),
    },
    "ext_serve_telemetry": {
        # Exact predicates for the request-level telemetry layer
        # (repro.serve.telemetry): pure bookkeeping must not move the
        # verdict by a byte, per-request Sec.-V breakdowns must be
        # conservative (integer-exact sums to E2E/TTFT), and the
        # tail-forensics surface must reproduce the verdict's
        # percentiles and fully attribute the base->CC p99 delta.
        "telemetry-on verdict byte-identical to off (fraction of modes)":
            _lit(1.0, source="zero-perturbation guarantee (Sec. III)"),
        "per-request breakdown sums exactly to E2E/TTFT (fraction)":
            _lit(1.0, source="Sec. V component model, conservation"),
        "forensics percentiles equal the verdict report (fraction)":
            _lit(1.0, source="nearest-rank percentile convention"),
        "TTFT p99 delta fully attributed to components (fraction)":
            _lit(1.0, source="The Serialized Bridge (Yin & Wang, 2026)"),
    },
    "ext_recovered_serving": {
        # Mitigation-ladder predicates for the recovery extension
        # (EngineTuning pipelines + repro.tune): the cumulative pipeline
        # must move the CC goodput knee strictly right of the naive CC
        # knee, claw-back must grow monotonically along the ladder,
        # coalescing token downloads must be monotone in the flush
        # period, and the full pipeline must recover the entire
        # top-rate goodput gap (overlap hides bridge DMA that stalls
        # even the native engine).
        "recovered CC knee strictly above naive CC knee (exact)":
            _lit(1.0, source="Sec. VII-A mitigations, serving regime"),
        "cumulative ladder claw-back monotone (fraction of stages)":
            _lit(1.0, source="Sec. VII-A mitigations, serving regime"),
        "token-batch completed throughput monotone in k (fraction)":
            _lit(1.0, source="serialized-bridge transit count model"),
        "full pipeline closes the top-rate goodput gap (claw-back >= 1)":
            _lit(1.0, source="Observation 8 overlap regime"),
    },
    "ext_fault_recovery": {
        "rate-0 span / no-plan span (zero-overhead guarantee)":
            _lit(1.0, source="repro.faults zero-overhead guarantee"),
        "slowdown at rate 0.1 (recovery visible end to end, > 1)":
            _lit(1.0, qualitative=True, source="repro.faults"),
    },
}

#: Per-figure accuracy budget: max allowed per-metric relative error
#: (percent) over the figure's quantitative comparisons.  Values are
#: the achieved calibration error rounded up with ~2x headroom, so the
#: gate trips on genuine model drift, not on float noise.
DEFAULT_THRESHOLD = 10.0
ACCURACY_THRESHOLDS: Dict[str, float] = {
    "fig04a_bandwidth": 8.0,        # achieved 4.0
    "fig04b_crypto": 2.0,           # achieved 0.0 (direct calibration)
    "fig05_copytime": 25.0,         # achieved 14.6 (min-slowdown app mix)
    "fig06_alloc": 30.0,            # achieved 18.9 (UVM free path)
    "fig07_launch_queuing": 10.0,   # achieved 5.0
    "fig09_ket": 75.0,              # achieved 60.4 — UVM thrash regime is
                                    # order-of-magnitude, not point-accurate
    "fig11_cdfs": 2.0,              # achieved 0.0
    "fig12a_launch_sequence": 20.0,  # achieved ~10 (steady-state ratio)
    "fig13_cnn": 60.0,              # achieved 40.4 (amp@64 max panels)
    "fig14_llm": 5.0,               # achieved 0.0 (fraction predicates)
    "ext_teeio": 10.0,              # achieved 0.3
    "ext_crypto_scaling": 10.0,     # achieved 2.1
    "ext_oversubscription": 15.0,   # achieved 3.0
    "ext_multigpu": 10.0,           # achieved <5 (link-policy ratios)
    "ext_model_load": 15.0,         # achieved 9.7
    "ext_distributed_training": 8.0,  # achieved 0.2
    "ext_fault_recovery": 1.0,      # rate-0 row is an exact guarantee
    "ext_serving": 1.0,             # fraction predicates are exact 1.0
    "ext_cluster_serving": 1.0,     # fraction predicates are exact 1.0
    "ext_fault_serving": 1.0,       # fraction predicates are exact 1.0
    "ext_serve_telemetry": 1.0,     # fraction predicates are exact 1.0
    "ext_recovered_serving": 1.0,   # fraction predicates are exact 1.0
}


def target_for(figure_id: str, metric: str) -> Optional[PaperTarget]:
    """The table entry for one figure metric, or None if unregistered."""
    return TARGETS.get(figure_id, {}).get(metric)


def paper_value(
    figure_id: str, metric: str, default: Optional[float] = None
) -> float:
    """The paper value a figure module should embed for ``metric``.

    ``default`` covers metrics with parameter-dependent names (e.g. a
    fault-rate sweep run at a non-default rate) whose canonical entry
    only exists for the default parameters.
    """
    target = target_for(figure_id, metric)
    if target is not None:
        return target.value
    if default is not None:
        return default
    raise KeyError(
        f"no paper target registered for {figure_id!r} metric {metric!r}; "
        f"add it to repro/check/paper_targets.py"
    )


def threshold_for(figure_id: str) -> float:
    return ACCURACY_THRESHOLDS.get(figure_id, DEFAULT_THRESHOLD)
