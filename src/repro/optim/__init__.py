"""Executable CC-mitigation passes over serving scenarios (paper
Sec. VII-A/VII-B).

Each pass encodes one mitigation the paper evaluates (kernel fusion,
copy/compute overlap, batched token download, staging reuse,
quantization) as a pure rewrite of a serving scenario's engine
tuning; :class:`~repro.optim.passes.PassPipeline` composes them into
the validated, ordered transforms the ``repro tune`` auto-tuner
(:mod:`repro.tune`) searches over.

The paper's own fusion and overlap experiments (Fig. 12) are
:func:`repro.workloads.fusion_sweep` and
:func:`repro.workloads.overlap_experiment`."""

from .passes import (
    PASS_FAMILIES,
    QUANT_ACCURACY_DROP_PCT,
    BatchedTokenDownloadPass,
    CopyOverlapPass,
    KernelFusionPass,
    MitigationPass,
    PassError,
    PassPipeline,
    QuantizationPass,
    StagingReusePass,
    parse_pipeline,
)

__all__ = [
    "BatchedTokenDownloadPass",
    "CopyOverlapPass",
    "KernelFusionPass",
    "MitigationPass",
    "PASS_FAMILIES",
    "PassError",
    "PassPipeline",
    "QUANT_ACCURACY_DROP_PCT",
    "QuantizationPass",
    "StagingReusePass",
    "parse_pipeline",
]
