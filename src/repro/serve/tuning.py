"""Engine-level CC-mitigation knobs (paper Sec. VII-A, VII-B).

:class:`EngineTuning` is the *mechanism* half of the mitigation layer:
a frozen record of engine cost-path switches that
:class:`~repro.serve.scheduler.ServingEngine` consults on its hot
path.  The *policy* half — which knobs to flip and in what order —
lives in :mod:`repro.optim.passes`, where composable
:class:`~repro.optim.passes.MitigationPass` transforms produce tuning
records; :mod:`repro.serve` deliberately never imports
:mod:`repro.optim`, so the dependency arrow points one way.

The engine has one cost path for every tuning.  The defaults
(``EngineTuning()``) fuse nothing, flush tokens synchronously after
each decode step and add no stats keys, so they reproduce the
committed verdicts, goldens and traces byte for byte.

The knobs map onto the paper's evaluated mitigations:

``fuse_step_kernels``
    Launch admitted-prefill + decode as ONE fused kernel per mixed
    iteration, folding the per-launch CC tax (KLO hypercalls,
    pushbuffer crypto, command-processor auth) and — on parallel
    engines — one collective session per iteration (Sec. VII-A,
    Observation 7).

``token_flush_every``
    Coalesce the per-step token-ids D2H into one flush every *k*
    decode steps: fewer encrypted transits across the serialized
    bridge, at the cost of delayed token delivery (TTFT/TPOT).

``d2h_streams``
    Flush token downloads with ``cudaMemcpyAsync`` on a side stream,
    double-buffered across ``d2h_streams`` host buffers, so the DMA
    leg hides behind the next iteration's compute.  The CPU
    staging/AES-GCM leg stays synchronous — the single-OpenSSL-worker
    limit that makes overlap recover less under CC (Observation 8).

``split_swap_staging``
    Direction-stable KV-swap staging buffers: swap-out and swap-in
    each keep a dedicated pinned bounce buffer, so the UVM-backed
    pages never flip transfer direction and the per-flip
    page-conversion cost is paid once, not per preemption cycle.

``quant`` / ``kv_bits``
    Weight quantization (e.g. AWQ) shrinks the decode roofline's
    weight-read term, and narrower KV entries shrink the paged-KV
    footprint (fewer preemptions, less encrypted swap traffic).  The
    accuracy cost is carried as pass-config metadata
    (:class:`~repro.optim.passes.QuantizationPass`), not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..llm.config import QUANTS

#: Upper bound on batched token-download coalescing.  The engine sizes
#: its token host buffers to hold this many steps of a full batch
#: (4 B per token), never below 64 KiB.
MAX_FLUSH_EVERY = 64
#: Upper bound on D2H flush buffers/streams (diminishing returns past
#: double-buffering; the CPU crypto leg is serialized regardless).
MAX_D2H_STREAMS = 8

KV_BITS_CHOICES = (4, 8, 16)


class TuningError(ValueError):
    """An :class:`EngineTuning` field is out of range."""


@dataclass(frozen=True)
class EngineTuning:
    """Validated engine mitigation knobs; defaults are all inert."""

    fuse_step_kernels: bool = False
    token_flush_every: int = 1
    d2h_streams: int = 1
    split_swap_staging: bool = False
    quant: str = "bf16"
    kv_bits: int = 16

    def validate(self) -> None:
        if not isinstance(self.token_flush_every, int) or not (
            1 <= self.token_flush_every <= MAX_FLUSH_EVERY
        ):
            raise TuningError(
                f"token_flush_every must be an int in "
                f"[1, {MAX_FLUSH_EVERY}], got {self.token_flush_every!r}"
            )
        if not isinstance(self.d2h_streams, int) or not (
            1 <= self.d2h_streams <= MAX_D2H_STREAMS
        ):
            raise TuningError(
                f"d2h_streams must be an int in [1, {MAX_D2H_STREAMS}], "
                f"got {self.d2h_streams!r}"
            )
        if self.quant not in QUANTS:
            raise TuningError(
                f"unknown quant {self.quant!r} (have {sorted(QUANTS)})"
            )
        if self.kv_bits not in KV_BITS_CHOICES:
            raise TuningError(
                f"kv_bits must be one of {KV_BITS_CHOICES}, "
                f"got {self.kv_bits!r}"
            )

    @property
    def trivial(self) -> bool:
        """True when every knob is at its default (the engine adds
        no ``tuning*`` stats keys)."""
        default = _DEFAULT
        return all(
            getattr(self, f.name) == getattr(default, f.name)
            for f in fields(self)
        )

    def describe(self) -> str:
        """Stable human/machine label for verdicts and telemetry."""
        parts = []
        if self.fuse_step_kernels:
            parts.append("fusion")
        if self.d2h_streams > 1:
            parts.append(f"overlap:{self.d2h_streams}")
        if self.token_flush_every > 1:
            parts.append(f"batch:{self.token_flush_every}")
        if self.split_swap_staging:
            parts.append("staging")
        if self.quant != "bf16" or self.kv_bits != 16:
            parts.append(f"quant:{self.quant}:{self.kv_bits}")
        return "+".join(parts) if parts else "naive"


_DEFAULT = EngineTuning()
