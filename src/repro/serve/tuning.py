"""Engine-level CC-mitigation knobs (paper Sec. VII-A, VII-B).

:class:`EngineTuning` is a frozen record of engine cost-path switches
that :class:`~repro.serve.scheduler.ServingEngine` consults on its hot
path, and it is also the one spelling of a mitigation pipeline:
:meth:`EngineTuning.describe` writes the record as
``"fusion+overlap:2+batch:4+staging+quant:awq:8"`` (``"naive"`` when
every knob is inert) and :meth:`EngineTuning.parse` reads that text
back.  The ``repro tune`` search (:mod:`repro.tune`) and the
``ext_recovered_serving`` figure enumerate pipelines as such strings.

The engine has one cost path for every tuning.  The defaults
(``EngineTuning()``) fuse nothing, flush tokens synchronously after
each decode step and add no stats keys, so they reproduce the
committed verdicts, goldens and traces byte for byte.

The knobs map onto the paper's evaluated mitigations, one pipeline
family each (:data:`FAMILY_ORDER`):

``fusion`` -> ``fuse_step_kernels``
    Launch admitted-prefill + decode as ONE fused kernel per mixed
    iteration, folding the per-launch CC tax (KLO hypercalls,
    pushbuffer crypto, command-processor auth) and — on parallel
    engines — one collective session per iteration (Sec. VII-A,
    Observation 7).

``overlap[:n]`` -> ``d2h_streams`` (bare ``overlap`` is 2)
    Flush token downloads with ``cudaMemcpyAsync`` on a side stream,
    double-buffered across ``d2h_streams`` host buffers, so the DMA
    leg hides behind the next iteration's compute.  The CPU
    staging/AES-GCM leg stays synchronous — the single-OpenSSL-worker
    limit that makes overlap recover less under CC (Observation 8).

``batch[:k]`` -> ``token_flush_every`` (bare ``batch`` is 4)
    Coalesce the per-step token-ids D2H into one flush every *k*
    decode steps: fewer encrypted transits across the serialized
    bridge, at the cost of delayed token delivery (TTFT/TPOT).

``staging`` -> ``split_swap_staging``
    Direction-stable KV-swap staging buffers: swap-out and swap-in
    each keep a dedicated pinned bounce buffer, so the UVM-backed
    pages never flip transfer direction and the per-flip
    page-conversion cost is paid once, not per preemption cycle.

``quant[:scheme[:bits]]`` -> ``quant`` / ``kv_bits`` (bare: ``awq:8``)
    Weight quantization (e.g. AWQ) shrinks the decode roofline's
    weight-read term, and narrower KV entries shrink the paged-KV
    footprint (fewer preemptions, less encrypted swap traffic).  The
    accuracy cost is carried as metadata
    (:attr:`EngineTuning.accuracy_drop_pct`), not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from ..llm.config import QUANTS

#: Upper bound on batched token-download coalescing.  The engine sizes
#: its token host buffers to hold this many steps of a full batch
#: (4 B per token), never below 64 KiB.
MAX_FLUSH_EVERY = 64
#: Upper bound on D2H flush buffers/streams (diminishing returns past
#: double-buffering; the CPU crypto leg is serialized regardless).
MAX_D2H_STREAMS = 8

KV_BITS_CHOICES = (4, 8, 16)

#: Pipeline families in :meth:`EngineTuning.describe` order, each with
#: the most colon-separated arguments it takes.
FAMILY_ORDER = ("fusion", "overlap", "batch", "staging", "quant")
_MAX_ARGS = dict(zip(FAMILY_ORDER, (0, 1, 1, 0, 2)))

#: Published perplexity-degradation ballpark per quant scheme: the
#: accuracy axis the tuner reports, not a simulated model quality.
QUANT_ACCURACY_DROP_PCT: Dict[str, float] = {"bf16": 0.0, "awq": 0.4}


class TuningError(ValueError):
    """An :class:`EngineTuning` field or pipeline string is invalid."""


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
        for name in ("fuse_step_kernels", "split_swap_staging"):
            if not isinstance(getattr(self, name), bool):
                raise TuningError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        for name, top in (("token_flush_every", MAX_FLUSH_EVERY),
                          ("d2h_streams", MAX_D2H_STREAMS)):
            value = getattr(self, name)
            if type(value) is not int or not 1 <= value <= top:
                raise TuningError(
                    f"{name} must be an int in [1, {top}], got {value!r}"
                )
        if not isinstance(self.quant, str) or self.quant not in QUANTS:
            raise TuningError(
                f"unknown quant {self.quant!r} (have {sorted(QUANTS)})"
            )
        if type(self.kv_bits) is not int or (
            self.kv_bits not in KV_BITS_CHOICES
        ):
            raise TuningError(
                f"kv_bits must be one of {KV_BITS_CHOICES}, "
                f"got {self.kv_bits!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "EngineTuning":
        """Read a pipeline string; the inverse of :meth:`describe`.

        ``"naive"`` (or the empty string) is the inert tuning.  Families
        may come in any order but at most once; ``overlap:1`` and
        ``batch:1`` are rejected as no-ops.
        """
        raw = text.strip().lower()
        knobs: Dict[str, object] = {}
        seen = set()
        for token in () if raw in ("", "naive") else raw.split("+"):
            family, *args = token.strip().split(":")
            if family not in _MAX_ARGS:
                raise TuningError(
                    f"unknown pass family {family!r} in {text!r} "
                    f"(have {list(FAMILY_ORDER)})"
                )
            if family in seen:
                raise TuningError(
                    f"duplicate pass family {family!r} in {text!r}"
                )
            seen.add(family)
            if len(args) > _MAX_ARGS[family]:
                raise TuningError(
                    f"{family!r} takes at most {_MAX_ARGS[family]} "
                    f"argument(s), got {token!r}"
                )
            if family == "fusion":
                knobs["fuse_step_kernels"] = True
            elif family == "overlap":
                knobs["d2h_streams"] = _parse_int(token, args, 2, least=2)
            elif family == "batch":
                knobs["token_flush_every"] = _parse_int(
                    token, args, 4, least=2
                )
            elif family == "staging":
                knobs["split_swap_staging"] = True
            else:
                knobs["quant"] = args[0] if args else "awq"
                knobs["kv_bits"] = _parse_int(token, args[1:], 8)
        tuning = cls(**knobs)
        tuning.validate()
        return tuning

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

    @property
    def accuracy_drop_pct(self) -> float:
        """Published quality cost of the quant scheme (0.0 for bf16)."""
        return QUANT_ACCURACY_DROP_PCT[self.quant]


def _parse_int(token: str, args, default: int, least: int = 0) -> int:
    """The first of ``args`` as an int (``default`` when absent)."""
    if not args:
        return default
    try:
        value = int(args[0])
    except ValueError:
        raise TuningError(
            f"bad integer {args[0]!r} in pipeline token {token!r}"
        ) from None
    if value < least:
        raise TuningError(
            f"{token!r} needs a value >= {least} (1 would be a no-op)"
        )
    return value


_DEFAULT = EngineTuning()
