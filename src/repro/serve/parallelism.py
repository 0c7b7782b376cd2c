"""Model-parallel topology of one serving replica.

"The Serialized Bridge" (Yin & Wang, 2026) locates the multi-GPU CC
serving tax on the serialized host<->device bridge and the encrypted
peer links under model parallelism.  A :class:`ParallelismSpec` pins a
replica's shape — tensor-parallel degree (ring all-reduces over
:mod:`repro.multigpu` secure links after every layer), pipeline stages
(activation handoffs through the CC staging path), and the link
metadata policy paid when CC is on.  The default ``tp=1, pp=1`` spec
shards no kernel, runs no collective, allocates no staging buffer and
adds no stats keys, so the engine's output is the single-GPU engine's,
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..multigpu import LinkSecurity

TP_DEGREES = (1, 2, 4, 8)
LINK_POLICIES = ("naive", "batched")
MAX_WORLD_SIZE = 8


@dataclass(frozen=True)
class ParallelismSpec:
    """Tensor/pipeline-parallel shape of one replica engine."""

    tp: int = 1
    pp: int = 1
    link_policy: str = "naive"

    def validate(self) -> None:
        problems = []
        if self.tp not in TP_DEGREES:
            problems.append(f"tp must be one of {TP_DEGREES}, got {self.tp}")
        if self.pp < 1:
            problems.append(f"pp must be >= 1, got {self.pp}")
        if self.tp * self.pp > MAX_WORLD_SIZE:
            problems.append(
                f"tp*pp must be <= {MAX_WORLD_SIZE}, got {self.tp * self.pp}"
            )
        if self.link_policy not in LINK_POLICIES:
            problems.append(
                f"link_policy must be one of {LINK_POLICIES}, "
                f"got {self.link_policy!r}"
            )
        if problems:
            raise ValueError("invalid ParallelismSpec: " + "; ".join(problems))

    @property
    def trivial(self) -> bool:
        """True when the spec adds no parallel machinery at all."""
        return self.tp == 1 and self.pp == 1

    def link_security(self, cc_on: bool) -> LinkSecurity:
        """Peer links are plaintext in base mode (one trust domain) and
        pay counter-mode metadata under CC."""
        if not cc_on:
            return LinkSecurity.NONE
        if self.link_policy == "batched":
            return LinkSecurity.BATCHED
        return LinkSecurity.NAIVE
