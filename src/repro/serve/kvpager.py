"""Paged KV-cache allocation with preemption for the serving layer.

Wraps the exact-accounting :class:`repro.llm.kvcache.PagedKVCache` with
the two mechanisms a multi-tenant server needs when the block pool
runs dry:

* **swap** — evict a victim's KV blocks to host memory and bring them
  back later.  The byte traffic is returned to the caller (the serving
  engine) which routes it through the simulated encrypted PCIe path,
  so under CC a preemption costs bounce-buffer staging + AES-GCM +
  hypercalls both ways — the mechanism "The Serialized Bridge" blames
  for CC's early throughput knee.
* **recompute** — drop the victim's blocks and re-run prefill over the
  tokens it had accumulated when it is rescheduled (no PCIe traffic,
  but compute paid again and prefill-budget pressure).

The pager itself is pure accounting (no simulation imports): the
engine pays the costs, property tests drive the pager directly.
Invariant: at drain (no active and no preempted sequences) the
allocator balance is exactly zero — every block back on the free list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..llm.kvcache import KVCacheError, PagedKVCache

PREEMPTION_MODES = ("swap", "recompute")


@dataclass
class PagerStats:
    """Cumulative preemption accounting for one run."""

    preemptions: int = 0
    restores: int = 0
    swap_out_bytes: int = 0
    swap_in_bytes: int = 0
    recompute_tokens: int = 0
    # Engine crash-and-restart accounting: a crash drops *all* KV
    # (resident and swapped — the session key rotates with the
    # re-attestation, so swapped copies are undecryptable too).
    crashes: int = 0
    crash_lost_tokens: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "preemptions": self.preemptions,
            "restores": self.restores,
            "swap_out_bytes": self.swap_out_bytes,
            "swap_in_bytes": self.swap_in_bytes,
            "recompute_tokens": self.recompute_tokens,
            "crashes": self.crashes,
            "crash_lost_tokens": self.crash_lost_tokens,
        }


@dataclass(frozen=True)
class PreemptPlan:
    """What the engine must pay to evict one sequence."""

    seq_id: int
    tokens: int
    swap_bytes: int  # 0 in recompute mode


@dataclass(frozen=True)
class RestorePlan:
    """What the engine must pay to bring one sequence back."""

    seq_id: int
    tokens: int
    swap_bytes: int  # 0 in recompute mode
    recompute_tokens: int  # 0 in swap mode


class KVPager:
    """Block allocator + preemption policy over a fixed HBM budget."""

    def __init__(
        self,
        capacity_bytes: int,
        block_tokens: int,
        kv_bytes_per_token: int,
        mode: str = "swap",
    ) -> None:
        if mode not in PREEMPTION_MODES:
            raise KVCacheError(
                f"unknown preemption mode {mode!r} (have {PREEMPTION_MODES})"
            )
        self.cache = PagedKVCache(capacity_bytes, block_tokens, kv_bytes_per_token)
        self.mode = mode
        self.stats = PagerStats()
        # seq id -> token count held while evicted (insertion order =
        # eviction order, used for FIFO restore).
        self._evicted: Dict[int, int] = {}
        # Sequences whose KV was lost to an engine crash: their restore
        # is a full chunked recompute even in swap mode (the swapped
        # copy died with the session key).
        self._crash_lost: set = set()

    # -- queries -----------------------------------------------------------

    @property
    def block_tokens(self) -> int:
        return self.cache.block_tokens

    @property
    def free_blocks(self) -> int:
        return self.cache.free_blocks

    @property
    def active_ids(self) -> List[int]:
        return sorted(self.cache._tables)

    @property
    def evicted_ids(self) -> List[int]:
        return list(self._evicted)

    def fits(self, total_tokens: int) -> bool:
        """Admission control: could the request *ever* be resident?"""
        return self.cache.blocks_needed(total_tokens) <= self.cache.num_blocks

    def can_admit(self, prompt_tokens: int) -> bool:
        return self.cache.can_admit(prompt_tokens)

    def seq_bytes(self, tokens: int) -> int:
        return tokens * self.cache.kv_bytes_per_token

    def decode_blocks_needed(self, seq_ids: List[int]) -> int:
        """Blocks the next decode step will allocate: one per resident
        sequence whose length is flush with a block boundary."""
        return sum(
            1
            for sid in seq_ids
            if self.cache.sequence_length(sid) % self.cache.block_tokens == 0
        )

    def drained(self) -> bool:
        return self.cache.num_sequences == 0 and not self._evicted

    # -- lifecycle ---------------------------------------------------------

    def admit(self, seq_id: int, prompt_tokens: int) -> None:
        self.cache.admit(seq_id, prompt_tokens)

    def append_token(self, seq_id: int) -> bool:
        return self.cache.append_token(seq_id)

    def release(self, seq_id: int) -> int:
        return self.cache.release(seq_id)

    def sequence_length(self, seq_id: int) -> int:
        return self.cache.sequence_length(seq_id)

    # -- preemption --------------------------------------------------------

    def preempt(self, seq_id: int) -> PreemptPlan:
        """Evict a resident sequence, freeing all its blocks."""
        if seq_id in self._evicted:
            raise KVCacheError(f"sequence {seq_id} already evicted")
        tokens = self.cache.sequence_length(seq_id)
        self.cache.release(seq_id)
        self._evicted[seq_id] = tokens
        self.stats.preemptions += 1
        swap_bytes = self.seq_bytes(tokens) if self.mode == "swap" else 0
        self.stats.swap_out_bytes += swap_bytes
        return PreemptPlan(seq_id=seq_id, tokens=tokens, swap_bytes=swap_bytes)

    def evicted_tokens(self, seq_id: int) -> int:
        if seq_id not in self._evicted:
            raise KVCacheError(f"sequence {seq_id} is not evicted")
        return self._evicted[seq_id]

    def can_restore(self, seq_id: int) -> bool:
        needed = self.cache.blocks_needed(self.evicted_tokens(seq_id))
        return needed <= self.cache.free_blocks

    def restore_is_recompute(self, seq_id: int) -> bool:
        """Will restoring this sequence re-run prefill (vs swap-in)?"""
        return self.mode == "recompute" or seq_id in self._crash_lost

    def restore(self, seq_id: int) -> RestorePlan:
        """Re-admit an evicted sequence at its saved length."""
        if not self.can_restore(seq_id):
            raise KVCacheError(f"no room to restore sequence {seq_id}")
        recompute_restore = self.restore_is_recompute(seq_id)
        tokens = self._evicted.pop(seq_id)
        self._crash_lost.discard(seq_id)
        self.cache.admit(seq_id, tokens)
        self.stats.restores += 1
        swap_bytes = 0 if recompute_restore else self.seq_bytes(tokens)
        recompute = tokens if recompute_restore else 0
        self.stats.swap_in_bytes += swap_bytes
        self.stats.recompute_tokens += recompute
        return RestorePlan(
            seq_id=seq_id,
            tokens=tokens,
            swap_bytes=swap_bytes,
            recompute_tokens=recompute,
        )

    # -- fault paths -------------------------------------------------------

    def drop_evicted(self, seq_id: int) -> int:
        """Discard an evicted sequence outright (cancellation): its
        swapped copy is released without ever being brought back."""
        tokens = self.evicted_tokens(seq_id)
        del self._evicted[seq_id]
        self._crash_lost.discard(seq_id)
        return tokens

    def crash(self) -> Dict[int, int]:
        """Engine crash: every block and every swapped copy is lost.

        Returns ``{seq_id: tokens}`` for all sequences that were live
        (resident or evicted) so the scheduler can requeue survivors;
        the allocator is left fully drained (balance zero).
        """
        lost: Dict[int, int] = {}
        for sid in self.active_ids:
            lost[sid] = self.cache.sequence_length(sid)
            self.cache.release(sid)
        for sid, tokens in self._evicted.items():
            lost[sid] = tokens
        self._evicted.clear()
        self._crash_lost.clear()
        self.stats.crashes += 1
        self.stats.crash_lost_tokens += sum(lost.values())
        return lost

    def mark_crash_lost(self, seq_id: int, tokens: int) -> None:
        """Requeue a crash survivor: it sits in the evicted queue but
        its restore is forced to chunked recompute in every mode."""
        if seq_id in self._evicted or seq_id in self.cache._tables:
            raise KVCacheError(f"sequence {seq_id} is still live")
        self._evicted[seq_id] = tokens
        self._crash_lost.add(seq_id)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        self.cache.check_invariants()
        overlap = set(self._evicted) & set(self.cache._tables)
        assert not overlap, f"sequences both resident and evicted: {overlap}"
        stray = self._crash_lost - set(self._evicted)
        assert not stray, f"crash-lost sequences not queued: {stray}"
        if self.drained():
            assert self.cache.free_blocks == self.cache.num_blocks, (
                "allocator balance nonzero at drain"
            )
