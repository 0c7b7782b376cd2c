"""Paged KV-cache block manager (the PagedAttention allocator that
powers the vLLM-style backend, Sec. VII-B).

A real data structure, not a cost model: fixed-size token blocks, a
free list, per-sequence block tables, append/free with exact
accounting.  Property-based tests assert conservation (free + used =
total), no double allocation, and correct capacity math.
"""

from __future__ import annotations

from typing import Dict, List


class KVCacheError(RuntimeError):
    pass


class OutOfBlocksError(KVCacheError):
    """The cache cannot serve the request right now."""


class PagedKVCache:
    """Block-granular KV cache over a fixed HBM budget."""

    def __init__(
        self,
        capacity_bytes: int,
        block_tokens: int,
        kv_bytes_per_token: int,
    ) -> None:
        if block_tokens <= 0 or kv_bytes_per_token <= 0:
            raise KVCacheError("block size and per-token bytes must be positive")
        self.block_tokens = block_tokens
        self.kv_bytes_per_token = kv_bytes_per_token
        self.block_bytes = block_tokens * kv_bytes_per_token
        self.num_blocks = capacity_bytes // self.block_bytes
        if self.num_blocks <= 0:
            raise KVCacheError("capacity smaller than one block")
        self._free: List[int] = list(range(self.num_blocks))
        self._tables: Dict[int, List[int]] = {}  # seq id -> block list
        self._lengths: Dict[int, int] = {}  # seq id -> token count

    # -- queries -----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - len(self._free)

    @property
    def num_sequences(self) -> int:
        return len(self._tables)

    def sequence_length(self, seq_id: int) -> int:
        self._require(seq_id)
        return self._lengths[seq_id]

    def blocks_needed(self, num_tokens: int) -> int:
        return (num_tokens + self.block_tokens - 1) // self.block_tokens

    def can_admit(self, prompt_tokens: int) -> bool:
        return self.blocks_needed(prompt_tokens) <= self.free_blocks

    def _require(self, seq_id: int) -> None:
        if seq_id not in self._tables:
            raise KVCacheError(f"unknown sequence {seq_id}")

    # -- lifecycle -----------------------------------------------------------

    def admit(self, seq_id: int, prompt_tokens: int) -> List[int]:
        """Allocate blocks for a new sequence's prompt."""
        if seq_id in self._tables:
            raise KVCacheError(f"sequence {seq_id} already admitted")
        if prompt_tokens <= 0:
            raise KVCacheError("prompt must have at least one token")
        needed = self.blocks_needed(prompt_tokens)
        if needed > len(self._free):
            raise OutOfBlocksError(
                f"need {needed} blocks, only {len(self._free)} free"
            )
        blocks = [self._free.pop() for _ in range(needed)]
        self._tables[seq_id] = blocks
        self._lengths[seq_id] = prompt_tokens
        return list(blocks)

    def append_token(self, seq_id: int) -> bool:
        """Account one generated token; returns True if a new block was
        allocated for it."""
        self._require(seq_id)
        length = self._lengths[seq_id]
        new_length = length + 1
        if self.blocks_needed(new_length) > len(self._tables[seq_id]):
            if not self._free:
                raise OutOfBlocksError("cache exhausted on decode")
            self._tables[seq_id].append(self._free.pop())
            self._lengths[seq_id] = new_length
            return True
        self._lengths[seq_id] = new_length
        return False

    def release(self, seq_id: int) -> int:
        """Free a finished sequence; returns blocks returned."""
        self._require(seq_id)
        blocks = self._tables.pop(seq_id)
        del self._lengths[seq_id]
        self._free.extend(blocks)
        return len(blocks)

    def check_invariants(self) -> None:
        held = [b for table in self._tables.values() for b in table]
        assert len(held) + len(self._free) == self.num_blocks, "block leak"
        combined = held + self._free
        assert len(set(combined)) == len(combined), "double allocation"
        for seq_id, table in self._tables.items():
            assert self.blocks_needed(self._lengths[seq_id]) == len(table), (
                f"table size mismatch for seq {seq_id}"
            )
