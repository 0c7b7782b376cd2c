"""First-fit address-space allocator used for host heaps, device HBM,
and the bounce-buffer pool.

Tracks free extents as a sorted list of (start, size).  Allocation is
first-fit with configurable alignment; free coalesces neighbours.  The
allocator enforces the invariants the property-based tests check: no
overlapping live blocks, frees must match a live allocation exactly,
and capacity accounting is conserved.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple


class OutOfMemoryError(MemoryError):
    """Allocation could not be satisfied."""


class AllocatorError(ValueError):
    """Allocator misuse (double free, bad address...)."""


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class ExtentAllocator:
    """First-fit extent allocator over [base, base+capacity)."""

    def __init__(self, capacity: int, base: int = 0, alignment: int = 256) -> None:
        if capacity <= 0:
            raise AllocatorError("capacity must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise AllocatorError("alignment must be a positive power of two")
        self.base = base
        self.capacity = capacity
        self.alignment = alignment
        self._free: List[Tuple[int, int]] = [(base, capacity)]  # (start, size)
        self._live: Dict[int, int] = {}  # start -> size

    # -- queries ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(self._live.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def size_of(self, address: int) -> int:
        if address not in self._live:
            raise AllocatorError(f"address {address:#x} is not allocated")
        return self._live[address]

    # -- allocate/free -----------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes (rounded up to alignment), return address."""
        if size <= 0:
            raise AllocatorError("allocation size must be positive")
        size = _align_up(size, self.alignment)
        for index, (start, extent) in enumerate(self._free):
            aligned = _align_up(start, self.alignment)
            waste = aligned - start
            if extent - waste >= size:
                # Carve: [start, aligned) stays free, [aligned, aligned+size)
                # is allocated, remainder stays free.
                del self._free[index]
                if waste:
                    self._free.insert(index, (start, waste))
                    index += 1
                remainder = extent - waste - size
                if remainder:
                    self._free.insert(index, (aligned + size, remainder))
                self._live[aligned] = size
                return aligned
        raise OutOfMemoryError(
            f"cannot allocate {size} bytes ({self.free_bytes} free, fragmented)"
        )

    def free(self, address: int) -> int:
        """Free a previous allocation; returns its size."""
        size = self._live.pop(address, None)
        if size is None:
            raise AllocatorError(f"free of unallocated address {address:#x}")
        index = bisect.bisect_left(self._free, (address, 0))
        self._free.insert(index, (address, size))
        self._coalesce(index)
        return size

    def _coalesce(self, index: int) -> None:
        # Merge with successor first, then predecessor.
        if index + 1 < len(self._free):
            start, size = self._free[index]
            nxt_start, nxt_size = self._free[index + 1]
            if start + size == nxt_start:
                self._free[index] = (start, size + nxt_size)
                del self._free[index + 1]
        if index > 0:
            prev_start, prev_size = self._free[index - 1]
            start, size = self._free[index]
            if prev_start + prev_size == start:
                self._free[index - 1] = (prev_start, prev_size + size)
                del self._free[index]

    # -- invariant check (used by property tests) -------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping is inconsistent."""
        regions = sorted(
            [(s, sz, "free") for s, sz in self._free]
            + [(s, sz, "live") for s, sz in self._live.items()]
        )
        cursor = self.base
        total = 0
        for start, size, _kind in regions:
            assert size > 0, "zero-size region"
            assert start >= cursor, "overlapping regions"
            cursor = start + size
            total += size
        assert cursor <= self.base + self.capacity, "region beyond capacity"
        assert total == self.capacity, "capacity leak"
