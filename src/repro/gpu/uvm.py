"""Unified Virtual Memory subsystem: GMMU far faults, migration,
prefetching, and CC "encrypted paging" (paper Sec. II-B, VI-A, VI-B).

Base mode: a GPU access to a non-resident managed page raises a far
fault; the CPU-side UVM driver services batches of faults (20-50 us
per batch) and migrates data in migration-chunk units, prefetching up
to a VA block when access density is high.

CC mode: migrated pages cannot be DMA'd directly from TD-private
memory, so every chunk round-trips through the bounce buffer with
AES-GCM ("encrypted paging"), per-chunk hypercalls are required, and
the effective chunk size collapses to ``cc_migration_chunk_bytes`` —
this is what blows UVM kernel time up by orders of magnitude
(Observation 5: average 188.87x, up to 164030x).
"""

from __future__ import annotations

from typing import Dict, Generator

from .. import units
from ..config import SystemConfig
from ..tdx import GuestContext


class ManagedAllocation:
    """Residency bookkeeping for one cudaMallocManaged region.

    One byte per chunk (1 = on the GPU), so every query and update is a
    C-level ``count`` or slice assignment rather than a Python loop.
    """

    def __init__(self, size: int, chunk_bytes: int) -> None:
        self.size = size
        self.chunk_bytes = chunk_bytes
        self.num_chunks = units.pages(size, chunk_bytes)
        self._on_gpu = bytearray(self.num_chunks)
        self.last_touch_ns: int = 0

    def resident_chunks(self) -> int:
        return self._on_gpu.count(1)

    @property
    def resident_bytes(self) -> int:
        return self._on_gpu.count(1) * self.chunk_bytes

    def evict_all(self) -> int:
        """Drop every resident chunk; returns chunks evicted."""
        count = self._on_gpu.count(1)
        self._on_gpu = bytearray(self.num_chunks)
        return count

    def _prefix_chunks(self, byte_count: int) -> int:
        return min(units.pages(byte_count, self.chunk_bytes), self.num_chunks)

    def nonresident_in_prefix(self, byte_count: int) -> int:
        """Chunks within the first ``byte_count`` bytes not on the GPU."""
        wanted = self._prefix_chunks(byte_count)
        return wanted - self._on_gpu.count(1, 0, wanted)

    def mark_resident(self, byte_count: int) -> None:
        wanted = self._prefix_chunks(byte_count)
        self._on_gpu[:wanted] = b"\x01" * wanted

    def evict_to_host(self, byte_count: int) -> int:
        """CPU touch pulls chunks back; returns chunks moved."""
        wanted = self._prefix_chunks(byte_count)
        moved = self._on_gpu.count(1, 0, wanted)
        self._on_gpu[:wanted] = bytes(wanted)
        return moved


class UVMManager:
    """Services far faults for all managed allocations of one machine."""

    def __init__(self, sim, config: SystemConfig, guest: GuestContext) -> None:
        self.sim = sim
        self.config = config
        self.guest = guest
        self._allocations: Dict[int, ManagedAllocation] = {}
        self._next_id = 1
        budget = config.uvm.oversubscription_budget_bytes
        self.budget_bytes = budget if budget is not None else config.gpu.hbm_bytes
        # Statistics
        self.total_faults = 0
        self.total_migrated_bytes = 0
        self.total_evicted_bytes = 0
        self.total_evictions = 0

    # -- allocation lifecycle ---------------------------------------------

    def register(self, size: int) -> int:
        """Create residency tracking for a managed buffer; returns id."""
        uvm = self.config.uvm
        chunk = (
            uvm.cc_migration_chunk_bytes
            if self.config.cc_on
            else uvm.migration_chunk_bytes
        )
        handle = self._next_id
        self._next_id += 1
        self._allocations[handle] = ManagedAllocation(size, chunk)
        return handle

    def unregister(self, handle: int) -> None:
        del self._allocations[handle]

    def allocation(self, handle: int) -> ManagedAllocation:
        return self._allocations[handle]

    # -- fault service -------------------------------------------------------

    def migration_chunk_time_ns(self, chunk_bytes: int) -> int:
        """Cost of moving one chunk H2D during fault service."""
        uvm = self.config.uvm
        if not self.config.cc_on:
            return units.transfer_time_ns(chunk_bytes, uvm.migration_bw)
        # Encrypted paging: software AES-GCM + bounce round trip + DMA.
        encrypt = self.guest.crypt_time_ns(chunk_bytes)
        dma = units.transfer_time_ns(chunk_bytes, self.config.pcie.dma_h2d_bw)
        hypercalls = uvm.cc_extra_fault_hypercalls * self.config.hypercall_ns()
        bounce_copy = units.transfer_time_ns(chunk_bytes, self.config.cpu.memcpy_bw)
        return encrypt + dma + hypercalls + bounce_copy

    # -- oversubscription / eviction ----------------------------------------

    @property
    def resident_bytes(self) -> int:
        return sum(a.resident_bytes for a in self._allocations.values())

    def _evict_for(
        self, handle: int, incoming_bytes: int, scope: str = "cpu"
    ) -> Generator:
        """LRU writeback until ``incoming_bytes`` fit in the budget.

        Whole allocations are evicted least-recently-touched first (the
        UVM driver evicts at VA-block granularity; allocation granularity
        is the coarsest — and most pessimistic — approximation, which is
        the regime that matters for thrash studies).
        """
        while (
            self.resident_bytes + incoming_bytes > self.budget_bytes
        ):
            victims = [
                (a.last_touch_ns, h)
                for h, a in self._allocations.items()
                if h != handle and a.resident_chunks() > 0
            ]
            if not victims:
                break  # nothing else to evict; allow overshoot
            _when, victim_handle = min(victims)
            victim = self._allocations[victim_handle]
            evicted_chunks = victim.evict_all()
            self.total_evictions += 1
            self.total_evicted_bytes += evicted_chunks * victim.chunk_bytes
            # Writeback D2H: encrypted per chunk under CC, streamed in
            # base mode.
            if self.config.cc_on:
                writeback = evicted_chunks * self.migration_chunk_time_ns(
                    victim.chunk_bytes
                )
            else:
                writeback = units.transfer_time_ns(
                    evicted_chunks * victim.chunk_bytes,
                    self.config.uvm.migration_bw,
                )
            yield max(writeback, 1)
            self.guest.spans.record(
                "uvm.evict",
                "dma",
                self.sim.now - max(writeback, 1),
                max(writeback, 1),
                scope=scope,
                bytes=evicted_chunks * victim.chunk_bytes,
            )

    def gpu_touch(
        self, handle: int, byte_count: int, scope: str = "cpu"
    ) -> Generator:
        """A kernel touches the first ``byte_count`` bytes of a buffer.

        Simulates the fault/migration traffic needed to make them
        resident; returns (migrated_bytes, elapsed_ns).  Called from
        within the kernel-execution process, so the elapsed time
        extends KET — matching how the paper measures UVM kernels.
        """
        alloc = self._allocations[handle]
        alloc.last_touch_ns = self.sim.now
        missing = alloc.nonresident_in_prefix(byte_count)
        if missing == 0:
            return (0, 0)
        uvm = self.config.uvm
        chunk_bytes = alloc.chunk_bytes
        start = self.sim.now
        yield from self._evict_for(handle, missing * chunk_bytes, scope=scope)

        if self.config.cc_on:
            # Encrypted paging defeats batching: each chunk pays a
            # fault-service round trip.
            chunks_per_batch = 1
        else:
            # Fault batching + prefetch: one service round trip brings
            # in up to a VA block (prefetch on) or a fault batch.
            if uvm.prefetch_enabled:
                chunks_per_batch = max(1, uvm.va_block_bytes // chunk_bytes)
            else:
                chunks_per_batch = max(
                    1, (uvm.fault_batch_pages * uvm.os_page_bytes) // chunk_bytes
                )
        full, last = divmod(missing, chunks_per_batch)
        batches = full + (1 if last else 0)

        # In base mode, prefetching and warp parallelism hide part of
        # the migration behind execution; encrypted paging under CC is
        # fully serialized on the CPU crypto worker.
        stall = 1.0 if self.config.cc_on else uvm.stall_fraction
        chunk_ns = self.migration_chunk_time_ns(chunk_bytes)

        def batch_ns(chunks: int) -> int:
            # Each batch is rounded on its own, as if paid separately.
            return max(1, int((uvm.fault_service_ns + chunk_ns * chunks) * stall))

        # The batches run back to back with nothing shared in between,
        # so the whole burst is paid with one timeout.
        self.total_faults += batches
        yield full * batch_ns(chunks_per_batch) + (batch_ns(last) if last else 0)
        alloc.mark_resident(byte_count)
        migrated = missing * chunk_bytes
        elapsed = self.sim.now - start
        self.total_migrated_bytes += migrated
        self.guest.spans.record(
            "uvm.migrate",
            "dma",
            start,
            elapsed,
            scope=scope,
            bytes=migrated,
            batches=batches,
        )
        self.guest.metrics.counter("uvm.migrated_bytes").inc(migrated)
        if self.config.cc_on:
            # Encrypted paging: every migrated chunk is AES-GCM'd.
            self.guest.metrics.counter("crypto.encrypted_bytes").inc(migrated)
        return (migrated, elapsed)

    def cpu_touch(self, handle: int, byte_count: int) -> Generator:
        """Host access migrates chunks back to CPU memory (D2H)."""
        alloc = self._allocations[handle]
        moved = alloc.evict_to_host(byte_count)
        if moved == 0:
            return (0, 0)
        start = self.sim.now
        chunk_bytes = alloc.chunk_bytes
        uvm = self.config.uvm
        if self.config.cc_on:
            # Every chunk pays its own fault round trip and encrypted
            # copy, back to back: one timeout covers them all.
            chunk_ns = self.migration_chunk_time_ns(chunk_bytes)
            yield moved * (uvm.fault_service_ns + chunk_ns)
        else:
            total = moved * chunk_bytes
            yield uvm.fault_service_ns + units.transfer_time_ns(
                total, uvm.migration_bw
            )
        elapsed = self.sim.now - start
        self.guest.spans.record(
            "uvm.migrate_d2h",
            "dma",
            start,
            elapsed,
            bytes=moved * chunk_bytes,
        )
        self.guest.metrics.counter("uvm.migrated_bytes").inc(
            moved * chunk_bytes
        )
        if self.config.cc_on:
            self.guest.metrics.counter("crypto.encrypted_bytes").inc(
                moved * chunk_bytes
            )
        return (moved * chunk_bytes, elapsed)
