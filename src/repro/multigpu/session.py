"""Executable collectives: the closed-form ring all-reduce of
:mod:`repro.multigpu.collectives`, replayed on the simulated clock with
fault injection and exactly-once metrics accounting.

The analytic :func:`~repro.multigpu.collectives.ring_all_reduce` answers
"how long would this take"; serving engines need the *process* form —
something that advances :class:`~repro.sim.Simulator` time, visits the
``link.transfer`` fault site, retries MAC failures with backoff, and
books payload/wire bytes into the metrics registry.  Determinism rules
mirror the rest of the fault layer:

* With the ``link.transfer`` site inactive the whole collective batch
  collapses to one coalesced timeout of ``count * closed_form.time_ns``
  — zero RNG draws, byte-identical to a build without this module.
* Wire/payload bytes are booked once per **delivered** chunk.  A retry
  costs time (the wasted transfer plus link retrain backoff), never
  bytes — the invariant the composition tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from ..faults import LINK, FatalFault, RetryPolicy
from .collectives import RING_REDUCE_NS_PER_BYTE, ring_all_reduce
from .links import LinkSecurity, LinkSpec, MultiGPUNode, transfer_time_ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator
    from ..tdx import GuestContext


def wire_bytes(link: LinkSpec, size: int, security: LinkSecurity) -> int:
    """On-the-wire bytes for ``size`` payload bytes under a policy.

    ``NONE`` moves plaintext with no metadata, so its *encrypted* wire
    footprint is zero; the secure policies pay their counter/MAC
    metadata overhead on every chunk.
    """
    if size <= 0 or security is LinkSecurity.NONE:
        return 0
    if security is LinkSecurity.NAIVE:
        overhead = link.naive_metadata_overhead
    else:
        overhead = link.batched_metadata_overhead
    return int(size * (1.0 + overhead))


@dataclass
class SessionStats:
    """Ledger of one :func:`run_ring_all_reduce` batch."""

    collectives: int = 0
    payload_bytes: int = 0
    encrypted_bytes: int = 0
    retries: int = 0
    time_ns: int = 0


def run_ring_all_reduce(
    sim: "Simulator",
    node: MultiGPUNode,
    size_bytes: int,
    security: LinkSecurity,
    *,
    count: int = 1,
    guest: Optional["GuestContext"] = None,
    retry: Optional[RetryPolicy] = None,
) -> Generator:
    """Run ``count`` back-to-back ring all-reduces of ``size_bytes``.

    A simulator process (generator): yields timeouts totalling the
    closed-form collective time, plus any injected-fault recovery.
    Returns a :class:`SessionStats`; metric counters are flushed into
    ``guest.metrics`` exactly once (in a ``finally``) even when a fault
    exhausts its retry budget and :class:`FatalFault` propagates.
    """
    shape = ring_all_reduce(node, size_bytes, security)
    stats = SessionStats()
    n = node.num_gpus
    chunk = max(1, size_bytes // n)
    chunk_wire = wire_bytes(node.link, chunk, security)
    steps = 2 * (n - 1)
    injector = guest.faults if guest is not None else None
    active = (
        injector is not None
        and (spec := injector.plan.spec_for(LINK)) is not None
        and spec.active
    )
    if not active:
        # Zero-overhead path: no draws, one coalesced timeout.
        total = count * shape.time_ns
        if total > 0:
            yield total
        stats.collectives = count
        stats.payload_bytes = count * steps * chunk
        stats.encrypted_bytes = count * steps * chunk_wire
        stats.time_ns = total
        _flush(guest, stats)
        return stats

    retry = retry if retry is not None else guest.config.retry
    step_transfer = transfer_time_ns(node.link, chunk, security)
    reduce_step = int(chunk * RING_REDUCE_NS_PER_BYTE)
    pending = 0  # coalesced successful-step time awaiting one timeout
    started = sim.now
    try:
        for _round in range(count):
            for step in range(steps):
                step_cost = step_transfer + (reduce_step if step < n - 1 else 0)
                attempt = 1
                while True:
                    fault = injector.draw(LINK)
                    if fault is None:
                        break
                    if pending:
                        yield pending
                        pending = 0
                    start = sim.now
                    if attempt >= retry.max_attempts:
                        # Wasted transfer surfaces the MAC failure, then
                        # the session gives up: bytes stay unbooked.
                        yield step_transfer
                        guest.record_recovery(
                            LINK, start, attempt, "link-fatal", fatal=True
                        )
                        raise FatalFault(LINK, attempt, fault)
                    yield step_transfer + retry.backoff_ns(attempt)
                    guest.record_recovery(LINK, start, attempt, "link-retrain")
                    stats.retries += 1
                    attempt += 1
                pending += step_cost
                stats.payload_bytes += chunk
                stats.encrypted_bytes += chunk_wire
            stats.collectives += 1
        if pending:
            yield pending
            pending = 0
    finally:
        if pending:
            # A fatal fault left coalesced successful time unspent; it
            # already happened on the wire, so charge it to the ledger
            # (the simulator clock stops at the failure point).
            stats.time_ns = sim.now - started + pending
        else:
            stats.time_ns = sim.now - started
        _flush(guest, stats)
    return stats


def _flush(guest: Optional["GuestContext"], stats: SessionStats) -> None:
    if guest is None:
        return
    metrics = guest.metrics
    if stats.collectives:
        metrics.counter("multigpu.collectives").inc(stats.collectives)
    if stats.payload_bytes:
        metrics.counter("multigpu.payload_bytes").inc(stats.payload_bytes)
    if stats.encrypted_bytes:
        metrics.counter("multigpu.encrypted_bytes").inc(stats.encrypted_bytes)
    if stats.retries:
        metrics.counter("multigpu.link_retries").inc(stats.retries)
