"""Composition tests: repro.multigpu collectives x repro.faults.

The executable ring all-reduce (:func:`repro.multigpu.run_ring_all_reduce`)
must obey the fault layer's determinism contract:

* with ``link.transfer`` inactive the batch collapses to one coalesced
  timeout equal to ``count *`` the closed-form time — zero RNG draws,
* a transient link fault mid-collective retries with backoff and
  retrains the link (time grows) but books payload/encrypted bytes
  **exactly once per delivered chunk** — a retry costs time, never
  bytes (the double-count regression this file pins down),
* an exhausted retry budget raises :class:`FatalFault` with the fatal
  recovery in the injector ledger and the partial bytes still flushed
  exactly once into the metrics registry.
"""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.faults import LINK, FatalFault, FaultPlan, RetryPolicy, SiteFaults
from repro.multigpu import (
    LinkSecurity,
    MultiGPUNode,
    ring_all_reduce,
    run_ring_all_reduce,
    wire_bytes,
)
from repro.sim import Simulator
from repro.tdx import GuestContext

SIZE = 8 * units.MiB


def _guest(plan: FaultPlan):
    sim = Simulator()
    config = SystemConfig.confidential().replace(faults=plan)
    return sim, GuestContext(sim, config)


def _run(sim, gen):
    return sim.run(sim.process(gen))


def _counters(guest):
    metrics = guest.metrics
    return {
        name: metrics.counter(f"multigpu.{name}").value
        for name in ("collectives", "payload_bytes", "encrypted_bytes",
                     "link_retries")
    }


def test_fault_free_session_matches_closed_form_exactly():
    node = MultiGPUNode(num_gpus=4)
    sim, guest = _guest(FaultPlan.none())
    stats = _run(sim, run_ring_all_reduce(
        sim, node, SIZE, LinkSecurity.NAIVE, count=3, guest=guest))
    shape = ring_all_reduce(node, SIZE, LinkSecurity.NAIVE)
    assert sim.now == 3 * shape.time_ns
    assert stats.time_ns == 3 * shape.time_ns
    assert stats.retries == 0
    chunk = SIZE // 4
    steps = 2 * (4 - 1)
    assert stats.payload_bytes == 3 * steps * chunk
    assert stats.encrypted_bytes == 3 * steps * wire_bytes(
        node.link, chunk, LinkSecurity.NAIVE)
    counters = _counters(guest)
    assert counters["collectives"] == 3
    assert counters["payload_bytes"] == stats.payload_bytes
    assert counters["encrypted_bytes"] == stats.encrypted_bytes
    assert counters["link_retries"] == 0


def test_plaintext_links_book_zero_encrypted_bytes():
    node = MultiGPUNode(num_gpus=4)
    sim, guest = _guest(FaultPlan.none())
    stats = _run(sim, run_ring_all_reduce(
        sim, node, SIZE, LinkSecurity.NONE, guest=guest))
    assert stats.payload_bytes > 0
    assert stats.encrypted_bytes == 0
    assert _counters(guest)["encrypted_bytes"] == 0


def test_transient_link_fault_retries_without_double_counting_bytes():
    node = MultiGPUNode(num_gpus=4)
    plan = FaultPlan.from_mapping({LINK: SiteFaults(schedule=(2,))})
    sim, guest = _guest(plan)
    faulty = _run(sim, run_ring_all_reduce(
        sim, node, SIZE, LinkSecurity.NAIVE, count=2, guest=guest))

    clean_sim, clean_guest = _guest(FaultPlan.none())
    clean = _run(clean_sim, run_ring_all_reduce(
        clean_sim, node, SIZE, LinkSecurity.NAIVE, count=2,
        guest=clean_guest))

    # The retry costs time (wasted transfer + link retrain backoff) ...
    assert faulty.retries == 1
    assert faulty.time_ns > clean.time_ns
    # ... but never bytes: the ledger and the registry both match the
    # fault-free run exactly.
    assert faulty.payload_bytes == clean.payload_bytes
    assert faulty.encrypted_bytes == clean.encrypted_bytes
    assert _counters(guest)["payload_bytes"] == \
        _counters(clean_guest)["payload_bytes"]
    assert _counters(guest)["encrypted_bytes"] == \
        _counters(clean_guest)["encrypted_bytes"]
    assert _counters(guest)["link_retries"] == 1
    # The injector ledger saw exactly one transient recovery.
    assert guest.faults.injected_at(LINK) == 1


def test_retry_exhaustion_raises_fatal_and_flushes_once():
    node = MultiGPUNode(num_gpus=2)
    plan = FaultPlan.from_mapping({LINK: SiteFaults(rate=1.0)})
    sim, guest = _guest(plan)
    retry = RetryPolicy(max_attempts=2)
    with pytest.raises(FatalFault):
        _run(sim, run_ring_all_reduce(
            sim, node, SIZE, LinkSecurity.NAIVE, guest=guest, retry=retry))
    counters = _counters(guest)
    # No chunk was ever delivered: zero bytes, the one pre-fatal retry.
    assert counters["payload_bytes"] == 0
    assert counters["encrypted_bytes"] == 0
    assert counters["link_retries"] == 1
    assert guest.faults.injected_at(LINK) == 2
    assert guest.faults.fatal.get(LINK, 0) == 1


def test_fault_schedule_is_deterministic():
    node = MultiGPUNode(num_gpus=4)
    plan = FaultPlan.from_mapping({LINK: SiteFaults(rate=0.05)})

    def once():
        sim, guest = _guest(plan)
        stats = _run(sim, run_ring_all_reduce(
            sim, node, SIZE, LinkSecurity.NAIVE, count=8, guest=guest))
        return sim.now, stats.retries, stats.payload_bytes

    assert once() == once()


def test_inactive_site_entry_keeps_fast_path():
    # A plan that names the site at rate 0 is *inactive*: no draws, and
    # the elapsed time is byte-identical to the no-plan run (this is
    # what keeps `--fault-rate` uniform plans golden-safe).
    node = MultiGPUNode(num_gpus=4)
    plan = FaultPlan.from_mapping({LINK: SiteFaults(rate=0.0)})
    sim, guest = _guest(plan)
    _run(sim, run_ring_all_reduce(
        sim, node, SIZE, LinkSecurity.NAIVE, count=2, guest=guest))
    clean_sim, clean_guest = _guest(FaultPlan.none())
    _run(clean_sim, run_ring_all_reduce(
        clean_sim, node, SIZE, LinkSecurity.NAIVE, count=2,
        guest=clean_guest))
    assert sim.now == clean_sim.now
    assert guest.faults.total_injected == 0
