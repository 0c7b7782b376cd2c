"""Guest execution context: a regular VM or a trust domain (TD).

This is the CPU-side substrate of the paper's Fig. 2: the guest kernel
plus device driver run inside a VM or TD; interactions with the outside
world (hypervisor, TDX module, device MMIO) cost a VM exit — and under
TDX a much more expensive tdx_hypercall through the SEAM-mode TDX
module (the paper cites a +470 % latency increase [16]).

Timed operations are generator coroutines to be driven by the
simulation kernel; plain guest CPU time is a duration the caller yields
(:meth:`GuestContext.cpu_ns`).  They record spans (folded into the
Fig. 8 flame graph) and the per-primitive counters used in overhead
breakdowns.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..config import SystemConfig
from ..crypto import throughput as crypto_throughput
from ..faults import HYPERCALL, FatalFault, FaultInjector
from ..mem import BounceBufferPool, HostMemory
from ..profiler import Trace
from ..sim import Simulator


class GuestContext:
    """A VM (cc off) or TD (cc on) with its memory and TDX cost model."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        trace: Optional[Trace] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.cc = config.cc_on
        # Observability: events, spans and sampled metrics all live on
        # one trace, built here when the caller passes none.  Bind the
        # raw clock slot, skipping the `now` property dispatch — this
        # closure runs for every span/metric sample.
        self.trace = trace if trace is not None else Trace()
        self.trace.bind_clock(lambda sim=sim: sim._now)
        self.spans = self.trace.spans
        self.metrics = self.trace.metrics
        self.memory = HostMemory(
            config.vm_memory_bytes, td=self.cc, page_size=config.tdx.page_size
        )
        self.bounce = BounceBufferPool(
            config.tdx.bounce_pool_bytes, page_size=config.tdx.page_size
        )
        self.rng = np.random.default_rng(config.seed)
        self.faults = FaultInjector(config.faults, seed=config.seed, sim=sim)
        self.bounce.on_usage = (
            lambda used: self.metrics.gauge("bounce.used_bytes").set(used)
        )
        # Lazily-cached hot instruments: resolved on first use (so the
        # registry's register-on-lookup semantics — and therefore the
        # set of exported metric names — are unchanged), then reused.
        self._hypercalls_counter: Optional[object] = None

    # -- fault recovery accounting ------------------------------------------

    def record_recovery(
        self,
        site: str,
        start_ns: int,
        attempt: int,
        action: str = "retry",
        fatal: bool = False,
        scope: str = "cpu",
    ) -> None:
        """Book [start_ns, now) as recovery time for ``site``.

        Records a ``recovery`` span (the trace derives its RECOVERY
        event, the core/breakdown "recovery" component) nested under the
        span open in ``scope`` — the operation the fault delayed — and
        feeds the injector ledger behind the ``faults`` CLI report.
        """
        duration = self.sim.now - start_ns
        self.spans.record(
            f"recover:{site}",
            "recovery",
            start_ns,
            duration,
            scope=scope,
            site=site,
            attempt=attempt,
            action=action,
        )
        self.metrics.counter(
            "faults.fatal" if fatal else "faults.retries"
        ).inc()
        self.faults.note_recovery(site, duration, fatal=fatal)

    # -- timing primitives -------------------------------------------------

    def jitter(self, base_ns: int, sigma: float) -> int:
        """Multiplicative lognormal jitter around ``base_ns``."""
        if sigma <= 0 or base_ns <= 0:
            return base_ns
        factor = float(self.rng.lognormal(mean=0.0, sigma=sigma))
        return max(1, int(base_ns * factor))

    def cpu_ns(self, base_ns: int) -> int:
        """Ordinary guest CPU time, in whole ns; TDs pay a small
        TME-MK/TLB tax.  A process pays it with
        ``yield guest.cpu_ns(base_ns)``."""
        if self.cc:
            return int(base_ns * self.config.cpu.td_compute_tax)
        return int(base_ns)

    def hypercall(self, reason: str = "tdx_hypercall") -> Generator:
        """One guest->host transition and back.

        In a regular VM this is a plain VM exit; in a TD it routes
        through the TDX module (tdcall -> SEAM -> hypervisor -> back).
        An injected timeout wastes the watchdog budget and reissues the
        call with backoff; exhaustion raises :class:`FatalFault`.
        """
        attempt = 1
        while True:
            fault = self.faults.draw(HYPERCALL)
            if fault is None:
                break
            start = self.sim.now
            yield self.config.fault_model.hypercall_timeout_ns
            if attempt >= self.config.retry.max_attempts:
                self.record_recovery(
                    HYPERCALL, start, attempt, "fatal", fatal=True
                )
                raise FatalFault(HYPERCALL, attempt, fault)
            yield self.config.retry.backoff_ns(attempt)
            self.record_recovery(HYPERCALL, start, attempt)
            attempt += 1
        duration = self.config.hypercall_ns()
        yield duration
        start = self.sim.now - duration
        counter = self._hypercalls_counter
        if counter is None:
            counter = self._hypercalls_counter = self.metrics.counter(
                "tdx.hypercalls"
            )
        counter.inc()
        if self.cc:
            parent = self.spans.record(reason, "tdx_module", start, duration)
            self.spans.record(
                "tdx_module.__seamcall",
                "tdx_module",
                start,
                duration,
                parent=parent,
            )
        else:
            self.spans.record(reason, "hypervisor", start, duration)
        return duration

    def set_memory_decrypted(self, address: int, size: int) -> Generator:
        """Private->shared conversion (Linux set_memory_decrypted()).

        Cost is per page: EPT attribute flip via hypercall-mediated
        mapping change plus TLB shootdown (paper Fig. 8 shows this frame
        under dma_direct_alloc in the launch path).
        """
        converted = self.memory.set_memory_decrypted(address, size)
        if converted == 0:
            return 0
        return (yield from self._convert_pages(converted))

    def _convert_pages(self, pages: int) -> Generator:
        """Book ``pages`` private->shared conversions: time, span, counters.

        The one place a ``set_memory_decrypted`` span is recorded; the
        CUDA runtime's first-launch DMA setup calls it too.  Private so
        per-method call ledgers see only the public entry points.
        """
        duration = pages * self.config.tdx.page_convert_ns
        yield duration
        self.spans.record(
            "set_memory_decrypted",
            "td",
            self.sim.now - duration,
            duration,
            pages=pages,
        )
        self.metrics.counter("tdx.pages_converted").inc(pages)
        return duration

    # -- software crypto (OpenSSL AES-GCM with AES-NI, Sec. II-A) ------------

    def crypt_time_ns(self, size: int, algorithm: Optional[str] = None) -> int:
        alg = algorithm or self.config.tdx.transfer_cipher
        single = crypto_throughput.crypt_time_ns(
            size, alg, self.config.cpu.crypto_cpu
        )
        threads = max(1, self.config.tdx.crypto_threads)
        return max(1, single // threads)

    def encrypt(self, size: int, algorithm: Optional[str] = None) -> Generator:
        """Software-encrypt ``size`` bytes for PCIe transfer (CC only)."""
        if not self.cc or size <= 0:
            return 0
        duration = self.crypt_time_ns(size, algorithm)
        yield duration
        self.spans.record(
            "aes_gcm",
            "td",
            self.sim.now - duration,
            duration,
            crypto=True,
            bytes=size,
        )
        self.metrics.counter("crypto.encrypted_bytes").inc(size)
        return duration

    decrypt = encrypt  # AES-GCM encrypt/decrypt are symmetric in cost
