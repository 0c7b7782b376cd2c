"""GPU device model: command processor, channels, copy/compute engines,
HBM, and the GMMU/UVM hookup (paper Sec. II-A, Fig. 2).

Commands arrive from the in-guest driver through an MMIO-configurable
channel (a bounded Store).  The command processor fetches commands
serially — paying a per-command fetch latency, plus an authentication/
decryption tax in CC mode that is the mechanism behind the paper's KQT
amplification (Observation 4) — and dispatches them to engines:

* compute engine: up to ``max_concurrent_kernels`` kernels in flight,
  per-stream ordering enforced via predecessor events;
* copy engines: one per direction (H2D / D2H / D2D), so transfers in
  opposite directions overlap but same-direction copies serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from ..config import CopyKind, MemoryKind, SystemConfig
from ..faults import DMA, FatalFault, FaultError
from ..mem import ExtentAllocator
from ..profiler import kernel_event, memcpy_event
from ..sim import Event, Resource, Simulator, Store
from ..tdx import GuestContext
from .kernels import KernelSpec
from .uvm import UVMManager


@dataclass(slots=True)
class KernelCommand:
    kernel: KernelSpec
    stream: int
    enqueued_ns: int
    done: Event
    predecessor: Optional[Event] = None
    # Managed buffers touched during execution: (uvm handle, bytes).
    managed_touches: List[Tuple[int, int]] = field(default_factory=list)
    # Launch-queue credit held since cudaLaunchKernel; released at
    # kernel completion (backpressures the CPU when the queue fills).
    credit: Optional[object] = None
    # Graph-chained commands after the first skip the per-command fetch
    # (the whole graph is fetched as one command packet).
    fetch_free: bool = False


@dataclass(slots=True)
class CopyCommand:
    copy_kind: CopyKind
    memory: MemoryKind
    size_bytes: int
    gpu_time_ns: int  # DMA/engine-resident portion, precomputed by driver
    stream: int
    enqueued_ns: int
    done: Event
    predecessor: Optional[Event] = None
    managed_label: bool = False  # Nsight labels CC pinned copies "Managed"
    # Graph-chained commands after the first skip the per-command fetch
    # (mirrors KernelCommand; copies are never graph-chained today).
    fetch_free: bool = False


class GPU:
    """The simulated H100 with its engines and memory."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        guest: GuestContext,
    ) -> None:
        self.sim = sim
        self.config = config
        self.guest = guest
        self.trace = guest.trace
        self.hbm = ExtentAllocator(
            config.gpu.hbm_bytes, base=0x7_0000_0000, alignment=512
        )
        self.channel: Store = Store(sim)
        self.compute = Resource(sim, capacity=config.gpu.max_concurrent_kernels)
        self._copy_engines = {
            CopyKind.H2D: Resource(sim, capacity=1),
            CopyKind.D2H: Resource(sim, capacity=1),
            CopyKind.D2D: Resource(sim, capacity=1),
        }
        self.launch_credits = Resource(
            sim, capacity=config.launch.launch_queue_depth
        )
        self.uvm = UVMManager(sim, config, guest)
        # Config is immutable for the GPU's lifetime: precompute the
        # per-command fetch latency.  Hot instruments are cached lazily
        # on first use so the registry's register-on-lookup semantics
        # (the set of exported metric names) are unchanged.
        self._fetch_ns = self._fetch_latency_ns()
        self._cc = config.cc_on
        self._gpu_spec = config.gpu
        self._compute_inflight_gauge = None
        self._copy_inflight_gauge = None
        self._launch_depth_gauge = None
        sim.process(self._command_processor())

    # -- driver-facing API ---------------------------------------------------

    def submit(self, command) -> Event:
        """Enqueue a command (driver doorbell); returns the put event."""
        return self.channel.put(command)

    def copy_engine(self, kind: CopyKind) -> Resource:
        return self._copy_engines[kind]

    # -- command processing -----------------------------------------------

    def _fetch_latency_ns(self) -> int:
        spec = self.config.command
        latency = spec.fetch_ns
        if self.config.cc_on:
            latency += spec.cc_auth_extra_ns
        return latency

    def _command_processor(self) -> Generator:
        """Serial fetch/dispatch loop (the channel engine)."""
        while True:
            command = yield self.channel.get()
            if not command.fetch_free:
                yield self.sim.timeout(self._fetch_ns)
            if isinstance(command, KernelCommand):
                self.sim.process(self._run_kernel(command))
            elif isinstance(command, CopyCommand):
                self.sim.process(self._run_copy(command))
            else:
                raise TypeError(f"unknown command {command!r}")

    def _run_kernel(self, command: KernelCommand) -> Generator:
        if command.predecessor is not None and not command.predecessor.processed:
            try:
                yield command.predecessor
            except FaultError as exc:
                # Stream-ordered predecessor died: propagate the failure
                # down the stream without leaking the launch credit.
                if command.credit is not None:
                    self.launch_credits.release(command.credit)
                command.done.fail(exc)
                return
        slot = self.compute.request()
        yield slot
        scope = f"gpu:s{command.stream}"
        inflight = self._compute_inflight_gauge
        if inflight is None:
            inflight = self._compute_inflight_gauge = self.guest.metrics.gauge(
                "gpu.compute_inflight"
            )
        inflight.set(self.compute.in_use)
        try:
            exec_start = self.sim.now
            kqt = exec_start - command.enqueued_ns
            faulted_pages = 0
            uvm_used = bool(command.managed_touches)
            with self.guest.spans.span(
                command.kernel.name,
                "gpu.compute",
                scope=scope,
                stream=command.stream,
                kqt_ns=kqt,
            ):
                for handle, touched_bytes in command.managed_touches:
                    migrated, _elapsed = yield from self.uvm.gpu_touch(
                        handle, touched_bytes, scope=scope
                    )
                    alloc = self.uvm.allocation(handle)
                    faulted_pages += migrated // max(alloc.chunk_bytes, 1)
                yield self.sim.timeout(
                    command.kernel.base_duration_ns(self._gpu_spec, self._cc)
                )
            self.trace.add(
                kernel_event(
                    command.kernel.name,
                    exec_start,
                    self.sim.now - exec_start,
                    kqt_ns=kqt,
                    stream=command.stream,
                    uvm=uvm_used,
                    faulted_pages=faulted_pages,
                )
            )
        finally:
            self.compute.release(slot)
            inflight.set(self.compute.in_use)
        if command.credit is not None:
            self.launch_credits.release(command.credit)
            depth = self._launch_depth_gauge
            if depth is None:
                depth = self._launch_depth_gauge = self.guest.metrics.gauge(
                    "launch.queue_depth"
                )
            depth.set(self.launch_credits.in_use)
        command.done.succeed()

    def _run_copy(self, command: CopyCommand) -> Generator:
        if command.predecessor is not None and not command.predecessor.processed:
            try:
                yield command.predecessor
            except FaultError as exc:
                command.done.fail(exc)
                return
        engine = self._copy_engines[command.copy_kind].request()
        yield engine
        scope = f"gpu:s{command.stream}"
        inflight = self._copy_inflight_gauge
        if inflight is None:
            inflight = self._copy_inflight_gauge = self.guest.metrics.gauge(
                "gpu.copy_inflight"
            )
        inflight.set(
            sum(e.in_use for e in self._copy_engines.values())
        )
        try:
            with self.guest.spans.span(
                f"memcpy_{command.copy_kind.value}",
                "gpu.copy",
                scope=scope,
                stream=command.stream,
                bytes=command.size_bytes,
            ):
                yield from self._dma_with_retry(command, scope)
                start = self.sim.now
                yield self.sim.timeout(command.gpu_time_ns)
            self.trace.add(
                memcpy_event(
                    command.copy_kind,
                    start,
                    self.sim.now - start,
                    command.size_bytes,
                    command.memory,
                    stream=command.stream,
                    managed=command.managed_label,
                )
            )
        except FatalFault as exc:
            # Surface the failure to whoever synchronizes on the stream;
            # the engine slot is released by the finally below.
            command.done.fail(exc)
            return
        finally:
            self._copy_engines[command.copy_kind].release(engine)
            inflight.set(
                sum(e.in_use for e in self._copy_engines.values())
            )
        command.done.succeed()

    def _dma_with_retry(self, command: CopyCommand, scope: str = "cpu") -> Generator:
        """Consult the DMA fault site for an engine-resident transfer.

        Each injected transient error wastes the detected fraction of
        the transfer plus a link retrain, booked as RECOVERY time; retry
        exhaustion raises :class:`FatalFault`.
        """
        model = self.config.fault_model
        retry = self.config.retry
        attempt = 1
        while True:
            fault = self.guest.faults.draw(DMA)
            if fault is None:
                return
            start = self.sim.now
            wasted = (
                int(command.gpu_time_ns * model.dma_error_detect_fraction)
                + model.dma_retrain_ns
            )
            yield self.sim.timeout(wasted)
            if attempt >= retry.max_attempts:
                self.guest.record_recovery(
                    DMA, start, attempt, "fatal", fatal=True, scope=scope
                )
                raise FatalFault(DMA, attempt, fault)
            yield self.sim.timeout(retry.backoff_ns(attempt))
            self.guest.record_recovery(DMA, start, attempt, scope=scope)
            attempt += 1
