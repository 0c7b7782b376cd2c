"""GPU device model: command processor, channels, copy/compute engines,
HBM, and the GMMU/UVM hookup (paper Sec. II-A, Fig. 2).

Commands arrive from the in-guest driver through a channel (a
Store).  The command processor fetches commands serially — paying a
per-command fetch latency, plus an authentication/decryption tax in CC
mode that is the mechanism behind the paper's KQT amplification
(Observation 4) — and hands each to its stream's worker, which runs
that stream's commands in order on the engines:

* compute engine: up to ``max_concurrent_kernels`` kernels in flight;
* copy engines: one per direction (H2D / D2H / D2D), so transfers in
  opposite directions overlap but same-direction copies serialize.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..config import CopyKind, MemoryKind, SystemConfig
from ..faults import DMA, FatalFault, FaultError
from ..mem import ExtentAllocator
from ..profiler import memcpy_event
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
    predecessor: Optional[Event] = None  # the stream's previous command
    awaited: Optional[Event] = None  # another stream's event to wait for
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
    predecessor: Optional[Event] = None  # the stream's previous command
    awaited: Optional[Event] = None  # another stream's event to wait for
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
        # One engine per direction (H2D, D2H, D2D).
        self._copy_engines = {kind: Resource(sim, capacity=1) for kind in CopyKind}
        self.launch_credits = Resource(
            sim, capacity=config.launch.launch_queue_depth
        )
        self.uvm = UVMManager(sim, config, guest)
        # Config is immutable for the GPU's lifetime: precompute the
        # per-command fetch latency.
        command = config.command
        self._fetch_ns = command.fetch_ns + (
            command.cc_auth_extra_ns if config.cc_on else 0
        )
        self._cc = config.cc_on
        self._gpu_spec = config.gpu
        self._gauges: Dict[str, object] = {}
        # Per-stream command queues, each drained by one long-lived
        # worker; an idle worker waits on its stream's wake event.
        self._queues: Dict[int, Deque] = {}
        self._wakes: Dict[int, Event] = {}
        sim.process(self._command_processor())

    # -- driver-facing API ---------------------------------------------------

    def submit(self, command) -> None:
        """Enqueue a command (driver doorbell).  The submitter then
        yields ``0``, so it resumes after the command processor it woke."""
        self.channel.put(command)

    def copy_engine(self, kind: CopyKind) -> Resource:
        return self._copy_engines[kind]

    def _gauge(self, name: str):
        """A hot metrics gauge, cached on first use (the registry still
        sees a name only once the GPU first sets it)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = self.guest.metrics.gauge(name)
        return gauge

    # -- command processing -----------------------------------------------

    def _command_processor(self) -> Generator:
        """Serial fetch loop (the channel engine)."""
        while True:
            command = yield self.channel.get()
            if not command.fetch_free:
                yield self._fetch_ns
            stream = command.stream
            queue = self._queues.get(stream)
            if queue is None:
                queue = self._queues[stream] = deque([command])
                self.sim.process(self._stream_worker(stream, queue))
            else:
                queue.append(command)
                wake = self._wakes.pop(stream, None)
                if wake is not None:
                    wake.succeed()

    def _stream_worker(self, stream: int, queue: Deque) -> Generator:
        """Run one stream's commands in submission order.

        A command fails if the command before it on its stream failed,
        or the event it awaits from another stream did, so a fault
        propagates down the stream.  Waiting on each command's ``done``
        resumes the worker where the next command's own wait would,
        which keeps same-instant event order.
        """
        scope = f"gpu:s{stream}"
        while True:
            if not queue:
                wake = self._wakes[stream] = self.sim.event()
                yield wake
            command = queue.popleft()
            awaited = command.awaited
            if awaited is not None and not awaited.processed:
                try:
                    yield awaited
                except FaultError:
                    pass
            # The predecessor already ran here: this worker waited on it.
            failed = command.predecessor
            if failed is None or failed.ok:
                failed = awaited
            if failed is not None and not failed.ok:
                # Fail without leaking the kernel's launch credit.
                if isinstance(command, KernelCommand):
                    self._release_credit(command)
                command.done.fail(failed.value)
            elif isinstance(command, KernelCommand):
                yield from self._run_kernel(command, scope)
            else:
                yield from self._run_copy(command, scope)
            try:
                yield command.done
            except FaultError:
                pass

    def _run_kernel(self, command: KernelCommand, scope: str) -> Generator:
        slot = self.compute.request()
        yield slot
        inflight = self._gauge("gpu.compute_inflight")
        inflight.set(self.compute.in_use)
        try:
            spans = self.guest.spans
            row = spans.begin(
                spans.shape(command.kernel.name, "gpu.compute", "stream", "kqt_ns"),
                (command.stream, self.sim.now - command.enqueued_ns),
                scope,
            )
            try:
                if command.managed_touches:
                    faulted_pages = 0
                    for handle, touched_bytes in command.managed_touches:
                        migrated, _elapsed = yield from self.uvm.gpu_touch(
                            handle, touched_bytes, scope=scope
                        )
                        alloc = self.uvm.allocation(handle)
                        faulted_pages += migrated // max(alloc.chunk_bytes, 1)
                    # Present exactly on UVM kernels, even when 0.
                    spans.set_attr(row, "faulted_pages", faulted_pages)
                # int(): a spec's fixed duration may be a float.
                yield int(
                    command.kernel.base_duration_ns(self._gpu_spec, self._cc)
                )
            finally:
                spans.end(row, scope)
        finally:
            self.compute.release(slot)
            inflight.set(self.compute.in_use)
        self._release_credit(command)
        command.done.succeed()

    def _release_credit(self, command: KernelCommand) -> None:
        """Return a done or failed kernel's credit; sample the gauge."""
        if command.credit is not None:
            self.launch_credits.release(command.credit)
            self._gauge("launch.queue_depth").set(self.launch_credits.in_use)

    def _run_copy(self, command: CopyCommand, scope: str) -> Generator:
        engine = self._copy_engines[command.copy_kind].request()
        yield engine
        inflight = self._gauge("gpu.copy_inflight")
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
                yield command.gpu_time_ns
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
            yield wasted
            if attempt >= retry.max_attempts:
                self.guest.record_recovery(
                    DMA, start, attempt, "fatal", fatal=True, scope=scope
                )
                raise FatalFault(DMA, attempt, fault)
            yield retry.backoff_ns(attempt)
            self.guest.record_recovery(DMA, start, attempt, scope=scope)
            attempt += 1
