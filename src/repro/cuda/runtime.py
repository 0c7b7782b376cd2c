"""CUDA-like runtime API over the simulated machine.

All public methods are generator coroutines: application code is a
process that ``yield from``s runtime calls, exactly mirroring how a
CUDA host thread blocks in the driver.  The runtime implements the
paper's measured API surface:

* cudaMalloc / cudaMallocHost / cudaMallocManaged / cudaFree (Fig. 6)
* cudaMemcpy / cudaMemcpyAsync over pageable, pinned and managed
  memory with the full CC bounce+AES-GCM path (Fig. 4a / Fig. 5)
* cudaLaunchKernel with the TD launch path — first-launch bounce
  setup, hypercall-mediated driver work, launch-queue credits — that
  produces KLO/LQT/KQT behaviour (Fig. 7, 8, 11, 12)
* streams, cudaDeviceSynchronize, and CUDA graphs (Sec. VII-A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from .. import units
from ..config import CopyKind, MemoryKind, SystemConfig
from ..crypto import AESGCM
from ..faults import (
    BOUNCE_POOL,
    DMA,
    GCM_TAG,
    FatalFault,
    GcmTagFault,
    TransientFault,
)
from ..gpu import GPU, KernelCommand, KernelSpec
from ..gpu.device import CopyCommand
from ..mem.allocator import OutOfMemoryError
from ..profiler import memcpy_event
from ..sim import Event, Simulator
from ..tdx import GuestContext
from .memory import Buffer, DeviceBuffer, HostBuffer, ManagedBuffer
from .transfers import TransferPlan, plan_copy


class CudaError(RuntimeError):
    """Runtime misuse (double free, bad copy direction...)."""


class FatalCudaFault(CudaError, FatalFault):
    """A copy fault that exhausted its retry budget.

    Inherits both :class:`CudaError` (the runtime's error surface) and
    :class:`~repro.faults.FatalFault` (the fault taxonomy), so callers
    may catch either.
    """

    def __init__(self, site: str, attempts: int, last_fault=None) -> None:
        FatalFault.__init__(self, site, attempts, last_fault)


class Stream:
    """An in-order work queue.  ``tail`` is the done event of the last
    command submitted on it; ``awaited`` is another stream's event that
    the next command must also wait for (``stream_wait_event``).

    Stream ids are assigned per runtime (not from a process-global
    counter) so two identically-configured machines in one process
    produce byte-identical traces.
    """

    def __init__(self, stream_id: int) -> None:
        self.id = stream_id
        self.tail: Optional[Event] = None
        self.awaited: Optional[Event] = None


def outstanding(*events: Optional[Event]) -> List[Event]:
    """The pending ones among ``events``; one that already failed raises
    its fault, however long ago the GPU processed it."""
    pending = []
    for event in events:
        if event is None:
            continue
        if not event.processed:
            pending.append(event)
        elif not event.ok:
            raise event.value
    return pending


@dataclass
class CudaGraph:
    """An instantiated CUDA graph: a chain of kernel nodes."""

    nodes: List[Tuple[KernelSpec, Tuple[Tuple[int, int], ...]]] = field(
        default_factory=list
    )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


class CudaRuntime:
    """The per-application CUDA runtime instance."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        guest: GuestContext,
        gpu: GPU,
    ) -> None:
        self.sim = sim
        self.config = config
        self.guest = guest
        self.gpu = gpu
        self.trace = guest.trace
        # Immutable-config fast paths for the per-launch hot loop.
        self._cc = config.cc_on
        self._gpu_spec = config.gpu
        self._stream_ids = itertools.count(0)
        self.default_stream = Stream(next(self._stream_ids))
        self._streams: List[Stream] = [self.default_stream]
        self._seen_kernels: set = set()
        self._hypercall_accum = 0.0
        # Lazily cached on first launch, not per launch (the registry
        # hands back the same object for a given name; resolving on use
        # keeps its register-on-lookup semantics observable).
        self._launch_depth_gauge = None
        # Functional transfer crypto (independent of the timing model).
        self._gcm = AESGCM(b"hcc-session-key!")  # 16-byte session key
        self._iv_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Memory management (Fig. 6 cost model)
    # ------------------------------------------------------------------

    def _timed_mgmt(self, which: str, api: str, size: int) -> Generator:
        """Timed driver work of an allocation-family API."""
        spec = self.config.alloc
        suffix = "_cc" if self.config.cc_on else ""
        base_ns = getattr(spec, f"{which}{suffix}_base_ns")
        per_page = getattr(spec, f"{which}{suffix}_per_page_ns")
        num_pages = units.pages(size, self.config.tdx.page_size)
        cost = self.guest.jitter(int(base_ns + per_page * num_pages), 0.05)
        with self.guest.spans.span(api, "driver", bytes=size):
            yield self.guest.cpu_ns(cost)

    def malloc(self, size: int) -> Generator:
        """cudaMalloc: device-memory allocation."""
        yield from self._timed_mgmt("dmalloc", "cudaMalloc", size)
        address = self.gpu.hbm.alloc(size)
        return DeviceBuffer(address, size, MemoryKind.DEVICE)

    def malloc_host(self, size: int) -> Generator:
        """cudaMallocHost: pinned host memory.

        Under CC, native pinning is impossible (TDX isolation); the
        driver falls back to UVM-backed pageable mechanisms
        (Observation 1) — same API, different machinery underneath.
        """
        yield from self._timed_mgmt("hmalloc", "cudaMallocHost", size)
        address = self.guest.memory.alloc(size)
        return HostBuffer(
            address,
            size,
            MemoryKind.PINNED,
            pinned=True,
            cc_uvm_backed=self.config.cc_on,
        )

    def host_alloc(self, size: int) -> Generator:
        """Plain pageable malloc: cheap, not a CUDA API, untraced."""
        yield self.guest.cpu_ns(units.us(1.0))
        address = self.guest.memory.alloc(size)
        return HostBuffer(address, size, MemoryKind.PAGEABLE, pinned=False)

    def malloc_managed(self, size: int) -> Generator:
        """cudaMallocManaged: UVM allocation (lazy backing)."""
        yield from self._timed_mgmt("managed_alloc", "cudaMallocManaged", size)
        address = self.guest.memory.alloc(size)
        handle = self.gpu.uvm.register(size)
        return ManagedBuffer(
            address, size, MemoryKind.MANAGED, uvm_handle=handle
        )

    def free(self, buffer: Buffer) -> Generator:
        """cudaFree / cudaFreeHost, dispatched on the buffer kind."""
        if buffer.freed:
            raise CudaError("double free")
        if isinstance(buffer, DeviceBuffer):
            which, api = "free", "cudaFree"
        elif isinstance(buffer, ManagedBuffer):
            which, api = "managed_free", "cudaFree(managed)"
        elif isinstance(buffer, HostBuffer) and buffer.pinned:
            which, api = "hmalloc", "cudaFreeHost"  # symmetric unpin cost
        else:
            # Plain host memory: free() is trivial and untraced.
            self._release(buffer)
            yield self.guest.cpu_ns(units.ns(600))
            return None
        yield from self._timed_mgmt(which, api, buffer.size)
        self._release(buffer)
        return None

    def reclaim(self, buffer: Buffer) -> None:
        """Untimed emergency release after a failed run.

        Used by error paths (fatal fault cleanup) where the simulation
        may no longer be drivable; releases the backing store without
        consuming simulated time or emitting trace events.  Idempotent.
        """
        if not buffer.freed:
            self._release(buffer)

    def _release(self, buffer: Buffer) -> None:
        if isinstance(buffer, DeviceBuffer):
            self.gpu.hbm.free(buffer.address)
        else:
            self.guest.memory.free(buffer.address)
            if isinstance(buffer, ManagedBuffer):
                self.gpu.uvm.unregister(buffer.uvm_handle)
        buffer.freed = True

    # ------------------------------------------------------------------
    # Memory copies (Fig. 4a / Fig. 5)
    # ------------------------------------------------------------------

    @staticmethod
    def _infer_copy(dst: Buffer, src: Buffer) -> Tuple[CopyKind, MemoryKind]:
        dst_dev = isinstance(dst, DeviceBuffer)
        src_dev = isinstance(src, DeviceBuffer)
        if src_dev and dst_dev:
            return CopyKind.D2D, MemoryKind.DEVICE
        if dst_dev:
            return CopyKind.H2D, src.kind
        if src_dev:
            return CopyKind.D2H, dst.kind
        raise CudaError("host-to-host copies are not a GPU operation")

    def _functional_transfer(
        self, dst: Buffer, src: Buffer, size: int
    ) -> None:
        """Move real payload bytes, exercising the bounce+GCM data path."""
        if src.payload is None:
            return
        data = src.payload[:size]
        if self.config.cc_on and (
            isinstance(dst, DeviceBuffer) or isinstance(src, DeviceBuffer)
        ):
            try:
                data = self._stage_through_bounce(data)
            except OutOfMemoryError:
                # Pool exhausted: degrade to chunked staging so the copy
                # still completes with a bounded footprint.
                chunk = self.config.fault_model.bounce_degraded_chunk_bytes
                pieces = []
                for offset in range(0, max(len(data), 1), chunk):
                    pieces.append(
                        self._stage_through_bounce(data[offset:offset + chunk])
                    )
                data = b"".join(pieces)
        dst.payload = data

    def _stage_through_bounce(self, data: bytes) -> bytes:
        """Encrypt into a bounce slot and decrypt on the far side,
        verifying integrity as the hardware would.  The slot is freed on
        every path — including a failed tag verification."""
        iv = next(self._iv_counter).to_bytes(12, "big")
        ciphertext, tag = self._gcm.encrypt(iv, data)
        slot = self.guest.bounce.alloc(max(len(ciphertext), 1))
        try:
            self.guest.bounce.stage(slot, ciphertext)
            return self._gcm.decrypt(iv, self.guest.bounce.peek(slot), tag)
        finally:
            self.guest.bounce.free(slot)

    @staticmethod
    def _take_warmth(dst: Buffer, src: Buffer, copy_kind: CopyKind) -> bool:
        """Residency-based cold/warm classification for UVM-backed
        buffers: a copy is cold unless the buffer's pages already moved
        in this direction last time (H2D after D2H must migrate pages
        back, and vice versa)."""
        cold = False
        for buffer in (dst, src):
            if isinstance(buffer, DeviceBuffer):
                continue
            if getattr(buffer, "_last_dir", None) is not copy_kind:
                cold = True
            buffer._last_dir = copy_kind
        return cold

    def memcpy(
        self,
        dst: Buffer,
        src: Buffer,
        size: Optional[int] = None,
        cold: Optional[bool] = None,
    ) -> Generator:
        """Blocking cudaMemcpy (the paper notes copy APIs are blocking)."""
        size = size if size is not None else min(dst.size, src.size)
        if size > dst.size or size > src.size:
            raise CudaError("copy larger than buffer")
        copy_kind, memory = self._infer_copy(dst, src)
        if cold is None:
            cold = self._take_warmth(dst, src, copy_kind)
        # Default-stream ordering: wait for outstanding GPU work.
        stream = self.default_stream
        for event in outstanding(stream.tail, stream.awaited):
            yield event
        plan = plan_copy(self.config, self.guest, copy_kind, size, memory, cold)
        with self.guest.spans.span(
            "cudaMemcpy",
            "driver",
            bytes=size,
            copy_kind=copy_kind.value,
        ):
            engine = self.gpu.copy_engine(copy_kind).request()
            yield engine
            try:
                yield from self._copy_with_recovery(
                    copy_kind, plan, size, memory, self.default_stream.id
                )
                self._functional_transfer(dst, src, size)
            finally:
                self.gpu.copy_engine(copy_kind).release(engine)
        return plan

    def _copy_with_recovery(
        self,
        copy_kind: CopyKind,
        plan: TransferPlan,
        size: int,
        memory: MemoryKind,
        stream_id: int,
    ) -> Generator:
        """Run one staged copy under the fault plan.

        Failed attempts (injected AES-GCM tag mismatches or transient
        DMA errors) waste simulated time and are booked as RECOVERY
        events; the successful attempt emits the ordinary memcpy event,
        so a fault-free run's trace is byte-identical to one produced
        without the fault layer.  Retry exhaustion raises
        :class:`FatalCudaFault` (the engine is released by the caller).
        """
        guest = self.guest
        model = self.config.fault_model
        retry = self.config.retry
        degraded = False
        if self.config.cc_on:
            # Bounce-pool exhaustion does not kill the copy; it degrades
            # staging to small chunks (extra map hypercalls, paid below).
            degraded = guest.faults.draw(BOUNCE_POOL) is not None
        attempt = 1
        while True:
            fault: Optional[TransientFault] = None
            if self.config.cc_on:
                fault = guest.faults.draw(GCM_TAG)
            if fault is None:
                fault = guest.faults.draw(DMA)
            if fault is None:
                break
            start = self.sim.now
            if isinstance(fault, GcmTagFault):
                # Tag verification happens at end of message: the whole
                # re-staged fraction of the copy is wasted.
                wasted = int(plan.total_ns * model.gcm_refetch_fraction)
            else:
                wasted = (
                    int(plan.total_ns * model.dma_error_detect_fraction)
                    + model.dma_retrain_ns
                )
            yield wasted
            if attempt >= retry.max_attempts:
                guest.record_recovery(fault.site, start, attempt, "fatal", fatal=True)
                raise FatalCudaFault(fault.site, attempt, fault)
            yield retry.backoff_ns(attempt)
            guest.record_recovery(fault.site, start, attempt)
            attempt += 1
        start = self.sim.now
        yield plan.total_ns
        self.trace.add(
            memcpy_event(
                copy_kind,
                start,
                self.sim.now - start,
                size,
                memory,
                stream=stream_id,
                managed=plan.managed_label,
            )
        )
        for name, layer, stage_start, stage_ns, attrs in plan.attribution(
            start, self.config.cc_on
        ):
            guest.spans.record(name, layer, stage_start, stage_ns, **attrs)
        if plan.hypercalls:
            guest.metrics.counter("tdx.hypercalls").inc(plan.hypercalls)
        if self.config.cc_on and plan.cpu_ns:
            guest.metrics.counter("crypto.encrypted_bytes").inc(size)
        if degraded:
            degraded_start = self.sim.now
            chunks = units.pages(size, model.bounce_degraded_chunk_bytes)
            # Each extra degraded chunk needs its own swiotlb map.
            extra = max(0, chunks - 1) * self.config.hypercall_ns()
            if extra:
                yield extra
            guest.record_recovery(BOUNCE_POOL, degraded_start, 1, "degraded")

    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        stream: Stream,
        size: Optional[int] = None,
    ) -> Generator:
        """cudaMemcpyAsync: CPU-side staging/crypto is synchronous (a
        single OpenSSL worker under CC — the reason overlap is harder
        with CC on, Fig. 12c); the DMA portion runs on a copy engine."""
        size = size if size is not None else min(dst.size, src.size)
        if size > dst.size or size > src.size:
            raise CudaError("copy larger than buffer")
        copy_kind, memory = self._infer_copy(dst, src)
        cold = self._take_warmth(dst, src, copy_kind)
        plan = plan_copy(self.config, self.guest, copy_kind, size, memory, cold)
        # API + synchronous CPU-resident portion.  The staging/crypto
        # work blocks the calling thread, so it is traced as its own
        # memcpy-staging event — this is the un-hideable part of an
        # "async" copy under CC (single OpenSSL worker).
        with self.guest.spans.span(
            "cudaMemcpyAsync",
            "driver",
            bytes=size,
            copy_kind=copy_kind.value,
            stream=stream.id,
        ):
            yield self.guest.cpu_ns(units.us(1.2))
            if plan.cpu_ns:
                staging_start = self.sim.now
                cc = self.config.cc_on
                with self.guest.spans.span(
                    "memcpy.encrypt" if cc else "memcpy.staging",
                    "td" if cc else "driver",
                    **({"crypto": True} if cc else {}),
                ):
                    yield self.guest.cpu_ns(plan.cpu_ns)
                staging_event = memcpy_event(
                    copy_kind,
                    staging_start,
                    self.sim.now - staging_start,
                    size,
                    memory,
                    stream=stream.id,
                    managed=plan.managed_label,
                )
                staging_event.attrs["staging"] = True
                self.trace.add(staging_event)
                if cc:
                    self.guest.metrics.counter("crypto.encrypted_bytes").inc(
                        size
                    )
            if plan.hypercalls:
                self.guest.metrics.counter("tdx.hypercalls").inc(
                    plan.hypercalls
                )
            done = self.sim.event()
            command = CopyCommand(
                copy_kind=copy_kind,
                memory=memory,
                size_bytes=size,
                gpu_time_ns=plan.setup_ns + plan.dma_ns,
                stream=stream.id,
                enqueued_ns=self.sim.now,
                done=done,
                predecessor=stream.tail,
                awaited=stream.awaited,
                managed_label=plan.managed_label,
            )
            self.gpu.submit(command)
            yield 0
            stream.tail, stream.awaited = done, None
            self._functional_transfer(dst, src, size)
        return done

    # ------------------------------------------------------------------
    # Kernel launch (Fig. 7 / 8 / 11 / 12)
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel: KernelSpec,
        stream: Optional[Stream] = None,
        managed_touches: Sequence[Tuple[ManagedBuffer, int]] = (),
    ) -> Generator:
        """cudaLaunchKernel: returns the kernel's completion event.

        ``managed_touches`` lists (managed buffer, bytes touched) pairs;
        non-resident chunks fault and migrate during execution.
        """
        stream = stream or self.default_stream
        launch_cfg = self.config.launch
        # Validate the kernel spec eagerly so bad parameters surface in
        # the caller, not later inside the GPU's stream worker.
        kernel.base_duration_ns(self._gpu_spec, self._cc)
        # Application-side loop bookkeeping between launches: lands in
        # the LQT gap, not in KLO.
        yield self.guest.cpu_ns(launch_cfg.inter_launch_cpu_ns)
        # Launch-queue credit (backpressure when the queue is full).
        credit = self.gpu.launch_credits.request()
        yield credit
        depth = self._launch_depth_gauge
        if depth is None:
            depth = self._launch_depth_gauge = self.guest.metrics.gauge(
                "launch.queue_depth"
            )
        depth.set(self.gpu.launch_credits.in_use)
        try:
            first = kernel.name not in self._seen_kernels
            with self.guest.spans.span(
                "cudaLaunchKernel",
                "driver",
                kernel=kernel.name,
                stream=stream.id,
                first=first,
            ):
                if first:
                    yield from self._first_launch_setup(kernel)
                    self._seen_kernels.add(kernel.name)
                base = self.guest.jitter(
                    launch_cfg.klo_base_ns, launch_cfg.jitter_sigma
                )
                yield self.guest.cpu_ns(base)
                if self._cc:
                    yield from self._cc_launch_extra()
        except BaseException:
            # Driver-side failure (e.g. a fatal hypercall fault) before
            # the command reached the GPU: the queue credit must not
            # leak, or later launches deadlock on backpressure.
            self.gpu.launch_credits.release(credit)
            raise
        done = self.sim.event()
        command = KernelCommand(
            kernel=kernel,
            stream=stream.id,
            enqueued_ns=self.sim.now,
            done=done,
            predecessor=stream.tail,
            awaited=stream.awaited,
            managed_touches=[
                (buf.uvm_handle, touched) for buf, touched in managed_touches
            ],
            credit=credit,
        )
        self.gpu.submit(command)
        yield 0
        stream.tail, stream.awaited = done, None
        return done

    def _first_launch_setup(self, kernel: KernelSpec) -> Generator:
        """Module load / JIT, plus per-module CC DMA-buffer setup.

        Under CC, loading a module means allocating its command/code
        staging buffers in DMA-capable (shared) memory: dma_direct_alloc
        followed by set_memory_decrypted per page — the dominant frames
        of the paper's Fig. 8 flame graph.
        """
        launch_cfg = self.config.launch
        extra = launch_cfg.first_launch_extra_ns
        # Larger machine code (the Listing-1 unroll knob) loads slower.
        unroll = kernel.attrs.get("unroll", 1.0)
        extra = int(extra * (1.0 + 0.015 * max(unroll - 1.0, 0.0)))
        with self.guest.spans.span("cuModuleLoad", "driver"):
            yield self.guest.cpu_ns(extra)
        if self.config.cc_on:
            pages = int(
                kernel.attrs.get(
                    "module_pages", launch_cfg.first_launch_bounce_pages
                )
            )
            with self.guest.spans.span("dma_direct_alloc", "driver", pages=pages):
                yield from self.guest.hypercall("tdvmcall.mapgpa")
                yield from self.guest._convert_pages(pages)
            yield from self.guest.hypercall("tdvmcall.mmio")

    def _cc_launch_extra(self) -> Generator:
        """Steady-state CC launch tax: packet crypto + rare hypercalls."""
        launch_cfg = self.config.launch
        with self.guest.spans.span("cc_encrypt_pushbuffer", "td", crypto=True):
            yield self.guest.cpu_ns(launch_cfg.klo_cc_extra_ns)
        self._hypercall_accum += launch_cfg.hypercalls_per_launch
        while self._hypercall_accum >= 1.0:
            self._hypercall_accum -= 1.0
            yield from self.guest.hypercall("tdvmcall.mmio")

    # ------------------------------------------------------------------
    # Streams and synchronization
    # ------------------------------------------------------------------

    def create_stream(self) -> Stream:
        stream = Stream(next(self._stream_ids))
        self._streams.append(stream)
        return stream

    def stream_wait_event(self, stream: Stream, event: Optional[Event]) -> None:
        """cudaStreamWaitEvent: order future work on ``stream`` after
        ``event``.  Pure dependency bookkeeping — costs nothing on the
        calling thread.  An outstanding event is awaited by the next
        command on ``stream``, on top of the work already there; a
        synchronize on ``stream`` waits for both.  An already-satisfied
        event is a no-op; a failed one fails that next command.
        """
        if event is not None and not (event.processed and event.ok):
            stream.awaited = event

    def cpu_gap(self, duration_ns: int) -> Generator:
        """Application think time between API calls (loop bookkeeping)."""
        yield self.guest.cpu_ns(duration_ns)

    def stream_synchronize(self, stream: Stream) -> Generator:
        with self.guest.spans.span(
            "cudaStreamSynchronize", "driver", stream=stream.id
        ):
            for event in outstanding(stream.tail, stream.awaited):
                yield event
            yield from self._sync_overhead()
        return None

    def synchronize(self) -> Generator:
        """cudaDeviceSynchronize: wait for all streams."""
        with self.guest.spans.span("cudaDeviceSynchronize", "driver"):
            pending = outstanding(
                *(e for s in self._streams for e in (s.tail, s.awaited))
            )
            if pending:
                yield self.sim.all_of(pending)
            yield from self._sync_overhead()
        return None

    def _sync_overhead(self) -> Generator:
        cfg = self.config.launch
        overhead = cfg.sync_base_ns
        if self.config.cc_on:
            overhead += cfg.sync_cc_extra_ns
        yield overhead

    # ------------------------------------------------------------------
    # CUDA graphs (Sec. VII-A launch fusion)
    # ------------------------------------------------------------------

    def graph_create(
        self,
        kernels: Sequence[KernelSpec],
        managed_touches: Sequence[Sequence[Tuple[ManagedBuffer, int]]] = (),
    ) -> Generator:
        """Capture + instantiate a graph of sequential kernel nodes."""
        # Validate every node before any cost is paid, as launch() does:
        # a bad spec must fail here, not in the GPU's stream worker.
        for kernel in kernels:
            kernel.base_duration_ns(self._gpu_spec, self._cc)
        cfg = self.config.launch
        cost = cfg.graph_instantiate_base_ns + cfg.graph_capture_per_node_ns * len(
            kernels
        )
        with self.guest.spans.span(
            "cudaGraphInstantiate", "driver", nodes=len(kernels)
        ):
            yield self.guest.cpu_ns(cost)
        nodes = []
        for index, kernel in enumerate(kernels):
            touches = (
                tuple(
                    (buf.uvm_handle, touched)
                    for buf, touched in managed_touches[index]
                )
                if index < len(managed_touches)
                else ()
            )
            nodes.append((kernel, touches))
        return CudaGraph(nodes=nodes)

    def graph_launch(self, graph: CudaGraph, stream: Optional[Stream] = None) -> Generator:
        """One launch submits every node: the KLO is paid once."""
        stream = stream or self.default_stream
        cfg = self.config.launch
        cost = cfg.graph_launch_base_ns + cfg.graph_launch_per_node_ns * graph.num_nodes
        with self.guest.spans.span(
            "cudaGraphLaunch",
            "driver",
            nodes=graph.num_nodes,
            stream=stream.id,
        ):
            yield self.guest.cpu_ns(
                self.guest.jitter(cost, cfg.jitter_sigma)
            )
            if self.config.cc_on:
                yield from self._cc_launch_extra()
        end = self.sim.now
        last_done = None
        for index, (kernel, touches) in enumerate(graph.nodes):
            done = self.sim.event()
            command = KernelCommand(
                kernel=kernel,
                stream=stream.id,
                enqueued_ns=end,
                done=done,
                predecessor=stream.tail,
                awaited=stream.awaited,
                managed_touches=list(touches),
                credit=None,  # graph nodes bypass the launch queue
                fetch_free=index > 0,  # one fetch for the whole graph
            )
            self.gpu.submit(command)
            yield 0
            stream.tail, stream.awaited = done, None
            last_done = done
        return last_done
