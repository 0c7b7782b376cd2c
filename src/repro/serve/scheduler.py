"""Admission control + continuous-batching scheduler + serving engine.

Two layers, deliberately separated:

* :class:`ContinuousBatchingScheduler` — the *pure* decision core
  (iteration-level batching à la Orca/vLLM).  It owns the waiting /
  running / warming / evicted request states and a :class:`KVPager`,
  and each call to :meth:`plan` produces one iteration's worth of
  decisions (preemptions, restores, admissions, prefill-token chunks,
  decode batch) while maintaining the invariants the property tests
  pin down: the token budget ``prefill + decode <= max_batch_tokens``
  is never exceeded, decode never runs out of KV blocks, no request is
  starved under FCFS, and the allocator balance is zero at drain.  No
  simulation imports — tests drive it directly.
* :class:`ServingEngine` — the CUDA-runtime application that *pays*
  for each plan through the simulated CC stack: prompt uploads and
  per-step token downloads through the (bounce-buffered, AES-GCM)
  PCIe path, prefill/decode kernels via the
  :class:`~repro.llm.backends.VLLMBackend` roofline, per-iteration
  scheduler bookkeeping on the guest CPU, and KV swap traffic for
  preemptions.  Under CC every one of those arrows crosses the
  "serialized bridge", which is what moves the throughput knee.

Scheduling policies: ``fcfs`` (arrival order) and ``spf``
(shortest-prompt-first).  Both are head-of-line: if the next candidate
does not fit (seats, KV blocks, token budget), admission stops rather
than skipping it — the no-starvation guarantee under FCFS.

Recompute-mode restores re-enter through a *warming* state: their
recomputed prefill is chunked across iterations against the token
budget (chunked prefill), so even a sequence longer than
``max_batch_tokens`` makes progress without ever violating the budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from .. import units
from ..config import SystemConfig
from ..cuda import CudaRuntime, run_app
from ..faults import BOUNCE_POOL, FatalFault
from ..faults import SPDM as SPDM_SITE
from ..llm.backends import VLLM_STEP_SCHED_NS, VLLMBackend
from ..llm.config import BF16, QUANTS, LlamaConfig, QuantConfig
from ..multigpu import MultiGPUNode, run_ring_all_reduce
from ..tdx.spdm import attest_gpu
from .arrivals import ServeRequest
from .parallelism import ParallelismSpec
from .kvpager import KVPager, PreemptPlan, RestorePlan
from .lifecycle import (
    COMPLETED,
    FAILED,
    REJECTED,
    SHED,
    DegradationPolicy,
    LifecycleLedger,
)
from .slo import RequestOutcome, SLOTargets, SLOTracker
from .telemetry import NULL_TELEMETRY, ServeTelemetry
from .tuning import EngineTuning

POLICIES = ("fcfs", "spf")

# Host<->device staging chunk for KV swap traffic (per memcpy call).
SWAP_CHUNK_BYTES = 1 * units.MiB
# Pinned host buffer per token-flush stream (token ids, 4 B each).
TOKEN_BUF_BYTES = 64 * units.KiB


class SchedulerError(ValueError):
    pass


@dataclass(frozen=True)
class SchedulerConfig:
    """Continuous-batching knobs."""

    policy: str = "fcfs"
    max_num_seqs: int = 16
    max_batch_tokens: int = 2048
    preemption: str = "swap"  # or "recompute"

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise SchedulerError(
                f"unknown policy {self.policy!r} (have {POLICIES})"
            )
        if self.max_num_seqs < 1:
            raise SchedulerError("max_num_seqs must be >= 1")
        if self.max_batch_tokens <= self.max_num_seqs:
            raise SchedulerError(
                "max_batch_tokens must exceed max_num_seqs "
                "(every resident sequence decodes one token per step)"
            )
        if self.preemption not in ("swap", "recompute"):
            raise SchedulerError(
                f"unknown preemption mode {self.preemption!r}"
            )


@dataclass
class IterationPlan:
    """One engine iteration's decisions (costs paid by the engine)."""

    preempted: List[PreemptPlan] = field(default_factory=list)
    restored: List[RestorePlan] = field(default_factory=list)
    admitted: List[ServeRequest] = field(default_factory=list)
    # Prefill tokens this iteration: admitted prompts + warming chunks.
    prefill_tokens: int = 0
    decode_ids: List[int] = field(default_factory=list)

    @property
    def busy(self) -> bool:
        return bool(
            self.preempted
            or self.restored
            or self.admitted
            or self.prefill_tokens
            or self.decode_ids
        )


class ContinuousBatchingScheduler:
    """Pure iteration-level batching core over a :class:`KVPager`."""

    def __init__(self, config: SchedulerConfig, pager: KVPager) -> None:
        config.validate()
        if config.preemption != pager.mode:
            raise SchedulerError(
                f"scheduler preemption {config.preemption!r} does not "
                f"match pager mode {pager.mode!r}"
            )
        self.config = config
        self.pager = pager
        self.waiting: List[ServeRequest] = []
        self.running: Dict[int, ServeRequest] = {}  # admission-ordered
        self.warming: Dict[int, int] = {}  # sid -> pending recompute tokens
        self.evicted: List[int] = []  # FIFO restore order
        self.rejected: List[ServeRequest] = []
        self.requests: Dict[int, ServeRequest] = {}
        self.preempt_counts: Dict[int, int] = {}
        self.admit_order: List[int] = []  # admission history (tests)
        self._order: Dict[int, int] = {}  # sid -> admission index
        self._next_order = 0

    # -- queries -----------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self.waiting or self.running or self.warming or self.evicted)

    def live_ids(self) -> List[int]:
        """Admitted, unfinished sequences: running, warming, evicted."""
        return list(self.running) + list(self.warming) + list(self.evicted)

    @property
    def resident_count(self) -> int:
        return len(self.running) + len(self.warming)

    # -- admission control -------------------------------------------------

    def submit(self, request: ServeRequest) -> bool:
        """Admission control at arrival: reject requests that could
        never run (KV footprint over capacity, or prompt that cannot
        fit the token budget alongside a single decode slot)."""
        if (
            not self.pager.fits(request.total_tokens)
            or request.prompt_tokens + 1 > self.config.max_batch_tokens
        ):
            self.rejected.append(request)
            return False
        self.waiting.append(request)
        return True

    def _candidates(self) -> List[ServeRequest]:
        if self.config.policy == "spf":
            return sorted(
                self.waiting, key=lambda r: (r.prompt_tokens, r.req_id)
            )
        return list(self.waiting)

    # -- the iteration planner ---------------------------------------------

    def _decode_block_needs(self) -> int:
        """Blocks the coming decode steps may allocate.  Warming
        sequences are counted too: they do not decode yet, but their
        first decode after warmup must never find the pool empty."""
        ids = list(self.running) + list(self.warming)
        return self.pager.decode_blocks_needed(ids)

    def _headroom_deficit(self) -> int:
        """Blocks still missing for the coming decode step."""
        return self._decode_block_needs() - self.pager.free_blocks

    def _preempt_for_headroom(self, plan: IterationPlan) -> None:
        """Evict most-recently-admitted residents until the next decode
        step cannot run out of blocks."""
        while self._headroom_deficit() > 0:
            victims = sorted(
                list(self.running) + list(self.warming),
                key=lambda sid: self._order[sid],
            )
            victim = victims[-1]
            self.running.pop(victim, None)
            self.warming.pop(victim, None)
            plan.preempted.append(self.pager.preempt(victim))
            self.evicted.append(victim)
            self.preempt_counts[victim] = self.preempt_counts.get(victim, 0) + 1

    def _fits_next(self, prompt_blocks: int, boundary: bool) -> bool:
        """Would admitting a member leave decode headroom intact?"""
        free_after = self.pager.free_blocks - prompt_blocks
        needed_after = self._decode_block_needs() + (1 if boundary else 0)
        return free_after >= needed_after

    def _mark_admitted(self, sid: int) -> None:
        self._order[sid] = self._next_order
        self._next_order += 1

    def plan(self, admit: bool = True) -> IterationPlan:
        """Produce (and commit) one iteration's scheduling decisions.

        ``admit=False`` pauses new admissions (circuit breaker open:
        the running batch keeps draining, evicted sequences may still
        restore, but nothing leaves the wait queue).
        """
        plan = IterationPlan()
        budget = self.config.max_batch_tokens

        # 1. Decode headroom for what is already resident.
        self._preempt_for_headroom(plan)

        # 2. Chunked recompute prefill for warming sequences (FIFO).
        # One budget token is reserved per chunk for the decode slot the
        # sequence occupies as soon as its warmup completes.
        for sid in list(self.warming):
            room = budget - len(self.running) - plan.prefill_tokens - 1
            if room <= 0:
                break
            chunk = min(self.warming[sid], room)
            self.warming[sid] -= chunk
            plan.prefill_tokens += chunk
            if self.warming[sid] == 0:
                del self.warming[sid]
                self.running[sid] = self.requests[sid]

        # 3. Restores, FIFO over eviction order (they were admitted
        #    before anything still waiting).
        while self.evicted:
            sid = self.evicted[0]
            tokens = self.pager.evicted_tokens(sid)
            # Crash survivors recompute even in swap mode: their
            # swapped KV died with the session key.
            recompute_restore = self.pager.restore_is_recompute(sid)
            if self.resident_count + 1 > self.config.max_num_seqs:
                break
            if not self.pager.can_restore(sid) or not self._fits_next(
                self.pager.cache.blocks_needed(tokens),
                tokens % self.pager.block_tokens == 0,
            ):
                break
            if recompute_restore:
                # Needs at least one token of budget to start warming
                # (plus the reserved decode slot).
                if budget - len(self.running) - plan.prefill_tokens - 1 < 1:
                    break
            else:
                if plan.prefill_tokens + len(self.running) + 1 > budget:
                    break
            self.evicted.pop(0)
            restore = self.pager.restore(sid)
            plan.restored.append(restore)
            if recompute_restore:
                room = budget - len(self.running) - plan.prefill_tokens - 1
                chunk = min(restore.recompute_tokens, room)
                remaining = restore.recompute_tokens - chunk
                plan.prefill_tokens += chunk
                if remaining:
                    self.warming[sid] = remaining
                else:
                    self.running[sid] = self.requests[sid]
            else:
                self.running[sid] = self.requests[sid]

        # 4. Admissions from the wait queue (head-of-line per policy).
        for request in self._candidates() if admit else ():
            if self.resident_count + 1 > self.config.max_num_seqs:
                break
            boundary = request.prompt_tokens % self.pager.block_tokens == 0
            if not self.pager.can_admit(request.prompt_tokens):
                break
            if not self._fits_next(
                self.pager.cache.blocks_needed(request.prompt_tokens), boundary
            ):
                break
            if (
                plan.prefill_tokens
                + request.prompt_tokens
                + len(self.running)
                + 1
                > budget
            ):
                break
            self.waiting.remove(request)
            self.pager.admit(request.req_id, request.prompt_tokens)
            self.requests[request.req_id] = request
            self._mark_admitted(request.req_id)
            self.admit_order.append(request.req_id)
            self.running[request.req_id] = request
            plan.admitted.append(request)
            plan.prefill_tokens += request.prompt_tokens

        plan.decode_ids = list(self.running)
        assert plan.prefill_tokens + len(plan.decode_ids) <= budget, (
            "batch token budget exceeded"
        )
        return plan

    # -- fault paths -------------------------------------------------------

    def cancel(self, sid: int) -> None:
        """Terminate a request wherever it is (deadline shed, engine
        give-up): its KV blocks / swapped copy are released outright."""
        if sid in self.running:
            del self.running[sid]
            self.pager.release(sid)
        elif sid in self.warming:
            del self.warming[sid]
            self.pager.release(sid)
        elif sid in self.evicted:
            self.evicted.remove(sid)
            self.pager.drop_evicted(sid)
        else:
            raise SchedulerError(f"cannot cancel unknown sequence {sid}")

    def crash_recover(self) -> List[int]:
        """Engine crash: all KV is lost; requeue every live sequence
        for chunked recompute (admission order preserved).  Returns the
        survivor ids."""
        lost = self.pager.crash()
        self.running.clear()
        self.warming.clear()
        self.evicted.clear()
        survivors = sorted(lost, key=lambda sid: self._order[sid])
        for sid in survivors:
            self.pager.mark_crash_lost(sid, lost[sid])
            self.evicted.append(sid)
        return survivors

    def finish_step(self, decode_ids: List[int]) -> List[int]:
        """Account one generated token per decoding sequence; release
        and return the sequences that just finished."""
        finished = []
        for sid in decode_ids:
            self.pager.append_token(sid)
            request = self.requests[sid]
            generated = self.pager.sequence_length(sid) - request.prompt_tokens
            if generated >= request.gen_tokens:
                self.pager.release(sid)
                del self.running[sid]
                finished.append(sid)
        return finished


# -- the engine: pays for plans through the simulated CC stack -------------

# A ~1B-parameter serving model: decode steps are ~1 ms, so the
# fixed per-step CC costs (bounce staging + AES-GCM on the token
# round-trip, launch hypercalls, command-processor auth) are a
# double-digit fraction of the iteration — the regime where the
# serialized bridge moves the throughput knee.
SERVE_MODEL = LlamaConfig(
    name="llama-serve-1b",
    num_layers=16,
    hidden_size=2048,
    num_heads=16,
    num_kv_heads=8,
    head_dim=128,
    intermediate_size=5632,
    vocab_size=32000,
)

# KV budget: small enough that a busy multi-tenant mix actually pages.
DEFAULT_KV_BUDGET_BYTES = 96 * units.MiB


@dataclass
class EngineResult:
    """Everything one serving run produced."""

    outcomes: List[RequestOutcome]
    rejected: List[ServeRequest]
    elapsed_ns: int
    stats: Dict[str, int]


class _EngineCrash(Exception):
    """Internal: a fatal fault exhausted the engine-level retry budget;
    the iteration aborts and the crash-and-restart path takes over."""

    def __init__(self, site: str) -> None:
        super().__init__(site)
        self.site = site


class ServingEngine:
    """Continuous-batching server as a CUDA-runtime application.

    Every cost-paying path (uploads, prefill/decode launches, token
    D2H, KV swaps) runs under the guest's :class:`FaultInjector`; a
    :class:`DegradationPolicy` decides how the engine degrades when
    faults land (shed vs stall vs crash-and-restart).

    Generated tokens reach the client through one flush path: decode
    steps queue their tokens, and a flush pays one token D2H for
    everything queued (every ``token_flush_every`` steps, optionally
    overlapped on a side stream).  The default knobs flush after every
    step, which reproduces the committed verdicts, goldens and traces
    byte for byte.  A crash inside a flush still delivers the tokens
    that flush carried, at the crash instant: they were generated
    on-device before the copy was lost."""

    def __init__(
        self,
        scheduler_config: Optional[SchedulerConfig] = None,
        model: Optional[LlamaConfig] = None,
        quant: QuantConfig = BF16,
        kv_budget_bytes: int = DEFAULT_KV_BUDGET_BYTES,
        block_tokens: int = 16,
        targets: Optional[SLOTargets] = None,
        degrade: Optional[DegradationPolicy] = None,
        parallelism: Optional[ParallelismSpec] = None,
        tuning: Optional[EngineTuning] = None,
    ) -> None:
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.scheduler_config.validate()
        self.tuning = tuning or EngineTuning()
        self.tuning.validate()
        if self.tuning.quant != BF16.name:
            # The quantization mitigation overrides the backend quant.
            quant = QUANTS[self.tuning.quant]
        self.model = model or SERVE_MODEL
        self.backend = VLLMBackend(model=self.model, quant=quant)
        self.kv_budget_bytes = kv_budget_bytes
        self.block_tokens = block_tokens
        self.targets = targets or SLOTargets()
        self.degrade = degrade or DegradationPolicy()
        self.degrade.validate()
        self.parallelism = parallelism or ParallelismSpec()
        self.parallelism.validate()

    def run(
        self,
        config: SystemConfig,
        requests: List[ServeRequest],
        label: str = "serve",
        telemetry: Optional[ServeTelemetry] = None,
    ):
        """Boot a machine and serve the stream; returns (trace, result).

        ``telemetry``, when given, collects per-request lifecycle marks
        and tagged engine operations (pure bookkeeping — the simulated
        timings are byte-identical with or without it)."""
        return run_app(
            self.app, config, label=label,
            requests=requests, telemetry=telemetry,
        )

    def app(
        self,
        rt: CudaRuntime,
        requests: List[ServeRequest],
        telemetry: Optional[ServeTelemetry] = None,
    ) -> Generator:
        config = rt.config
        metrics = rt.guest.metrics
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        tel.bind_clock(lambda: rt.sim.now)
        degrade = self.degrade
        retry = config.retry
        faults_on = config.faults.active
        tun = self.tuning
        pager = KVPager(
            self.kv_budget_bytes,
            self.block_tokens,
            self.model.kv_bytes_per_token(tun.kv_bits),
            mode=self.scheduler_config.preemption,
        )
        sched = ContinuousBatchingScheduler(self.scheduler_config, pager)
        tracker = SLOTracker(metrics, self.targets)
        ledger = LifecycleLedger()

        prompt_host = yield from rt.malloc_host(4 * units.MiB)
        token_host = yield from rt.malloc_host(TOKEN_BUF_BYTES)
        scratch_dev = yield from rt.malloc(16 * units.MiB)
        swap_host = yield from rt.malloc_host(SWAP_CHUNK_BYTES)
        swap_dev = yield from rt.malloc(SWAP_CHUNK_BYTES)

        # Mitigation knobs (repro.serve.tuning).  Defaults fuse
        # nothing and flush tokens synchronously after every decode
        # step, which is the committed cost sequence.
        fuse_steps = tun.fuse_step_kernels
        flush_every = tun.token_flush_every
        overlap_d2h = tun.d2h_streams > 1
        swap_in_host = swap_host
        if tun.split_swap_staging:
            # Direction-stable KV-swap staging: a dedicated swap-in
            # buffer means neither pinned bounce buffer ever flips
            # transfer direction, so the per-flip page conversion is
            # paid once instead of per preemption/restore cycle.
            swap_in_host = yield from rt.malloc_host(SWAP_CHUNK_BYTES)
        d2h_stream = None
        token_bufs = [token_host]
        if overlap_d2h:
            d2h_stream = rt.create_stream()
            for _ in range(tun.d2h_streams - 1):
                token_bufs.append(
                    (yield from rt.malloc_host(TOKEN_BUF_BYTES))
                )

        # Model parallelism: a non-trivial spec routes every inter-GPU
        # transfer through the secure-link substrate (TP ring
        # all-reduces) and the CC staging bridge (PP activation
        # handoffs).  The tp=1/pp=1 path allocates nothing and pays
        # nothing — byte-identical to the single-GPU engine.
        par = self.parallelism
        hidden = self.model.hidden_size
        tp_node = MultiGPUNode(num_gpus=par.tp) if par.tp > 1 else None
        link_sec = par.link_security(config.cc_on)
        pp_host = pp_dev = None
        if par.pp > 1:
            pp_bytes = max(
                64 * units.KiB,
                (self.scheduler_config.max_batch_tokens
                 + self.scheduler_config.max_num_seqs) * hidden * 2,
            )
            pp_host = yield from rt.malloc_host(pp_bytes)
            pp_dev = yield from rt.malloc(pp_bytes)
        tp_comm_ns = 0
        pp_comm_ns = 0

        pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
        index = 0
        start = rt.sim.now
        first_token: Dict[int, int] = {}
        iterations = 0
        decode_steps = 0
        restarts = 0
        storms = 0
        breaker_trips = 0
        engine_retries = 0
        retry_pressure = False
        breaker_open = False
        # Token-flush state: one pending token per entry of
        # pending_first (decode ids in plan order, step after step).
        pending_first: List[int] = []
        pending_done: List[int] = []
        steps_since_flush = 0
        inflight: List = []  # (done event, firsts, dones) per async flush
        flush_buf = 0
        token_flushes = 0
        fused_launches = 0

        queue_gauge = metrics.gauge("serve.queue_depth")
        kv_gauge = metrics.gauge("serve.kv_used_blocks")
        running_gauge = metrics.gauge("serve.running_seqs")
        preempt_counter = metrics.counter("serve.preemptions")
        swap_counter = metrics.counter("serve.swap_bytes")

        def observe(request, status, cause, when, first):
            """Record one terminal state (exactly once, via the ledger)
            and its client-visible outcome."""
            ledger.finish(request.req_id, status, cause)
            tracker.observe(
                RequestOutcome(
                    req_id=request.req_id,
                    tenant=request.tenant,
                    arrival_ns=request.arrival_ns,
                    first_token_ns=first,
                    finish_ns=when,
                    prompt_tokens=request.prompt_tokens,
                    gen_tokens=request.gen_tokens,
                    preemptions=sched.preempt_counts.get(request.req_id, 0),
                    status=status,
                    cause=cause,
                )
            )

        def terminal(request, status, cause, when, first=None):
            """A policy/fault termination: the outcome plus its span."""
            observe(request, status, cause, when, first)
            # SHED span taxonomy: a zero-duration "serve"-layer span per
            # policy/fault termination, next to the "recovery" spans the
            # runtime emits for retried operations.
            rt.guest.spans.record(
                f"{status}:{cause}",
                "serve",
                when,
                0,
                req=request.req_id,
                tenant=request.tenant,
            )

        def paid(make_op):
            """Run one cost-paying op under the engine-level retry loop.

            The runtime below already retries transient faults
            per-primitive; a :class:`FatalFault` escaping it means that
            budget is gone.  The engine then replays the whole op (a
            fresh fault draw — transient storms pass) with
            ``RetryPolicy`` backoff in sim time; exhaustion escalates
            to :class:`_EngineCrash` and the restart path."""
            nonlocal engine_retries
            attempt = 1
            while True:
                try:
                    return (yield from make_op())
                except FatalFault as exc:
                    if attempt >= retry.max_attempts:
                        raise _EngineCrash(exc.site) from exc
                    engine_retries += 1
                    backoff_start = rt.sim.now
                    yield rt.sim.timeout(retry.backoff_ns(attempt))
                    rt.guest.record_recovery(
                        exc.site, backoff_start, attempt, "engine-retry"
                    )
                    attempt += 1

        def deliver(when, firsts, dones):
            """Client-visible token delivery: stamp first tokens and
            record completions at the flush's host-sync point (right
            after a blocking flush, at buffer-reuse/drain time for an
            overlapped one)."""
            for sid in firsts:
                first_token.setdefault(sid, when)
            for sid in dones:
                observe(
                    sched.requests[sid], COMPLETED, "", when, first_token[sid]
                )

        def drain_inflight_one():
            """Host-sync the oldest outstanding async token flush."""
            event, firsts, dones = inflight.pop(0)
            if not event.processed:
                yield event
            deliver(rt.sim.now, firsts, dones)

        def flush_tokens():
            """Pay one coalesced token D2H for every decode step since
            the last flush (fewer encrypted bridge transits), then
            deliver the deferred records — immediately on the blocking
            path, at buffer-reuse/drain time on the overlapped path."""
            nonlocal steps_since_flush, flush_buf, token_flushes
            if not pending_first:
                return
            ids = tuple(dict.fromkeys(pending_first))
            size = 4 * len(pending_first)
            if overlap_d2h:
                while len(inflight) >= len(token_bufs):
                    yield from drain_inflight_one()
                buf = token_bufs[flush_buf % len(token_bufs)]
                flush_buf += 1
                # The flush DMA orders after this iteration's decode
                # kernel on the compute stream; the synchronous CPU
                # staging/crypto leg is paid inline regardless (single
                # OpenSSL worker under CC).
                rt.stream_wait_event(d2h_stream, rt.default_stream.tail)
                with tel.op("token_d2h", ids):
                    done = yield from paid(lambda: rt.memcpy_async(
                        buf, scratch_dev, d2h_stream, size
                    ))
                inflight.append(
                    (done, list(pending_first), list(pending_done))
                )
            else:
                with tel.op("token_d2h", ids):
                    yield from paid(lambda: rt.memcpy(
                        token_host, scratch_dev, size
                    ))
                deliver(rt.sim.now, pending_first, pending_done)
            token_flushes += 1
            pending_first.clear()
            pending_done.clear()
            steps_since_flush = 0

        def flush_all():
            """Flush pending tokens and host-sync every async flush."""
            yield from flush_tokens()
            while inflight:
                yield from drain_inflight_one()

        def abandon_pending(when):
            """Crash/give-up path: the engine stops paying copies, but
            every device-complete token delivery must still be
            accounted (the ledger's exactly-once guarantee)."""
            nonlocal steps_since_flush
            for _event, firsts, dones in inflight:
                deliver(when, firsts, dones)
            inflight.clear()
            deliver(when, pending_first, pending_done)
            pending_first.clear()
            pending_done.clear()
            steps_since_flush = 0

        def resident_ids():
            """Requests currently paying engine costs (telemetry tags).

            With telemetry off the tags are discarded unseen, so skip
            the per-iteration sort entirely.
            """
            if not tel.enabled:
                return ()
            return tuple(sorted(sched.live_ids()))

        def reattest(action):
            """Session teardown + full SPDM re-attestation (the KV keys
            rotate, but resident KV in HBM survives — only a *crash*
            loses KV)."""
            with tel.op("reattest", resident_ids()):
                restart_start = rt.sim.now
                yield rt.sim.timeout(config.fault_model.spdm_restart_ns)
                yield from attest_gpu(rt.sim, rt.guest, config)
                rt.guest.record_recovery(SPDM_SITE, restart_start, 1, action)
            metrics.counter("serve.reattestations").inc()

        def queue_cap_now():
            """Pushback threshold; bounce-pool exhaustion halves it."""
            cap = degrade.max_queue_depth
            if cap and rt.guest.faults.injected_at(BOUNCE_POOL) > 0:
                cap = max(1, cap // 2)
            return cap

        def shed_scan(when):
            """Enforce TTFT timeouts and end-to-end deadlines."""
            ttft_to = degrade.ttft_timeout_ns
            deadline = degrade.deadline_ns
            survivors = []
            for request in sched.waiting:
                waited = when - request.arrival_ns
                if ttft_to and waited > ttft_to:
                    terminal(request, SHED, "ttft_timeout", when)
                elif deadline and waited > deadline:
                    terminal(request, SHED, "deadline", when)
                else:
                    survivors.append(request)
            sched.waiting[:] = survivors
            if deadline:
                for sid in sched.live_ids():
                    request = sched.requests[sid]
                    if when - request.arrival_ns > deadline:
                        sched.cancel(sid)
                        terminal(
                            request, SHED, "deadline", when,
                            first=first_token.get(sid),
                        )

        def give_up(cause):
            """Terminal engine failure: every request still in flight
            (and every arrival that will never be served) fails with
            cause — nothing is silently dropped."""
            nonlocal index
            when = rt.sim.now
            abandon_pending(when)
            for request in list(sched.waiting):
                terminal(request, FAILED, cause, when)
            sched.waiting.clear()
            for sid in sched.live_ids():
                request = sched.requests[sid]
                sched.cancel(sid)
                terminal(
                    request, FAILED, cause, when,
                    first=first_token.get(sid),
                )
            while index < len(pending):
                request = pending[index]
                index += 1
                ledger.submit(request.req_id)
                # A request cannot end before it arrives.
                terminal(
                    request, FAILED, "engine_down",
                    max(when, request.arrival_ns),
                )
            metrics.counter("serve.engine_give_up").inc()

        def chunked_copy(dst, src, total):
            remaining = total
            while remaining > 0:
                size = min(remaining, SWAP_CHUNK_BYTES)
                yield from paid(lambda s=size: rt.memcpy(dst, src, s))
                remaining -= size

        def shard(spec):
            """Tensor-parallel kernel shard: each rank computes 1/tp of
            the layer; the all-reduce below pays the sync."""
            if par.tp <= 1:
                return spec
            return dataclasses.replace(
                spec,
                name=f"{spec.name}@tp{par.tp}",
                fixed_duration_ns=max(1, spec.fixed_duration_ns // par.tp),
            )

        def tp_sync(tokens, ids):
            """Per-layer activation all-reduces over the secure peer
            links (two per transformer layer: attention out-proj and
            MLP down-proj), batched into one collective session."""
            nonlocal tp_comm_ns
            comm_start = rt.sim.now
            with tel.op("tp_comm", ids):
                yield from paid(lambda: run_ring_all_reduce(
                    rt.sim,
                    tp_node,
                    max(1, tokens * hidden * 2),
                    link_sec,
                    count=2 * self.model.num_layers,
                    guest=rt.guest,
                    retry=retry,
                ))
            tp_comm_ns += rt.sim.now - comm_start

        def pp_bridge(tokens, ids):
            """Pipeline-stage activation handoffs across the host
            bridge: each of the pp-1 boundaries stages activations
            D2H then H2D — under CC both legs cross the serialized
            bounce-buffer/AES-GCM path."""
            nonlocal pp_comm_ns
            act = max(64, tokens * hidden * 2)
            comm_start = rt.sim.now
            with tel.op("pp_comm", ids):
                for _stage in range(par.pp - 1):
                    yield from paid(lambda: rt.memcpy(pp_host, pp_dev, act))
                    yield from paid(lambda: rt.memcpy(pp_dev, pp_host, act))
            pp_comm_ns += rt.sim.now - comm_start

        while True:
            try:
                now = rt.sim.now
                while index < len(pending) and pending[index].arrival_ns <= now:
                    request = pending[index]
                    index += 1
                    ledger.submit(request.req_id)
                    if degrade.shed_policy == "pushback" and (
                        retry_pressure
                        or (
                            queue_cap_now()
                            and len(sched.waiting) >= queue_cap_now()
                        )
                    ):
                        terminal(request, SHED, "pushback", now)
                        continue
                    if not sched.submit(request):
                        ledger.finish(request.req_id, REJECTED, "admission")
                queue_gauge.set(len(sched.waiting))
                if degrade.sheds:
                    shed_scan(now)
                if not sched.has_work():
                    if pending_first or inflight:
                        # Shedding emptied the scheduler while tokens
                        # it generated still wait for their flush:
                        # deliver them before idling or finishing.
                        yield from flush_all()
                        continue
                    if index >= len(pending):
                        break
                    # Idle: jump to the next arrival.
                    yield rt.sim.timeout(pending[index].arrival_ns - now)
                    continue

                # SPDM re-attestation storm: the session health check
                # demands a fresh attestation.  With the circuit
                # breaker the engine pauses admission and drains the
                # running batch first; without it the whole batch
                # stalls behind an inline re-attestation.
                if faults_on and rt.guest.faults.draw(SPDM_SITE) is not None:
                    storms += 1
                    metrics.counter("serve.spdm_storms").inc()
                    if degrade.circuit_breaker:
                        if not breaker_open:
                            breaker_open = True
                            breaker_trips += 1
                            metrics.counter("serve.breaker_trips").inc()
                    else:
                        yield from reattest("spdm-storm")

                plan = sched.plan(admit=not breaker_open)
                for request in plan.admitted:
                    # First admission only: queueing is arrival -> here.
                    tel.admitted(request.req_id, rt.sim.now)
                if not plan.busy:
                    if breaker_open:
                        # Batch drained: re-attest, close the breaker,
                        # resume admission.
                        yield from reattest("breaker-drain")
                        breaker_open = False
                        continue
                    raise RuntimeError(
                        "scheduler stalled with pending work (livelock)"
                    )
                iterations += 1
                retries_before = engine_retries

                for evict in plan.preempted:
                    preempt_counter.inc()
                    if evict.swap_bytes:
                        swap_counter.inc(evict.swap_bytes)
                        with tel.op("swap_out", (evict.seq_id,)):
                            yield from chunked_copy(
                                swap_host, swap_dev, evict.swap_bytes
                            )
                for restore in plan.restored:
                    if restore.swap_bytes:
                        swap_counter.inc(restore.swap_bytes)
                        with tel.op("swap_in", (restore.seq_id,)):
                            yield from chunked_copy(
                                swap_dev, swap_in_host, restore.swap_bytes
                            )
                if plan.admitted:
                    prompt_bytes = sum(
                        r.prompt_tokens for r in plan.admitted
                    ) * 4
                    with tel.op(
                        "prompt_upload",
                        tuple(r.req_id for r in plan.admitted),
                    ):
                        yield from paid(lambda: rt.memcpy(
                            scratch_dev, prompt_host, max(prompt_bytes, 64)
                        ))
                # Kernel fusion (Observation 7): a mixed iteration
                # (prefill + decode) launches ONE fused kernel below,
                # paying the CC launch tax — and, on parallel engines,
                # the collective session — once instead of twice.
                fuse_now = bool(
                    fuse_steps and plan.prefill_tokens and plan.decode_ids
                )
                prefill_ids = ()
                if plan.prefill_tokens:
                    prefill_ids = tuple(sorted(
                        {r.req_id for r in plan.admitted}
                        | set(sched.warming)
                    ))
                    if not fuse_now:
                        with tel.op("prefill", prefill_ids):
                            yield from paid(lambda: rt.launch(shard(
                                self.backend.prefill_kernel(
                                    config, plan.prefill_tokens
                                )
                            )))
                        if tp_node is not None:
                            yield from tp_sync(
                                plan.prefill_tokens, prefill_ids
                            )
                        if par.pp > 1:
                            yield from pp_bridge(
                                plan.prefill_tokens, prefill_ids
                            )

                # Iteration bookkeeping on the guest CPU.
                with tel.op("sched", resident_ids()):
                    yield from rt.cpu_gap(VLLM_STEP_SCHED_NS)

                if plan.decode_ids:
                    decode_steps += 1
                    contexts = [
                        pager.sequence_length(s) for s in plan.decode_ids
                    ]
                    step_spec = self.backend.decode_kernel(
                        config,
                        len(plan.decode_ids),
                        sum(contexts) / len(contexts),
                    )
                    step_ids = tuple(plan.decode_ids)
                    sync_tokens = len(plan.decode_ids)
                    if fuse_now:
                        fused_launches += 1
                        prefill_spec = self.backend.prefill_kernel(
                            config, plan.prefill_tokens
                        )
                        # One fused super-kernel: both rooflines run
                        # back to back, one kernel prologue instead of
                        # two, one launch path, one collective.
                        step_spec = dataclasses.replace(
                            step_spec,
                            name=f"fused_step_{self.backend.quant.name}",
                            fixed_duration_ns=max(
                                1,
                                step_spec.fixed_duration_ns
                                + prefill_spec.fixed_duration_ns
                                - config.gpu.kernel_fixed_ns,
                            ),
                        )
                        step_ids = tuple(sorted(
                            set(prefill_ids) | set(plan.decode_ids)
                        ))
                        sync_tokens = (
                            plan.prefill_tokens + len(plan.decode_ids)
                        )
                    with tel.op(
                        "fused_step" if fuse_now else "decode", step_ids
                    ):
                        yield from paid(
                            lambda: rt.launch(shard(step_spec))
                        )
                    if tp_node is not None:
                        yield from tp_sync(sync_tokens, step_ids)
                    if par.pp > 1:
                        yield from pp_bridge(sync_tokens, step_ids)
                    steps_since_flush += 1
                    pending_first.extend(plan.decode_ids)
                    pending_done.extend(sched.finish_step(plan.decode_ids))
                if not sched.has_work():
                    yield from flush_all()
                elif steps_since_flush >= flush_every:
                    yield from flush_tokens()
                kv_gauge.set(pager.cache.used_blocks)
                running_gauge.set(len(sched.running))
                retry_pressure = engine_retries > retries_before
            except _EngineCrash as crash:
                # Engine crash: session and KV are gone.  Within the
                # restart budget the engine re-attests and requeues
                # every survivor for chunked recompute; past it, it
                # fails them with cause instead of looping forever.
                restarts += 1
                metrics.counter("serve.engine_crashes").inc()
                crash_start = rt.sim.now
                # Tokens already generated on-device are delivered at
                # crash time; their requests left the scheduler at
                # finish_step and only the flush was pending.
                abandon_pending(crash_start)
                sched.crash_recover()
                first_token = {
                    sid: at for sid, at in first_token.items()
                    if not ledger.state_of(sid)
                }
                if restarts > degrade.max_engine_restarts:
                    give_up(crash.site)
                    break
                try:
                    yield from reattest("engine-restart")
                except FatalFault:
                    give_up(crash.site)
                    break
                rt.guest.record_recovery(
                    crash.site, crash_start, restarts, "engine-restart",
                    scope="serve",
                )
                breaker_open = False
                retry_pressure = True
            except FatalFault as exc:
                # Re-attestation itself exhausted its retries: the
                # platform cannot restore a trusted session.
                give_up(exc.site)
                break

        pager.check_invariants()
        assert pager.drained(), "sequences left resident after drain"
        ledger.check_complete()
        yield from rt.synchronize()
        elapsed = rt.sim.now - start
        buffers = [prompt_host, token_host, swap_host, scratch_dev, swap_dev]
        if pp_host is not None:
            buffers += [pp_host, pp_dev]
        if swap_in_host is not swap_host:
            buffers.append(swap_in_host)
        buffers += token_bufs[1:]
        for buffer in buffers:
            yield from rt.free(buffer)
        stats = {
            "iterations": iterations,
            "decode_steps": decode_steps,
            "rejected": len(sched.rejected),
            "restarts": restarts,
            "spdm_storms": storms,
            "breaker_trips": breaker_trips,
            "engine_retries": engine_retries,
            "shed": ledger.count(SHED),
            "failed": ledger.count(FAILED),
            "faults_injected": rt.guest.faults.total_injected,
            "faults_recovery_ns": rt.guest.faults.total_recovery_ns,
            **pager.stats.as_dict(),
        }
        if not par.trivial:
            # Keys only appear on parallel engines so the single-GPU
            # stats dict (and every verdict embedding it) stays
            # byte-identical to the pre-cluster build.
            stats["tp_degree"] = par.tp
            stats["pp_stages"] = par.pp
            stats["tp_comm_ns"] = tp_comm_ns
            stats["pp_comm_ns"] = pp_comm_ns
        if not tun.trivial:
            # Same pattern as the parallelism keys: tuned engines grow
            # stats, trivial ones keep the committed verdict bytes.
            stats["tuning"] = tun.describe()
            stats["tuning_fused_launches"] = fused_launches
            stats["tuning_token_flushes"] = token_flushes
        return EngineResult(
            outcomes=tracker.outcomes,
            rejected=sched.rejected,
            elapsed_ns=elapsed,
            stats=stats,
        )
