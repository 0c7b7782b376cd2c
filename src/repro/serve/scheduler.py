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
from ..cuda.runtime import outstanding
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


class _Run:
    """One run's request lifecycle (arrivals, pushback, shedding,
    exactly-once terminal accounting, give-up) and crash/restart state
    (engine-level retries, SPDM re-attestation, the circuit breaker)."""

    def __init__(self, engine: "ServingEngine", rt: CudaRuntime,
                 requests: List[ServeRequest], tel: ServeTelemetry) -> None:
        self.rt = rt
        self.tel = tel
        self.degrade = engine.degrade
        self.sheds = engine.degrade.sheds
        self.ttft_timeout_ns = engine.degrade.ttft_timeout_ns
        self.deadline_ns = engine.degrade.deadline_ns
        self.metrics = rt.guest.metrics
        self.faults = rt.guest.faults
        self.pager = KVPager(
            engine.kv_budget_bytes,
            engine.block_tokens,
            engine.model.kv_bytes_per_token(engine.tuning.kv_bits),
            mode=engine.scheduler_config.preemption,
        )
        self.sched = ContinuousBatchingScheduler(
            engine.scheduler_config, self.pager
        )
        self.tracker = SLOTracker(self.metrics, engine.targets)
        self.ledger = LifecycleLedger()
        self.pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
        self.index = 0
        self.first_token: Dict[int, int] = {}
        self.queue_gauge = self.metrics.gauge("serve.queue_depth")
        self.restarts = 0
        self.storms = 0
        self.breaker_trips = 0
        self.engine_retries = 0
        self.retry_pressure = False
        self.breaker_open = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def arrivals_left(self) -> bool:
        return self.index < len(self.pending)

    def until_next_arrival(self):
        arrival = self.pending[self.index].arrival_ns
        return self.rt.sim.timeout(arrival - self.rt.sim.now)

    def arrive(self, now: int) -> None:
        """Submit every request that has arrived by ``now``, then shed
        what the degradation policy no longer allows to wait."""
        pending = self.pending
        while (self.index < len(pending)
               and pending[self.index].arrival_ns <= now):
            request = pending[self.index]
            self.index += 1
            self.ledger.submit(request.req_id)
            if self._pushback():
                self.terminal(request, SHED, "pushback", now)
            elif not self.sched.submit(request):
                self.ledger.finish(request.req_id, REJECTED, "admission")
        self.queue_gauge.set(len(self.sched.waiting))
        if self.sheds:
            self.shed_scan(now)

    def _pushback(self) -> bool:
        """Shed an arrival under engine retry pressure or past the queue
        cap; bounce-pool exhaustion halves the cap."""
        if self.degrade.shed_policy != "pushback":
            return False
        if self.retry_pressure:
            return True
        cap = self.degrade.max_queue_depth
        if cap and self.faults.injected_at(BOUNCE_POOL) > 0:
            cap = max(1, cap // 2)
        return bool(cap) and len(self.sched.waiting) >= cap

    def observe(self, request, status, cause, when, first) -> None:
        """Record one terminal state (exactly once, via the ledger) and
        its client-visible outcome."""
        self.ledger.finish(request.req_id, status, cause)
        self.tracker.observe(
            RequestOutcome(
                req_id=request.req_id,
                tenant=request.tenant,
                arrival_ns=request.arrival_ns,
                first_token_ns=first,
                finish_ns=when,
                prompt_tokens=request.prompt_tokens,
                gen_tokens=request.gen_tokens,
                preemptions=self.sched.preempt_counts.get(request.req_id, 0),
                status=status,
                cause=cause,
            )
        )

    def terminal(self, request, status, cause, when, first=None) -> None:
        """A policy/fault termination: the outcome plus its span."""
        self.observe(request, status, cause, when, first)
        # SHED span taxonomy: a zero-duration "serve"-layer span per
        # policy/fault termination, next to the "recovery" spans the
        # runtime emits for retried operations.
        self.rt.guest.spans.record(f"{status}:{cause}", "serve", when, 0,
                                   req=request.req_id, tenant=request.tenant)

    def deliver(self, when: int, firsts: List[int], dones: List[int]) -> None:
        """Client-visible token delivery: stamp first tokens and record
        completions at a flush's host-sync point."""
        for sid in firsts:
            self.first_token.setdefault(sid, when)
        for sid in dones:
            self.observe(
                self.sched.requests[sid], COMPLETED, "", when,
                self.first_token[sid],
            )

    def shed_scan(self, when: int) -> None:
        """Enforce TTFT timeouts and end-to-end deadlines."""
        sched = self.sched
        ttft_to, deadline = self.ttft_timeout_ns, self.deadline_ns
        # The wait queue stays in arrival order (arrivals append;
        # admission and shedding only remove), so the requests past a
        # limit are a prefix of it.
        shed = 0
        for request in sched.waiting:
            waited = when - request.arrival_ns
            if ttft_to and waited > ttft_to:
                self.terminal(request, SHED, "ttft_timeout", when)
            elif deadline and waited > deadline:
                self.terminal(request, SHED, "deadline", when)
            else:
                break
            shed += 1
        del sched.waiting[:shed]
        for sid in sched.live_ids() if deadline else ():
            if when - sched.requests[sid].arrival_ns > deadline:
                self._cancel(sid, SHED, "deadline", when)

    def _cancel(self, sid: int, status: str, cause: str, when: int) -> None:
        """Terminate an admitted request wherever it is."""
        request = self.sched.requests[sid]
        self.sched.cancel(sid)
        self.terminal(request, status, cause, when,
                      first=self.first_token.get(sid))

    def give_up(self, cause: str) -> None:
        """Terminal engine failure: every request still in flight (and
        every arrival that will never be served) fails with cause —
        nothing is silently dropped."""
        sched = self.sched
        when = self.rt.sim.now
        for request in sched.waiting:
            self.terminal(request, FAILED, cause, when)
        sched.waiting.clear()
        for sid in sched.live_ids():
            self._cancel(sid, FAILED, cause, when)
        while self.arrivals_left:
            request = self.pending[self.index]
            self.index += 1
            self.ledger.submit(request.req_id)
            # A request cannot end before it arrives.
            self.terminal(
                request, FAILED, "engine_down", max(when, request.arrival_ns)
            )
        self.metrics.counter("serve.engine_give_up").inc()

    def resident_ids(self):
        """Requests currently paying engine costs (telemetry tags).

        With telemetry off the tags are discarded unseen, so skip the
        per-iteration sort entirely.
        """
        if not self.tel.enabled:
            return ()
        return tuple(sorted(self.sched.live_ids()))

    # -- crash/restart -----------------------------------------------------

    def paid(self, make_op) -> Generator:
        """Run one cost-paying op under the engine-level retry loop.

        The runtime below already retries transient faults per
        primitive; a :class:`FatalFault` escaping it means that budget
        is gone.  The engine replays the whole op (a fresh fault draw)
        with ``RetryPolicy`` backoff in sim time; exhaustion escalates
        to :class:`_EngineCrash` and the restart path."""
        attempt = 1
        while True:
            try:
                return (yield from make_op())
            except FatalFault as exc:
                rt = self.rt
                retry = rt.config.retry
                if attempt >= retry.max_attempts:
                    raise _EngineCrash(exc.site) from exc
                self.engine_retries += 1
                backoff_start = rt.sim.now
                yield retry.backoff_ns(attempt)
                rt.guest.record_recovery(
                    exc.site, backoff_start, attempt, "engine-retry"
                )
                attempt += 1

    def reattest(self, action: str) -> Generator:
        """Session teardown + full SPDM re-attestation (the KV keys
        rotate, but resident KV in HBM survives — only a *crash* loses
        KV)."""
        rt = self.rt
        with self.tel.op("reattest", self.resident_ids()):
            restart_start = rt.sim.now
            yield rt.config.fault_model.spdm_restart_ns
            yield from attest_gpu(rt.sim, rt.guest, rt.config)
            rt.guest.record_recovery(SPDM_SITE, restart_start, 1, action)
        self.metrics.counter("serve.reattestations").inc()

    def storm(self) -> bool:
        """SPDM re-attestation storm: the session health check demands
        a fresh attestation.  With the circuit breaker the engine pauses
        admission and drains the running batch first; without it the
        whole batch stalls behind an inline re-attestation (returns
        True)."""
        if self.faults.draw(SPDM_SITE) is None:
            return False
        self.storms += 1
        self.metrics.counter("serve.spdm_storms").inc()
        if not self.degrade.circuit_breaker:
            return True
        if not self.breaker_open:
            self.breaker_open = True
            self.breaker_trips += 1
            self.metrics.counter("serve.breaker_trips").inc()
        return False

    def restart(self, site: str) -> Generator:
        """Engine crash: session and KV are gone.  Within the restart
        budget the engine re-attests and requeues every survivor for
        chunked recompute; past it, it fails them with cause instead of
        looping forever.  Returns whether the engine serves on."""
        rt = self.rt
        self.restarts += 1
        self.metrics.counter("serve.engine_crashes").inc()
        crash_start = rt.sim.now
        self.sched.crash_recover()
        if self.restarts > self.degrade.max_engine_restarts:
            self.give_up(site)
            return False
        try:
            yield from self.reattest("engine-restart")
        except FatalFault:
            self.give_up(site)
            return False
        rt.guest.record_recovery(
            site, crash_start, self.restarts, "engine-restart", scope="serve"
        )
        self.breaker_open = False
        self.retry_pressure = True
        return True

    # -- drain ---------------------------------------------------------------

    def check_drained(self) -> None:
        """The pager and the ledger balance at drain."""
        self.pager.check_invariants()
        assert self.pager.drained(), "sequences left resident after drain"
        self.ledger.check_complete()

    def stats(self) -> Dict[str, int]:
        faults = self.faults
        return {
            "rejected": len(self.sched.rejected),
            "restarts": self.restarts,
            "spdm_storms": self.storms,
            "breaker_trips": self.breaker_trips,
            "engine_retries": self.engine_retries,
            "shed": self.ledger.count(SHED),
            "failed": self.ledger.count(FAILED),
            "faults_injected": faults.total_injected,
            "faults_recovery_ns": faults.total_recovery_ns,
            **self.pager.stats.as_dict(),
        }


class _TokenFlusher:
    """Decode steps queue their tokens; one flush pays one token D2H for
    all of them.  Without a D2H stream a flush blocks and delivers at
    once; with one it is a ``cudaMemcpyAsync`` over rotating host
    buffers, delivered at buffer-reuse or drain time."""

    def __init__(self, run: _Run, bufs, src, stream, every: int) -> None:
        self.run = run
        self.bufs = bufs
        self.src = src
        self.stream = stream
        self.every = every
        # One pending token per entry of pending_first (decode ids in
        # plan order, step after step).
        self.pending_first: List[int] = []
        self.pending_done: List[int] = []
        self.inflight: List = []  # (done event, firsts, dones) per async flush
        self.steps = 0
        self.turn = 0
        self.flushes = 0

    @property
    def pending(self) -> bool:
        return bool(self.pending_first or self.inflight)

    def queue(self, firsts: List[int], dones: List[int]) -> None:
        """One decode step's tokens, and the requests it finished."""
        self.steps += 1
        self.pending_first.extend(firsts)
        self.pending_done.extend(dones)

    def _drain_one(self) -> Generator:
        """Host-sync the oldest outstanding async flush.  A failed one
        crashes the engine, as a blocking flush does; the crash path
        delivers its tokens, which the device had already generated."""
        event, firsts, dones = self.inflight[0]
        try:
            for pending in outstanding(event):
                yield pending
        except FatalFault as exc:
            raise _EngineCrash(exc.site) from exc
        del self.inflight[0]
        self.run.deliver(self.run.rt.sim.now, firsts, dones)

    def flush(self) -> Generator:
        """Pay one coalesced token D2H for every decode step since the
        last flush."""
        if not self.pending_first:
            return
        run, rt = self.run, self.run.rt
        ids = tuple(dict.fromkeys(self.pending_first))
        size = 4 * len(self.pending_first)
        if self.stream is None:
            with run.tel.op("token_d2h", ids):
                yield from run.paid(
                    lambda: rt.memcpy(self.bufs[0], self.src, size)
                )
            run.deliver(rt.sim.now, self.pending_first, self.pending_done)
        else:
            while len(self.inflight) >= len(self.bufs):
                yield from self._drain_one()
            buf = self.bufs[self.turn % len(self.bufs)]
            self.turn += 1
            # The flush DMA orders after this iteration's decode kernel
            # on the compute stream; the synchronous CPU staging/crypto
            # leg is paid inline regardless (single OpenSSL worker
            # under CC).
            rt.stream_wait_event(self.stream, rt.default_stream.tail)
            with run.tel.op("token_d2h", ids):
                done = yield from run.paid(lambda: rt.memcpy_async(
                    buf, self.src, self.stream, size
                ))
            self.inflight.append(
                (done, list(self.pending_first), list(self.pending_done))
            )
        self.flushes += 1
        self._reset()

    def flush_all(self) -> Generator:
        """Flush pending tokens and host-sync every async flush."""
        yield from self.flush()
        while self.inflight:
            yield from self._drain_one()

    def abandon(self, when: int) -> None:
        """Crash/give-up path: the engine stops paying copies, but every
        device-complete token delivery must still be accounted (the
        ledger's exactly-once guarantee)."""
        for _event, firsts, dones in self.inflight:
            self.run.deliver(when, firsts, dones)
        self.inflight.clear()
        if self.stream is not None:
            # Written-off flushes gate nothing now, so a failed one
            # fails neither later flushes nor the final synchronize.
            self.stream.tail = None
        self.run.deliver(when, self.pending_first, self.pending_done)
        self._reset()

    def _reset(self) -> None:
        self.pending_first.clear()
        self.pending_done.clear()
        self.steps = 0


class _ModelComm:
    """A replica's TP ring all-reduces over the secure peer links and PP
    activation handoffs across the CC staging bridge.  A tp=1/pp=1 comm
    is inert: it allocates, pays, records and reports nothing."""

    def __init__(self, par: ParallelismSpec, model: LlamaConfig, run: _Run):
        self.par = par
        self.run = run
        self.hidden = model.hidden_size
        self.layers = model.num_layers
        self.tp_node = MultiGPUNode(num_gpus=par.tp) if par.tp > 1 else None
        self.link_sec = par.link_security(run.rt.config.cc_on)
        self.inert = par.trivial
        self.buffers = ()  # PP staging: (pinned host, device)
        self.tp_ns = 0
        self.pp_ns = 0

    def open(self, batch_tokens: int) -> Generator:
        """Allocate the PP staging buffers for a full batch."""
        if self.par.pp > 1:
            size = max(64 * units.KiB, batch_tokens * self.hidden * 2)
            host = yield from self.run.rt.malloc_host(size)
            dev = yield from self.run.rt.malloc(size)
            self.buffers = (host, dev)

    def shard(self, spec):
        """Tensor-parallel kernel shard: each rank computes 1/tp of the
        layer; :meth:`sync` pays the all-reduce."""
        if self.par.tp == 1:
            return spec
        return dataclasses.replace(
            spec,
            name=f"{spec.name}@tp{self.par.tp}",
            fixed_duration_ns=max(1, spec.fixed_duration_ns // self.par.tp),
        )

    def sync(self, tokens: int, ids):
        """The TP all-reduce, then the PP bridge, after one launch; an
        inert comm hands back an empty iterable (no generator per
        launch on the single-GPU hot path)."""
        return () if self.inert else self._sync(tokens, ids)

    def _sync(self, tokens: int, ids) -> Generator:
        run, rt = self.run, self.run.rt
        if self.tp_node is not None:
            # Per-layer activation all-reduces (attention out-proj and
            # MLP down-proj), batched into one collective session.
            start = rt.sim.now
            with run.tel.op("tp_comm", ids):
                yield from run.paid(lambda: run_ring_all_reduce(
                    rt.sim, self.tp_node, max(1, tokens * self.hidden * 2),
                    self.link_sec, count=2 * self.layers, guest=rt.guest,
                    retry=rt.config.retry,
                ))
            self.tp_ns += rt.sim.now - start
        if self.par.pp > 1:
            # Each of the pp-1 stage boundaries stages activations D2H
            # then H2D; under CC both legs cross the serialized
            # bounce-buffer/AES-GCM path.
            host, dev = self.buffers
            act = max(64, tokens * self.hidden * 2)
            start = rt.sim.now
            with run.tel.op("pp_comm", ids):
                for _stage in range(self.par.pp - 1):
                    yield from run.paid(lambda: rt.memcpy(host, dev, act))
                    yield from run.paid(lambda: rt.memcpy(dev, host, act))
            self.pp_ns += rt.sim.now - start

    def stats(self) -> Dict[str, int]:
        # Keys only appear on parallel engines so the single-GPU stats
        # dict (and every verdict embedding it) keeps its bytes.
        if self.inert:
            return {}
        return {"tp_degree": self.par.tp, "pp_stages": self.par.pp,
                "tp_comm_ns": self.tp_ns, "pp_comm_ns": self.pp_ns}


class _StepPayer:
    """Pays each iteration plan through the simulated CC stack.  Owns
    the engine's buffers, the token flusher and the model comm."""

    def __init__(self, engine: "ServingEngine", run: _Run) -> None:
        self.engine = engine
        self.run = run
        self.rt = run.rt
        self.fuse = engine.tuning.fuse_step_kernels
        self.comm = _ModelComm(engine.parallelism, engine.model, run)
        self.iterations = 0
        self.decode_steps = 0
        self.fused_launches = 0
        metrics = run.metrics
        self.kv_gauge = metrics.gauge("serve.kv_used_blocks")
        self.running_gauge = metrics.gauge("serve.running_seqs")
        self.preempt_counter = metrics.counter("serve.preemptions")
        self.swap_counter = metrics.counter("serve.swap_bytes")

    def open(self) -> Generator:
        """Allocate every buffer; the Chrome export pins the order."""
        rt = self.rt
        tun = self.engine.tuning
        seqs = self.engine.scheduler_config.max_num_seqs
        # A flush carries up to token_flush_every full decode batches.
        token_bytes = max(TOKEN_BUF_BYTES, 4 * seqs * tun.token_flush_every)
        self.prompt_host = yield from rt.malloc_host(4 * units.MiB)
        token_bufs = [(yield from rt.malloc_host(token_bytes))]
        self.scratch_dev = yield from rt.malloc(16 * units.MiB)
        self.swap_host = yield from rt.malloc_host(SWAP_CHUNK_BYTES)
        self.swap_dev = yield from rt.malloc(SWAP_CHUNK_BYTES)
        self.swap_in_host = self.swap_host
        if tun.split_swap_staging:
            # Direction-stable KV-swap staging: a dedicated swap-in
            # buffer means neither pinned bounce buffer ever flips
            # transfer direction, so the per-flip page conversion is
            # paid once instead of per preemption/restore cycle.
            self.swap_in_host = yield from rt.malloc_host(SWAP_CHUNK_BYTES)
        stream = None
        if tun.d2h_streams > 1:
            stream = rt.create_stream()
            for _ in range(tun.d2h_streams - 1):
                token_bufs.append((yield from rt.malloc_host(token_bytes)))
        self.flusher = _TokenFlusher(
            self.run, token_bufs, self.scratch_dev, stream,
            tun.token_flush_every,
        )
        config = self.engine.scheduler_config
        yield from self.comm.open(config.max_batch_tokens + seqs)

    def close(self) -> Generator:
        """Free every buffer; the Chrome export pins this order too."""
        token_bufs = self.flusher.bufs
        split = ([] if self.swap_in_host is self.swap_host
                 else [self.swap_in_host])
        for buffer in (
            self.prompt_host, token_bufs[0], self.swap_host,
            self.scratch_dev, self.swap_dev, *self.comm.buffers, *split,
            *token_bufs[1:],
        ):
            yield from self.rt.free(buffer)

    def pay(self, plan: IterationPlan) -> Generator:
        """One iteration's costs, in stack order, then the token flush
        it makes due."""
        rt, run, tel = self.rt, self.run, self.run.tel
        self.iterations += 1
        for evict in plan.preempted:
            self.preempt_counter.inc()
            yield from self._swap(
                "swap_out", evict, self.swap_host, self.swap_dev)
        for restore in plan.restored:
            yield from self._swap(
                "swap_in", restore, self.swap_dev, self.swap_in_host)
        if plan.admitted:
            ids = tuple(r.req_id for r in plan.admitted)
            size = max(64, 4 * sum(r.prompt_tokens for r in plan.admitted))
            with tel.op("prompt_upload", ids):
                yield from run.paid(lambda: rt.memcpy(
                    self.scratch_dev, self.prompt_host, size))
        # Kernel fusion (Observation 7): a mixed iteration (prefill +
        # decode) launches ONE fused kernel below, paying the CC launch
        # tax — and, on parallel engines, the collective session — once
        # instead of twice.
        fuse = bool(self.fuse and plan.prefill_tokens and plan.decode_ids)
        prefill_ids = ()
        comm = self.comm
        if plan.prefill_tokens:
            prefill_ids = tuple(sorted(
                {r.req_id for r in plan.admitted} | set(run.sched.warming)
            ))
            if not fuse:
                spec = self.engine.backend.prefill_kernel(
                    rt.config, plan.prefill_tokens)
                with tel.op("prefill", prefill_ids):
                    yield from run.paid(lambda: rt.launch(comm.shard(spec)))
                yield from comm.sync(plan.prefill_tokens, prefill_ids)
        # Iteration bookkeeping on the guest CPU.
        with tel.op("sched", run.resident_ids()):
            yield from rt.cpu_gap(VLLM_STEP_SCHED_NS)
        flusher = self.flusher
        if plan.decode_ids:
            self.decode_steps += 1
            seq_len = run.pager.sequence_length
            contexts = [seq_len(s) for s in plan.decode_ids]
            spec = self.engine.backend.decode_kernel(
                rt.config, len(contexts), sum(contexts) / len(contexts))
            kind, tokens, ids = "decode", len(contexts), plan.decode_ids
            if fuse:
                kind, spec, tokens, ids = self._fuse(spec, plan, prefill_ids)
            with tel.op(kind, ids):
                yield from run.paid(lambda: rt.launch(comm.shard(spec)))
            yield from comm.sync(tokens, ids)
            flusher.queue(
                plan.decode_ids, run.sched.finish_step(plan.decode_ids))
        if not run.sched.has_work():
            yield from flusher.flush_all()
        elif flusher.steps >= flusher.every:
            yield from flusher.flush()
        self.kv_gauge.set(run.pager.cache.used_blocks)
        self.running_gauge.set(len(run.sched.running))

    def _fuse(self, spec, plan: IterationPlan, prefill_ids):
        """One fused super-kernel for a mixed iteration: both rooflines
        run back to back, one kernel prologue instead of two, one
        launch path, one collective.  Returns the decode site's (op
        kind, kernel, sync tokens, request ids)."""
        config = self.rt.config
        backend = self.engine.backend
        self.fused_launches += 1
        prefill = backend.prefill_kernel(config, plan.prefill_tokens)
        fixed = (spec.fixed_duration_ns + prefill.fixed_duration_ns
                 - config.gpu.kernel_fixed_ns)
        spec = dataclasses.replace(
            spec, name=f"fused_step_{backend.quant.name}",
            fixed_duration_ns=max(1, fixed))
        ids = tuple(sorted(set(prefill_ids) | set(plan.decode_ids)))
        tokens = plan.prefill_tokens + len(plan.decode_ids)
        return "fused_step", spec, tokens, ids

    def stats(self) -> Dict:
        stats = {"iterations": self.iterations,
                 "decode_steps": self.decode_steps, **self.comm.stats()}
        tuning = self.engine.tuning
        if not tuning.trivial:
            # Tuned engines grow stats; trivial ones keep the committed
            # verdict bytes.
            stats.update(tuning=tuning.describe(),
                         tuning_fused_launches=self.fused_launches,
                         tuning_token_flushes=self.flusher.flushes)
        return stats

    def _swap(self, kind: str, move, dst, src) -> Generator:
        """One sequence's KV swap traffic, one memcpy per staging chunk."""
        total = move.swap_bytes
        if not total:
            return
        self.swap_counter.inc(total)
        with self.run.tel.op(kind, (move.seq_id,)):
            for offset in range(0, total, SWAP_CHUNK_BYTES):
                size = min(total - offset, SWAP_CHUNK_BYTES)
                yield from self.run.paid(
                    lambda: self.rt.memcpy(dst, src, size))


class ServingEngine:
    """Continuous-batching server as a CUDA-runtime application.

    :meth:`app` is a short step loop over parts that each own their
    state: ``_Run`` (request lifecycle, crash/restart), ``_StepPayer``
    (pays each :class:`IterationPlan`), ``_TokenFlusher`` and
    ``_ModelComm``.  Every cost-paying path (uploads, launches, token
    D2H, KV swaps, TP/PP comm) runs under the guest's
    :class:`FaultInjector`; a :class:`DegradationPolicy` decides how the
    engine degrades when faults land (shed vs stall vs
    crash-and-restart).

    Tokens reach the client through one flush path, every
    ``token_flush_every`` decode steps (optionally overlapped on a side
    stream).  A crash inside a flush still delivers the tokens that
    flush carried, at the crash instant: they were generated on-device
    before the copy was lost."""

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

    def app(self, rt: CudaRuntime, requests: List[ServeRequest],
            telemetry: Optional[ServeTelemetry] = None) -> Generator:
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        tel.bind_clock(lambda: rt.sim.now)
        run = _Run(self, rt, requests, tel)
        step = _StepPayer(self, run)
        yield from step.open()
        sched, flusher = run.sched, step.flusher
        start = rt.sim.now
        while True:
            try:
                run.arrive(rt.sim.now)
                if not sched.has_work():
                    if flusher.pending:
                        # Shedding emptied the scheduler while tokens it
                        # generated still wait for their flush: deliver
                        # them before idling or finishing.
                        yield from flusher.flush_all()
                    elif run.arrivals_left:
                        yield run.until_next_arrival()
                    else:
                        break
                    continue
                if run.storm():
                    yield from run.reattest("spdm-storm")
                plan = sched.plan(admit=not run.breaker_open)
                for request in plan.admitted:
                    # First admission only: queueing is arrival -> here.
                    tel.admitted(request.req_id, rt.sim.now)
                if not plan.busy:
                    if not run.breaker_open:
                        raise RuntimeError(
                            "scheduler stalled with pending work (livelock)"
                        )
                    # Batch drained: re-attest, close the breaker,
                    # resume admission.
                    yield from run.reattest("breaker-drain")
                    run.breaker_open = False
                    continue
                retries_before = run.engine_retries
                yield from step.pay(plan)
                run.retry_pressure = run.engine_retries > retries_before
            except _EngineCrash as crash:
                # Tokens already generated on-device are delivered at
                # crash time; their requests left the scheduler at
                # finish_step and only the flush was pending.
                flusher.abandon(rt.sim.now)
                if not (yield from run.restart(crash.site)):
                    break
            except FatalFault as exc:
                # Re-attestation itself exhausted its retries: the
                # platform cannot restore a trusted session.
                flusher.abandon(rt.sim.now)
                run.give_up(exc.site)
                break
        run.check_drained()
        yield from rt.synchronize()
        elapsed = rt.sim.now - start
        yield from step.close()
        return EngineResult(run.tracker.outcomes, sched.rejected, elapsed,
                            {**run.stats(), **step.stats()})
