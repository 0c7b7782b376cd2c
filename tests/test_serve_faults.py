"""Serving resilience layer tests (repro.serve under repro.faults).

Covers the contract of the fault-aware request lifecycle:

* the **no-lost-request invariant** — every admitted request terminates
  exactly once as completed, shed, failed-with-cause, or rejected, and
  the KV pager drains to zero blocks on every fault path (the engine
  asserts both at drain; these tests drive the fault paths that could
  break them),
* engine crash-and-restart: KV loss, re-attestation cost, chunked
  recompute of survivors, restart budget -> give-up with cause,
* degradation policies: TTFT timeout and deadline shedding, admission
  pushback, circuit breaker during SPDM storms,
* Hypothesis chaos fuzzing: random fault schedules x random arrival
  traces, plus byte-determinism of the verdict JSON for a fixed seed,
* the RetryPolicy backoff overflow regression (huge attempt numbers).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.cuda import CudaRuntime
from repro.faults import (
    BOUNCE_POOL,
    DMA,
    GCM_TAG,
    HYPERCALL,
    SPDM,
    FatalFault,
    FaultPlan,
    RetryPolicy,
    SiteFaults,
)
from repro.figures.ext_fault_serving import fault_plan_for, spec_for
from repro.gpu.device import GPU
from repro.llm.kvcache import KVCacheError
from repro.serve import (
    COMPLETED,
    FAILED,
    SHED,
    DegradationPolicy,
    KVPager,
    LifecycleError,
    LifecycleLedger,
    ScenarioSpec,
    ServeTelemetry,
    ServingEngine,
    run_scenario,
    verdict_json,
)
from repro.optim import parse_pipeline
from repro.serve.scheduler import TOKEN_BUF_BYTES

NS_PER_SEC = units.NS_PER_SEC

# Short, busy scenario: enough requests to exercise the machinery,
# small enough to keep the suite fast.
SHORT = dict(rate_rps=16.0, duration_ns=NS_PER_SEC // 2, seed=7)


def _cc(plan: FaultPlan) -> SystemConfig:
    return SystemConfig.confidential().replace(faults=plan)


def _partition_holds(result) -> None:
    """completed + shed + failed + rejected must cover every request."""
    report = result.report
    total = (
        report["completed"]
        + report["shed"]
        + report["failed"]
        + report["rejected"]
    )
    assert total == result.requests


# ---------------------------------------------------------------------------
# RetryPolicy backoff overflow regression
# ---------------------------------------------------------------------------


def test_backoff_saturates_at_cap_for_large_attempts():
    policy = RetryPolicy()
    cap = policy.backoff_cap_ns
    # Regression: attempt >= 60 used to materialize 2**59+ floats (and
    # 2.0**1024 raises OverflowError) before the min() with the cap.
    assert policy.backoff_ns(60) == cap
    assert policy.backoff_ns(1100) == cap
    assert policy.backoff_ns(10_000) == cap


def test_backoff_clamp_preserves_small_attempt_values():
    policy = RetryPolicy()
    assert policy.backoff_ns(1) == policy.backoff_base_ns
    assert policy.backoff_ns(2) == 2 * policy.backoff_base_ns
    # The exact saturation boundary: values stay monotone up to the cap.
    values = [policy.backoff_ns(a) for a in range(1, 12)]
    assert values == sorted(values)
    assert values[-1] == policy.backoff_cap_ns


def test_backoff_degenerate_policies():
    assert RetryPolicy(backoff_base_ns=0).backoff_ns(50) == 0
    flat = RetryPolicy(backoff_factor=1.0)
    assert flat.backoff_ns(9_999) == flat.backoff_base_ns
    inverted = RetryPolicy(
        backoff_base_ns=units.ms(5.0), backoff_cap_ns=units.ms(2.0)
    )
    assert inverted.backoff_ns(3) == units.ms(2.0)


# ---------------------------------------------------------------------------
# LifecycleLedger / DegradationPolicy
# ---------------------------------------------------------------------------


def test_ledger_rejects_double_termination():
    ledger = LifecycleLedger()
    ledger.submit(1)
    ledger.finish(1, COMPLETED)
    with pytest.raises(LifecycleError, match="terminated twice"):
        ledger.finish(1, SHED, "deadline")


def test_ledger_detects_lost_and_phantom_requests():
    ledger = LifecycleLedger()
    ledger.submit(1)
    ledger.submit(2)
    ledger.finish(1, FAILED, "crypto.gcm_tag")
    with pytest.raises(LifecycleError, match="lost"):
        ledger.check_complete()
    ledger.finish(2, COMPLETED)
    ledger.check_complete()
    ledger.finish(99, SHED, "pushback")
    with pytest.raises(LifecycleError, match="never-submitted"):
        ledger.check_complete()


def test_ledger_counts_by_state():
    ledger = LifecycleLedger()
    for rid, state in ((1, COMPLETED), (2, SHED), (3, SHED), (4, FAILED)):
        ledger.submit(rid)
        ledger.finish(rid, state)
    assert ledger.count(COMPLETED) == 1
    assert ledger.count(SHED) == 2
    assert ledger.count(FAILED) == 1
    with pytest.raises(LifecycleError, match="unknown terminal state"):
        ledger.finish(5, "vanished")


def test_degradation_policy_validation():
    DegradationPolicy().validate()
    with pytest.raises(ValueError, match="shed_policy"):
        DegradationPolicy(shed_policy="panic").validate()
    with pytest.raises(ValueError, match=">= 0"):
        DegradationPolicy(deadline_ms=-1.0).validate()
    with pytest.raises(ValueError, match="max_queue_depth"):
        DegradationPolicy(max_queue_depth=-1).validate()
    policy = DegradationPolicy(deadline_ms=1500.0, ttft_timeout_ms=250.0)
    assert policy.deadline_ns == units.ms(1500.0)
    assert policy.ttft_timeout_ns == units.ms(250.0)
    assert not policy.sheds
    assert DegradationPolicy(shed_policy="deadline").sheds


# ---------------------------------------------------------------------------
# KVPager crash paths
# ---------------------------------------------------------------------------


def _pager(mode: str = "swap") -> KVPager:
    return KVPager(
        capacity_bytes=64 * units.KiB,
        block_tokens=16,
        kv_bytes_per_token=64,
        mode=mode,
    )


def test_pager_crash_releases_everything():
    pager = _pager()
    pager.admit(1, 32)
    pager.admit(2, 48)
    pager.preempt(2)
    lost = pager.crash()
    assert lost == {1: 32, 2: 48}
    assert pager.drained()
    assert pager.stats.crashes == 1
    assert pager.stats.crash_lost_tokens == 80
    pager.check_invariants()


def test_crash_survivors_restore_via_recompute_even_in_swap_mode():
    pager = _pager(mode="swap")
    pager.admit(1, 32)
    lost = pager.crash()
    pager.mark_crash_lost(1, lost[1])
    assert pager.restore_is_recompute(1)
    plan = pager.restore(1)
    assert plan.swap_bytes == 0
    assert plan.recompute_tokens == 32
    # Once restored, the sequence is ordinary again.
    assert not pager.restore_is_recompute(1)
    pager.release(1)
    pager.check_invariants()


def test_mark_crash_lost_rejects_live_sequences():
    pager = _pager()
    pager.admit(1, 16)
    with pytest.raises(KVCacheError, match="still live"):
        pager.mark_crash_lost(1, 16)


def test_drop_evicted_discards_without_restore():
    pager = _pager()
    pager.admit(1, 32)
    pager.preempt(1)
    assert pager.drop_evicted(1) == 32
    assert pager.drained()
    pager.check_invariants()


# ---------------------------------------------------------------------------
# Engine fault paths (end to end through the simulated stack)
# ---------------------------------------------------------------------------


def test_transient_storm_crashes_restart_and_everyone_completes():
    # Every staged copy fails until 40 injections land: runtime retries
    # exhaust, engine retries exhaust, the engine crashes, re-attests,
    # and recomputes the survivors' KV in chunks.
    plan = FaultPlan.from_mapping(
        {GCM_TAG: SiteFaults(rate=1.0, max_faults=40)}
    )
    spec = ScenarioSpec(**SHORT, max_engine_restarts=4)
    _, result = run_scenario(spec, _cc(plan))
    stats = result.engine.stats
    assert stats["crashes"] >= 1
    assert stats["restarts"] == stats["crashes"]
    assert stats["crash_lost_tokens"] > 0
    assert stats["recompute_tokens"] >= stats["crash_lost_tokens"]
    assert stats["failed"] == 0
    assert result.report["completed"] == result.requests
    _partition_holds(result)


def test_persistent_fault_exhausts_restarts_and_fails_with_cause():
    plan = FaultPlan.from_mapping({GCM_TAG: SiteFaults(rate=1.0)})
    spec = ScenarioSpec(**SHORT, max_engine_restarts=2)
    _, result = run_scenario(spec, _cc(plan))
    stats = result.engine.stats
    assert stats["restarts"] == 3  # budget of 2, the third gives up
    assert result.report["completed"] == 0
    assert result.report["failed"] > 0
    causes = result.report["failed_causes"]
    assert GCM_TAG in causes or "engine_down" in causes
    _partition_holds(result)


@pytest.mark.parametrize(
    "pipeline,seed",
    [("fusion+overlap:2+batch:4+staging", 10), ("overlap:4", 20)],
)
def test_shedding_an_empty_scheduler_still_flushes_tokens(pipeline, seed):
    # Shedding cancels the last live requests while tokens of already
    # finished ones wait in an overlapped flush.  The engine must
    # deliver them before it idles or stops, or request 133 never
    # terminates (LifecycleError at drain).
    spec, tuning = parse_pipeline(pipeline).apply(
        spec_for("shed+breaker", 42, 4.0)
    )
    config = SystemConfig.confidential(seed=seed).replace(
        faults=fault_plan_for(0.1)
    )
    _, result = run_scenario(spec, config, tuning=tuning)
    assert result.engine.stats["shed"] > 0
    _partition_holds(result)


def test_untuned_crash_inside_token_d2h_delivers_at_crash_time(monkeypatch):
    # The k-th token D2H of an untuned engine fails on every engine
    # retry, so the engine crashes inside the flush.  The tokens of that
    # decode step were already generated on-device: the requests it
    # finished complete at the crash instant instead of being requeued.
    spec = ScenarioSpec(**SHORT)
    config = SystemConfig.confidential()
    requests = spec.arrivals()

    def serve():
        tel = ServeTelemetry()
        engine = ServingEngine(
            scheduler_config=spec.scheduler_config(), degrade=spec.degrade()
        )
        _, result = engine.run(config, requests, telemetry=tel)
        flushes = [op for op in tel.ops if op.kind == "token_d2h"]
        return result, flushes

    clean, flushes = serve()
    finish = {o.req_id: o.finish_ns for o in clean.outcomes}
    k, step = next(
        (k, op) for k, op in enumerate(flushes)
        if any(finish[sid] == op.end_ns for sid in op.req_ids)
    )
    finished = {sid for sid in step.req_ids if finish[sid] == step.end_ns}

    token_copies = []
    real_memcpy = CudaRuntime.memcpy

    def memcpy(self, dst, src, size=None, cold=None):
        if dst.size == TOKEN_BUF_BYTES:
            token_copies.append(size)
            if k < len(token_copies) <= k + config.retry.max_attempts:
                raise FatalFault(DMA, 1)
        return real_memcpy(self, dst, src, size, cold)

    monkeypatch.setattr(CudaRuntime, "memcpy", memcpy)
    # run() raises LifecycleError unless every request terminates once.
    crashed, crashed_flushes = serve()
    crash_ns = crashed_flushes[k].end_ns
    assert crashed_flushes[k].req_ids == step.req_ids
    assert crashed.stats["restarts"] == 1
    assert crashed.stats["failed"] == 0
    outcomes = {o.req_id: o for o in crashed.outcomes}
    for sid in finished:
        assert outcomes[sid].status == COMPLETED
        assert outcomes[sid].finish_ns == crash_ns
    assert len(crashed.outcomes) == len(clean.outcomes)


def _flush_dma_draws(spec, tuning, monkeypatch):
    """DMA-site occurrence numbers of the overlapped token flushes, the
    only copies an engine runs on the GPU's copy engines."""
    draws = []
    real = GPU._dma_with_retry

    def spy(self, command, scope="cpu"):
        draws.append(self.guest.faults.occurrences.get(DMA, 0))
        return (yield from real(self, command, scope))

    monkeypatch.setattr(GPU, "_dma_with_retry", spy)
    never = FaultPlan.from_mapping({DMA: SiteFaults(schedule=(10**9,))})
    run_scenario(spec, _cc(never), tuning=tuning)
    monkeypatch.undo()
    return draws


@pytest.mark.parametrize("flush, restarts", [
    pytest.param(4, 2, id="mid-run"),
    pytest.param(-1, 2, id="last"),
    pytest.param(4, 0, id="mid-run-gives-up"),
])
def test_overlapped_flush_fatal_fault_crashes_the_engine(
    monkeypatch, flush, restarts
):
    # One overlapped token flush exhausts its DMA retries on the GPU.
    # Like a failed blocking flush, that crashes the engine: it restarts
    # and serves on (its next flushes must not inherit the failure), or
    # past its restart budget it gives up.  Either way run() returns a
    # report; it must neither raise nor lose the fault.
    spec, tuning = parse_pipeline("overlap:2").apply(
        ScenarioSpec(**SHORT, max_engine_restarts=restarts)
    )
    first = _flush_dma_draws(spec, tuning, monkeypatch)[flush]
    attempts = SystemConfig.confidential().retry.max_attempts
    plan = FaultPlan.from_mapping(
        {DMA: SiteFaults(schedule=tuple(range(first, first + attempts)))}
    )
    _, result = run_scenario(spec, _cc(plan), tuning=tuning)
    stats = result.engine.stats
    assert stats["restarts"] == 1
    if restarts:
        assert stats["failed"] == 0
        assert result.report["completed"] == result.requests
    else:
        assert stats["failed"] > 0
        assert DMA in result.report["failed_causes"]
    _partition_holds(result)


def test_circuit_breaker_absorbs_spdm_storms():
    plan = FaultPlan.from_mapping(
        {SPDM: SiteFaults(rate=0.05, max_faults=4)}
    )
    spec = ScenarioSpec(**SHORT, circuit_breaker=True)
    _, result = run_scenario(spec, _cc(plan))
    stats = result.engine.stats
    assert stats["spdm_storms"] >= 1
    assert stats["breaker_trips"] >= 1
    assert result.report["completed"] == result.requests
    _partition_holds(result)

    # Without the breaker the same storm stalls inline but still
    # completes; the breaker variant must not lose requests either way.
    bare = ScenarioSpec(**SHORT)
    _, inline = run_scenario(bare, _cc(plan))
    assert inline.engine.stats["breaker_trips"] == 0
    assert inline.report["completed"] == inline.requests
    _partition_holds(inline)


def test_ttft_timeout_sheds_queued_requests():
    # An overloaded box with a tiny TTFT budget: queued requests are
    # shed with an explicit cause instead of waiting forever.
    spec = ScenarioSpec(
        rate_rps=48.0,
        duration_ns=NS_PER_SEC // 2,
        seed=7,
        max_num_seqs=4,
        ttft_timeout_ms=30.0,
        shed_policy="deadline",
    )
    plan = FaultPlan.from_mapping(
        {GCM_TAG: SiteFaults(rate=0.01, max_faults=10)}
    )
    _, result = run_scenario(spec, _cc(plan))
    assert result.report["shed"] > 0
    assert "ttft_timeout" in result.report["shed_causes"]
    _partition_holds(result)


def test_pushback_sheds_on_queue_saturation():
    spec = ScenarioSpec(
        rate_rps=64.0,
        duration_ns=NS_PER_SEC // 2,
        seed=7,
        max_num_seqs=4,
        shed_policy="pushback",
        max_queue_depth=4,
    )
    plan = FaultPlan.from_mapping(
        {DMA: SiteFaults(rate=0.005, max_faults=10)}
    )
    _, result = run_scenario(spec, _cc(plan))
    assert "pushback" in result.report["shed_causes"]
    _partition_holds(result)


def test_inert_policy_and_empty_plan_change_nothing():
    # Zero-perturbation: explicit inert knobs produce byte-identical
    # verdicts to the all-defaults spec (the golden gate pins the
    # cross-build half of this guarantee).
    base = ScenarioSpec(**SHORT)
    explicit = ScenarioSpec(
        **SHORT,
        deadline_ms=0.0,
        ttft_timeout_ms=0.0,
        shed_policy="none",
        circuit_breaker=False,
        max_queue_depth=0,
    )
    a = verdict_json(run_scenario(base, SystemConfig.confidential())[1])
    b = verdict_json(run_scenario(explicit, SystemConfig.confidential())[1])
    assert a == b
    payload = json.loads(a)
    assert payload["faults"] == {"active": False, "sites": {}}
    assert payload["engine"]["shed"] == 0
    assert payload["engine"]["failed"] == 0
    assert payload["engine"]["restarts"] == 0


def test_fault_verdict_records_the_plan():
    plan = FaultPlan.from_mapping(
        {HYPERCALL: SiteFaults(rate=0.001, max_faults=2)}
    )
    spec = ScenarioSpec(**SHORT)
    payload = json.loads(
        verdict_json(run_scenario(spec, _cc(plan))[1])
    )
    assert payload["faults"]["active"] is True
    assert payload["faults"]["sites"] == {
        HYPERCALL: {"rate": 0.001, "max_faults": 2}
    }


# ---------------------------------------------------------------------------
# Hypothesis chaos fuzzing
# ---------------------------------------------------------------------------


@st.composite
def chaos_cases(draw):
    """Random fault schedule x random arrival trace x random policy."""
    sites = {}
    for site, ceiling in (
        (GCM_TAG, 0.05),
        (DMA, 0.03),
        (HYPERCALL, 0.02),
        (BOUNCE_POOL, 0.02),
        (SPDM, 0.01),
    ):
        if draw(st.booleans()):
            sites[site] = SiteFaults(
                rate=draw(st.floats(0.0005, ceiling)),
                max_faults=draw(st.integers(1, 30)),
            )
    if not sites:
        sites[GCM_TAG] = SiteFaults(rate=0.01, max_faults=5)
    # The shed policy first, then only the knobs that policy reads:
    # DegradationPolicy rejects the ones it would silently ignore.
    shed_policy = draw(st.sampled_from(["none", "deadline", "pushback"]))
    timeouts = [
        (deadline, ttft)
        for deadline in (0.0, 1500.0, 4000.0)
        for ttft in (0.0, 120.0, 600.0)
        if shed_policy == "pushback" or deadline or ttft
    ]
    deadline_ms, ttft_timeout_ms = (
        draw(st.sampled_from(timeouts)) if shed_policy != "none"
        else (0.0, 0.0)
    )
    max_queue_depth = (
        draw(st.sampled_from([0, 4, 16])) if shed_policy == "pushback" else 0
    )
    spec = ScenarioSpec(
        rate_rps=draw(st.sampled_from([8.0, 16.0, 24.0])),
        duration_ns=draw(st.sampled_from([NS_PER_SEC // 5, NS_PER_SEC // 4])),
        seed=draw(st.integers(0, 2**16)),
        process=draw(st.sampled_from(["poisson", "gamma"])),
        max_num_seqs=draw(st.sampled_from([4, 8])),
        preemption=draw(st.sampled_from(["swap", "recompute"])),
        kv_budget_bytes=draw(st.sampled_from([24, 48])) * units.MiB,
        deadline_ms=deadline_ms,
        ttft_timeout_ms=ttft_timeout_ms,
        shed_policy=shed_policy,
        circuit_breaker=draw(st.booleans()),
        max_queue_depth=max_queue_depth,
        max_engine_restarts=draw(st.integers(0, 3)),
    )
    return spec, FaultPlan.from_mapping(sites)


@settings(max_examples=10, deadline=None)
@given(chaos_cases())
def test_chaos_no_request_is_ever_lost(case):
    # The engine asserts the ledger partition and the zero-block pager
    # drain internally on every path; a silent loss or double count
    # raises out of run_scenario.
    spec, plan = case
    _, result = run_scenario(spec, _cc(plan))
    _partition_holds(result)
    report = result.report
    assert report["shed"] == result.engine.stats["shed"]
    assert report["failed"] == result.engine.stats["failed"]
    # Goodput only ever counts completed requests.
    assert report["slo_attained"] <= report["completed"]


@settings(max_examples=4, deadline=None)
@given(chaos_cases())
def test_chaos_verdict_bytes_are_deterministic(case):
    spec, plan = case
    first = verdict_json(run_scenario(spec, _cc(plan))[1])
    second = verdict_json(run_scenario(spec, _cc(plan))[1])
    assert first == second
