"""Fault-injection subsystem tests.

Covers the contract promised in ``repro.faults``:

* plan serialization and validation,
* seeded per-site determinism of the injector,
* the zero-overhead guarantee (inactive plan => bit-identical traces),
* determinism of full runs under an *active* plan,
* transparent recovery (results unchanged, only time differs),
* fatal faults as typed exceptions with every resource released,
* SPDM re-attestation and the genuine-failure-is-not-retried rule.
"""

import dataclasses

import pytest

from repro import units
from repro.config import CopyKind, SystemConfig
from repro.core.breakdown import breakdown
from repro.core.model import decompose
from repro.cuda import FatalCudaFault, Machine, run_app
from repro.gpu import nanosleep_kernel
from repro.faults import (
    BOUNCE_POOL,
    DMA,
    GCM_TAG,
    HYPERCALL,
    SPDM,
    FatalFault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SiteFaults,
)
from repro.profiler import EventKind
from repro.tdx.spdm import SpdmError, attest_gpu
from repro.workloads.spec import WorkloadSpec


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _copy_spec() -> WorkloadSpec:
    """A small copy+launch workload (cleans itself up via spec reclaim)."""
    return WorkloadSpec(
        "faults-copy",
        [
            {"op": "malloc", "name": "A", "bytes": units.MiB},
            {"op": "malloc_host", "name": "hA", "bytes": units.MiB},
            {"op": "memcpy", "dst": "A", "src": "hA"},
            {"op": "launch", "kernel": "fk", "duration_us": 50},
            {"op": "memcpy", "dst": "hA", "src": "A"},
            {"op": "sync"},
        ],
    )


_PAYLOAD = bytes(range(256)) * 64  # 16 KiB of recognisable bytes


def _payload_app(rt):
    """Round-trip a real payload H2D then D2H; returns the bytes read back."""
    dev = yield from rt.malloc(units.MiB)
    src = yield from rt.host_alloc(units.MiB)
    dst = yield from rt.host_alloc(units.MiB)
    src.payload = _PAYLOAD
    yield from rt.memcpy(dev, src)
    yield from rt.memcpy(dst, dev)
    yield from rt.synchronize()
    result = dst.payload
    for buffer in (dev, src, dst):
        yield from rt.free(buffer)
    return result


def _cc(plan=None, **overrides) -> SystemConfig:
    config = SystemConfig.confidential(**overrides)
    if plan is not None:
        config = config.replace(faults=plan)
    return config


def _schedule(site, *indices, upto=None):
    if upto is not None:
        indices = tuple(range(upto))
    return FaultPlan.from_mapping({site: SiteFaults(schedule=tuple(indices))})


# ---------------------------------------------------------------------------
# Plan serialization and validation
# ---------------------------------------------------------------------------


def test_plan_json_round_trip():
    plan = FaultPlan.from_mapping(
        {
            GCM_TAG: SiteFaults(rate=0.01),
            SPDM: SiteFaults(schedule=(0, 2), max_faults=3),
        }
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_load_from_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = FaultPlan.uniform(0.05, sites=(DMA, HYPERCALL))
    path.write_text(plan.to_json())
    assert FaultPlan.load(str(path)) == plan


def test_plan_rejects_unknown_site():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan.from_json('{"sites": {"bogus.site": {"rate": 0.5}}}')


def test_plan_rejects_bad_rate():
    with pytest.raises(ValueError, match="rate"):
        FaultPlan.from_mapping({DMA: SiteFaults(rate=1.5)}).validate()


def test_plan_rejects_negative_schedule():
    with pytest.raises(ValueError, match="schedule"):
        FaultPlan.from_mapping({DMA: SiteFaults(schedule=(-1,))}).validate()


def test_plan_rejects_malformed_json():
    with pytest.raises(ValueError):
        FaultPlan.from_json("not json at all")
    with pytest.raises(ValueError):
        FaultPlan.from_json('{"sites": 3}')


def test_plan_activity_flags():
    assert not FaultPlan.none().active
    assert not FaultPlan.uniform(0.0).active
    assert FaultPlan.uniform(0.1).active
    assert FaultPlan.from_mapping({SPDM: SiteFaults(schedule=(0,))}).active


def test_retry_backoff_is_exponential_and_capped():
    policy = RetryPolicy()
    assert policy.backoff_ns(1) == units.us(50)
    assert policy.backoff_ns(2) == units.us(100)
    assert policy.backoff_ns(3) == units.us(200)
    capped = RetryPolicy(backoff_cap_ns=units.us(120))
    assert capped.backoff_ns(3) == units.us(120)
    with pytest.raises(ValueError):
        policy.backoff_ns(0)


# ---------------------------------------------------------------------------
# Injector determinism
# ---------------------------------------------------------------------------


def test_injector_same_seed_same_draws():
    plan = FaultPlan.uniform(0.3, sites=(DMA,))
    outcomes = []
    for _ in range(2):
        injector = FaultInjector(plan, seed=1234)
        outcomes.append([injector.draw(DMA) is not None for _ in range(200)])
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0])  # at rate 0.3 over 200 draws some fire


def test_injector_sites_are_independent_substreams():
    plan = FaultPlan.uniform(0.3, sites=(DMA, GCM_TAG))
    interleaved = FaultInjector(plan, seed=7)
    dma_only = FaultInjector(plan, seed=7)
    mixed = []
    for _ in range(100):
        interleaved.draw(GCM_TAG)  # extra draws at another site...
        mixed.append(interleaved.draw(DMA) is not None)
    alone = [dma_only.draw(DMA) is not None for _ in range(100)]
    assert mixed == alone  # ...never perturb this one


def test_inactive_site_touches_no_rng():
    injector = FaultInjector(FaultPlan.uniform(0.5, sites=(DMA,)), seed=3)
    assert injector.draw(GCM_TAG) is None
    assert injector.draw(SPDM) is None
    assert injector.occurrences == {}  # inactive visits are not even counted
    assert injector._rngs == {}


def test_schedule_and_max_faults():
    plan = FaultPlan.from_mapping({DMA: SiteFaults(schedule=(0, 2))})
    injector = FaultInjector(plan, seed=0)
    fired = [injector.draw(DMA) is not None for _ in range(4)]
    assert fired == [True, False, True, False]

    capped = FaultInjector(
        FaultPlan.from_mapping(
            {DMA: SiteFaults(schedule=(0, 1, 2), max_faults=1)}
        ),
        seed=0,
    )
    assert [capped.draw(DMA) is not None for _ in range(3)] == [
        True,
        False,
        False,
    ]
    assert capped.injected_at(DMA) == 1


# ---------------------------------------------------------------------------
# Zero-overhead guarantee and determinism regression
# ---------------------------------------------------------------------------


def test_inactive_plans_are_bit_identical_to_no_plan():
    app = _copy_spec().app()
    reference, _ = run_app(app, _cc())
    for plan in (
        FaultPlan.none(),
        FaultPlan.uniform(0.0),
        FaultPlan.from_mapping({DMA: SiteFaults(rate=0.0)}),
    ):
        trace, _ = run_app(app, _cc(plan))
        assert trace.to_chrome_trace() == reference.to_chrome_trace()


def test_active_plan_runs_are_deterministic():
    config = _cc(FaultPlan.uniform(0.05))
    machines = []
    for _ in range(2):
        machine = Machine(config)
        machine.run(_copy_spec().app())
        machines.append(machine)
    first, second = machines
    assert first.trace.to_chrome_trace() == second.trace.to_chrome_trace()
    assert first.elapsed_ns == second.elapsed_ns
    assert first.guest.faults.records == second.guest.faults.records


# ---------------------------------------------------------------------------
# Transparent recovery
# ---------------------------------------------------------------------------


def test_gcm_fault_is_recovered_transparently():
    clean_trace, clean_result = run_app(_payload_app, _cc())
    plan = _schedule(GCM_TAG, 0)
    faulted_trace, faulted_result = run_app(_payload_app, _cc(plan))

    # The application observes identical results...
    assert clean_result == _PAYLOAD
    assert faulted_result == clean_result
    # ...only time differs, and the difference is booked as recovery.
    assert faulted_trace.span_ns() > clean_trace.span_ns()
    assert faulted_trace.recovery_ns() > 0
    assert clean_trace.recovery_ns() == 0
    actions = {e.attrs.get("action") for e in faulted_trace.recoveries()}
    assert "retry" in actions
    # The successful attempt still emits the ordinary memcpy events.
    assert len(faulted_trace.memcpys()) == len(clean_trace.memcpys())


def test_recovery_shows_up_in_breakdown_and_model():
    trace, _ = run_app(_payload_app, _cc(_schedule(GCM_TAG, 0)))
    parts = breakdown(trace)
    assert parts.by_category_ns["recovery"] > 0
    measured = decompose(trace)
    assert measured.t_recovery_ns > 0
    assert "recovery" in measured.summary()

    clean, _ = run_app(_payload_app, _cc())
    assert breakdown(clean).by_category_ns["recovery"] == 0
    assert decompose(clean).t_recovery_ns == 0


def test_bounce_exhaustion_degrades_but_completes():
    plan = _schedule(BOUNCE_POOL, 0)
    clean_trace, _ = run_app(_payload_app, _cc())
    trace, result = run_app(_payload_app, _cc(plan))
    assert result == _PAYLOAD  # the copy still completes, chunked
    actions = [e.attrs.get("action") for e in trace.recoveries()]
    assert "degraded" in actions
    # Chunked staging pays extra map hypercalls: strictly slower.
    assert trace.span_ns() > clean_trace.span_ns()


def test_hypercall_timeout_is_retried():
    # The first launch's CC setup path issues real hypercalls.
    plan = _schedule(HYPERCALL, 0)
    clean_trace, _ = run_app(_copy_spec().app(), _cc())
    machine = Machine(_cc(plan))
    machine.run(_copy_spec().app())
    assert machine.guest.faults.retries.get(HYPERCALL) == 1
    assert machine.trace.span_ns() > clean_trace.span_ns()


# ---------------------------------------------------------------------------
# Fatal faults: typed exceptions, resources verifiably released
# ---------------------------------------------------------------------------


def _assert_machine_clean(machine):
    assert machine.guest.bounce.used_bytes == 0
    assert machine.gpu.hbm.used_bytes == 0
    assert machine.guest.memory.heap.used_bytes == 0
    for kind in (CopyKind.H2D, CopyKind.D2H):
        assert machine.gpu.copy_engine(kind).in_use == 0
    assert machine.gpu.launch_credits.in_use == 0
    assert machine.gpu.compute.in_use == 0
    machine.gpu.hbm.check_invariants()
    machine.guest.memory.heap.check_invariants()


def test_copy_fault_exhaustion_is_fatal_and_leak_free():
    plan = _schedule(GCM_TAG, upto=8)  # every staging attempt fails
    machine = Machine(_cc(plan))
    with pytest.raises(FatalCudaFault) as excinfo:
        machine.run(_copy_spec().app())
    assert excinfo.value.site == GCM_TAG
    assert excinfo.value.attempts == machine.config.retry.max_attempts
    assert machine.guest.faults.fatal.get(GCM_TAG) == 1
    _assert_machine_clean(machine)
    # The fatal path is also booked on the recovery timeline.
    assert any(
        e.attrs.get("action") == "fatal" for e in machine.trace.recoveries()
    )


def test_dma_fault_exhaustion_without_cc_is_fatal():
    plan = _schedule(DMA, upto=8)
    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(_copy_spec().app())
    assert excinfo.value.site == DMA
    _assert_machine_clean(machine)


def test_hypercall_fault_exhaustion_releases_launch_credit():
    plan = _schedule(HYPERCALL, upto=16)
    machine = Machine(_cc(plan))
    spec = WorkloadSpec(
        "launch-only",
        [{"op": "launch", "kernel": "lk", "duration_us": 10}, {"op": "sync"}],
    )
    with pytest.raises(FatalFault) as excinfo:
        machine.run(spec.app())
    assert excinfo.value.site == HYPERCALL
    _assert_machine_clean(machine)


def test_fatal_launch_is_one_launch_event():
    """A launch killed by a fatal hypercall fault is a launch event like
    its span: KLO is the span's duration, and the next launch's LQT runs
    from its end."""
    config = _cc(_schedule(HYPERCALL, upto=4))
    assert config.retry.max_attempts == 4

    def app(rt):
        kernel = nanosleep_kernel(units.us(10))
        try:
            yield from rt.launch(kernel)
        except FatalFault:
            pass
        yield from rt.launch(kernel)
        yield from rt.synchronize()

    machine = Machine(config)
    machine.run(app)
    assert machine.guest.faults.fatal.get(HYPERCALL) == 1
    spans = [s for s in machine.trace.spans if s.name == "cudaLaunchKernel"]
    launches = machine.trace.launches()
    assert len(launches) == len(spans) == 2
    failed, after = launches
    assert failed.duration_ns == spans[0].duration_ns > 0
    assert after.queue_ns == spans[1].start_ns - spans[0].end_ns > 0
    _assert_machine_clean(machine)


def test_launch_after_failed_first_launch_loads_the_module():
    """A fatal fault inside the first launch's module setup leaves the
    kernel unloaded: the next launch is again first and pays the full
    setup, converting the module's DMA pages."""
    config = _cc(_schedule(HYPERCALL, upto=4))

    def app(rt):
        kernel = nanosleep_kernel(units.us(10))
        try:
            yield from rt.launch(kernel)
        except FatalFault:
            pass
        yield from rt.launch(kernel)
        yield from rt.synchronize()

    machine = Machine(config)
    machine.run(app)
    spans = machine.trace.spans
    failed, retried = [s for s in spans if s.name == "cudaLaunchKernel"]
    assert failed.attrs["first"] and retried.attrs["first"]
    children = {s.name for s in spans if s.parent_id == retried.span_id}
    assert {"cuModuleLoad", "dma_direct_alloc"} <= children
    assert machine.guest.metrics.counter("tdx.pages_converted").value == (
        config.launch.first_launch_bounce_pages
    )
    _assert_machine_clean(machine)


def test_queue_depth_gauge_tracks_kernels_failed_behind_a_copy():
    """Kernels failed behind a fatal async copy release their launch
    credits, and ``launch.queue_depth`` samples each release."""
    plan = _schedule(DMA, upto=8)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        stream = rt.create_stream()
        try:
            yield from rt.memcpy_async(dev, host, stream)
            for _ in range(3):
                yield from rt.launch(
                    nanosleep_kernel(units.us(10)), stream=stream
                )
            yield from rt.stream_synchronize(stream)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault):
        machine.run(app)
    assert not machine.trace.kernels()
    depth = machine.guest.metrics.gauge("launch.queue_depth")
    assert max(v for _, v in depth.series) == 3
    assert depth.value == machine.gpu.launch_credits.in_use == 0
    _assert_machine_clean(machine)


def test_async_copy_fatal_fault_surfaces_at_synchronize():
    plan = _schedule(DMA, upto=8)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        stream = rt.create_stream()
        try:
            yield from rt.memcpy_async(dev, host, stream)
            yield from rt.stream_synchronize(stream)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(app)
    assert excinfo.value.site == DMA
    # The synchronize that raised is a sync event, as it is a span.
    (sync,) = machine.trace.of_kind(EventKind.SYNC)
    assert sync.duration_ns > 0
    _assert_machine_clean(machine)


@pytest.mark.parametrize("launch_after_failure", [False, True])
def test_async_copy_fatal_fault_propagates_down_the_stream(launch_after_failure):
    """A launch queued behind a failed copy fails too, whether it was
    submitted before the copy failed or after the failure was processed."""
    plan = _schedule(DMA, upto=8)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        stream = rt.create_stream()
        try:
            copied = yield from rt.memcpy_async(dev, host, stream)
            if launch_after_failure:
                yield from rt.cpu_gap(units.ms(50))
                assert copied.processed and not copied.ok
            yield from rt.launch(nanosleep_kernel(units.us(10)), stream=stream)
            if not launch_after_failure:
                assert not copied.triggered
            yield from rt.stream_synchronize(stream)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(app)
    assert excinfo.value.site == DMA
    assert not machine.trace.kernels()
    _assert_machine_clean(machine)


@pytest.mark.parametrize("wait_after_failure", [False, True])
def test_async_copy_fatal_fault_propagates_across_stream_wait_event(
    wait_after_failure,
):
    """A launch that waits on another stream's failed copy fails too."""
    plan = _schedule(DMA, upto=8)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        copies, compute = rt.create_stream(), rt.create_stream()
        try:
            copied = yield from rt.memcpy_async(dev, host, copies)
            if wait_after_failure:
                yield from rt.cpu_gap(units.ms(50))
                assert copied.processed and not copied.ok
            rt.stream_wait_event(compute, copied)
            yield from rt.launch(nanosleep_kernel(units.us(10)), stream=compute)
            yield from rt.stream_synchronize(compute)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(app)
    assert excinfo.value.site == DMA
    assert not machine.trace.kernels()
    _assert_machine_clean(machine)


def test_synchronize_reports_a_failure_already_processed():
    plan = _schedule(DMA, upto=8)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        stream = rt.create_stream()
        try:
            copied = yield from rt.memcpy_async(dev, host, stream)
            yield from rt.cpu_gap(units.ms(50))
            assert copied.processed and not copied.ok
            yield from rt.synchronize()
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(app)
    assert excinfo.value.site == DMA
    _assert_machine_clean(machine)


def test_blocking_memcpy_reports_a_failure_already_processed():
    # The blocking copy waits on the default stream, whose async copy
    # already failed on the GPU; its own copy would succeed.
    plan = _schedule(DMA, upto=SystemConfig.base().retry.max_attempts)

    def app(rt):
        dev = yield from rt.malloc(256 * units.KiB)
        host = yield from rt.malloc_host(256 * units.KiB)
        try:
            copied = yield from rt.memcpy_async(dev, host, rt.default_stream)
            yield from rt.cpu_gap(units.ms(50))
            assert copied.processed and not copied.ok
            yield from rt.memcpy(host, dev)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    machine = Machine(SystemConfig.base().replace(faults=plan))
    with pytest.raises(FatalFault) as excinfo:
        machine.run(app)
    assert excinfo.value.site == DMA
    _assert_machine_clean(machine)


def test_machine_is_reusable_after_fatal_fault():
    # Exhaust retries on the first copy only; the site's schedule is
    # spent afterwards, so a second run on a fresh machine with the
    # same plan minus the schedule succeeds — and a brand-new machine
    # with an empty plan reproduces the clean trace exactly.
    plan = _schedule(GCM_TAG, upto=8)
    machine = Machine(_cc(plan))
    with pytest.raises(FatalCudaFault):
        machine.run(_copy_spec().app())
    _assert_machine_clean(machine)

    clean = Machine(_cc())
    result = clean.run(_copy_spec().app())
    assert result is None
    _assert_machine_clean(clean)


# ---------------------------------------------------------------------------
# SPDM attestation recovery
# ---------------------------------------------------------------------------


def _attest(config, **kwargs):
    machine = Machine(config)
    process = machine.sim.process(
        attest_gpu(machine.sim, machine.guest, machine.config, **kwargs)
    )
    session = machine.sim.run(until=process)
    return machine, session


def test_spdm_corruption_triggers_reattestation():
    clean_machine, clean_session = _attest(_cc())
    machine, session = _attest(_cc(_schedule(SPDM, 0)))
    # Transcript binding catches the corruption; the retry re-runs the
    # whole flow and lands on the same session key as a clean run.
    assert session.session_key == clean_session.session_key
    assert machine.guest.faults.retries.get(SPDM) == 1
    assert any(
        e.attrs.get("action") == "re-attest" for e in machine.trace.recoveries()
    )
    assert machine.elapsed_ns > clean_machine.elapsed_ns


def test_spdm_persistent_corruption_is_fatal():
    machine = Machine(_cc(_schedule(SPDM, upto=64)))
    process = machine.sim.process(
        attest_gpu(machine.sim, machine.guest, machine.config)
    )
    with pytest.raises(FatalFault) as excinfo:
        machine.sim.run(until=process)
    assert excinfo.value.site == SPDM
    assert machine.guest.faults.fatal.get(SPDM) == 1


def test_spdm_genuine_policy_failure_is_not_retried():
    # A measurement that violates policy is NOT an injected fault and
    # must surface immediately — even with an active plan elsewhere.
    machine = Machine(_cc(FaultPlan.uniform(0.5, sites=(DMA,))))
    process = machine.sim.process(
        attest_gpu(
            machine.sim,
            machine.guest,
            machine.config,
            expected_measurement=b"\x00" * 32,
        )
    )
    with pytest.raises(SpdmError, match="policy"):
        machine.sim.run(until=process)
    assert machine.guest.faults.retries == {}


def test_retry_policy_validates_at_construction():
    # An invalid policy must fail when built (e.g. from CLI flags), not
    # deep inside a recovery loop.
    with pytest.raises(ValueError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="non-negative"):
        RetryPolicy(backoff_base_ns=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(RetryPolicy(), backoff_factor=0.0)
