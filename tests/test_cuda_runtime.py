"""Integration tests for the CUDA-like runtime on the simulated machine."""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.cuda import CudaError, Machine, run_app, run_base_and_cc
from repro.gpu import KernelSpec, nanosleep_kernel
from repro.profiler import EventKind


def simple_app(rt):
    dev = yield from rt.malloc(4 * units.MiB)
    host = yield from rt.malloc_host(4 * units.MiB)
    yield from rt.memcpy(dev, host)
    yield from rt.launch(nanosleep_kernel(units.us(50)))
    yield from rt.synchronize()
    yield from rt.memcpy(host, dev)
    yield from rt.free(dev)
    yield from rt.free(host)
    return "done"


def test_simple_app_runs_and_traces():
    trace, result = run_app(simple_app, SystemConfig.base())
    assert result == "done"
    kinds = {e.kind for e in trace}
    assert EventKind.LAUNCH in kinds
    assert EventKind.KERNEL in kinds
    assert EventKind.MEMCPY in kinds
    assert EventKind.ALLOC in kinds
    assert EventKind.FREE in kinds
    assert EventKind.SYNC in kinds


def test_simple_app_runs_under_cc():
    trace, result = run_app(simple_app, SystemConfig.confidential())
    assert result == "done"
    assert len(trace.kernels()) == 1


def test_kernel_waits_for_launch():
    trace, _ = run_app(simple_app, SystemConfig.base())
    launch = trace.launches()[0]
    kernel = trace.kernels()[0]
    assert kernel.start_ns >= launch.end_ns
    assert kernel.queue_ns >= 0


def test_kernel_duration_matches_nanosleep():
    trace, _ = run_app(simple_app, SystemConfig.base())
    kernel = trace.kernels()[0]
    assert kernel.duration_ns == units.us(50)


def test_cc_kernel_duration_nearly_unchanged():
    # Observation 5: non-UVM KET ~unaffected (+0.48 %).
    base, cc = run_base_and_cc(simple_app)
    ket_base = base.kernels()[0].duration_ns
    ket_cc = cc.kernels()[0].duration_ns
    assert ket_cc / ket_base == pytest.approx(1.0048, rel=1e-3)


def test_cc_launch_is_slower():
    base, cc = run_base_and_cc(simple_app)
    klo_base = base.launches()[0].duration_ns
    klo_cc = cc.launches()[0].duration_ns
    assert klo_cc > klo_base


def test_cc_copies_are_slower():
    base, cc = run_base_and_cc(simple_app)
    t_base = base.total_duration_ns(EventKind.MEMCPY)
    t_cc = cc.total_duration_ns(EventKind.MEMCPY)
    assert t_cc > 2 * t_base


def test_cc_allocations_are_slower():
    base, cc = run_base_and_cc(simple_app)
    for kind in (EventKind.ALLOC, EventKind.FREE):
        assert cc.total_duration_ns(kind) > 2 * base.total_duration_ns(kind)


def test_pinned_vs_pageable_gap_disappears_under_cc():
    # Observation 1 (Fig. 4a shape).
    def copy_app(rt, pinned):
        dev = yield from rt.malloc(64 * units.MiB)
        if pinned:
            host = yield from rt.malloc_host(64 * units.MiB)
        else:
            host = yield from rt.host_alloc(64 * units.MiB)
        # Bandwidth-test methodology: warmed buffers (Fig. 4a).
        plan = yield from rt.memcpy(dev, host, cold=False)
        return plan.total_ns

    def copy_time(config, pinned):
        _trace, total = run_app(copy_app, config, pinned=pinned)
        return total

    base_pin = copy_time(SystemConfig.base(), True)
    base_page = copy_time(SystemConfig.base(), False)
    cc_pin = copy_time(SystemConfig.confidential(), True)
    cc_page = copy_time(SystemConfig.confidential(), False)
    # Base: pinned clearly faster than pageable.
    assert base_pin < 0.75 * base_page
    # CC: gap nearly gone.
    assert abs(cc_pin - cc_page) / cc_page < 0.1
    # CC much slower than base.
    assert cc_page > 3 * base_page


def test_cc_pinned_copy_labeled_managed():
    def copy_app(rt):
        dev = yield from rt.malloc(units.MiB)
        host = yield from rt.malloc_host(units.MiB)
        yield from rt.memcpy(dev, host)

    trace, _ = run_app(copy_app, SystemConfig.confidential())
    copy = trace.memcpys()[0]
    assert copy.attrs["managed"] is True

    trace_base, _ = run_app(copy_app, SystemConfig.base())
    assert trace_base.memcpys()[0].attrs["managed"] is False


def test_functional_payload_roundtrip_under_cc():
    payload = b"secret model weights 0123456789"

    def data_app(rt):
        dev = yield from rt.malloc(256)
        host = yield from rt.malloc_host(256)
        host.write(payload)
        yield from rt.memcpy(dev, host)
        out = yield from rt.malloc_host(256)
        yield from rt.memcpy(out, dev)
        return out.read()

    _trace, result = run_app(data_app, SystemConfig.confidential())
    assert result[: len(payload)] == payload


def test_double_free_rejected():
    def bad_app(rt):
        dev = yield from rt.malloc(1024)
        yield from rt.free(dev)
        yield from rt.free(dev)

    with pytest.raises(Exception):
        run_app(bad_app, SystemConfig.base())


def test_host_to_host_copy_rejected():
    def bad_app(rt):
        a = yield from rt.host_alloc(1024)
        b = yield from rt.host_alloc(1024)
        yield from rt.memcpy(a, b)

    with pytest.raises(Exception):
        run_app(bad_app, SystemConfig.base())


@pytest.mark.parametrize(
    "config", [SystemConfig.base(), SystemConfig.confidential()],
    ids=["base", "cc"],
)
def test_async_copy_larger_than_buffer_rejected(config):
    """memcpy_async bounds-checks like memcpy, before paying any cost."""
    def oversize_app(rt):
        dev = yield from rt.malloc(4096)
        host = yield from rt.malloc_host(4096)
        stream = rt.create_stream()
        before = rt.sim.now
        with pytest.raises(CudaError, match="copy larger than buffer"):
            yield from rt.memcpy_async(dev, host, stream=stream, size=1 << 20)
        return rt.sim.now - before

    trace, elapsed = run_app(oversize_app, config)
    assert elapsed == 0
    assert trace.memcpys() == []


def test_streams_overlap_kernels():
    def multi_stream(rt):
        s1 = rt.create_stream()
        s2 = rt.create_stream()
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="k1"), stream=s1)
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="k2"), stream=s2)
        yield from rt.synchronize()

    trace, _ = run_app(multi_stream, SystemConfig.base())
    k1, k2 = trace.kernels()
    # Overlap: second kernel starts before the first finishes.
    assert k2.start_ns < k1.end_ns


def test_same_stream_kernels_serialize():
    def single_stream(rt):
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="k1"))
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="k2"))
        yield from rt.synchronize()

    trace, _ = run_app(single_stream, SystemConfig.base())
    k1, k2 = sorted(trace.kernels(), key=lambda e: e.start_ns)
    assert k2.start_ns >= k1.end_ns


def test_stream_wait_event_keeps_stream_order():
    """Waiting on another stream's event adds a dependency; it must not
    drop the one on the work already queued on the waiting stream."""

    def app(rt):
        s = rt.create_stream()
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="long"), stream=s)
        yield from rt.launch(nanosleep_kernel(units.us(10), name="short"))
        rt.stream_wait_event(s, rt.default_stream.tail)
        yield from rt.launch(nanosleep_kernel(units.us(10), name="after"), stream=s)
        yield from rt.synchronize()

    trace, _ = run_app(app, SystemConfig.base())
    kernels = {k.name: k for k in trace.kernels()}
    # synchronize() returned only after the long kernel finished.
    assert sorted(kernels) == ["after", "long", "short"]
    assert kernels["after"].start_ns >= kernels["long"].end_ns
    assert kernels["after"].start_ns >= kernels["short"].end_ns


def test_stream_synchronize_after_wait_event_waits_for_the_stream():
    """A synchronize on a stream right after stream_wait_event waits for
    the awaited event and for the work already on the stream."""

    def app(rt):
        s = rt.create_stream()
        yield from rt.launch(nanosleep_kernel(units.ms(1), name="long"), stream=s)
        yield from rt.launch(nanosleep_kernel(units.us(10), name="short"))
        rt.stream_wait_event(s, rt.default_stream.tail)
        yield from rt.stream_synchronize(s)
        return rt.sim.now

    machine = Machine(SystemConfig.base())
    returned = machine.run(app)
    kernels = {k.name: k for k in machine.trace.kernels()}
    assert sorted(kernels) == ["long", "short"]
    assert returned >= kernels["long"].end_ns


def test_first_launch_costs_more():
    def two_kernels(rt):
        kernel = nanosleep_kernel(units.us(10), name="same")
        yield from rt.launch(kernel)
        yield from rt.launch(kernel)
        yield from rt.synchronize()

    trace, _ = run_app(two_kernels, SystemConfig.base())
    first, second = trace.launches()
    assert first.attrs["first"] is True
    assert second.attrs["first"] is False
    assert first.duration_ns > 5 * second.duration_ns


def test_lqt_recorded_between_launches():
    def looped(rt):
        kernel = nanosleep_kernel(units.us(30), name="loop")
        for _ in range(5):
            yield from rt.launch(kernel)
            yield from rt.synchronize()

    trace, _ = run_app(looped, SystemConfig.base())
    launches = trace.launches()
    assert launches[0].queue_ns == 0
    # Later launches waited for the sync; LQT includes that gap.
    assert all(l.queue_ns > 0 for l in launches[1:])


def test_kqt_increases_under_cc():
    def sync_separated(rt):
        kernel = nanosleep_kernel(units.us(30), name="loop")
        for _ in range(4):
            yield from rt.launch(kernel)
            yield from rt.synchronize()

    base, cc = run_base_and_cc(sync_separated)
    kqt_base = sum(k.queue_ns for k in base.kernels()) / 4
    kqt_cc = sum(k.queue_ns for k in cc.kernels()) / 4
    assert kqt_cc > 1.5 * kqt_base


def test_managed_kernel_faults_and_migrates():
    def uvm_app(rt, config_size=8 * units.MiB):
        buf = yield from rt.malloc_managed(config_size)
        kernel = KernelSpec(name="uvm_kernel", fixed_duration_ns=units.us(40))
        yield from rt.launch(kernel, managed_touches=[(buf, config_size)])
        yield from rt.synchronize()
        # Second launch: data now resident, no faults.
        yield from rt.launch(kernel, managed_touches=[(buf, config_size)])
        yield from rt.synchronize()

    trace, _ = run_app(uvm_app, SystemConfig.base())
    k1, k2 = sorted(trace.kernels(), key=lambda e: e.start_ns)
    assert k1.attrs["faulted_pages"] > 0
    assert k2.attrs["faulted_pages"] == 0
    assert k1.duration_ns > k2.duration_ns


def test_uvm_kernel_blows_up_under_cc():
    size = 8 * units.MiB

    def uvm_app(rt):
        buf = yield from rt.malloc_managed(size)
        kernel = KernelSpec(name="uvm_kernel", fixed_duration_ns=units.us(40))
        yield from rt.launch(kernel, managed_touches=[(buf, size)])
        yield from rt.synchronize()

    base, cc = run_base_and_cc(uvm_app)
    ket_base = base.kernels()[0].duration_ns
    ket_cc = cc.kernels()[0].duration_ns
    assert ket_cc > 20 * ket_base


def test_graph_launch_single_klo_many_kernels():
    def graph_app(rt):
        kernels = [
            nanosleep_kernel(units.us(20), name=f"g{i}") for i in range(10)
        ]
        graph = yield from rt.graph_create(kernels)
        yield from rt.graph_launch(graph)
        yield from rt.synchronize()

    trace, _ = run_app(graph_app, SystemConfig.base())
    assert len(trace.kernels()) == 10
    assert len(trace.launches()) == 1


@pytest.mark.parametrize(
    "config", [SystemConfig.base(), SystemConfig.confidential()],
    ids=["base", "cc"],
)
def test_graph_with_invalid_kernel_rejected_before_any_cost(config):
    """graph_create validates every node in the caller, like launch."""
    def bad_graph_app(rt):
        kernels = [
            nanosleep_kernel(units.us(20), name="ok"),
            KernelSpec(name="bad", flops=1e9, efficiency=0.0),
        ]
        before = rt.sim.now
        with pytest.raises(ValueError, match="efficiency"):
            yield from rt.graph_create(kernels)
        return rt.sim.now - before

    machine = Machine(config)
    assert machine.run(bad_graph_app) == 0
    assert len(machine.trace.spans) == 0
    assert machine.trace.kernels() == []


def test_machine_elapsed_tracks_sim_time():
    machine = Machine(SystemConfig.base())
    machine.run(simple_app)
    assert machine.elapsed_ns > 0
    assert machine.elapsed_ns == machine.sim.now


def test_hbm_freed_after_app():
    machine = Machine(SystemConfig.base())
    machine.run(simple_app)
    assert machine.gpu.hbm.used_bytes == 0
    assert machine.guest.memory.heap.used_bytes == 0
