"""Failure-injection and robustness tests: resource exhaustion, misuse,
and corruption must fail loudly and leave state consistent."""

import dataclasses

import pytest

from repro import units
from repro.config import SystemConfig
from repro.cuda import CudaError, Machine, run_app
from repro.gpu import nanosleep_kernel
from repro.mem import OutOfMemoryError
from repro.sim import SimulationError, Simulator


# --- device / host memory exhaustion --------------------------------------


def test_hbm_exhaustion_surfaces_oom():
    config = SystemConfig.base()

    def hog(rt):
        yield from rt.malloc(config.gpu.hbm_bytes + units.MiB)

    with pytest.raises(OutOfMemoryError):
        run_app(hog, config)


def test_hbm_exhaustion_by_fragmented_allocs():
    config = SystemConfig.base()

    def hog(rt):
        held = []
        # 94 GiB HBM: 95 x 1 GiB must fail before completing.
        for _ in range(95):
            held.append((yield from rt.malloc(units.GiB)))

    with pytest.raises(OutOfMemoryError):
        run_app(hog, config)


def test_vm_memory_exhaustion():
    config = SystemConfig.base()

    def hog(rt):
        yield from rt.host_alloc(config.vm_memory_bytes + units.MiB)

    with pytest.raises(OutOfMemoryError):
        run_app(hog, config)


def test_machine_state_consistent_after_oom():
    machine = Machine(SystemConfig.base())

    def partial(rt):
        ok = yield from rt.malloc(units.MiB)
        try:
            yield from rt.malloc(machine.config.gpu.hbm_bytes)
        except OutOfMemoryError:
            pass
        yield from rt.free(ok)

    machine.run(partial)
    assert machine.gpu.hbm.used_bytes == 0
    machine.gpu.hbm.check_invariants()


# --- bounce pool exhaustion --------------------------------------------------


def test_bounce_pool_exhaustion():
    config = SystemConfig.confidential()
    machine = Machine(config)
    guest = machine.guest
    slot = guest.bounce.alloc(config.tdx.bounce_pool_bytes)
    with pytest.raises(OutOfMemoryError):
        guest.bounce.alloc(4096)
    guest.bounce.free(slot)
    assert guest.bounce.free_bytes == config.tdx.bounce_pool_bytes


def test_failed_copy_releases_bounce_slots():
    """Regression: a copy that dies mid-flight must not leak its bounce
    slot (or the pool silently shrinks until every CC copy degrades)."""
    from repro.cuda import FatalCudaFault
    from repro.faults import GCM_TAG, FaultPlan, SiteFaults

    plan = FaultPlan.from_mapping(
        {GCM_TAG: SiteFaults(schedule=tuple(range(8)))}
    )
    machine = Machine(SystemConfig.confidential().replace(faults=plan))

    def copy_forever(rt):
        dev = yield from rt.malloc(units.MiB)
        host = yield from rt.host_alloc(units.MiB)
        try:
            yield from rt.memcpy(dev, host)
        finally:
            rt.reclaim(dev)
            rt.reclaim(host)

    with pytest.raises(FatalCudaFault):
        machine.run(copy_forever)
    assert machine.guest.bounce.used_bytes == 0
    assert (
        machine.guest.bounce.free_bytes
        == machine.config.tdx.bounce_pool_bytes
    )


def test_functional_staging_frees_slot_on_corruption():
    """Even a genuine (non-injected) tag failure in the functional
    data path must free the staged slot before propagating."""
    from repro.crypto import AuthenticationError

    machine = Machine(SystemConfig.confidential())
    rt = machine.runtime

    class _BadGcm:
        def encrypt(self, iv, data):
            return data, b"\x00" * 16

        def decrypt(self, iv, data, tag):
            raise AuthenticationError("tag mismatch")

    rt._gcm = _BadGcm()
    with pytest.raises(AuthenticationError):
        rt._stage_through_bounce(b"payload")
    assert machine.guest.bounce.used_bytes == 0


# --- runtime misuse -----------------------------------------------------------


def test_copy_overflow_rejected():
    def bad(rt):
        small = yield from rt.malloc(1024)
        big = yield from rt.host_alloc(8192)
        yield from rt.memcpy(small, big, 8192)

    with pytest.raises(CudaError, match="larger than buffer"):
        run_app(bad, SystemConfig.base())


def test_use_after_free_double_free():
    def bad(rt):
        buf = yield from rt.malloc(4096)
        yield from rt.free(buf)
        yield from rt.free(buf)

    with pytest.raises(CudaError, match="double free"):
        run_app(bad, SystemConfig.base())


def test_exception_in_app_does_not_corrupt_machine():
    machine = Machine(SystemConfig.base())

    def crash(rt):
        yield from rt.malloc(units.MiB)
        raise RuntimeError("app bug")

    with pytest.raises(RuntimeError, match="app bug"):
        machine.run(crash)
    # A new app on the same machine still works.
    def ok(rt):
        yield from rt.launch(nanosleep_kernel(units.us(10)))
        yield from rt.synchronize()
        return "fine"

    assert machine.run(ok) == "fine"


# --- simulation-kernel misuse --------------------------------------------------


def test_run_until_untriggered_event_fails_cleanly():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=event)


# --- configuration validation ---------------------------------------------------


def test_zero_queue_depth_rejected():
    config = SystemConfig.base()
    bad = config.replace(
        launch=dataclasses.replace(config.launch, launch_queue_depth=0)
    )

    def app(rt):
        yield from rt.launch(nanosleep_kernel(units.us(1)))

    # Config validation at machine boot catches it before any launch.
    with pytest.raises(ValueError, match="launch_queue_depth"):
        run_app(app, bad)


def test_negative_kernel_efficiency_rejected():
    from repro.gpu import KernelSpec

    def app(rt):
        yield from rt.launch(KernelSpec(name="bad", flops=1e9, efficiency=-0.5))
        yield from rt.synchronize()

    with pytest.raises(ValueError, match="efficiency"):
        run_app(app, SystemConfig.base())
