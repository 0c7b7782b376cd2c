"""Tests for GPU kernel cost models and the UVM subsystem."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.gpu import (
    CC_KET_FACTOR,
    KernelSpec,
    ManagedAllocation,
    UVMManager,
    elementwise_kernel,
    gemm_kernel,
    nanosleep_kernel,
)
from repro.sim import Simulator
from repro.tdx import GuestContext


GPU = SystemConfig.base().gpu


# --- kernel cost model ----------------------------------------------------


def test_nanosleep_duration_exact():
    kernel = nanosleep_kernel(units.ms(100))
    assert kernel.base_duration_ns(GPU, cc=False) == units.ms(100)


def test_cc_factor_applied():
    kernel = nanosleep_kernel(units.ms(100))
    ratio = kernel.base_duration_ns(GPU, cc=True) / units.ms(100)
    assert ratio == pytest.approx(CC_KET_FACTOR, rel=1e-6)


def test_gemm_compute_bound_duration():
    kernel = gemm_kernel(4096, 4096, 4096)
    flops = 2 * 4096**3
    expected = flops / (GPU.fp32_flops * GPU.default_efficiency) * 1e9
    assert kernel.base_duration_ns(GPU, cc=False) == pytest.approx(
        expected + GPU.kernel_fixed_ns, rel=0.01
    )


def test_elementwise_memory_bound_duration():
    kernel = elementwise_kernel(10_000_000, flops_per_element=1, bytes_per_element=16)
    bytes_total = 160_000_000
    expected = bytes_total / (GPU.hbm_bw * GPU.default_efficiency) * 1e9
    assert kernel.base_duration_ns(GPU, cc=False) == pytest.approx(
        expected + GPU.kernel_fixed_ns, rel=0.01
    )


def test_gemm_precision_changes_peak():
    fp32 = gemm_kernel(2048, 2048, 2048, precision="fp32")
    fp16 = gemm_kernel(2048, 2048, 2048, precision="fp16")
    assert fp16.base_duration_ns(GPU, False) < fp32.base_duration_ns(GPU, False)


def test_invalid_precision_rejected():
    kernel = KernelSpec(name="bad", flops=1e9, precision="fp13")
    with pytest.raises(ValueError):
        kernel.base_duration_ns(GPU, False)


def test_invalid_efficiency_rejected():
    kernel = KernelSpec(name="bad", flops=1e9, efficiency=1.5)
    with pytest.raises(ValueError):
        kernel.base_duration_ns(GPU, False)


def test_duration_minimum_one_ns():
    kernel = KernelSpec(name="tiny", fixed_duration_ns=0)
    assert kernel.base_duration_ns(GPU, False) >= 1


def test_module_pages_attr_flows_through():
    kernel = elementwise_kernel(100, name="fat", module_pages=200)
    assert kernel.attrs["module_pages"] == 200.0


# --- UVM subsystem ---------------------------------------------------------


def _uvm(config):
    sim = Simulator()
    guest = GuestContext(sim, config)
    return sim, UVMManager(sim, config, guest)


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_register_uses_mode_specific_chunk():
    config_base = SystemConfig.base()
    config_cc = SystemConfig.confidential()
    _, uvm_base = _uvm(config_base)
    _, uvm_cc = _uvm(config_cc)
    handle_b = uvm_base.register(units.MiB)
    handle_c = uvm_cc.register(units.MiB)
    assert uvm_base.allocation(handle_b).chunk_bytes == config_base.uvm.migration_chunk_bytes
    assert uvm_cc.allocation(handle_c).chunk_bytes == config_cc.uvm.cc_migration_chunk_bytes


def test_gpu_touch_migrates_then_free():
    sim, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(4 * units.MiB)
    migrated, elapsed = run(sim, uvm.gpu_touch(handle, 4 * units.MiB))
    assert migrated == 4 * units.MiB
    assert elapsed > 0
    # Resident now: no second migration.
    migrated2, elapsed2 = run(sim, uvm.gpu_touch(handle, 4 * units.MiB))
    assert migrated2 == 0
    assert elapsed2 == 0


def counted(sim, gen):
    """Run ``gen`` in a process; returns (its value, events it scheduled)."""

    def body():
        before = sim.scheduled
        value = yield from gen
        return value, sim.scheduled - before

    return run(sim, body())


def test_cpu_touch_evicts_back():
    sim, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(2 * units.MiB)
    run(sim, uvm.gpu_touch(handle, 2 * units.MiB))
    (moved, elapsed), events = counted(sim, uvm.cpu_touch(handle, units.MiB))
    assert moved == units.MiB
    # One fault service (25 us) + 1 MiB streamed at 20 GB/s (52429 ns).
    assert elapsed == 77429
    assert events == 1
    # The evicted prefix must fault again on the GPU.
    migrated, _ = run(sim, uvm.gpu_touch(handle, 2 * units.MiB))
    assert migrated == units.MiB


def test_cc_cpu_touch_pays_every_chunk_in_one_timeout():
    config = SystemConfig.confidential()
    sim, uvm = _uvm(config)
    handle = uvm.register(2 * units.MiB)
    run(sim, uvm.gpu_touch(handle, 2 * units.MiB))
    (moved, elapsed), events = counted(sim, uvm.cpu_touch(handle, units.MiB))
    chunks = units.MiB // config.uvm.cc_migration_chunk_bytes
    chunk_ns = uvm.migration_chunk_time_ns(config.uvm.cc_migration_chunk_bytes)
    assert moved == units.MiB
    assert elapsed == chunks * (config.uvm.fault_service_ns + chunk_ns) == 1718048
    assert events == 1


def test_partial_last_batch_is_rounded_on_its_own():
    config = SystemConfig.base()
    config = config.replace(
        uvm=dataclasses.replace(config.uvm, prefetch_enabled=False)
    )
    uvm_cfg = config.uvm
    assert uvm_cfg.stall_fraction < 1
    sim, uvm = _uvm(config)
    handle = uvm.register(4 * units.MiB)
    # 40 chunks of 64 KiB in fault batches of 16: two full, one of 8.
    (migrated, elapsed), events = counted(
        sim, uvm.gpu_touch(handle, 5 * units.MiB // 2)
    )
    service, stall = uvm_cfg.fault_service_ns, uvm_cfg.stall_fraction
    chunk_ns = units.transfer_time_ns(64 * units.KiB, uvm_cfg.migration_bw)
    assert (service, stall, chunk_ns) == (25_000, 0.45, 3277)
    full = int((service + 16 * chunk_ns) * stall)  # 34844.4 -> 34844
    last = int((service + 8 * chunk_ns) * stall)  # 23047.2 -> 23047
    assert migrated == 40 * 64 * units.KiB
    assert elapsed == 2 * full + last == 92735
    # Rounding the burst as a whole would give one nanosecond more.
    assert int((3 * service + 40 * chunk_ns) * stall) == 92736
    assert uvm.total_faults == 3
    assert events == 1


def test_evicted_chunks_alone_migrate_again():
    sim, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(4 * units.MiB)
    run(sim, uvm.gpu_touch(handle, 4 * units.MiB))
    alloc = uvm.allocation(handle)
    assert alloc.evict_to_host(units.MiB) == 16
    # Resident now: chunks 16..63, which is not a prefix.
    assert alloc.resident_chunks() == 48
    assert alloc.nonresident_in_prefix(4 * units.MiB) == 16
    assert alloc.nonresident_in_prefix(units.MiB // 2) == 8
    faults = uvm.total_faults
    migrated, _ = run(sim, uvm.gpu_touch(handle, 4 * units.MiB))
    assert migrated == units.MiB
    assert uvm.total_faults == faults + 1  # 16 chunks fit one VA block
    assert alloc.resident_bytes == 4 * units.MiB
    assert alloc.evict_to_host(units.MiB) == 16
    assert alloc.evict_all() == 48
    assert alloc.resident_chunks() == 0


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["gpu", "cpu", "all"]),
        st.integers(min_value=0, max_value=5 * units.MiB),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_residency_matches_set_reference(ops):
    """The chunk bytearray agrees with a plain set of resident chunks."""
    alloc = ManagedAllocation(4 * units.MiB + 1, 64 * units.KiB)
    resident = set()
    for op, size in ops:
        wanted = min(units.pages(size, alloc.chunk_bytes), alloc.num_chunks)
        prefix = range(wanted)
        assert alloc.nonresident_in_prefix(size) == sum(
            1 for c in prefix if c not in resident
        )
        if op == "gpu":
            alloc.mark_resident(size)
            resident.update(prefix)
        elif op == "cpu":
            moved = sum(1 for c in prefix if c in resident)
            assert alloc.evict_to_host(size) == moved
            resident.difference_update(prefix)
        else:
            assert alloc.evict_all() == len(resident)
            resident.clear()
        assert alloc.resident_chunks() == len(resident)
        assert alloc.resident_bytes == len(resident) * alloc.chunk_bytes


@settings(max_examples=40, deadline=None)
@given(
    cc=st.booleans(),
    prefetch=st.booleans(),
    stall=st.floats(min_value=0.0, max_value=1.0),
    touched=st.integers(min_value=1, max_value=6 * units.MiB),
)
def test_burst_timeout_equals_per_batch_loop(cc, prefetch, stall, touched):
    """One timeout per burst costs what one timeout per batch did."""
    config = SystemConfig.confidential() if cc else SystemConfig.base()
    config = config.replace(
        uvm=dataclasses.replace(
            config.uvm, prefetch_enabled=prefetch, stall_fraction=stall
        )
    )
    sim, uvm = _uvm(config)
    handle = uvm.register(6 * units.MiB)
    alloc = uvm.allocation(handle)
    missing = alloc.nonresident_in_prefix(touched)
    uvm_cfg = config.uvm
    if cc:
        per_batch, stall = 1, 1.0
    elif prefetch:
        per_batch = uvm_cfg.va_block_bytes // alloc.chunk_bytes
    else:
        per_batch = (
            uvm_cfg.fault_batch_pages * uvm_cfg.os_page_bytes
        ) // alloc.chunk_bytes
    expected, batches, remaining = 0, 0, missing
    while remaining:
        in_batch = min(per_batch, remaining)
        remaining -= in_batch
        batches += 1
        batch_ns = uvm_cfg.fault_service_ns + (
            uvm.migration_chunk_time_ns(alloc.chunk_bytes) * in_batch
        )
        expected += max(1, int(batch_ns * stall))
    (migrated, elapsed), events = counted(sim, uvm.gpu_touch(handle, touched))
    assert migrated == missing * alloc.chunk_bytes
    assert elapsed == expected
    assert uvm.total_faults == batches
    assert events == 1


def test_cc_migration_much_slower_per_byte():
    base_sim, base_uvm = _uvm(SystemConfig.base())
    cc_sim, cc_uvm = _uvm(SystemConfig.confidential())
    hb = base_uvm.register(4 * units.MiB)
    hc = cc_uvm.register(4 * units.MiB)
    _, t_base = run(base_sim, base_uvm.gpu_touch(hb, 4 * units.MiB))
    _, t_cc = run(cc_sim, cc_uvm.gpu_touch(hc, 4 * units.MiB))
    assert t_cc > 20 * t_base


def test_fault_counting_batches_in_base_mode():
    sim, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(4 * units.MiB)
    run(sim, uvm.gpu_touch(handle, 4 * units.MiB))
    # Prefetch migrates per VA block (2 MiB): two batches.
    assert uvm.total_faults == 2


def test_fault_counting_per_chunk_under_cc():
    config = SystemConfig.confidential()
    sim, uvm = _uvm(config)
    handle = uvm.register(units.MiB)
    run(sim, uvm.gpu_touch(handle, units.MiB))
    assert uvm.total_faults == units.MiB // config.uvm.cc_migration_chunk_bytes


def test_partial_touch_prefix_semantics():
    sim, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(8 * units.MiB)
    migrated, _ = run(sim, uvm.gpu_touch(handle, 2 * units.MiB))
    assert migrated == 2 * units.MiB
    migrated2, _ = run(sim, uvm.gpu_touch(handle, 8 * units.MiB))
    assert migrated2 == 6 * units.MiB


def test_unregister_removes_tracking():
    _, uvm = _uvm(SystemConfig.base())
    handle = uvm.register(units.MiB)
    uvm.unregister(handle)
    with pytest.raises(KeyError):
        uvm.allocation(handle)
