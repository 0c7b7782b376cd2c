"""Tests for the app catalogue and microbenchmarks."""

import pytest

from repro import units
from repro.config import CopyKind, SystemConfig
from repro.cuda import FatalCudaFault, Machine, run_app
from repro.faults import DMA, FaultPlan, SiteFaults
from repro.workloads import (
    CATALOG,
    FIG5_APPS,
    FIG7_APPS,
    FIG9_APPS,
    FIG10_APPS,
    WorkloadSpec,
    bandwidth_sweep,
    fusion_sweep,
    launch_sequence,
    overlap_experiment,
)
from repro.workloads.apps import get, names


def test_catalog_listing():
    assert "sc" in names()
    assert names("polybench") == sorted(
        n for n, info in CATALOG.items() if info.suite == "polybench"
    )
    with pytest.raises(KeyError):
        get("nonexistent")


def test_figure_subsets_are_known_apps():
    for subset in (FIG5_APPS, FIG7_APPS, FIG9_APPS, list(FIG10_APPS.values())):
        for name in subset:
            assert name in CATALOG


def test_paper_launch_counts():
    """Launch counts the paper states explicitly (Sec. VI-B)."""
    expectations = {"sc": 1611, "3dconv": 254, "dwt2d": 10}
    for name, expected in expectations.items():
        trace, _ = run_app(CATALOG[name].app(False), SystemConfig.base())
        assert len(trace.launches()) == expected, name


@pytest.mark.parametrize("uvm", [False, True])
def test_catalogue_launch_counts_are_static(uvm):
    """The counts the paper or the catalogue description states, read
    off the specs without simulating them."""
    expectations = {
        "sc": 1611, "3dconv": 254, "dwt2d": 10, "gaussian": 1024, "lud": 192,
    }
    for name, expected in expectations.items():
        assert CATALOG[name].spec(uvm).total_launches() == expected, name


def test_catalogue_specs_roundtrip_through_json():
    for name, info in CATALOG.items():
        for uvm in (False, True):
            spec = info.spec(uvm)
            clone = WorkloadSpec.from_json(spec.to_json())
            assert (clone.name, clone.ops) == (spec.name, spec.ops), name


def test_every_app_runs_in_both_modes():
    for name, info in CATALOG.items():
        for config in (SystemConfig.base(), SystemConfig.confidential()):
            trace, _ = run_app(info.app(False), config, label=name)
            assert len(trace.kernels()) > 0, name
            assert trace.span_ns() > 0, name


def test_uvm_variants_fault():
    for name in ("2dconv", "gramschm"):
        trace, _ = run_app(CATALOG[name].app(True), SystemConfig.base())
        assert any(k.attrs["uvm"] for k in trace.kernels()), name
        assert any(k.attrs["faulted_pages"] > 0 for k in trace.kernels()), name


def test_uvm_variant_has_no_explicit_copies():
    trace, _ = run_app(CATALOG["2mm"].app(True), SystemConfig.base())
    assert len(trace.memcpys()) == 0


def test_apps_leave_no_leaks():
    machine = Machine(SystemConfig.confidential())
    machine.run(CATALOG["2mm"].app(False))
    assert machine.gpu.hbm.used_bytes == 0
    assert machine.guest.memory.heap.used_bytes == 0


@pytest.mark.parametrize("uvm", [False, True], ids=["explicit", "uvm"])
@pytest.mark.parametrize("cc", [False, True], ids=["base", "cc"])
def test_catalogue_runs_leave_resources_at_rest(cc, uvm):
    # A leaked or double-released slot leaves a count off zero.
    config = SystemConfig.confidential(seed=42) if cc else SystemConfig.base(seed=42)
    for name, info in CATALOG.items():
        machine = Machine(config, label=name)
        machine.run(info.app(uvm))
        gpu = machine.gpu
        pools = {"launch_credits": gpu.launch_credits, "compute": gpu.compute}
        for kind in CopyKind:
            pools[f"copy_engine({kind.value})"] = gpu.copy_engine(kind)
        busy = {
            pool: (res.in_use, res.queue_length)
            for pool, res in pools.items()
            if res.in_use or res.queue_length
        }
        assert busy == {}, name


def test_apps_leave_no_leaks_after_a_fatal_fault():
    plan = FaultPlan(((DMA, SiteFaults(rate=1.0)),))
    machine = Machine(SystemConfig.base(seed=42).replace(faults=plan))
    with pytest.raises(FatalCudaFault):
        machine.run(CATALOG["2mm"].app(False))
    assert machine.gpu.hbm.used_bytes == 0
    assert machine.guest.memory.heap.used_bytes == 0


# --- microbenchmarks --------------------------------------------------------


def test_bandwidth_sweep_shape():
    points = bandwidth_sweep(sizes=[4096, units.MiB, 64 * units.MiB])
    # 2 modes x 2 memory kinds x 2 directions x 3 sizes
    assert len(points) == 24
    big = {
        (p.memory.value, p.cc): p.gbps
        for p in points
        if p.size_bytes == 64 * units.MiB and p.copy_kind is CopyKind.H2D
    }
    assert big[("pinned", False)] > 20
    assert big[("pageable", False)] > 10
    assert big[("pinned", True)] < 4
    assert abs(big[("pinned", True)] - big[("pageable", True)]) < 0.5


def test_launch_sequence_first_launches_spike():
    klos = launch_sequence(SystemConfig.base(), launches_per_kernel=20, ket_ns=units.us(100))
    assert len(klos) == 40
    # Launch 0 (K0 first) and launch 20 (K1 first) spike.
    steady = sorted(klos)[: len(klos) // 2]
    steady_mean = sum(steady) / len(steady)
    assert klos[0] > 5 * steady_mean
    assert klos[20] > 5 * steady_mean


def test_fusion_sweep_monotone_total_klo():
    points = fusion_sweep(SystemConfig.base(), launch_counts=(1, 8, 64), total_ket_ns=units.ms(10))
    total_klos = [p.total_klo_ns for p in points]
    # More launches -> more total launch overhead.
    assert total_klos[0] < total_klos[-1]
    # Mean KLO highest for the single fused launch (first-launch cost).
    assert points[0].mean_klo_ns > points[-1].mean_klo_ns


def test_overlap_speedup_with_streams():
    point = overlap_experiment(
        SystemConfig.base(),
        num_streams=8,
        total_bytes=64 * units.MiB,
        ket_ns=units.ms(5),
    )
    assert point.overlap_speedup > 1.5


def test_overlap_worse_under_cc():
    kwargs = dict(num_streams=8, total_bytes=256 * units.MiB, ket_ns=units.ms(1))
    base = overlap_experiment(SystemConfig.base(), **kwargs)
    cc = overlap_experiment(SystemConfig.confidential(), **kwargs)
    assert cc.overlap_speedup < base.overlap_speedup


def test_overlap_improves_with_longer_kernels_under_cc():
    short = overlap_experiment(
        SystemConfig.confidential(),
        num_streams=8,
        total_bytes=128 * units.MiB,
        ket_ns=units.ms(1),
    )
    long = overlap_experiment(
        SystemConfig.confidential(),
        num_streams=8,
        total_bytes=128 * units.MiB,
        ket_ns=units.ms(100),
    )
    assert long.overlap_speedup > short.overlap_speedup
