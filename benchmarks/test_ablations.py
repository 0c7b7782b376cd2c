"""Ablations of the simulator's design choices (DESIGN.md Sec. 5).

Each ablation flips one mechanism and checks the direction of the
effect, substantiating that the modeled mechanism — not a tuned
constant — produces the paper-shaped result.
"""

import dataclasses

from repro import units
from repro.config import CopyKind, MemoryKind, SystemConfig
from repro.core import kernel_metrics, launch_metrics
from repro.cuda import run_app
from repro.cuda.transfers import achieved_bandwidth_gbps, plan_copy
from repro.workloads import CATALOG


def _cc_bandwidth(config, size=256 * units.MiB):
    plan = plan_copy(config, CopyKind.H2D, size, MemoryKind.PINNED, cold=False)
    return achieved_bandwidth_gbps(plan, size)


def test_ablation_crypto_algorithm_sets_transfer_ceiling(benchmark):
    """Swapping AES-GCM for faster (weaker) ciphers raises CC bandwidth."""

    def run():
        out = {}
        for cipher in ("aes-128-gcm", "aes-128-ctr", "ghash"):
            config = SystemConfig.confidential()
            config = config.replace(
                tdx=dataclasses.replace(config.tdx, transfer_cipher=cipher)
            )
            out[cipher] = _cc_bandwidth(config)
        return out

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nCC H2D bandwidth by cipher: {bw}")
    assert bw["aes-128-gcm"] < bw["aes-128-ctr"] < bw["ghash"]


def test_ablation_crypto_threads_scale_bandwidth(benchmark):
    """Multi-threaded encryption (the PipeLLM-style optimization the
    paper discusses in Sec. VIII) lifts the CC transfer ceiling."""

    def run():
        out = {}
        for threads in (1, 2, 4):
            config = SystemConfig.confidential()
            config = config.replace(
                tdx=dataclasses.replace(config.tdx, crypto_threads=threads)
            )
            out[threads] = _cc_bandwidth(config)
        return out

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nCC H2D bandwidth by crypto threads: {bw}")
    assert bw[1] < bw[2] < bw[4]


def test_ablation_staging_chunk_size(benchmark):
    """Bigger staging chunks amortize bounce bookkeeping."""

    def run():
        out = {}
        for chunk in (256 * units.KiB, units.MiB, 4 * units.MiB):
            config = SystemConfig.confidential()
            config = config.replace(
                pcie=dataclasses.replace(config.pcie, staging_chunk_bytes=chunk)
            )
            out[chunk] = _cc_bandwidth(config)
        return out

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nCC H2D bandwidth by staging chunk: {bw}")
    values = [bw[k] for k in sorted(bw)]
    assert values[0] < values[-1]


def test_ablation_hypercall_cost_drives_klo(benchmark):
    """Halving tdx_hypercall cost shrinks the CC KLO/KQT penalty."""

    def run():
        def klo_ratio(cc_config):
            info = CATALOG["dwt2d"]
            tb, _ = run_app(info.app(False), SystemConfig.base())
            tc, _ = run_app(info.app(False), cc_config)
            return (
                launch_metrics(tc).klo_stats().mean
                / launch_metrics(tb).klo_stats().mean
            )

        normal = SystemConfig.confidential()
        cheap_tdx = normal.replace(
            tdx=dataclasses.replace(
                normal.tdx,
                td_hypercall_ns=normal.tdx.hypercall_ns,
                page_convert_ns=normal.tdx.page_convert_ns // 4,
            )
        )
        return klo_ratio(normal), klo_ratio(cheap_tdx)

    normal, cheap = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ndwt2d KLO ratio: normal TDX {normal:.2f}x, cheap TDX {cheap:.2f}x")
    assert cheap < normal


def test_ablation_launch_queue_depth_drives_lqt(benchmark):
    """A shallower launch queue starts LQT backpressure earlier in a
    launch storm: with kernels slower than the issue rate, every launch
    past the credit limit waits for a completion, so total LQT falls as
    the queue deepens."""
    from repro.workloads.microbench import fusion_sweep_app

    launches = 300
    ket_total = launches * units.us(12)  # 12 us kernels > issue rate

    def run():
        out = {}
        for depth in (8, 64, 1024):
            config = SystemConfig.confidential()
            config = config.replace(
                launch=dataclasses.replace(config.launch, launch_queue_depth=depth)
            )
            trace, _ = run_app(
                fusion_sweep_app, config,
                num_launches=launches, total_ket_ns=ket_total,
            )
            out[depth] = launch_metrics(trace).total_lqt_ns
        return out

    lqt = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nlaunch-storm total LQT by queue depth: {lqt}")
    assert lqt[8] > lqt[64] > lqt[1024]


def test_ablation_uvm_prefetch_and_chunk(benchmark):
    """Disabling prefetch slows base UVM; enlarging the CC migration
    chunk recovers encrypted-paging throughput."""

    def run():
        def uvm_ket(config, uvm_overrides):
            config = config.replace(
                uvm=dataclasses.replace(config.uvm, **uvm_overrides)
            )
            trace, _ = run_app(CATALOG["2dconv"].app(True), config)
            return kernel_metrics(trace).ket_stats().mean

        base_pref = uvm_ket(SystemConfig.base(), {})
        base_nopref = uvm_ket(SystemConfig.base(), {"prefetch_enabled": False})
        cc_small = uvm_ket(SystemConfig.confidential(), {})
        cc_big = uvm_ket(
            SystemConfig.confidential(),
            {"cc_migration_chunk_bytes": 2 * units.MiB},
        )
        return base_pref, base_nopref, cc_small, cc_big

    base_pref, base_nopref, cc_small, cc_big = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\n2dconv UVM KET (us): base prefetch={units.to_us(base_pref):.0f} "
        f"no-prefetch={units.to_us(base_nopref):.0f} "
        f"cc 32KiB-chunk={units.to_us(cc_small):.0f} cc 2MiB-chunk={units.to_us(cc_big):.0f}"
    )
    assert base_nopref > base_pref
    assert cc_big < cc_small
