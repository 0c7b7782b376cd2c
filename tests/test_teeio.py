"""Tests for the TEE-IO / TDX-Connect what-if transfer path."""

import dataclasses

import pytest

from repro import units
from repro.config import CopyKind, MemoryKind, SystemConfig
from repro.cuda import run_app
from repro.cuda.transfers import achieved_bandwidth_gbps, plan_copy
from repro.gpu import nanosleep_kernel


def _teeio_config():
    cc = SystemConfig.confidential()
    return cc.replace(tdx=dataclasses.replace(cc.tdx, teeio=True))


def _plan(config, memory=MemoryKind.PINNED, size=64 * units.MiB, cold=True):
    return plan_copy(config, CopyKind.H2D, size, memory, cold)


def test_teeio_skips_software_crypto_and_bounce():
    plan = _plan(_teeio_config())
    assert plan.cpu_ns == 0  # no staging/crypto for pinned memory
    assert plan.hypercalls == 0
    assert plan.managed_label is False


def test_teeio_bandwidth_near_native():
    base_bw = achieved_bandwidth_gbps(
        _plan(SystemConfig.base()), 64 * units.MiB
    )
    teeio_bw = achieved_bandwidth_gbps(_plan(_teeio_config()), 64 * units.MiB)
    cc_bw = achieved_bandwidth_gbps(
        _plan(SystemConfig.confidential(), cold=False), 64 * units.MiB
    )
    assert teeio_bw > 5 * cc_bw
    assert teeio_bw == pytest.approx(base_bw * 0.94, rel=0.02)


def test_teeio_pinned_faster_than_pageable_again():
    """TEE-IO restores native pinning (Observation 1 reversed)."""
    pinned = _plan(_teeio_config(), MemoryKind.PINNED).total_ns
    pageable = _plan(_teeio_config(), MemoryKind.PAGEABLE).total_ns
    assert pinned < 0.8 * pageable


def test_teeio_end_to_end_app():
    def copy_app(rt):
        dev = yield from rt.malloc(32 * units.MiB)
        host = yield from rt.malloc_host(32 * units.MiB)
        yield from rt.memcpy(dev, host)
        yield from rt.launch(nanosleep_kernel(units.us(50)))
        yield from rt.synchronize()

    cc_trace, _ = run_app(copy_app, SystemConfig.confidential())
    teeio_trace, _ = run_app(copy_app, _teeio_config())
    assert teeio_trace.span_ns() < cc_trace.span_ns()
    # KET unaffected either way.
    assert (
        teeio_trace.kernels()[0].duration_ns
        == cc_trace.kernels()[0].duration_ns
    )


def test_teeio_does_not_change_base_mode():
    base = SystemConfig.base()
    base_teeio = base.replace(tdx=dataclasses.replace(base.tdx, teeio=True))
    assert _plan(base).total_ns == _plan(
        base_teeio, cold=True
    ).total_ns  # teeio only matters when cc is on
