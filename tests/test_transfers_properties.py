"""Property-based tests on the transfer cost model: orderings the
mechanisms must preserve for every size and memory kind."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import CopyKind, MemoryKind, SystemConfig
from repro.cuda.transfers import plan_copy

BASE = SystemConfig.base()
CC = SystemConfig.confidential()
TEEIO = CC.replace(tdx=dataclasses.replace(CC.tdx, teeio=True))


def _plan(config, kind, size, memory, cold=True):
    return plan_copy(config, kind, size, memory, cold)


sizes = st.integers(min_value=1, max_value=2 * units.GiB)
kinds = st.sampled_from([CopyKind.H2D, CopyKind.D2H])
memories = st.sampled_from([MemoryKind.PAGEABLE, MemoryKind.PINNED])


@settings(max_examples=80, deadline=None)
@given(size=sizes, kind=kinds, memory=memories)
def test_cc_never_faster_than_base(size, kind, memory):
    base = _plan(BASE, kind, size, memory).total_ns
    cc = _plan(CC, kind, size, memory).total_ns
    assert cc >= base


@settings(max_examples=80, deadline=None)
@given(size=sizes, kind=kinds, memory=memories)
def test_cold_never_faster_than_warm(size, kind, memory):
    cold = _plan(CC, kind, size, memory, cold=True).total_ns
    warm = _plan(CC, kind, size, memory, cold=False).total_ns
    assert cold >= warm


@settings(max_examples=60, deadline=None)
@given(
    small=st.integers(min_value=1, max_value=units.GiB),
    delta=st.integers(min_value=1, max_value=units.GiB),
    kind=kinds,
    memory=memories,
)
def test_monotone_in_size(small, delta, kind, memory):
    for config in (BASE, CC, TEEIO):
        t_small = _plan(config, kind, small, memory, cold=False).total_ns
        t_large = _plan(config, kind, small + delta, memory, cold=False).total_ns
        assert t_large >= t_small


@settings(max_examples=60, deadline=None)
@given(size=sizes, kind=kinds, memory=memories)
def test_teeio_between_base_and_cc(size, kind, memory):
    base = _plan(BASE, kind, size, memory).total_ns
    teeio = _plan(TEEIO, kind, size, memory).total_ns
    cc = _plan(CC, kind, size, memory).total_ns
    assert base <= teeio <= cc


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=4096, max_value=2 * units.GiB))
def test_base_pinned_never_slower_than_pageable(size):
    pinned = _plan(BASE, CopyKind.H2D, size, MemoryKind.PINNED).total_ns
    pageable = _plan(BASE, CopyKind.H2D, size, MemoryKind.PAGEABLE).total_ns
    assert pinned <= pageable


@settings(max_examples=40, deadline=None)
@given(size=sizes, kind=kinds, memory=memories)
def test_plan_parts_consistent(size, kind, memory):
    plan = _plan(CC, kind, size, memory)
    assert plan.total_ns >= plan.setup_ns
    assert plan.total_ns >= plan.dma_ns
    assert plan.cpu_ns >= 0 and plan.hypercalls >= 0


@settings(max_examples=40, deadline=None)
@given(size=sizes)
def test_d2d_mode_independent(size):
    base = plan_copy(BASE, CopyKind.D2D, size, MemoryKind.DEVICE)
    cc = plan_copy(CC, CopyKind.D2D, size, MemoryKind.DEVICE)
    assert base.total_ns == cc.total_ns


@settings(max_examples=120, deadline=None)
@given(
    config=st.sampled_from([BASE, CC, TEEIO]),
    kind=st.sampled_from(list(CopyKind)),
    memory=st.sampled_from(list(MemoryKind)),
    size=st.integers(min_value=0, max_value=2 * units.GiB),
    cold=st.booleans(),
    start=st.integers(min_value=0, max_value=1 << 62),
)
def test_attribution_shifts_with_start(config, kind, memory, size, cold, start):
    # A runtime lays a copy's stage rows out once, at 0, and records
    # them at each copy's start: that is exact only if a later start
    # shifts every row and changes nothing else.
    plan = _plan(config, kind, size, memory, cold)
    at_zero = plan.attribution(0, config.cc_on)
    assert plan.attribution(start, config.cc_on) == [
        (name, layer, offset + start, duration, attrs)
        for name, layer, offset, duration, attrs in at_zero
    ]
