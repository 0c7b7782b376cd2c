"""Tests for the TDX guest-context cost model and its page-conversion
and hypercall bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.cuda import Machine
from repro.gpu import nanosleep_kernel
from repro.sim import Simulator
from repro.tdx import GuestContext
from repro.workloads import CATALOG


def run(gen, sim):
    return sim.run(until=sim.process(gen))


def _count(trace, name):
    """A counter's value, read without registering the counter."""
    return trace.metrics.counter(name).value if name in trace.metrics else 0


# --- hypercall costs ---------------------------------------------------


def test_td_hypercall_costs_5_7x_vm_exit():
    # Calibrated to the paper's +470 % figure.
    base = SystemConfig.base()
    cc = SystemConfig.confidential()
    ratio = cc.hypercall_ns() / base.hypercall_ns()
    assert ratio == pytest.approx(5.7, rel=0.02)


def test_hypercall_advances_time_and_counts():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.confidential())
    run(guest.hypercall("test"), sim)
    assert sim.now == SystemConfig.confidential().tdx.td_hypercall_ns
    # A guest built without a trace records into its own, on its clock.
    assert _count(guest.trace, "tdx.hypercalls") == 1
    (call,) = guest.trace.spans.roots()
    assert (call.name, call.layer) == ("test", "tdx_module")
    assert (call.start_ns, call.duration_ns) == (0, sim.now)


def test_cpu_work_td_tax():
    base_sim, cc_sim = Simulator(), Simulator()
    base = GuestContext(base_sim, SystemConfig.base())
    cc = GuestContext(cc_sim, SystemConfig.confidential())

    def work(guest):
        yield guest.cpu_ns(units.us(100))

    run(work(base), base_sim)
    run(work(cc), cc_sim)
    assert cc_sim.now == pytest.approx(base_sim.now * 1.04, rel=0.01)
    # Whole nanoseconds, so a process can yield the result as a delay.
    assert type(cc.cpu_ns(units.us(100.5))) is int
    assert base.cpu_ns(2.9) == 2


def test_set_memory_decrypted_timed_and_tracked():
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    addr = guest.memory.alloc(8 * config.tdx.page_size)
    run(guest.set_memory_decrypted(addr, 8 * config.tdx.page_size), sim)
    assert sim.now == 8 * config.tdx.page_convert_ns
    assert _count(guest.trace, "tdx.pages_converted") == 8
    # Second call: already shared, free.
    before = sim.now
    run(guest.set_memory_decrypted(addr, 8 * config.tdx.page_size), sim)
    assert sim.now == before


def _first_launch(config):
    """Boot a machine and run one first launch of a 16-page module."""
    machine = Machine(config)
    kernel = nanosleep_kernel(units.us(10))
    kernel.attrs["module_pages"] = 16

    def app(rt):
        yield from rt.launch(kernel)

    machine.run(app)
    return machine


def test_first_launch_converts_module_pages_and_costs_more_under_cc():
    base = _first_launch(SystemConfig.base())
    cc = _first_launch(SystemConfig.confidential())
    assert _count(base.trace, "tdx.pages_converted") == 0
    assert _count(cc.trace, "tdx.pages_converted") == 16
    assert cc.elapsed_ns > base.elapsed_ns + 16 * cc.config.tdx.page_convert_ns
    (convert,) = [s for s in cc.trace.spans if s.name == "set_memory_decrypted"]
    assert convert.layer == "td"
    assert convert.attrs["pages"] == 16
    assert convert.duration_ns == 16 * cc.config.tdx.page_convert_ns


@pytest.mark.parametrize("app", ["backprop", "cnn", "dwt2d", "3mm"])
@pytest.mark.parametrize("uvm", [False, True])
@pytest.mark.parametrize("cc", [False, True])
def test_page_conversion_and_hypercall_bookkeeping_agree(app, uvm, cc):
    # Spans and the metrics registry book every page conversion once;
    # every guest hypercall span is counted (copy plans count theirs
    # without a span each).
    machine = Machine(SystemConfig.confidential() if cc else SystemConfig.base())
    machine.run(CATALOG[app].app(uvm))
    trace = machine.trace
    span_pages = sum(
        s.attrs["pages"] for s in trace.spans if s.name == "set_memory_decrypted"
    )
    pages = _count(trace, "tdx.pages_converted")
    assert span_pages == pages
    assert (pages > 0) == cc
    hypercall_spans = [
        s for s in trace.spans
        if s.layer in ("tdx_module", "hypervisor")
        and s.name != "tdx_module.__seamcall"
    ]
    hypercalls = _count(trace, "tdx.hypercalls")
    assert (hypercalls > 0) == cc
    assert len(hypercall_spans) <= hypercalls


def test_encrypt_noop_in_base_mode():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.base())
    run(guest.encrypt(units.MiB), sim)
    assert sim.now == 0


def test_encrypt_matches_throughput_model_under_cc():
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    run(guest.encrypt(units.MiB), sim)
    # 1 MiB at 3.36 GB/s is ~312 us.
    assert sim.now == pytest.approx(units.us(312), rel=0.05)


def test_jitter_seeded_and_bounded():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.base())
    values = [guest.jitter(units.us(10), 0.14) for _ in range(200)]
    assert all(v > 0 for v in values)
    mean = sum(values) / len(values)
    assert units.us(8) < mean < units.us(13)
    # Deterministic across same-seed contexts.
    guest2 = GuestContext(Simulator(), SystemConfig.base())
    assert [guest2.jitter(units.us(10), 0.14) for _ in range(5)] == values[:5]


_jitter_call = st.tuples(
    st.integers(min_value=-3, max_value=10**9),
    st.one_of(
        st.sampled_from([0.0, -0.1, 0.05, 0.14]),
        st.floats(min_value=1e-6, max_value=3.0),
    ),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       calls=st.lists(_jitter_call, max_size=600))
def test_jitter_is_per_call_lognormal(seed, calls):
    """Jitter is one ``lognormal(0, sigma)`` per call on a stream seeded
    with the config's seed, over long runs of mixed sigmas;
    ``sigma <= 0`` or ``base <= 0`` returns ``base`` and consumes no
    draw, so later jitter values do not shift."""
    guest = GuestContext(Simulator(), SystemConfig.base(seed=seed))
    reference = np.random.default_rng(seed)
    for base, sigma in calls:
        if sigma <= 0 or base <= 0:
            expected = base
        else:
            factor = float(reference.lognormal(mean=0.0, sigma=sigma))
            expected = max(1, int(base * factor))
        assert guest.jitter(base, sigma) == expected
