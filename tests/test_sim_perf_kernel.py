"""Regression and equivalence tests for the optimized event kernel.

The scheduler rewrite (calendar queue over per-timestamp buckets,
``__slots__`` event objects, inlined drain loops) is only acceptable if
it is *observably identical* to the reference (time, seq) heap it
replaced.  These tests pin that contract from three directions:

* API regressions the rewrite fixed: negative-delay ``succeed``/
  ``fail`` must raise before mutating the event.
* A Hypothesis property: for arbitrary schedules — including
  same-timestamp storms and events that schedule more events when they
  fire — the bucketed queue drains in exactly the order a (time, seq)
  min-heap would.
* A Hypothesis differential: processes sleeping with a bare
  ``yield <int>`` resume at the same times, in the same order and with
  the same event count as the same processes yielding timeouts.
* A Hypothesis differential of the grant path: a free slot handed out
  as the resource's grant token schedules exactly what a reference
  resource that builds and succeeds a ``Request`` event per grant
  does, and a kernel that skipped the grant's queue hop would not.
* Pinned verdict digests for a storm-heavy serving scenario: the
  end-to-end byte-identity gate in miniature.
"""

import hashlib
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import resolve_system_configs
from repro.serve import ScenarioSpec, run_scenario, verdict_json
from repro.sim import Grant, Request, Resource, SimulationError, Simulator, Store

# ---------------------------------------------------------------------------
# Negative-delay validation (succeed/fail must reject before mutating)


def test_succeed_negative_delay_raises_before_mutation():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        event.succeed("value", delay=-1)
    # The rejected call must not have half-triggered the event: it is
    # still pending and still usable.
    assert not event.triggered
    event.succeed("value", delay=2)
    sim.run()
    assert event.processed and event.ok and event.value == "value"
    assert sim.now == 2


def test_fail_negative_delay_raises_before_mutation():
    sim = Simulator()
    event = sim.event()
    boom = RuntimeError("boom")
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        event.fail(boom, delay=-3)
    assert not event.triggered
    # Still pending: the opposite resolution is legal too.
    event.succeed("recovered")
    sim.run()
    assert event.processed and event.ok and event.value == "recovered"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative timeout delay"):
        sim.timeout(-1)


# ---------------------------------------------------------------------------
# Property: bucketed calendar queue == reference (time, seq) heap

# Each entry is (delay, children): a root event scheduled at t=delay
# that, when it fires, schedules one child per listed delay.  Small
# delay ranges force same-timestamp collisions (the storm case the
# bucketed queue exists for).
_SCHEDULES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    ),
    max_size=12,
)


def _reference_order(schedule):
    """Drain the schedule through a classic (time, seq) min-heap."""
    order = []
    heap = []
    seq = 0
    for index, (delay, children) in enumerate(schedule):
        heapq.heappush(heap, (delay, seq, f"r{index}", children))
        seq += 1
    while heap:
        now, _, label, children = heapq.heappop(heap)
        order.append((now, label))
        for child_index, child_delay in enumerate(children):
            heapq.heappush(
                heap, (now + child_delay, seq, f"{label}.c{child_index}", ())
            )
            seq += 1
    return order


@settings(max_examples=200, deadline=None)
@given(schedule=_SCHEDULES)
def test_bucketed_queue_matches_reference_heap_order(schedule):
    expected = _reference_order(schedule)

    sim = Simulator()
    order = []

    def fire(label, children):
        def callback(_event):
            order.append((sim.now, label))
            for child_index, child_delay in enumerate(children):
                sim.timeout(child_delay).add_callback(
                    fire(f"{label}.c{child_index}", ())
                )

        return callback

    for index, (delay, children) in enumerate(schedule):
        sim.timeout(delay).add_callback(fire(f"r{index}", children))
    sim.run()
    assert order == expected


# ---------------------------------------------------------------------------
# Property: a bare ``yield <int>`` is a timeout without the event object

# One process is a list of steps: sleep, hold the shared resource for a
# while, put an item in the shared store, or take one out.  Small delays
# force same-timestamp collisions between the processes.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("hold"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("put"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("get"), st.just(0)),
    ),
    max_size=8,
)


class _EventResource(Resource):
    """Reference grant path: every request builds a ``Request`` event,
    succeeded at once when a slot is free."""

    __slots__ = ()

    def request(self):
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed()
        else:
            self._waiters.append(req)
        return req


def _run_processes(programs, bare=True, capacity=1, resource=Resource,
                   inline_grants=False):
    """Run ``programs`` sleeping with ``yield d`` (``bare``) or with
    ``yield sim.timeout(d)``; return the resume log and the event count.

    ``inline_grants`` is a mutant of the grant path: a process granted a
    free slot goes on at once instead of yielding its grant."""
    sim = Simulator()
    slots = resource(sim, capacity=capacity)
    store = Store(sim)
    log = []

    def sleep(d):
        return d if bare else sim.timeout(d)

    def proc(index, steps):
        for step, (op, arg) in enumerate(steps):
            label = f"p{index}.{step}"
            if op == "sleep":
                yield sleep(arg)
            elif op == "hold":
                req = slots.request()
                if not (inline_grants and isinstance(req, Grant)):
                    yield req
                log.append((sim.now, label + ".granted"))
                yield sleep(arg)
                slots.release(req)
            elif op == "put":
                store.put(arg)
                yield sleep(0)
            else:
                item = yield store.get()
                label += f".got{item}"
            log.append((sim.now, label))

    for index, steps in enumerate(programs):
        sim.process(proc(index, steps))
    sim.run()
    assert slots.in_use == 0 and slots.queue_length == 0
    return log, sim.scheduled


@settings(max_examples=200, deadline=None)
@given(programs=st.lists(_STEPS, min_size=1, max_size=4))
def test_bare_delay_matches_timeout(programs):
    assert _run_processes(programs, bare=True) == _run_processes(
        programs, bare=False
    )


@settings(max_examples=200, deadline=None)
@given(
    programs=st.lists(_STEPS, min_size=1, max_size=4),
    capacity=st.integers(min_value=1, max_value=3),
)
def test_grant_token_matches_grant_event(programs, capacity):
    assert _run_processes(programs, capacity=capacity) == _run_processes(
        programs, capacity=capacity, resource=_EventResource
    )


def test_inline_grant_mutant_is_caught():
    # p0's grant must resume it after p1, which was already due at t=0:
    # going on inline puts p0's steps first and skips one event.
    programs = [[("hold", 0)], [("sleep", 0)]]
    reference = _run_processes(programs, resource=_EventResource)
    mutant = _run_processes(programs, inline_grants=True)
    assert mutant[1] == reference[1] - 1
    assert mutant[0] != reference[0]


def test_grant_yielded_in_another_simulator_raises():
    home, other = Simulator(), Simulator()
    res = Resource(home)
    caught = []

    def proc():
        try:
            yield res.request()
        except SimulationError as exc:
            caught.append(str(exc))

    other.run(other.process(proc()))
    assert caught == ["process yielded grant from another simulator"]


def test_release_of_another_resources_grant_is_foreign():
    sim = Simulator()
    first, second = Resource(sim), Resource(sim)
    grant = first.request()
    with pytest.raises(SimulationError, match="foreign"):
        second.release(grant)
    assert first.in_use == 1 and second.in_use == 0


def test_release_past_zero_raises():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grant = res.request()
    res.release(grant)
    with pytest.raises(SimulationError, match="without outstanding grant"):
        res.release(grant)
    assert res.in_use == 0


def test_queued_request_released_twice_raises():
    sim = Simulator()
    res = Resource(sim)
    holder = res.request()
    queued = res.request()
    other = res.request()
    assert isinstance(queued, Request)
    res.release(holder)  # hands the slot to ``queued``
    sim.run()
    res.release(queued)  # hands it on to ``other``
    with pytest.raises(SimulationError, match="released twice"):
        res.release(queued)
    # The second release took nothing: ``other`` still holds the slot.
    assert res.in_use == 1
    res.release(other)
    assert res.in_use == 0


# ---------------------------------------------------------------------------
# End-to-end byte-identity: storm-heavy serving verdicts are pinned

#: SHA-256 of ``verdict_json`` for the pinned storm scenario below.
#: These digests predate the scheduler rewrite — any kernel change that
#: shifts event ordering, RNG draw order, or float accumulation breaks
#: them.  Do NOT update without a golden-gate review.
_STORM_DIGESTS = {
    False: "4a4e4c98db635536812815c8ef9cb6a6586b665d093e6cf7d96e938898aca0b0",
    True: "e62a8c551806cc070f69dea20f5667c6d6a16a6cd21e54df2a736b4e3d228cdb",
}


@pytest.mark.parametrize("cc", [False, True], ids=["base", "cc"])
def test_storm_serving_verdict_digest_pinned(cc):
    spec = ScenarioSpec(
        rate_rps=48.0,
        duration_ns=500_000_000,
        tenants=4,
        policy="fcfs",
        seed=11,
    )
    config = resolve_system_configs(cc=cc)
    _, result = run_scenario(spec, config)
    digest = hashlib.sha256(verdict_json(result).encode()).hexdigest()
    assert digest == _STORM_DIGESTS[cc]
