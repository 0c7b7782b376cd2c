"""Unit tests for the discrete-event simulation kernel."""

import numpy
import pytest

from repro.sim import (
    AllOf,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10)
        log.append(sim.now)
        yield sim.timeout(5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [10, 15]


def test_timeout_value_passthrough():
    sim = Simulator()
    result = []

    def proc():
        value = yield sim.timeout(3, value="payload")
        result.append(value)

    sim.process(proc())
    sim.run()
    assert result == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(7)
        order.append(name)

    for name in "abcde":
        sim.process(proc(name))
    sim.run()
    assert order == list("abcde")


def test_process_return_value_via_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    p = sim.process(proc())
    assert sim.run(until=p) == 42


def test_process_waits_on_subprocess():
    sim = Simulator()
    trace = []

    def child():
        yield sim.timeout(20)
        trace.append(("child-done", sim.now))
        return "child-value"

    def parent():
        value = yield sim.process(child())
        trace.append(("parent-resumed", sim.now, value))

    sim.process(parent())
    sim.run()
    assert trace == [("child-done", 20), ("parent-resumed", 20, "child-value")]


def test_process_exception_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError):
            yield sim.process(child())
        return "handled"

    p = sim.process(parent())
    assert sim.run(until=p) == "handled"


def test_unhandled_process_exception_surfaces_at_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run(until=p)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(worker(d, v)) for d, v in [(30, "a"), (10, "b")]]
        values = yield AllOf(sim, procs)
        return values, sim.now

    p = sim.process(parent())
    values, when = sim.run(until=p)
    assert values == ["a", "b"]
    assert when == 30


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def user(name, hold):
        req = res.request()
        yield req
        start = sim.now
        yield sim.timeout(hold)
        res.release(req)
        spans.append((name, start, sim.now))

    sim.process(user("a", 10))
    sim.process(user("b", 5))
    sim.run()
    assert spans == [("a", 0, 10), ("b", 10, 15)]


def test_resource_capacity_two_runs_pair_concurrently():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = {}

    def user(name):
        req = res.request()
        yield req
        starts[name] = sim.now
        yield sim.timeout(10)
        res.release(req)

    for name in ("a", "b", "c"):
        sim.process(user(name))
    sim.run()
    assert starts["a"] == 0
    assert starts["b"] == 0
    assert starts["c"] == 10


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(name):
        req = res.request()
        yield req
        order.append(name)
        yield sim.timeout(1)
        res.release(req)

    for name in "abcd":
        sim.process(user(name))
    sim.run()
    assert order == list("abcd")


def test_release_of_ungranted_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    waiting = res.request()
    with pytest.raises(SimulationError, match="not yet granted"):
        res.release(waiting)
    # The rejected call left the queue intact: the waiter gets the slot.
    res.release(held)
    sim.run()
    assert waiting.processed and waiting.ok
    assert res.in_use == 1 and res.queue_length == 0


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in (1, 2, 3):
            store.put(item)
            yield 0
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [item for _, item in got] == [1, 2, 3]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(25)
        store.put("late")
        yield 0

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(25, "late")]


def test_yielding_non_event_raises():
    # Only an exact ``int`` is a delay: a bool, a float or a numpy
    # integer is still a misuse, thrown into the process.
    for target in ("soon", 1.5, True, numpy.int64(3)):
        sim = Simulator()

        def proc():
            yield target

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="yielded non-event"):
            sim.run(until=p)


def test_yielding_int_sleeps_like_a_timeout():
    sim = Simulator()
    log = []

    def proc():
        value = yield 7
        log.append((sim.now, value))
        yield 0
        log.append((sim.now, "again"))

    sim.run(until=sim.process(proc()))
    assert log == [(7, None), (7, "again")]
    # Bootstrap, one wake per delay and the process's completion: the
    # count two timeouts would give.
    assert sim.scheduled == 4


def test_yielding_negative_delay_raises():
    sim = Simulator()

    def proc():
        yield -1

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run(until=p)
    assert sim.now == 0


def test_process_that_catches_misuse_keeps_waiting():
    sim = Simulator()

    def proc():
        try:
            yield "soon"
        except SimulationError:
            pass
        yield sim.timeout(5)
        yield 3
        return sim.now

    assert sim.run(until=sim.process(proc())) == 8


def test_process_that_catches_misuse_can_return():
    sim = Simulator()

    def proc():
        try:
            yield -4
        except SimulationError:
            return "recovered"

    p = sim.process(proc())
    assert sim.run(until=p) == "recovered"
    assert p.ok


def test_process_that_reraises_misuse_fails():
    sim = Simulator()

    def proc():
        try:
            yield 2.5
        except SimulationError as exc:
            raise ValueError("gave up") from exc

    p = sim.process(proc())
    with pytest.raises(ValueError, match="gave up"):
        sim.run(until=p)
    assert not p.ok
