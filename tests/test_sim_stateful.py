"""Hypothesis stateful tests for the simulation kernel's shared
resources: under any interleaving of operations, Resource and Store
bookkeeping must stay conserved and FIFO-fair."""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store


class ResourceMachine(RuleBasedStateMachine):
    """Drives a Resource with acquire/hold/release processes."""

    @initialize(capacity=st.integers(min_value=1, max_value=4))
    def setup(self, capacity):
        self.sim = Simulator()
        self.capacity = capacity
        self.resource = Resource(self.sim, capacity=capacity)
        self.grant_order = []
        self.request_order = []
        self.next_id = 0

    @rule(hold=st.integers(min_value=1, max_value=20))
    def spawn_user(self, hold):
        user_id = self.next_id
        self.next_id += 1
        self.request_order.append(user_id)

        def user():
            request = self.resource.request()
            yield request
            self.grant_order.append(user_id)
            yield self.sim.timeout(hold)
            self.resource.release(request)

        self.sim.process(user())

    @rule(steps=st.integers(min_value=1, max_value=10))
    def advance(self, steps):
        for _ in range(steps):
            if self.sim.peek() is None:
                break
            self.sim.step()

    @invariant()
    def capacity_respected(self):
        assert 0 <= self.resource.in_use <= self.capacity

    @invariant()
    def grants_are_fifo(self):
        # Grants happen in request order (FIFO queue discipline).
        assert self.grant_order == self.request_order[: len(self.grant_order)]

    def teardown(self):
        self.sim.run()
        assert self.resource.in_use == 0
        assert self.resource.queue_length == 0
        assert self.grant_order == self.request_order


class StoreMachine(RuleBasedStateMachine):
    """Drives an unbounded Store with producers and consumers."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        self.store = Store(self.sim)
        self.produced = []
        self.consumed = []
        self.consumers = 0

    @rule()
    def produce(self):
        item = len(self.produced)
        self.produced.append(item)

        def producer():
            self.store.put(item)
            yield 0

        self.sim.process(producer())

    @rule()
    def consume(self):
        self.consumers += 1

        def consumer():
            value = yield self.store.get()
            self.consumed.append(value)

        self.sim.process(consumer())

    @rule(steps=st.integers(min_value=1, max_value=8))
    def advance(self, steps):
        for _ in range(steps):
            if self.sim.peek() is None:
                break
            self.sim.step()

    @invariant()
    def fifo_order(self):
        # Items come out in the order they were produced.
        assert self.consumed == self.produced[: len(self.consumed)]

    @invariant()
    def conserved(self):
        # Every item put is either taken or still held, never both.
        taken = len(self.consumed)
        assert len(self.store) <= len(self.produced) - taken

    def teardown(self):
        self.sim.run()
        # Every producer and consumer that could pair up did, in order;
        # the rest wait in the store (items) or on it (getters).
        matched = min(len(self.produced), self.consumers)
        assert self.consumed == self.produced[:matched]
        assert len(self.store) == len(self.produced) - matched


TestResourceStateful = ResourceMachine.TestCase
TestResourceStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestStoreStateful = StoreMachine.TestCase
TestStoreStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
