"""Shared-resource primitives for the simulation kernel.

:class:`Resource` models a fixed pool of interchangeable slots with a
FIFO wait queue (used for copy engines, launch-queue credits, CPU
worker threads...).  :class:`Store` is an unbounded FIFO of items with
blocking ``get`` (used for command channels between the driver and the
GPU command processor).

``Resource.request()`` returns the resource's :class:`~.engine.Grant`
when a slot is free, and a :class:`Request` event only when the caller
has to queue.  Yield what it returns at once, on the next line: a
grant resumes the process like ``yield 0``, so the schedule is the
same as if a grant event had been succeeded at the request.  A grant
is not an event, so :class:`~.engine.AllOf` takes queued requests and
other events only.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Union

from .engine import Event, Grant, SimulationError, Simulator


class Request(Event):
    """A queued request: the event :meth:`Resource.request` builds when
    no slot is free.  It fires when :meth:`Resource.release` hands it a
    slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A pool of ``capacity`` slots with a FIFO queue of waiters.

    Usage from a process::

        req = engine_pool.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            engine_pool.release(req)

    ``in_use`` is a plain attribute for the gauges that sample it on
    every launch and copy; only :meth:`request` and :meth:`release`
    write it.
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "_grant")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Request] = deque()
        # Every slot granted at once shares this one token.
        self._grant = Grant(sim)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Union[Grant, Request]:
        if self.in_use < self.capacity:
            self.in_use += 1
            return self._grant
        req = Request(self)
        self._waiters.append(req)
        return req

    def release(self, token: Union[Grant, Request]) -> None:
        if token is not self._grant:
            if not isinstance(token, Request) or token.resource is not self:
                raise SimulationError("release of a foreign request")
            if not token.triggered:
                # Only a granted slot can be released: without
                # interrupts, a process waiting on its request cannot
                # give it up.
                raise SimulationError("release of a request not yet granted")
        if self.in_use <= 0:
            raise SimulationError("release without outstanding grant")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking get.

    ``put`` never blocks (the item is always accepted) and returns
    nothing; a putter that should run after the getter it woke yields
    ``0``.  ``get`` returns an event whose value is the item.
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
