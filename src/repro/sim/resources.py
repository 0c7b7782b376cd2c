"""Shared-resource primitives for the simulation kernel.

:class:`Resource` models a fixed pool of interchangeable slots with a
FIFO wait queue (used for copy engines, launch-queue credits, CPU
worker threads...).  :class:`Store` is an unbounded FIFO of items with
blocking ``get`` (used for command channels between the driver and the
GPU command processor).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .engine import Event, SimulationError, Simulator


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`."""

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
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("release of a foreign request")
        if not request.triggered:
            # Only a granted slot can be released: without interrupts, a
            # process waiting on its request cannot give it up.
            raise SimulationError("release of a request not yet granted")
        if self._in_use <= 0:
            raise SimulationError("release without outstanding grant")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed()
        else:
            self._in_use -= 1


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
