"""Minimal deterministic discrete-event simulation engine.

The engine is a small generator-coroutine kernel in the style of SimPy:
processes are Python generators that ``yield`` what they wait for and
are resumed when it happens.  A process may yield:

* an ``int`` number of nanoseconds to sleep (``yield 250``).  This is
  the cheap form of ``yield sim.timeout(250)``: same resume time, same
  place in the event order, but no event object is built.  A negative
  delay raises :class:`SimulationError` into the process;
* any :class:`Event` of the same simulator (a :class:`Timeout`, another
  :class:`Process`, a resource grant, an :class:`AllOf`).  The process
  is resumed with its value, or the event's exception is thrown in.

Anything else (a ``bool``, a ``float``, a numpy integer, an event of
another simulator) raises :class:`SimulationError` into the process,
which may catch it and go on.

Design constraints driving this implementation:

* **Determinism.** Events scheduled for the same timestamp fire in
  scheduling order.  Time is integer nanoseconds (see
  :mod:`repro.units`).
* **No external dependencies.** The engine is self-contained so that
  the rest of the simulator is portable and easily testable.
* **Throughput.** The workloads this kernel drives (decode-step storms
  in :mod:`repro.serve`, launch trains in Fig. 7) are dominated by
  homogeneous event storms: thousands of events landing on a handful
  of distinct timestamps.  The scheduler is therefore a *calendar
  queue*: a heap of distinct timestamps indexing per-timestamp FIFO
  buckets.  Scheduling into an existing timestamp is a plain list
  append (no heap operation, no tuple allocation), and draining a
  same-timestamp storm is a linear walk of one bucket.  Because
  delays are validated non-negative, no bucket earlier than the one
  being drained can ever appear, so bucket order + append order
  reproduces exactly the ``(time, seq)`` order of a conventional
  event heap — the determinism contract is structural, not tie-broken.

Every event class declares ``__slots__`` and callbacks are stored in a
single inline slot (``_cb1``) with a rarely-used overflow list
(``_cbs``): the common case — a bare timeout with one waiting process,
or none at all — allocates no callback list, and the drain loops call
that one callback inline.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

# Bound locally: the drain loops below run once per event, so even the
# module-attribute lookup on heapq is worth shaving.
_heappush = heapq.heappush
_heappop = heapq.heappop

# Event states (ints compare faster than strings; the names are for
# ``repr`` only).
_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2

_STATE_NAMES = {_PENDING: "pending", _TRIGGERED: "triggered",
                _PROCESSED: "processed"}


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` is called, and then invokes its callbacks exactly
    once when the scheduler processes it.
    """

    __slots__ = ("sim", "_value", "_ok", "_state", "_cb1", "_cbs")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._ok = True
        self._state = _PENDING
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Mark the event successful, scheduling callbacks after ``delay``.

        ``delay`` must be non-negative: validation happens *before* the
        event state changes, so a rejected call leaves the event
        pending and usable (it can still be succeeded or failed).
        """
        if delay < 0:
            raise SimulationError(
                f"succeed() delay must be >= 0, got {delay} "
                "(cannot schedule callbacks into the past)"
            )
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Mark the event failed; waiting processes will see the exception."""
        if delay < 0:
            raise SimulationError(
                f"fail() delay must be >= 0, got {delay} "
                "(cannot schedule callbacks into the past)"
            )
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._state == _PROCESSED:
            # Already processed: run immediately (same tick semantics).
            callback(self)
        elif self._cb1 is None:
            self._cb1 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def _process(self) -> None:
        cb1 = self._cb1
        cbs = self._cbs
        self._cb1 = None
        self._cbs = None
        self._state = _PROCESSED
        if cb1 is not None:
            cb1(self)
            if cbs is not None:
                for callback in cbs:
                    callback(self)
        elif not self._ok and isinstance(self, Process):
            # A process died with nobody waiting on it: surface the
            # failure instead of losing it (detached GPU/engine
            # processes must crash loudly on bugs).
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={_STATE_NAMES[self._state]}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    For callers that need an event object (:class:`AllOf`, a wait
    shared by several processes); a process that only sleeps yields a
    bare ``int`` instead.  Construction bypasses
    :meth:`Event.__init__`/:meth:`Event.succeed` and writes the slots
    directly — a timeout never allocates any callback storage.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._cb1 = None
        self._cbs = None
        sim._schedule(self, delay)


class Process(Event):
    """A running generator coroutine.

    The generator yields an ``int`` delay in nanoseconds or an
    :class:`Event` of this simulator (see the module docstring); a
    misuse is thrown into it as a :class:`SimulationError`.  The process
    event itself triggers when the generator returns (its value is the
    generator's return value) or raises.
    """

    __slots__ = ("_generator", "_resume_bound", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        Event.__init__(self, sim)
        self._generator = generator
        # One bound method for the process lifetime: rebinding per
        # resume would allocate on every yield.
        resume = self._resume_bound = self._resume
        # Bootstrap: resume once at the current time, through the queue,
        # so process starts interleave deterministically with events
        # already scheduled for "now".  The same event is then reused
        # as the wake event of every bare delay: a process waits on one
        # thing at a time, so it is never queued twice.
        wake = self._wake = Event(sim)
        wake._state = _TRIGGERED
        wake._cb1 = resume
        sim._schedule(wake, 0)

    def _resume(self, event: Event) -> None:
        # The result of ``throw`` is handled exactly like the result of
        # ``send``: a process that catches a misuse error may go on
        # waiting, return or raise, so the loop re-validates its next
        # target instead of assuming the error ends it.
        ok = event._ok
        value = event._value
        generator = self._generator
        while True:
            try:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if target.__class__ is int:
                if target >= 0:
                    # Bare delay: the reusable wake event goes straight
                    # into its bucket (``Simulator._schedule`` inlined),
                    # at the point a timeout built just before the yield
                    # would have been scheduled.
                    sim = self.sim
                    wake = self._wake
                    wake._state = _TRIGGERED
                    wake._cb1 = self._resume_bound
                    sim.scheduled += 1
                    when = sim._now + target
                    bucket = sim._buckets.get(when)
                    if bucket is None:
                        sim._buckets[when] = [wake]
                        _heappush(sim._times, when)
                    else:
                        bucket.append(wake)
                    return
                value = SimulationError(f"process yielded negative delay: {target}")
            elif isinstance(target, Event):
                if target.sim is self.sim:
                    # ``add_callback`` inlined for the common case: a
                    # pending or triggered event nobody waits on yet.
                    if target._cb1 is None and target._state != _PROCESSED:
                        target._cb1 = self._resume_bound
                    else:
                        target.add_callback(self._resume_bound)
                    return
                value = SimulationError(
                    "process yielded event from another simulator"
                )
            else:
                value = SimulationError(f"process yielded non-event: {target!r}")
            ok = False


class AllOf(Event):
    """Triggers when all child events have triggered successfully.

    Its value is the list of child values, in the order given.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        Event.__init__(self, sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self._events])


# ---------------------------------------------------------------------------
# Ambient simulated-time accounting (the bench harness's sim_ns source)

#: Active :class:`SimTimeCollector` stack.  Checked (one truthiness
#: test) on every Simulator construction — Simulators are created a
#: handful of times per figure cell, so this costs nothing on the hot
#: path while letting the exec harness report final simulated time
#: without threading a handle through every figure module.
_COLLECTORS: List["SimTimeCollector"] = []


class SimTimeCollector:
    """Context manager that tracks every :class:`Simulator` created in
    its scope and sums their final clocks.

    Used by :func:`repro.exec.runner.execute_cell` to report the total
    simulated span a grid cell covered (the ``sim_ns`` bench field).
    Collectors nest: each registers the Simulators created while it is
    the innermost *or* an outer active scope.
    """

    __slots__ = ("_sims",)

    def __init__(self) -> None:
        self._sims: List["Simulator"] = []

    def __enter__(self) -> "SimTimeCollector":
        _COLLECTORS.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        _COLLECTORS.remove(self)

    def _register(self, sim: "Simulator") -> None:
        self._sims.append(sim)

    @property
    def total_sim_ns(self) -> int:
        """Sum of the current clocks of every registered Simulator."""
        return sum(sim._now for sim in self._sims)


class Simulator:
    """The event scheduler: a calendar queue over per-timestamp buckets.

    ``_times`` is a heap of the *distinct* pending timestamps;
    ``_buckets`` maps each to the FIFO list of events scheduled for it;
    ``_cursor`` is the drain position inside the minimum bucket.  A
    bucket's heap entry is pushed exactly once (on creation), so a
    same-timestamp storm costs one append per event and one heap
    operation per distinct timestamp.  Exhausted buckets are reclaimed
    lazily when the drain reaches their end.
    """

    __slots__ = ("_now", "_times", "_buckets", "_cursor", "scheduled")

    def __init__(self) -> None:
        self._now = 0
        #: Events ever put on the queue: an exact, wall-clock-free
        #: measure of kernel work (pinned by ``tests/test_event_counts``).
        self.scheduled = 0
        self._times: List[int] = []
        self._buckets: Dict[int, List[Event]] = {}
        self._cursor = 0
        if _COLLECTORS:
            for collector in _COLLECTORS:
                collector._register(self)

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, int(delay), value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        self.scheduled += 1
        when = self._now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            _heappush(self._times, when)
        else:
            bucket.append(event)

    def _next(self) -> Optional[Event]:
        """Take the next event in deterministic order, advancing the
        clock; ``None`` when the queue is empty.  The event is consumed
        *before* it is processed, so an exception escaping a callback
        leaves the queue consistent."""
        times = self._times
        buckets = self._buckets
        cursor = self._cursor
        while times:
            when = times[0]
            bucket = buckets[when]
            if cursor < len(bucket):
                event = bucket[cursor]
                self._cursor = cursor + 1
                self._now = when
                return event
            # Bucket exhausted: reclaim it.  No earlier bucket can have
            # appeared while it drained (delays are non-negative), so
            # the cursor reset is safe.
            _heappop(times)
            del buckets[when]
            cursor = self._cursor = 0
        return None

    def step(self) -> None:
        """Process the single next event."""
        event = self._next()
        if event is None:
            raise SimulationError("no scheduled events")
        event._process()

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None if the queue is empty."""
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            if self._cursor < len(buckets[when]):
                return when
            _heappop(times)
            del buckets[when]
            self._cursor = 0
        return None

    def run(self, until: Optional[Event] = None) -> Any:
        """Run until the queue drains, or until an event fires.

        ``until`` may be ``None`` (drain) or an :class:`Event` (run
        until it is processed and return its value; raises if it
        failed).
        """
        # The two hot drain loops below are `_next()` inlined by hand,
        # and so is `Event._process` for the common case of exactly one
        # callback: one call frame and a handful of attribute loads per
        # event are measurable at millions of events.  `times`/`buckets`
        # alias the live containers (they are never rebound, only
        # mutated), so events scheduled by a callback are visible to the
        # loop.
        times = self._times
        buckets = self._buckets
        if until is None:
            while times:
                when = times[0]
                bucket = buckets[when]
                cursor = self._cursor
                if cursor < len(bucket):
                    self._cursor = cursor + 1
                    self._now = when
                    event = bucket[cursor]
                    callback = event._cb1
                    if callback is not None and event._cbs is None:
                        event._cb1 = None
                        event._state = _PROCESSED
                        callback(event)
                    else:
                        event._process()
                else:
                    _heappop(times)
                    del buckets[when]
                    self._cursor = 0
            return None
        if not isinstance(until, Event):
            raise TypeError(f"run(until=) takes an Event, got {until!r}")
        while until._state != _PROCESSED:
            if not times:
                raise SimulationError(
                    "simulation ran out of events before target triggered"
                )
            when = times[0]
            bucket = buckets[when]
            cursor = self._cursor
            if cursor < len(bucket):
                self._cursor = cursor + 1
                self._now = when
                event = bucket[cursor]
                callback = event._cb1
                if callback is not None and event._cbs is None:
                    event._cb1 = None
                    event._state = _PROCESSED
                    callback(event)
                else:
                    event._process()
            else:
                _heappop(times)
                del buckets[when]
                self._cursor = 0
        if not until._ok:
            raise until._value
        return until._value
