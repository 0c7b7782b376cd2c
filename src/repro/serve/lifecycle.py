"""Fault-aware request lifecycle for the serving engine.

Two pieces, both pure (no simulation imports):

* :class:`DegradationPolicy` — the knobs that decide how the engine
  degrades under faults instead of collapsing: per-request deadlines
  and TTFT timeouts, load shedding / admission pushback when queues or
  the retry budget saturate, a circuit breaker that pauses admission
  during SPDM re-attestation storms, and a restart budget for engine
  crash-and-restart recovery.  The default policy is inert
  (``shed_policy="none"``, breaker off): with no faults injected the
  engine behaves byte-identically to a build without this layer.
* :class:`LifecycleLedger` — the bookkeeping behind the
  **no-lost-request invariant**: every request submitted to the engine
  terminates *exactly once* as ``completed``, ``shed``,
  ``failed``-with-cause, or ``rejected`` (admission control).  The
  ledger raises on double-termination and :meth:`check_complete`
  asserts the full partition at drain, on every fault path included.

Lifecycle state machine (terminal states in brackets)::

    arrival -> waiting -> running <-> evicted/warming -> [completed]
       |          |          |
       |          |          +--> [shed]    (deadline exceeded)
       |          +------------> [shed]    (TTFT timeout / pushback)
       +----------------------> [rejected] (could never fit)
    any non-terminal ---------> [failed]   (engine gave up: restart
                                            budget or re-attestation
                                            exhausted; cause = site)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .. import units

#: Terminal request states (``rejected`` is admission control at
#: arrival; the other three are post-admission outcomes).
COMPLETED = "completed"
SHED = "shed"
FAILED = "failed"
REJECTED = "rejected"
TERMINAL_STATES = (COMPLETED, SHED, FAILED, REJECTED)

#: Shedding policies, by increasing aggressiveness.  ``none`` never
#: sheds (the goodput-cliff variant in ``ext_fault_serving``);
#: ``deadline`` enforces the TTFT timeout on the wait queue and the
#: end-to-end deadline everywhere; ``pushback`` adds admission
#: pushback — arrivals are shed under engine retry pressure or when
#: the wait queue is past ``max_queue_depth`` (a breaker drain alone
#: does not shed: the queue absorbs arrivals until re-attestation
#: completes).
SHED_POLICIES = ("none", "deadline", "pushback")


class LifecycleError(AssertionError):
    """A lifecycle invariant was violated (a request was lost or
    terminated twice) — always a bug, never a recoverable condition."""


@dataclass(frozen=True)
class DegradationPolicy:
    """How the serving engine degrades under an active fault plan."""

    #: End-to-end deadline per request (0 = none).  A request past its
    #: deadline is shed wherever it is: waiting, running, or evicted.
    deadline_ms: float = 0.0
    #: Max time a request may wait for its first token before being
    #: shed from the queue (0 = none).
    ttft_timeout_ms: float = 0.0
    shed_policy: str = "none"
    #: Pause admission and drain the running batch when an SPDM
    #: re-attestation storm hits, instead of stalling mid-batch.
    circuit_breaker: bool = False
    #: Admission pushback threshold for ``shed_policy="pushback"``
    #: (0 = unbounded queue).
    max_queue_depth: int = 0
    #: Engine crash-and-restart budget: after this many restarts the
    #: engine fails its surviving requests with cause instead of
    #: looping forever on a persistent fatal fault.
    max_engine_restarts: int = 2

    def validate(self) -> None:
        problems = []
        if self.shed_policy not in SHED_POLICIES:
            problems.append(
                f"unknown shed_policy {self.shed_policy!r} "
                f"(have {SHED_POLICIES})"
            )
        if self.deadline_ms < 0 or self.ttft_timeout_ms < 0:
            problems.append("deadline/ttft timeout must be >= 0")
        if self.max_queue_depth < 0:
            problems.append("max_queue_depth must be >= 0")
        if self.max_engine_restarts < 0:
            problems.append("max_engine_restarts must be >= 0")
        # Knobs the chosen shed policy never reads would be silently
        # ignored; reject them instead.
        timed = self.deadline_ms or self.ttft_timeout_ms
        if timed and self.shed_policy == "none":
            problems.append(
                "deadline/ttft timeout are never enforced under "
                "shed_policy 'none'; use 'deadline' or 'pushback'"
            )
        if self.shed_policy == "deadline" and not timed:
            problems.append(
                "shed_policy 'deadline' needs a deadline and/or a ttft "
                "timeout to enforce"
            )
        if self.max_queue_depth and self.shed_policy != "pushback":
            problems.append(
                "max_queue_depth is only read by shed_policy 'pushback'"
            )
        if problems:
            raise ValueError(
                "invalid DegradationPolicy: " + "; ".join(problems)
            )

    # -- derived, in simulator units --------------------------------------

    @property
    def sheds(self) -> bool:
        return self.shed_policy != "none"

    @property
    def deadline_ns(self) -> int:
        return int(self.deadline_ms * units.NS_PER_SEC / 1000)

    @property
    def ttft_timeout_ns(self) -> int:
        return int(self.ttft_timeout_ms * units.NS_PER_SEC / 1000)


class LifecycleLedger:
    """Exactly-once terminal accounting for every submitted request."""

    def __init__(self) -> None:
        self._terminal: Dict[int, Tuple[str, str]] = {}
        self._submitted: List[int] = []

    def submit(self, req_id: int) -> None:
        self._submitted.append(req_id)

    def finish(self, req_id: int, state: str, cause: str = "") -> None:
        if state not in TERMINAL_STATES:
            raise LifecycleError(f"unknown terminal state {state!r}")
        if req_id in self._terminal:
            raise LifecycleError(
                f"request {req_id} terminated twice: "
                f"{self._terminal[req_id][0]} then {state}"
            )
        self._terminal[req_id] = (state, cause)

    def count(self, state: str) -> int:
        return sum(1 for s, _ in self._terminal.values() if s == state)

    def check_complete(self) -> None:
        """Assert the no-lost-request invariant at drain."""
        lost = [r for r in self._submitted if r not in self._terminal]
        if lost:
            raise LifecycleError(
                f"{len(lost)} request(s) lost without a terminal state: "
                f"{lost[:8]}"
            )
        phantom = set(self._terminal) - set(self._submitted)
        if phantom:
            raise LifecycleError(
                f"terminal state for never-submitted request(s): "
                f"{sorted(phantom)[:8]}"
            )
