"""Deterministic discrete-event simulation kernel.

This package is a self-contained, SimPy-style coroutine scheduler used
as the substrate for every simulated hardware/software component in the
reproduction.  See :mod:`repro.sim.engine` for the core and
:mod:`repro.sim.resources` for shared-resource primitives.
"""

from .engine import (
    AllOf,
    Event,
    Process,
    SimTimeCollector,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Request",
    "Resource",
    "SimTimeCollector",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
