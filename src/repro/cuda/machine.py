"""The complete simulated platform: one Machine = Fig. 2 instantiated.

Wires the simulation kernel, guest context (VM or TD), GPU device, and
CUDA runtime together, and drives application coroutines to completion
returning their traces — the unit of work for every figure bench.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from ..config import SystemConfig
from ..profiler import Trace
from ..sim import Simulator
from ..tdx import GuestContext
from ..gpu import GPU
from .runtime import CudaRuntime

AppFunction = Callable[..., Generator]


class Machine:
    """One booted platform instance (fresh state per application run)."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        label: str = "",
    ) -> None:
        self.config = config or SystemConfig.base()
        self.config.validate()
        self.sim = Simulator()
        self.trace = Trace(label=label)
        self.guest = GuestContext(self.sim, self.config, trace=self.trace)
        self.gpu = GPU(self.sim, self.config, self.guest)
        self.runtime = CudaRuntime(self.sim, self.config, self.guest, self.gpu)

    def run(self, app: AppFunction, *args: Any, **kwargs: Any) -> Any:
        """Run an application coroutine to completion; returns its value."""
        process = self.sim.process(app(self.runtime, *args, **kwargs))
        return self.sim.run(until=process)

    @property
    def elapsed_ns(self) -> int:
        return self.sim.now


def run_app(
    app: AppFunction,
    config: Optional[SystemConfig] = None,
    label: str = "",
    *args: Any,
    **kwargs: Any,
) -> Tuple[Trace, Any]:
    """Convenience: boot a machine, run one app, return (trace, result)."""
    machine = Machine(config, label=label)
    result = machine.run(app, *args, **kwargs)
    return machine.trace, result


def run_base_and_cc(
    app: AppFunction,
    base_config: Optional[SystemConfig] = None,
    cc_config: Optional[SystemConfig] = None,
    label: str = "",
    **kwargs: Any,
) -> Tuple[Trace, Trace]:
    """Run the same app in both modes (the paper's standard comparison)."""
    base_trace, _ = run_app(
        app, base_config or SystemConfig.base(), label=f"{label}|base", **kwargs
    )
    cc_trace, _ = run_app(
        app, cc_config or SystemConfig.confidential(), label=f"{label}|cc", **kwargs
    )
    return base_trace, cc_trace
