"""Per-layer host-time ledger: wraps each layer's public entry points.

A :class:`Ledger` replaces the public functions, methods and
constructors listed in :data:`LAYER_TARGETS` with timing wrappers while
it is installed, and restores the originals on exit.  Timing is
exclusive: a wrapped call's *self* time is its inclusive time minus
the inclusive time of the wrapped calls nested inside it, so every
nanosecond of a pass is charged to exactly one layer, and time outside
any wrapped call goes to ``other``.

Generator functions (the simulator's processes and every ``yield
from`` chain below them) are wrapped per *resume*: calling one returns
a :class:`_TracedGenerator` whose ``send``/``throw``/``close`` open a
frame for the duration of that step only.  A process suspended in a
``yield`` therefore charges nothing, and time spent running a
``yield from`` chain goes to the innermost layer that is running.

The wrappers are pure bookkeeping: they never touch the simulator, so a
traced pass produces byte-identical simulated output.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer -> wrapped targets, as ``module:qualname``.  A bare class name
#: wraps the class's public methods plus ``__init__`` and, for the
#: context managers returned by a public ``span()``/``op()``,
#: ``__enter__``/``__exit__``.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.engine:Simulator.run",),
    "cuda": ("repro.cuda.runtime:CudaRuntime",),
    "tdx": ("repro.tdx.domain:GuestContext",),
    "spdm": (
        "repro.tdx.spdm:SpdmRequester.establish",
        "repro.tdx.spdm:SpdmResponder.handle",
        "repro.tdx.spdm:attest_gpu",
    ),
    "gpu": (
        "repro.gpu.device:GPU.__init__",
        "repro.gpu.device:GPU.submit",
        "repro.gpu.uvm:UVMManager",
    ),
    "serve": (
        "repro.serve.scheduler:ContinuousBatchingScheduler",
        "repro.serve.scheduler:ServingEngine",
        "repro.serve.kvpager:KVPager",
        "repro.serve.lifecycle:DegradationPolicy",
        "repro.serve.lifecycle:LifecycleLedger",
        "repro.serve.slo:build_report",
        "repro.serve.arrivals:generate_arrivals",
    ),
    "telemetry": (
        "repro.serve.telemetry:ServeTelemetry",
        "repro.serve.telemetry:_OpContext",
        "repro.serve.telemetry:attribute_requests",
        "repro.serve.telemetry:record_telemetry_spans",
    ),
    "obs": (
        "repro.obs.spans:SpanRecorder",
        "repro.obs.spans:_SpanContext",
        "repro.obs.metrics:MetricsRegistry",
        "repro.obs.metrics:Counter",
        "repro.obs.metrics:Gauge",
        "repro.obs.metrics:Histogram",
    ),
    "profiler": ("repro.profiler.collector:Trace.add",),
    "faults": ("repro.faults.injector:FaultInjector",),
    "multigpu": (
        "repro.multigpu.session:run_ring_all_reduce",
        "repro.multigpu.links:transfer_time_ns",
        "repro.multigpu.links:effective_bandwidth_gbps",
        "repro.multigpu.links:SecureChannel",
        "repro.multigpu.links:MultiGPUNode",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS)
#: Time spent outside every wrapped call.
OTHER = "other"

#: Constructors that are counted, not timed: one ``Event`` or
#: ``Timeout`` per scheduled simulator event, one ``Process`` per
#: simulator process.  Timing them would cost more than the work.
COUNTED: Tuple[str, ...] = (
    "repro.sim.engine:Event.__init__",
    "repro.sim.engine:Timeout.__init__",
    "repro.sim.engine:Process.__init__",
)

#: Classes whose instances a pass keeps, for the counts read off them
#: after the pass (faults injected, telemetry ops recorded).
KEPT_INSTANCES: Tuple[str, ...] = ("FaultInjector", "ServeTelemetry")

_CLASS_PROTOCOL = ("__init__", "__enter__", "__exit__")


@dataclass
class PassLedger:
    """What one traced pass cost, per layer."""

    wall_ns: int
    self_ns: Dict[str, int]
    calls: Dict[str, int]
    layer_calls: Dict[str, int]
    instances: Dict[str, List[Any]] = field(default_factory=dict)


class Ledger:
    """Installs the wrappers and accumulates per-layer self time.

    Use as a context manager around the traced passes and bracket each
    pass with :meth:`begin` / :meth:`end`::

        with Ledger() as ledger:
            ledger.begin()
            run_workload()
            snapshot = ledger.end()
    """

    def __init__(self) -> None:
        # Open frames, innermost last: [child_ns, start_ns].  The base
        # frame is always present, so a wrapper can charge its parent
        # unconditionally.
        self._stack: List[List[int]] = [[0, time.perf_counter_ns()]]
        self._self: Dict[str, List[int]] = {
            layer: [0] for layer in LAYERS + (OTHER,)
        }
        self._calls: Dict[str, List[int]] = {}
        self._call_layer: Dict[str, Optional[str]] = {}
        self._instances: Dict[str, List[Any]] = {
            name: [] for name in KEPT_INSTANCES
        }
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- pass bracketing --------------------------------------------------

    def begin(self) -> None:
        """Zero every accumulator and start the ``other`` frame."""
        if len(self._stack) != 1:
            raise RuntimeError("begin() inside a wrapped call")
        for cell in self._self.values():
            cell[0] = 0
        for cell in self._calls.values():
            cell[0] = 0
        for kept in self._instances.values():
            kept.clear()
        self._stack[0][0] = 0
        self._stack[0][1] = time.perf_counter_ns()

    def end(self) -> PassLedger:
        """Close the pass; every wrapped frame must have closed."""
        now = time.perf_counter_ns()
        if len(self._stack) != 1:
            raise RuntimeError(
                f"{len(self._stack) - 1} wrapped frame(s) still open at end()"
            )
        child_ns, start_ns = self._stack[0]
        wall_ns = now - start_ns
        self_ns = {layer: cell[0] for layer, cell in self._self.items()}
        self_ns[OTHER] = wall_ns - child_ns
        calls = {key: cell[0] for key, cell in self._calls.items()}
        layer_calls = {layer: 0 for layer in LAYERS}
        for key, count in calls.items():
            layer = self._call_layer[key]
            if layer is not None:
                layer_calls[layer] += count
        return PassLedger(
            wall_ns=wall_ns,
            self_ns=self_ns,
            calls=calls,
            layer_calls=layer_calls,
            instances={k: list(v) for k, v in self._instances.items()},
        )

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Ledger":
        try:
            for layer, targets in LAYER_TARGETS.items():
                for target in targets:
                    self._install(target, layer, counted=False)
            for target in COUNTED:
                self._install(target, "sim", counted=True)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._uninstall()

    def _install(self, target: str, layer: str, counted: bool) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        obj = getattr(owner, parts[-1])
        if inspect.isclass(obj):
            names = [
                name
                for name, value in vars(obj).items()
                if inspect.isfunction(value)
                and (not name.startswith("_") or name in _CLASS_PROTOCOL)
            ]
            if not names:
                raise RuntimeError(f"{target}: no public methods to wrap")
            for name in names:
                self._wrap_attr(obj, name, layer, counted)
        elif inspect.isclass(owner):
            if not inspect.isfunction(vars(owner).get(parts[-1])):
                raise RuntimeError(f"{target}: not a plain method")
            self._wrap_attr(owner, parts[-1], layer, counted)
        elif inspect.isfunction(obj):
            self._wrap_function(obj, layer, counted)
        else:
            raise RuntimeError(f"{target}: not a function or class")

    def _wrap_attr(self, cls: type, name: str, layer: str, counted: bool) -> None:
        original = vars(cls)[name]
        key = f"{cls.__name__}.{name}"
        kept = (
            self._instances.get(cls.__name__) if name == "__init__" else None
        )
        wrapper = self._make_wrapper(original, layer, key, counted, kept)
        setattr(cls, name, wrapper)
        self._undo.append((cls, name, original))

    def _wrap_function(self, original: Callable, layer: str, counted: bool) -> None:
        """Replace a module-level function everywhere it was imported
        by name, so ``from .x import f`` callers see the wrapper too."""
        wrapper = self._make_wrapper(
            original, layer, original.__name__, counted, None
        )
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _make_wrapper(
        self,
        fn: Callable,
        layer: str,
        key: str,
        counted: bool,
        kept: Optional[List[Any]],
    ) -> Callable:
        calls = self._calls.setdefault(key, [0])
        # Counted-only constructors are work counts, not layer calls.
        self._call_layer[key] = None if counted else layer
        if counted:
            def counting(*args: Any, **kwargs: Any) -> Any:
                calls[0] += 1
                return fn(*args, **kwargs)

            return _named(counting, fn)

        framed = _frame_runner(self._self[layer], self._stack)

        if inspect.isgeneratorfunction(fn):
            traced = _traced_generator_class(framed)

            def generator(*args: Any, **kwargs: Any) -> Any:
                calls[0] += 1
                return traced(fn(*args, **kwargs))

            return _named(generator, fn)

        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[0] += 1
            result = framed(fn, *args, **kwargs)
            if kept is not None:
                kept.append(args[0])
            return result

        return _named(timed, fn)


def _named(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _frame_runner(acc: List[int], stack: List[List[int]]) -> Callable:
    """``run(fn, *args)``: call ``fn`` in a new frame and charge its
    self time to ``acc`` and its inclusive time to the parent frame."""

    clock = time.perf_counter_ns

    def run(fn: Callable, *args: Any, **kwargs: Any) -> Any:
        frame = [0, clock()]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            inclusive = clock() - frame[1]
            acc[0] += inclusive - frame[0]
            stack[-1][0] += inclusive

    return run


def _traced_generator_class(framed: Callable) -> type:
    """A generator proxy that runs each resume in its own frame.

    It implements the full generator protocol, so ``yield from`` and
    :class:`repro.sim.Process` drive it exactly like the generator it
    wraps: ``send``/``throw``/``close`` are forwarded, and the inner
    generator's ``StopIteration`` (its return value) passes through.
    """

    class _TracedGenerator:
        __slots__ = ("_gen",)

        def __init__(self, gen: Any) -> None:
            self._gen = gen

        def __iter__(self) -> "_TracedGenerator":
            return self

        def __next__(self) -> Any:
            return framed(self._gen.send, None)

        def send(self, value: Any) -> Any:
            return framed(self._gen.send, value)

        def throw(self, typ: Any, val: Any = None, tb: Any = None) -> Any:
            # ``yield from`` forwards the legacy (type, value, tb) form;
            # pass the exception instance on, which every version takes.
            exc = typ if val is None else val
            if tb is not None:
                exc = exc.with_traceback(tb)
            return framed(self._gen.throw, exc)

        def close(self) -> Any:
            return framed(self._gen.close)

    return _TracedGenerator
