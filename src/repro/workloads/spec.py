"""Declarative workload specifications.

A :class:`WorkloadSpec` describes an application as a list of
operations (allocations, copies, launches, loops, syncs) that can be
written by hand, loaded from JSON, or generated — so downstream users
can model *their* applications on the simulated CC platform without
writing coroutines.  The app catalogue (:mod:`repro.workloads.apps`)
is written in the same vocabulary.

Operation vocabulary (op = dict with an ``"op"`` key):

    {"op": "malloc",         "name": "A", "bytes": 4194304}
    {"op": "malloc_host",    "name": "hA", "bytes": 4194304}          # pinned
    {"op": "host_alloc",     "name": "hA", "bytes": 4194304}          # pageable
    {"op": "malloc_managed", "name": "M", "bytes": 4194304}
    {"op": "memcpy", "dst": "A", "src": "hA", "bytes": 4194304}       # optional bytes
    {"op": "launch", "kernel": "k1", "flops": 1e9, "mem_bytes": 1e6,
     "touches": [["M", 4194304]]}                                     # managed touches
    {"op": "launch", "kernel": "k2", "flops": 1e6, "mem_bytes": 1e6,
     "module_pages": 200}                                             # fat module
    {"op": "launch", "kernel": "sleep", "duration_us": 100}           # fixed-KET form
    {"op": "sync"}
    {"op": "cpu", "us": 5.0}                                          # host think time
    {"op": "loop", "count": 10, "body": [ ...ops... ]}
    {"op": "free", "name": "A"}

Buffers are referenced by name and live from their allocation to
their ``free``; loops nest arbitrarily.  ``module_pages`` marks a large
kernel module whose first launch under CC converts that many DMA pages
(see :func:`repro.gpu.elementwise_kernel`).  Validation follows buffer
lifetimes through frees and repeated loop bodies, so a spec that
validates does not fail on a missing buffer at run time.  Validation
errors carry the offending op index path.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Sequence, Tuple

from .. import units
from ..cuda import CudaRuntime
from ..gpu import KernelSpec


class SpecError(ValueError):
    """Malformed workload specification."""


_ALLOC_OPS = {"malloc", "malloc_host", "host_alloc", "malloc_managed"}
_KNOWN_OPS = _ALLOC_OPS | {"memcpy", "launch", "sync", "cpu", "loop", "free"}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class WorkloadSpec:
    """A named, validated list of operations."""

    name: str
    ops: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        self._validate_ops(self.ops, {}, path="ops")

    def _validate_ops(
        self, ops: Sequence[Dict], live: Dict[str, Tuple[str, int]], path: str
    ) -> None:
        """Check ``ops`` in order; ``live`` maps each allocated, not yet
        freed buffer name to its (alloc op, bytes) and is updated in place."""
        if not isinstance(ops, (list, tuple)):
            raise SpecError(f"{path}: expected a list of ops")
        for index, op in enumerate(ops):
            where = f"{path}[{index}]"
            if not isinstance(op, dict) or "op" not in op:
                raise SpecError(f"{where}: op must be a dict with an 'op' key")
            kind = op["op"]
            if kind not in _KNOWN_OPS:
                raise SpecError(f"{where}: unknown op {kind!r}")
            if kind in _ALLOC_OPS:
                name = op.get("name")
                if name is None or not _is_int(op.get("bytes")):
                    raise SpecError(f"{where}: {kind} needs 'name' and int 'bytes'")
                if op["bytes"] <= 0:
                    raise SpecError(f"{where}: bytes must be positive")
                if name in live:
                    raise SpecError(f"{where}: {kind} of live buffer {name!r}")
                live[name] = (kind, op["bytes"])
            elif kind == "memcpy":
                for key in ("dst", "src"):
                    if op.get(key) not in live:
                        raise SpecError(
                            f"{where}: memcpy {key} {op.get(key)!r} not allocated"
                        )
                size = op.get("bytes")
                if size is not None:
                    if not _is_int(size) or size <= 0:
                        raise SpecError(f"{where}: memcpy bytes must be a positive int")
                    if size > min(live[op["dst"]][1], live[op["src"]][1]):
                        raise SpecError(f"{where}: memcpy bytes exceed a buffer")
            elif kind == "launch":
                self._validate_launch(op, live, where)
            elif kind == "cpu":
                if not _is_number(op.get("us")) or op["us"] < 0:
                    raise SpecError(f"{where}: cpu needs non-negative 'us'")
            elif kind == "loop":
                count = op.get("count")
                if not _is_int(count) or count < 0:
                    raise SpecError(f"{where}: loop needs non-negative int 'count'")
                body = op.get("body", [])
                entry = dict(live)
                # A body that never runs must not change what is live.
                self._validate_ops(body, live if count else entry, f"{where}.body")
                if count >= 2 and live != entry:
                    # The second iteration starts from the first one's
                    # frees and allocations; every later one starts
                    # from the same state as the second.
                    self._validate_ops(body, live, f"{where}.body")
            elif kind == "free":
                if live.pop(op.get("name"), None) is None:
                    raise SpecError(
                        f"{where}: free of unknown buffer {op.get('name')!r}"
                        " (never allocated, or already freed)"
                    )

    @staticmethod
    def _validate_launch(
        op: Dict[str, Any], live: Dict[str, Tuple[str, int]], where: str
    ) -> None:
        if "kernel" not in op:
            raise SpecError(f"{where}: launch needs a 'kernel' name")
        if "duration_us" not in op and "flops" not in op and "mem_bytes" not in op:
            raise SpecError(f"{where}: launch needs duration_us or flops/mem_bytes")
        for key in ("duration_us", "flops", "mem_bytes"):
            if key in op and (not _is_number(op[key]) or op[key] < 0):
                raise SpecError(f"{where}: launch {key} must be non-negative")
        if "module_pages" in op and (
            not _is_int(op["module_pages"]) or op["module_pages"] <= 0
        ):
            raise SpecError(f"{where}: launch module_pages must be a positive int")
        for touch in op.get("touches", []):
            if (
                not isinstance(touch, (list, tuple))
                or len(touch) != 2
                or live.get(touch[0], ("",))[0] != "malloc_managed"
                or not _is_int(touch[1])
                or touch[1] < 0
            ):
                raise SpecError(
                    f"{where}: touches entries must be [managed buffer, bytes]"
                )

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "ops": self.ops}, indent=1)

    @staticmethod
    def from_json(text: str) -> "WorkloadSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "name" not in payload:
            raise SpecError("spec JSON must be an object with 'name' and 'ops'")
        return WorkloadSpec(payload["name"], payload.get("ops", []))

    @staticmethod
    def load(path: str) -> "WorkloadSpec":
        with open(path) as handle:
            return WorkloadSpec.from_json(handle.read())

    # -- execution --------------------------------------------------------

    def app(self):
        """Bind to an ``app(rt)`` callable for :func:`repro.cuda.run_app`."""

        def bound(rt: CudaRuntime) -> Generator:
            return execute(rt, self)

        bound.__name__ = self.name
        return bound

    def total_launches(self) -> int:
        """Static launch count (loops expanded)."""

        def count(ops) -> int:
            total = 0
            for op in ops:
                if op["op"] == "launch":
                    total += 1
                elif op["op"] == "loop":
                    total += op["count"] * count(op.get("body", []))
            return total

        return count(self.ops)


def _kernel_from_op(op: Dict[str, Any]) -> KernelSpec:
    attrs = {"module_pages": float(op["module_pages"])} if "module_pages" in op else {}
    if "duration_us" in op:
        return KernelSpec(
            name=op["kernel"],
            fixed_duration_ns=units.us(float(op["duration_us"])),
            attrs=attrs,
        )
    return KernelSpec(
        name=op["kernel"],
        flops=float(op.get("flops", 0.0)),
        mem_bytes=int(op.get("mem_bytes", 0)),
        precision=op.get("precision", "fp32"),
        efficiency=op.get("efficiency"),
        attrs=attrs,
    )


def execute(rt: CudaRuntime, spec: WorkloadSpec) -> Generator:
    """Run a validated spec against a runtime.

    Loops are walked with a stack of op iterators rather than nested
    generators, so every runtime call is one ``yield from`` deep.  Each
    launch op's :class:`KernelSpec` is built once per run, so its
    duration memo serves every loop iteration; its managed touches stay
    resolved until a ``free`` may rebind a buffer name.
    """
    buffers: Dict[str, Any] = {}
    kernels: Dict[int, KernelSpec] = {}
    touches: Dict[int, List[Tuple[Any, int]]] = {}
    pending = [iter(spec.ops)]  # one iterator per open loop, innermost last
    try:
        while pending:
            op = next(pending[-1], None)
            if op is None:
                pending.pop()
                continue
            kind = op["op"]
            if kind == "launch":
                key = id(op)
                kernel = kernels.get(key)
                if kernel is None:
                    kernel = kernels[key] = _kernel_from_op(op)
                managed = touches.get(key)
                if managed is None:
                    managed = touches[key] = [
                        (buffers[name], size) for name, size in op.get("touches", ())
                    ]
                yield from rt.launch(kernel, managed_touches=managed)
            elif kind == "memcpy":
                yield from rt.memcpy(
                    buffers[op["dst"]], buffers[op["src"]], op.get("bytes")
                )
            elif kind == "sync":
                yield from rt.synchronize()
            elif kind == "loop":
                body = op.get("body", [])
                pending.append(chain.from_iterable(repeat(body, op["count"])))
            elif kind == "cpu":
                yield from rt.cpu_gap(units.us(float(op["us"])))
            elif kind == "free":
                touches.clear()
                yield from rt.free(buffers.pop(op["name"]))
            else:  # an allocation: each alloc op is named after its call
                buffers[op["name"]] = yield from getattr(rt, kind)(op["bytes"])
    except BaseException:
        # A fatal fault mid-run must not leak allocations: reclaim the
        # backing store untimed (the sim may not be drivable any more).
        for buffer in buffers.values():
            rt.reclaim(buffer)
        raise
    # Free anything the spec left allocated (keeps machines leak-free).
    for name in list(buffers):
        buffer = buffers.pop(name)
        if not buffer.freed:
            yield from rt.free(buffer)
    return None
