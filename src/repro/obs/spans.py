"""Hierarchical spans with a CC layer taxonomy.

A :class:`Span` is one timed region of the stack with explicit
parent/child causality — the structural unit the paper's analysis
needs to say *which layer* a nanosecond belongs to (a hypercall inside
``dma_direct_alloc`` inside ``cudaLaunchKernel`` is charged to the TDX
module, not the driver).

Spans are recorded two ways:

* as a context manager (:meth:`SpanRecorder.span`) around generator
  code — the span stays open across simulation yields, so nested
  driver and TDX calls hang off it as a call stack (the Fig. 8 flame
  graph is folded from this tree);
* retroactively (:meth:`SpanRecorder.record`) for operations whose
  duration is only known after the fact (hypercalls, fault-recovery
  intervals, synthesized pipeline stages).

Open-span nesting is tracked per *scope* so concurrent simulation
processes (the CPU thread vs. GPU engines) cannot misparent each
other's spans: CPU-side instrumentation uses the default ``"cpu"``
scope, the GPU command processor uses one scope per stream.

Recording never touches the simulation clock — observability must not
perturb the model (see ``benchmarks/test_extensions.py``).  A recorder
not yet bound to a clock stamps time 0, as the metrics registry does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..core.intervals import union_length

# The layer taxonomy, innermost-trusted first.  Spans may use other
# layer strings (e.g. "recovery"); canonical layers sort first in
# reports, extras sort alphabetically after.
CANONICAL_LAYERS = (
    "td",  # in-guest work private to the trust domain (crypto, page ops)
    "tdx_module",  # SEAM-mode TDX-module transitions (tdcall/seamcall)
    "hypervisor",  # plain VM exits (cc-off guests)
    "driver",  # CUDA runtime + kernel-mode driver work
    "dma",  # engine-resident transfer stages / UVM migration traffic
    "gpu.copy",  # copy-engine occupancy
    "gpu.compute",  # compute-engine occupancy (KET)
)


def layer_sort_key(layer: str) -> Tuple[int, str]:
    """Canonical layers in taxonomy order, then extras alphabetically."""
    try:
        return (CANONICAL_LAYERS.index(layer), layer)
    except ValueError:
        return (len(CANONICAL_LAYERS), layer)


@dataclass(slots=True)
class Span:
    """One timed region with parent/child causality."""

    span_id: int
    parent_id: Optional[int]
    name: str
    layer: str
    start_ns: int
    duration_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


def _unbound_clock() -> int:
    """The clock of a recorder not yet bound to a simulator: time 0."""
    return 0


class _SpanContext:
    """Class-based context manager for :meth:`SpanRecorder.span`.

    ``span()`` sits on the per-launch hot path (~100k entries per
    figure cell); a plain object with ``__enter__``/``__exit__`` avoids
    the generator frame + ``contextlib`` dispatch per call.
    """

    __slots__ = ("_recorder", "_name", "_layer", "_scope", "_attrs",
                 "_span", "_stack")

    def __init__(
        self,
        recorder: "SpanRecorder",
        name: str,
        layer: str,
        scope: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._scope = scope
        self._attrs = attrs

    def __enter__(self) -> Span:
        recorder = self._recorder
        stack = recorder._open.get(self._scope)
        if stack is None:
            stack = recorder._open[self._scope] = []
        # Positional: a keyword build of the slotted dataclass costs
        # about twice as much, and this runs once per span.
        span = Span(
            next(recorder._ids),
            stack[-1].span_id if stack else None,
            self._name,
            self._layer,
            recorder._clock(),
            0,
            self._attrs,
        )
        recorder.spans.append(span)
        stack.append(span)
        self._span = span
        self._stack = stack
        return span

    def __exit__(self, *exc: Any) -> bool:
        self._stack.pop()
        span = self._span
        span.duration_ns = self._recorder._clock() - span.start_ns
        return False


class SpanRecorder:
    """Collects spans for one run; attached to every :class:`Trace`."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock if clock is not None else _unbound_clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: Dict[str, List[Span]] = {}

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    @property
    def has_open(self) -> bool:
        """Whether a with-block span is still open (its duration is not
        final yet)."""
        return any(self._open.values())

    # -- recording ---------------------------------------------------------

    def span(self, name: str, layer: str, scope: str = "cpu", **attrs: Any):
        """Open a span for the duration of a with-block.

        Safe around generator code: the span stays open across
        simulation yields and closes (capturing the end time) when the
        block exits, including on exceptions.
        """
        return _SpanContext(self, name, layer, scope, attrs)

    def record(
        self,
        name: str,
        layer: str,
        start_ns: int,
        duration_ns: int,
        scope: str = "cpu",
        parent: Optional[Union[Span, int]] = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed span retroactively.

        The parent defaults to the innermost open span of ``scope`` —
        this is how fault-recovery spans end up nested under the
        operation they delayed — or may be given explicitly.
        """
        if parent is None:
            stack = self._open.get(scope)
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = Span(
            next(self._ids), parent_id, name, layer, start_ns, duration_ns, attrs
        )
        self.spans.append(span)
        return span

    def add(self, span: Span) -> Span:
        """Append an externally built span (trace import), keeping the
        id counter ahead of every imported id."""
        self.spans.append(span)
        self._ids = itertools.count(
            max(span.span_id + 1, next(self._ids))
        )
        return span

    # -- queries -----------------------------------------------------------

    def layers(self) -> List[str]:
        """Distinct layers present, taxonomy order."""
        return sorted({s.layer for s in self.spans}, key=layer_sort_key)

    def by_layer(self) -> Dict[str, List[Span]]:
        result: Dict[str, List[Span]] = {}
        for span in self.spans:
            result.setdefault(span.layer, []).append(span)
        return result

    def layer_busy_ns(self) -> Dict[str, int]:
        """Union busy time per layer (overlapping spans count once)."""
        result: Dict[str, int] = {}
        for layer, spans in self.by_layer().items():
            result[layer] = union_length((s.start_ns, s.end_ns) for s in spans)
        return result

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def subtree(self, root: Span) -> List[Span]:
        """``root`` plus all transitive children, in id order."""
        wanted = {root.span_id}
        selected = [root]
        for span in sorted(self.spans, key=lambda s: s.span_id):
            if span.parent_id in wanted:
                wanted.add(span.span_id)
                selected.append(span)
        return sorted(selected, key=lambda s: s.span_id)

    def total_ns(self, layer: Optional[str] = None) -> int:
        return sum(
            s.duration_ns
            for s in self.spans
            if layer is None or s.layer == layer
        )
