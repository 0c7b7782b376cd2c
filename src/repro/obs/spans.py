"""Hierarchical spans with a CC layer taxonomy.

A span is one timed region of the stack with explicit parent/child
causality — the structural unit the paper's analysis needs to say
*which layer* a nanosecond belongs to (a hypercall inside
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

Storage is one *row* per span, in record order, across parallel
columns: parent ids, starts and durations in ``array('q')``, and one
interned *shape* per row — its name, layer and attribute names — with
the attribute values as one tuple (the shared ``()`` when it has
none).  A recorder-made span's id is its row plus one; an explicit id
column exists only once :meth:`SpanRecorder.add` imported a span.
Rows are appended to short Python lists and moved into the arrays
every :data:`_CHUNK` rows and before every read, so a finished trace
keeps no boxed start, duration or parent.

Reads come in two forms.  The column queries — :meth:`SpanRecorder.scan`
and the aggregates built on it (:meth:`~SpanRecorder.layer_busy_ns`,
:meth:`~SpanRecorder.total_ns`, :meth:`~SpanRecorder.flagged`) — walk
the columns and build no per-span object.  Iteration and the tree
queries return :class:`Span` *views*, values built on read (as
``Counter.series`` is); changing a view changes nothing recorded.
Recording returns a live :class:`SpanHandle` instead: a with-block's
handle is where a caller sets an attribute known only inside the
block, and where it reads the final duration after the block.

Recording never touches the simulation clock — observability must not
perturb the model (see ``benchmarks/test_extensions.py``).  A recorder
not yet bound to a clock stamps time 0, as the metrics registry does.
Times and ids are ints that fit in 64 bits.
"""

from __future__ import annotations

from array import array
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from itertools import compress, count
from operator import attrgetter, itemgetter
from struct import Struct
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union,
)

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

#: The parent column's value for a root span.
_NO_PARENT = -(1 << 63)
#: Rows kept in the Python-list tail before it moves into the arrays.
_CHUNK = 4096

T = TypeVar("T")
_shape_index = attrgetter("index")
_new = object.__new__


def layer_sort_key(layer: str) -> Tuple[int, str]:
    """Canonical layers in taxonomy order, then extras alphabetically."""
    try:
        return (CANONICAL_LAYERS.index(layer), layer)
    except ValueError:
        return (len(CANONICAL_LAYERS), layer)


@dataclass(slots=True)
class Span:
    """One timed region with parent/child causality (a value)."""

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


class _Shape:
    """What rows share: name, layer and attribute names, interned per
    recorder; ``index`` is its position in the recorder's shape list.
    ``take(attrs)`` returns the values of a two-or-more-key ``attrs``
    in ``keys`` order, raising ``KeyError`` if one is missing."""

    __slots__ = ("name", "layer", "keys", "index", "size", "take", "wider")

    def __init__(self, name: str, layer: str, keys: Tuple[str, ...], index: int) -> None:
        self.name = name
        self.layer = layer
        self.keys = keys
        self.index = index
        self.size = len(keys)
        self.take = itemgetter(*keys) if len(keys) > 1 else None
        #: key -> the shape with ``key`` appended to ``keys``.
        self.wider: Dict[str, "_Shape"] = {}


def _unbound_clock() -> int:
    """The clock of a recorder not yet bound to a simulator: time 0."""
    return 0


class SpanHandle:
    """A live reference to one recorded row.

    Reads see the row as it is now (a with-block's duration once the
    block exited); ``attrs`` is a live mapping whose writes update the
    row.  Compares equal to the :class:`Span` view of the same row.
    """

    __slots__ = ("_recorder", "_row", "span_id")

    def view(self) -> Span:
        """The row's current value."""
        return self._recorder._view(self._row)

    @property
    def parent_id(self) -> Optional[int]:
        return self.view().parent_id

    @property
    def name(self) -> str:
        return self._recorder._shapes[self._row].name

    @property
    def layer(self) -> str:
        return self._recorder._shapes[self._row].layer

    @property
    def start_ns(self) -> int:
        return self.view().start_ns

    @property
    def duration_ns(self) -> int:
        return self.view().duration_ns

    @property
    def end_ns(self) -> int:
        return self.view().end_ns

    @property
    def attrs(self) -> "_LiveAttrs":
        attrs = _new(_LiveAttrs)
        attrs._recorder = self._recorder
        attrs._row = self._row
        return attrs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanHandle):
            other = other.view()
        return self.view() == other if isinstance(other, Span) else NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SpanHandle({self.view()!r})"


class _LiveAttrs(MutableMapping):
    """A row's attributes; a write replaces the row's values (and, for
    a new or deleted key, its shape)."""

    __slots__ = ("_recorder", "_row")

    def _dict(self) -> Dict[str, Any]:
        recorder, row = self._recorder, self._row
        return dict(zip(recorder._shapes[row].keys, recorder._values[row]))

    def __getitem__(self, key: str) -> Any:
        return self._dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._recorder._shapes[self._row].keys)

    def __len__(self) -> int:
        return len(self._recorder._values[self._row])

    def __setitem__(self, key: str, value: Any) -> None:
        recorder, row = self._recorder, self._row
        shape, values = recorder._shapes[row], recorder._values[row]
        if key in shape.keys:
            at = shape.keys.index(key)
            recorder._values[row] = values[:at] + (value,) + values[at + 1:]
            return
        # A key set after recording (a UVM kernel's faulted_pages).
        wider = shape.wider.get(key)
        if wider is None:
            wider = shape.wider[key] = recorder._shape(
                shape.name, shape.layer, shape.keys + (key,)
            )
        recorder._shapes[row] = wider
        recorder._values[row] = values + (value,)

    def __delitem__(self, key: str) -> None:
        attrs = self._dict()
        del attrs[key]
        recorder, row = self._recorder, self._row
        shape = recorder._shapes[row]
        recorder._shapes[row] = recorder._shape(shape.name, shape.layer, tuple(attrs))
        recorder._values[row] = tuple(attrs.values())

    def __repr__(self) -> str:
        return repr(self._dict())


class _SpanContext(SpanHandle):
    """Class-based context manager for :meth:`SpanRecorder.span`, which
    fills its slots; once entered it is the span's live handle.

    ``span()`` sits on the per-launch hot path (~100k entries per
    figure cell); a plain object with ``__enter__``/``__exit__`` avoids
    the generator frame + ``contextlib`` dispatch per call.
    """

    __slots__ = ("_name", "_layer", "_scope", "_attrs", "_stack", "_start")

    def __enter__(self) -> "_SpanContext":
        recorder = self._recorder
        stack = recorder._open.get(self._scope)
        if stack is None:
            stack = recorder._open[self._scope] = []
        self._start = start = recorder._clock()
        # The row append, as in SpanRecorder.record (keep the two in
        # step), inlined: this runs once per with-block span.  The
        # values go in the shape's key order: the shape last recorded
        # under this name is reused when attrs has exactly its keys
        # (``take`` raises KeyError on a missing one), in any order.
        attrs = self._attrs
        shape = recorder._recent.get(self._name)
        try:
            size = shape.size
            if len(attrs) != size or shape.layer != self._layer:
                raise KeyError
            values = (
                shape.take(attrs) if size > 1
                else (attrs[shape.keys[0]],) if size else ()
            )
        except (AttributeError, KeyError):
            shape, values = recorder._new_shape(self._name, self._layer, attrs)
        tail = recorder._tail_starts
        tail_row = len(tail)
        tail.append(start)
        recorder._tail_durations.append(0)
        recorder._tail_parents.append(stack[-1] if stack else _NO_PARENT)
        recorder._shapes.append(shape)
        recorder._values.append(values)
        self._row = row = recorder._sealed + tail_row
        self.span_id = span_id = (
            row + 1 if recorder._ids is None else recorder._take_id()
        )
        stack.append(span_id)
        if tail_row >= _CHUNK:
            recorder._seal()
        self._stack = stack
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._stack.pop()
        recorder = self._recorder
        duration = recorder._clock() - self._start
        tail_row = self._row - recorder._sealed
        if tail_row >= 0:
            recorder._tail_durations[tail_row] = duration
        else:
            recorder._durations[self._row] = duration
        return False


class SpanRecorder:
    """Collects spans for one run; attached to every :class:`Trace`."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock if clock is not None else _unbound_clock
        # Sealed rows [0, _sealed): typed columns.
        self._starts = array("q")
        self._durations = array("q")
        self._parents = array("q")
        self._sealed = 0
        # Rows [_sealed, len): the tail, appended to while recording.
        self._tail_starts: List[int] = []
        self._tail_durations: List[int] = []
        self._tail_parents: List[int] = []
        # Every row: its shape and attribute values.
        self._shapes: List[_Shape] = []
        self._values: List[Tuple[Any, ...]] = []
        self._shape_of: Dict[Tuple[str, str, Tuple[str, ...]], _Shape] = {}
        self._recent: Dict[str, _Shape] = {}
        self._shape_list: List[_Shape] = []
        # Explicit ids, only once add() imported a span.
        self._ids: Optional[array] = None
        self._next_id = 1
        self._open: Dict[str, List[int]] = {}

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    def __len__(self) -> int:
        return len(self._shapes)

    def __iter__(self) -> Iterator[Span]:
        self._seal()
        ids = count(1) if self._ids is None else self._ids
        for span_id, parent, shape, values, start, duration in zip(
            ids, self._parents, self._shapes, self._values,
            self._starts, self._durations,
        ):
            yield Span(
                span_id, None if parent == _NO_PARENT else parent,
                shape.name, shape.layer, start, duration,
                dict(zip(shape.keys, values)),
            )

    @property
    def spans(self) -> List[Span]:
        """Every span as a view, in record order (a copy)."""
        return list(self)

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
        block exits, including on exceptions.  The block gets the
        span's live :class:`SpanHandle`.
        """
        # Slot stores on a bare instance: an __init__ frame would cost
        # about as much again, once per span.
        context = _new(_SpanContext)
        context._recorder = self
        context._name = name
        context._layer = layer
        context._scope = scope
        context._attrs = attrs
        return context

    def record(
        self,
        name: str,
        layer: str,
        start_ns: int,
        duration_ns: int,
        scope: str = "cpu",
        parent: Union[Span, SpanHandle, int, None] = None,
        **attrs: Any,
    ) -> SpanHandle:
        """Record a completed span retroactively.

        The parent defaults to the innermost open span of ``scope`` —
        this is how fault-recovery spans end up nested under the
        operation they delayed — or may be given explicitly, as a span
        or an id.
        """
        if parent is None:
            stack = self._open.get(scope)
            parent = stack[-1] if stack else _NO_PARENT
        elif not isinstance(parent, int):
            parent = parent.span_id
        # The row append of _SpanContext.__enter__; keep the two in step.
        shape = self._recent.get(name)
        try:
            size = shape.size
            if len(attrs) != size or shape.layer != layer:
                raise KeyError
            values = (
                shape.take(attrs) if size > 1
                else (attrs[shape.keys[0]],) if size else ()
            )
        except (AttributeError, KeyError):
            shape, values = self._new_shape(name, layer, attrs)
        tail = self._tail_starts
        tail_row = len(tail)
        tail.append(start_ns)
        self._tail_durations.append(duration_ns)
        self._tail_parents.append(parent)
        self._shapes.append(shape)
        self._values.append(values)
        handle = _new(SpanHandle)
        handle._recorder = self
        handle._row = row = self._sealed + tail_row
        handle.span_id = row + 1 if self._ids is None else self._take_id()
        if tail_row >= _CHUNK:
            self._seal()
        return handle

    def add(self, span: Span) -> Span:
        """Append an externally built span (trace import), keeping the
        id counter ahead of every imported id.  Its id, parent id and
        times must be ints that fit in 64 bits (``ValueError``)."""
        parent = span.parent_id
        for value in (span.span_id, parent, span.start_ns, span.duration_ns):
            if value is not None and not (
                isinstance(value, int) and _NO_PARENT < value < -_NO_PARENT
            ):
                raise ValueError(f"span {span.name!r}: {value!r} is not a 64-bit int")
        if self._ids is None:
            self._ids = array("q", range(1, len(self) + 1))
            self._next_id = len(self) + 1
        self._seal()
        shape = self._shape(span.name, span.layer, tuple(span.attrs))
        self._starts.append(span.start_ns)
        self._durations.append(span.duration_ns)
        self._parents.append(_NO_PARENT if parent is None else parent)
        self._shapes.append(shape)
        self._values.append(tuple(span.attrs.values()))
        self._sealed += 1
        self._take_id(span.span_id)
        return span

    def _take_id(self, span_id: Optional[int] = None) -> int:
        """Append the id of a new row to the explicit id column: the
        next free id, or an imported span's own."""
        if span_id is None:
            span_id = self._next_id
        self._ids.append(span_id)
        self._next_id = max(self._next_id, span_id + 1)
        return span_id

    def _new_shape(
        self, name: str, layer: str, attrs: Dict[str, Any]
    ) -> Tuple[_Shape, Tuple[Any, ...]]:
        """The append's slow path: the shape of ``attrs`` as ordered,
        remembered as the recent one of ``name``, and the
        values."""
        shape = self._recent[name] = self._shape(name, layer, tuple(attrs))
        return shape, tuple(attrs.values())

    def _shape(self, name: str, layer: str, keys: Tuple[str, ...]) -> _Shape:
        """The interned shape of ``name``, ``layer`` and ``keys``."""
        shape = self._shape_of.get((name, layer, keys))
        if shape is None:
            shape = _Shape(name, layer, keys, len(self._shape_list))
            self._shape_of[(name, layer, keys)] = shape
            self._shape_list.append(shape)
        return shape

    def _seal(self) -> None:
        """Move the tail rows into the typed columns."""
        tail = self._tail_starts
        if tail:
            # One struct pack per column converts about four times as
            # fast as array.extend (a format parse per item).
            pack = Struct(f"{len(tail)}q").pack
            self._starts.frombytes(pack(*tail))
            self._durations.frombytes(pack(*self._tail_durations))
            self._parents.frombytes(pack(*self._tail_parents))
            self._sealed += len(tail)
            tail.clear()
            self._tail_durations.clear()
            self._tail_parents.clear()

    def _view(self, row: int) -> Span:
        self._seal()
        shape = self._shapes[row]
        parent = self._parents[row]
        return Span(
            row + 1 if self._ids is None else self._ids[row],
            None if parent == _NO_PARENT else parent,
            shape.name, shape.layer, self._starts[row], self._durations[row],
            dict(zip(shape.keys, self._values[row])),
        )

    # -- column queries ----------------------------------------------------

    def scan(
        self, pick: Callable[[str, str, Tuple[str, ...]], Optional[T]]
    ) -> Iterator[Tuple[T, int, int, Tuple[Any, ...]]]:
        """``(tag, start_ns, duration_ns, values)`` per row, in record
        order, for the rows whose shape ``pick(name, layer, keys)``
        tags (returns other than ``None``); ``values`` are the row's
        attribute values in ``keys`` order.  ``pick`` runs once per
        shape, not once per row, and no :class:`Span` is built: the
        per-row walk is C-level iterators over the columns."""
        self._seal()
        tags = [pick(s.name, s.layer, s.keys) for s in self._shape_list]
        keep = [tag is not None for tag in tags]
        shapes = self._shapes
        return compress(
            zip(
                map(tags.__getitem__, map(_shape_index, shapes)),
                self._starts, self._durations, self._values,
            ),
            map(keep.__getitem__, map(_shape_index, shapes)),
        )

    def flagged(self, key: str) -> List[Tuple[int, int]]:
        """``(start_ns, end_ns)`` of each span whose attribute ``key``
        is truthy, in record order."""
        def pick(name: str, layer: str, keys: Tuple[str, ...]) -> Optional[int]:
            return keys.index(key) if key in keys else None

        return [
            (start, start + duration)
            for at, start, duration, values in self.scan(pick)
            if values[at]
        ]

    def layers(self) -> List[str]:
        """Distinct layers present, taxonomy order."""
        return sorted({s.layer for s in self._shape_list}, key=layer_sort_key)

    def layer_busy_ns(self) -> Dict[str, int]:
        """Union busy time per layer (overlapping spans count once), in
        order of each layer's first span."""
        intervals: Dict[str, List[Tuple[int, int]]] = {}
        for layer, start, duration, _ in self.scan(_layer_of):
            intervals.setdefault(layer, []).append((start, start + duration))
        return {layer: union_length(spans) for layer, spans in intervals.items()}

    def total_ns(self, layer: Optional[str] = None) -> int:
        def pick(name: str, span_layer: str, keys: Tuple[str, ...]) -> Optional[bool]:
            return True if layer in (None, span_layer) else None

        return sum(duration for _, _, duration, _ in self.scan(pick))

    def longest(self, count: int) -> List[Span]:
        """The ``count`` longest spans, ties broken by id."""
        self._seal()
        ids = range(1, len(self) + 1) if self._ids is None else self._ids
        rows = sorted(
            range(len(self)), key=lambda row: (-self._durations[row], ids[row])
        )
        return [self._view(row) for row in rows[:count]]

    # -- span views --------------------------------------------------------

    def by_layer(self) -> Dict[str, List[Span]]:
        result: Dict[str, List[Span]] = {}
        for span in self:
            result.setdefault(span.layer, []).append(span)
        return result

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self if s.parent_id == span_id]

    def roots(self) -> List[Span]:
        return [s for s in self if s.parent_id is None]

    def subtree(self, root: Union[Span, SpanHandle]) -> List[Span]:
        """``root`` plus all transitive children, in id order."""
        if isinstance(root, SpanHandle):
            root = root.view()
        wanted = {root.span_id}
        selected = [root]
        for span in sorted(self, key=lambda s: s.span_id):
            if span.parent_id in wanted:
                wanted.add(span.span_id)
                selected.append(span)
        return sorted(selected, key=lambda s: s.span_id)


def _layer_of(name: str, layer: str, keys: Tuple[str, ...]) -> str:
    return layer
