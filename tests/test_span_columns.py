"""The column-store span recorder against a list-of-``Span`` reference.

``_ReferenceRecorder`` and ``_reference_derive_events`` keep one
``Span`` object (and one attribute dict) per span, as the recorder did
before it stored rows in columns.  Random sequences of with-block
spans across scopes, attributes set inside a block or deleted,
exceptions, retroactive records and imported spans drive both; every query must
answer the same, also mid-sequence while spans are open.  A last test
bounds the heap a finished trace keeps per span.
"""

import gc
import itertools
import tracemalloc
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.intervals import union_length
from repro.cuda import run_app
from repro.obs import spans as spans_module
from repro.obs.spans import Span, SpanRecorder, layer_sort_key
from repro.profiler.collector import (
    API_EVENT_KINDS,
    LAYER_EVENT_KINDS,
    derive_events,
)
from repro.profiler.events import EventKind, TraceEvent
from repro.workloads import CATALOG


class _ReferenceContext:
    def __init__(self, recorder, name, layer, scope, attrs):
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._scope = scope
        self._attrs = attrs

    def __enter__(self) -> Span:
        recorder = self._recorder
        stack = recorder._open.setdefault(self._scope, [])
        span = Span(
            next(recorder._ids),
            stack[-1].span_id if stack else None,
            self._name, self._layer, recorder._clock(), 0, self._attrs,
        )
        recorder.spans.append(span)
        stack.append(span)
        self._span = span
        self._stack = stack
        return span

    def __exit__(self, *exc: Any) -> bool:
        self._stack.pop()
        self._span.duration_ns = self._recorder._clock() - self._span.start_ns
        return False


class _ReferenceRecorder:
    """One ``Span`` per span, in a list (the pre-column recorder)."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: Dict[str, List[Span]] = {}

    @property
    def has_open(self) -> bool:
        return any(self._open.values())

    def span(self, name, layer, scope="cpu", **attrs):
        return _ReferenceContext(self, name, layer, scope, attrs)

    def record(self, name, layer, start_ns, duration_ns, scope="cpu",
               parent=None, **attrs) -> Span:
        if parent is None:
            stack = self._open.get(scope)
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = Span(next(self._ids), parent_id, name, layer, start_ns,
                    duration_ns, attrs)
        self.spans.append(span)
        return span

    def add(self, span: Span) -> Span:
        self.spans.append(span)
        self._ids = itertools.count(max(span.span_id + 1, next(self._ids)))
        return span

    def layers(self):
        return sorted({s.layer for s in self.spans}, key=layer_sort_key)

    def by_layer(self):
        result: Dict[str, List[Span]] = {}
        for span in self.spans:
            result.setdefault(span.layer, []).append(span)
        return result

    def layer_busy_ns(self):
        return {
            layer: union_length((s.start_ns, s.end_ns) for s in spans)
            for layer, spans in self.by_layer().items()
        }

    def children_of(self, span_id):
        return [s for s in self.spans if s.parent_id == span_id]

    def roots(self):
        return [s for s in self.spans if s.parent_id is None]

    def subtree(self, root):
        wanted = {root.span_id}
        selected = [root]
        for span in sorted(self.spans, key=lambda s: s.span_id):
            if span.parent_id in wanted:
                wanted.add(span.span_id)
                selected.append(span)
        return sorted(selected, key=lambda s: s.span_id)

    def total_ns(self, layer=None):
        return sum(s.duration_ns for s in self.spans
                   if layer is None or s.layer == layer)


def _reference_derive_events(spans) -> List[TraceEvent]:
    events = []
    last_launch_end: Optional[int] = None
    for span in spans:
        kind = LAYER_EVENT_KINDS.get(span.layer) or API_EVENT_KINDS.get(span.name)
        if kind is None:
            continue
        if kind is EventKind.KERNEL:
            pages = span.attrs.get("faulted_pages")
            events.append(TraceEvent(
                kind, span.name, span.start_ns, span.duration_ns,
                queue_ns=span.attrs["kqt_ns"], stream=span.attrs["stream"],
                attrs={"uvm": pages is not None, "faulted_pages": pages or 0},
            ))
            continue
        attrs = {} if kind is EventKind.SYNC else dict(span.attrs)
        event = TraceEvent(kind, span.name, span.start_ns, span.duration_ns,
                           attrs=attrs)
        if kind is EventKind.LAUNCH:
            if last_launch_end is not None:
                event.queue_ns = max(0, span.start_ns - last_launch_end)
            last_launch_end = span.end_ns
            event.name = (attrs.pop("kernel") if span.name == "cudaLaunchKernel"
                          else f"graph[{attrs.pop('nodes')}]")
            event.stream = attrs.pop("stream")
            attrs.setdefault("first", False)
        events.append(event)
    return events


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


SCOPES = ("cpu", "gpu:s0", "gpu:s1")
_small = st.integers(min_value=0, max_value=50)


def _attrs_for(data, name: str) -> Dict[str, Any]:
    """Attributes of the shapes the stack records, plus variants: a
    missing or extra key, and one name with its keys in two orders."""
    draw = data.draw
    if name == "cudaLaunchKernel":
        attrs = {"kernel": draw(st.sampled_from(["k0", "k1"])),
                 "stream": draw(_small), "first": draw(st.booleans())}
    elif name == "cudaGraphLaunch":
        attrs = {"nodes": draw(_small), "stream": draw(_small)}
    elif name.startswith("kern"):
        attrs = {"stream": draw(_small), "kqt_ns": draw(_small)}
    elif name == "cudaMalloc":
        pairs = [("bytes", draw(_small)), ("memory", "device")]
        attrs = dict(draw(st.permutations(pairs)))
    else:
        keys = draw(st.lists(st.sampled_from(["crypto", "bytes", "pages", "req"]),
                             unique=True, max_size=3))
        attrs = {key: draw(st.one_of(st.booleans(), _small)) for key in keys}
    return attrs


#: (name, layer) of every span the sequences record.
NAMES = (
    ("cudaLaunchKernel", "driver"),
    ("cudaGraphLaunch", "driver"),
    ("cudaDeviceSynchronize", "driver"),
    ("cudaMalloc", "driver"),
    ("kern_a", "gpu.compute"),
    ("kern_b", "gpu.compute"),
    ("cc_encrypt_pushbuffer", "td"),
    ("recover:dma", "recovery"),
    ("vmcall", "tdx_module"),
    ("uvm.migrate", "dma"),
)


def _assert_same(col: SpanRecorder, ref: _ReferenceRecorder, pairs) -> None:
    assert len(col) == len(ref.spans)
    assert col.has_open == ref.has_open
    assert list(col) == ref.spans
    assert col.spans == ref.spans
    assert col.roots() == ref.roots()
    ids = {s.span_id for s in ref.spans} | {0, 10_000}
    for span_id in sorted(ids):
        assert col.children_of(span_id) == ref.children_of(span_id)
    for root in ref.roots():
        assert col.subtree(root) == ref.subtree(root)
    assert list(col.by_layer().items()) == list(ref.by_layer().items())
    assert list(col.layer_busy_ns().items()) == list(ref.layer_busy_ns().items())
    assert col.total_ns() == ref.total_ns()
    for layer in ref.layers() + ["absent"]:
        assert col.total_ns(layer) == ref.total_ns(layer)
    assert col.layers() == ref.layers()
    assert derive_events(col) == _reference_derive_events(ref.spans)
    for handle, span in pairs:
        assert handle == span
        assert handle.span_id == span.span_id
        assert handle.parent_id == span.parent_id
        assert handle.duration_ns == span.duration_ns
        assert dict(handle.attrs) == span.attrs
    for handle, span in pairs[:3]:
        assert col.subtree(handle) == ref.subtree(span)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_column_recorder_matches_reference(data):
    draw = data.draw
    chunk = spans_module._CHUNK
    # A small tail chunk seals mid-sequence, also under open spans.
    spans_module._CHUNK = draw(st.sampled_from([1, 3, 4096]))
    try:
        clock = _Clock()
        col, ref = SpanRecorder(clock), _ReferenceRecorder(clock)
        opened: Dict[str, list] = {scope: [] for scope in SCOPES}
        pairs: list = []  # (column handle, reference span)
        for _ in range(draw(st.integers(min_value=0, max_value=40))):
            op = draw(st.sampled_from(
                ["enter", "enter", "exit", "raise", "tick", "set", "delete",
                 "record", "add", "check"]
            ))
            scope = draw(st.sampled_from(SCOPES))
            stack = opened[scope]
            if op == "enter":
                name, layer = draw(st.sampled_from(NAMES))
                attrs = _attrs_for(data, name)
                contexts = (col.span(name, layer, scope, **attrs),
                            ref.span(name, layer, scope, **dict(attrs)))
                pair = tuple(context.__enter__() for context in contexts)
                stack.append((contexts, pair))
                pairs.append(pair)
            elif op in ("exit", "raise") and stack:
                error = RuntimeError("boom") if op == "raise" else None
                for context in stack.pop()[0]:
                    exc = (type(error), error, None) if error else (None,) * 3
                    assert context.__exit__(*exc) is False
            elif op == "tick":
                clock.now += draw(_small)
            elif op == "set" and stack:
                key = draw(st.sampled_from(["faulted_pages", "bytes", "crypto"]))
                value = draw(_small)
                handle, span = stack[-1][1]
                handle.attrs[key] = value
                span.attrs[key] = value
            elif op == "delete" and pairs:
                handle, span = draw(st.sampled_from(pairs))
                # Keep what derive_events reads: both sides would raise.
                optional = sorted(set(span.attrs) - {"kernel", "stream", "kqt_ns", "nodes"})
                if optional:
                    key = draw(st.sampled_from(optional))
                    del handle.attrs[key]
                    del span.attrs[key]
            elif op == "record":
                name, layer = draw(st.sampled_from(NAMES))
                attrs = _attrs_for(data, name)
                start, duration = draw(_small), draw(_small)
                mode = draw(st.sampled_from(["implicit", "int", "handle"]))
                if mode == "int":
                    parent = draw(st.integers(min_value=1, max_value=60))
                    parents = (parent, parent)
                elif mode == "handle" and pairs:
                    parents = draw(st.sampled_from(pairs))
                else:
                    parents = (None, None)
                pairs.append((
                    col.record(name, layer, start, duration, scope,
                               parents[0], **attrs),
                    ref.record(name, layer, start, duration, scope,
                               parents[1], **dict(attrs)),
                ))
            elif op == "add":
                name, layer = draw(st.sampled_from(NAMES))
                span = Span(
                    draw(st.integers(min_value=1, max_value=80)),
                    draw(st.one_of(st.none(), st.integers(min_value=1, max_value=80))),
                    name, layer, draw(_small), draw(_small),
                    _attrs_for(data, name),
                )
                col.add(span)
                ref.add(Span(span.span_id, span.parent_id, name, layer,
                             span.start_ns, span.duration_ns, dict(span.attrs)))
            elif op == "check":
                _assert_same(col, ref, pairs)
        for stack in opened.values():
            while stack:
                clock.now += 1
                for context in stack.pop()[0]:
                    context.__exit__(None, None, None)
        _assert_same(col, ref, pairs)
    finally:
        spans_module._CHUNK = chunk


def test_retained_bytes_per_span():
    """A finished trace keeps its spans in columns: the heap one sc CC
    run retains (1,611 launches, 11,396 spans; tracemalloc) is at most
    half of what one ``Span`` and one attribute dict per span kept.
    That layout retained 412.7 bytes per span (Python 3.11)."""
    def run():
        return run_app(CATALOG["sc"].app(False), SystemConfig.confidential(seed=42),
                       label="sc")[0]

    run()  # warm every cache the run fills
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run()
        trace.span_ns()  # a finished trace, read once
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.launches()) == 1611
    assert retained / len(trace.spans) <= 412.7 / 2
