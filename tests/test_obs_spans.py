"""Tests for hierarchical spans: recording modes, scope isolation,
layer queries, and flame-graph folding from span trees."""

from repro.obs import Span, SpanRecorder
from repro.obs.spans import CANONICAL_LAYERS, layer_sort_key
from repro.profiler import folded_from_spans, frame_share, tree_from_spans


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _recorder():
    clock = FakeClock()
    return SpanRecorder(clock=clock), clock


# --- recording ------------------------------------------------------------


def test_context_manager_nesting():
    rec, clock = _recorder()
    with rec.span("outer", "driver") as outer:
        clock.now = 10
        with rec.span("inner", "tdx_module") as inner:
            clock.now = 30
        clock.now = 50
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert inner.start_ns == 10 and inner.duration_ns == 20
    assert outer.start_ns == 0 and outer.duration_ns == 50


def test_span_closes_on_exception():
    rec, clock = _recorder()
    try:
        with rec.span("fails", "driver"):
            clock.now = 7
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (span,) = rec.spans
    assert span.duration_ns == 7
    # The open stack is clean: a later span is a root, not a child.
    with rec.span("next", "driver") as nxt:
        pass
    assert nxt.parent_id is None


def test_scopes_do_not_misparent():
    rec, clock = _recorder()
    with rec.span("cpu_work", "driver"):
        with rec.span("gpu_work", "gpu.compute", scope="gpu:s0") as gpu:
            pass
    assert gpu.parent_id is None  # its scope has no open parent


def test_record_defaults_to_innermost_open_span():
    rec, clock = _recorder()
    with rec.span("op", "driver") as op:
        clock.now = 100
        retro = rec.record("recover:site", "recovery", 40, 60)
    assert retro.parent_id == op.span_id


def test_record_explicit_parent_and_attrs():
    rec, _ = _recorder()
    parent = rec.record("hypercall", "tdx_module", 0, 10)
    child = rec.record(
        "seamcall", "tdx_module", 0, 10, parent=parent, pages=4
    )
    by_id = rec.record("other", "td", 0, 5, parent=parent.span_id)
    assert child.parent_id == parent.span_id
    assert by_id.parent_id == parent.span_id
    assert child.attrs == {"pages": 4}


def test_add_keeps_id_counter_ahead():
    rec, _ = _recorder()
    rec.add(Span(span_id=41, parent_id=None, name="imported",
                 layer="driver", start_ns=0, duration_ns=5))
    fresh = rec.record("new", "driver", 5, 1)
    assert fresh.span_id > 41


# --- queries --------------------------------------------------------------


def test_layer_sort_key_taxonomy_then_alpha():
    layers = ["recovery", "gpu.compute", "td", "driver", "api"]
    ordered = sorted(layers, key=layer_sort_key)
    assert ordered == ["td", "driver", "gpu.compute", "api", "recovery"]
    assert CANONICAL_LAYERS[0] == "td"


def test_layer_busy_merges_overlap():
    rec, _ = _recorder()
    rec.record("a", "dma", 0, 100)
    rec.record("b", "dma", 50, 100)  # overlaps a by 50
    rec.record("c", "driver", 500, 10)
    busy = rec.layer_busy_ns()
    assert busy["dma"] == 150  # union, not 200
    assert rec.total_ns("dma") == 200  # plain sum double-counts
    assert busy["driver"] == 10
    assert rec.layers() == ["driver", "dma"]


def test_subtree_and_roots():
    rec, _ = _recorder()
    root = rec.record("root", "driver", 0, 100)
    child = rec.record("child", "td", 0, 40, parent=root)
    grand = rec.record("grand", "tdx_module", 0, 10, parent=child)
    other = rec.record("other", "driver", 200, 5)
    assert rec.roots() == [root, other]
    assert rec.subtree(root) == [root, child, grand]
    assert rec.children_of(root.span_id) == [child]


# --- flame-graph folding --------------------------------------------------


def test_tree_from_spans_self_time():
    rec, _ = _recorder()
    root = rec.record("launch", "driver", 0, 100)
    rec.record("hypercall", "tdx_module", 10, 60, parent=root)
    tree = tree_from_spans(rec.spans, root_name="R")
    launch = tree.children["launch"]
    assert launch.total_ns == 100
    assert launch.self_ns == 40  # 100 inclusive - 60 child
    assert frame_share(tree, "hypercall") == 0.6


def test_folded_from_spans_rows():
    rec, _ = _recorder()
    root = rec.record("launch", "driver", 0, 100)
    rec.record("hypercall", "tdx_module", 10, 60, parent=root)
    rows = dict(folded_from_spans(rec.spans))
    assert rows == {"launch": 40, "launch;hypercall": 60}
