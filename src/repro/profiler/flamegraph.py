"""Flame-graph folding and rendering (paper Fig. 8).

Builds an aggregated call tree with inclusive times from the
hierarchical span tree of :class:`repro.obs.SpanRecorder`
(:func:`tree_from_spans`) or folded-stacks rows from the same spans
(:func:`folded_from_spans`), plus a simple ASCII rendering used by the
Fig. 8 bench and the ``repro trace`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass
class FlameNode:
    name: str
    self_ns: int = 0
    children: Dict[str, "FlameNode"] = field(default_factory=dict)

    @property
    def total_ns(self) -> int:
        return self.self_ns + sum(c.total_ns for c in self.children.values())

    def child(self, name: str) -> "FlameNode":
        node = self.children.get(name)
        if node is None:
            node = FlameNode(name)
            self.children[name] = node
        return node


def tree_from_spans(spans: Iterable, root_name: str = "root") -> FlameNode:
    """Aggregate a span forest into a call tree.

    Spans carry *inclusive* durations, so each span's self-time is its
    duration minus the total duration of its direct children (clamped
    at zero — retroactive child spans may model overlapping pipeline
    stages).  Spans whose parent is not part of ``spans`` hang off the
    root, so a filtered subtree folds cleanly.
    """
    spans = list(spans)
    child_total: Dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0) + span.duration_ns
            )
    root = FlameNode(root_name)
    nodes: Dict[int, FlameNode] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        parent = nodes.get(span.parent_id, root)
        node = parent.child(span.name)
        nodes[span.span_id] = node
        node.self_ns += max(
            0, span.duration_ns - child_total.get(span.span_id, 0)
        )
    return root


def folded_from_spans(spans: Iterable) -> List[Tuple[str, int]]:
    """Folded-stacks rows (``a;b;c``, self_ns) from a span forest."""
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    child_total: Dict[int, int] = {}
    for span in spans:
        if span.parent_id in by_id:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0) + span.duration_ns
            )

    def path(span) -> str:
        names: List[str] = []
        cursor = span
        while cursor is not None:
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id)
        return ";".join(reversed(names))

    rows: Dict[str, int] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        self_ns = max(0, span.duration_ns - child_total.get(span.span_id, 0))
        if self_ns <= 0:
            continue
        key = path(span)
        rows[key] = rows.get(key, 0) + self_ns
    return sorted(rows.items())


def render_ascii(root: FlameNode, width: int = 72) -> str:
    """Indented tree with per-frame inclusive time and share of root."""
    lines: List[str] = []
    total = max(root.total_ns, 1)

    def visit(node: FlameNode, depth: int) -> None:
        share = node.total_ns / total * 100.0
        label = f"{'  ' * depth}{node.name}"
        timing = f"{node.total_ns / 1000.0:10.2f} us {share:5.1f}%"
        pad = max(1, width - len(label))
        lines.append(f"{label}{' ' * pad}{timing}")
        for child in sorted(
            node.children.values(), key=lambda c: -c.total_ns
        ):
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def frame_share(root: FlameNode, frame_name: str) -> float:
    """Inclusive share [0,1] of all stacks passing through frame_name."""
    total = max(root.total_ns, 1)

    def inclusive(node: FlameNode) -> int:
        if node.name == frame_name:
            return node.total_ns
        return sum(inclusive(child) for child in node.children.values())

    return inclusive(root) / total
