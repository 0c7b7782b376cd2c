"""Shared infrastructure for figure reproduction.

Every figure module exposes a ``generate(...) -> FigureResult``; the
result carries typed rows, renders as an aligned text table, and
serializes to JSON so benches can tee machine-readable output into
``results/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class RunConfig:
    """Uniform argument for the per-figure ``run(config)`` entry points.

    The execution harness (:mod:`repro.exec`) drives every figure
    through ``module.run(config)``.  ``variant`` selects a panel for
    multi-panel modules (``"a"``/``"b"``/``"c"`` for fig04/fig12, the
    experiment name for extensions); ``params`` are keyword arguments
    forwarded verbatim to the underlying generator.
    """

    variant: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


def dispatch(variants: Mapping[str, Any], config: Optional[RunConfig],
             module: str) -> "FigureResult":
    """Resolve ``config`` against a module's ``VARIANTS`` table."""
    variant = config.variant if config is not None else ""
    try:
        generator = variants[variant]
    except KeyError:
        raise ValueError(
            f"{module}: unknown variant {variant!r}; "
            f"known: {sorted(variants)}"
        ) from None
    return generator(**(config.kwargs() if config is not None else {}))


@dataclass
class FigureResult:
    """Rows reproducing one paper figure/table."""

    figure_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]]
    notes: List[str] = field(default_factory=list)
    # paper-vs-measured summary entries: (metric, paper value, measured)
    comparisons: List[Dict[str, Any]] = field(default_factory=list)

    def add_comparison(self, metric: str, paper: float, measured: float) -> None:
        self.comparisons.append(
            {"metric": metric, "paper": paper, "measured": measured}
        )

    def add_paper_comparison(
        self, metric: str, measured: float, default: Optional[float] = None
    ) -> None:
        """Add a comparison whose paper value comes from the canonical
        target table (:mod:`repro.check.paper_targets`) — the same
        table the accuracy gate scores against, so figure and gate
        cannot disagree.  ``default`` covers parameter-dependent metric
        names that only have a table entry for the default parameters.
        """
        from ..check.paper_targets import paper_value

        self.add_comparison(
            metric, paper_value(self.figure_id, metric, default), measured
        )

    def to_text(self) -> str:
        widths = [len(str(c)) for c in self.columns]
        str_rows = [[_fmt(cell) for cell in row] for row in self.rows]
        for row in str_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.figure_id}: {self.title} =="]
        header = "  ".join(
            str(c).ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in str_rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        if self.comparisons:
            lines.append("")
            lines.append("paper-vs-measured:")
            for item in self.comparisons:
                lines.append(
                    f"  {item['metric']:<42} paper={item['paper']:<12g} "
                    f"measured={item['measured']:g}"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "figure_id": self.figure_id,
                "title": self.title,
                "columns": list(self.columns),
                "rows": [[_jsonable(c) for c in row] for row in self.rows],
                "notes": self.notes,
                "comparisons": self.comparisons,
            },
            indent=1,
        )

    def save(self, results_dir: str) -> str:
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{self.figure_id}.json")
        with open(path, "w") as handle:
            handle.write(self.to_json())
        text_path = os.path.join(results_dir, f"{self.figure_id}.txt")
        with open(text_path, "w") as handle:
            handle.write(self.to_text() + "\n")
        return path


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 10000 or abs(cell) < 0.001:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def _jsonable(cell: Any) -> Any:
    if hasattr(cell, "value"):
        return cell.value
    return cell


# A serving rate sustains its offered load while goodput >= 90 % of
# it; the knee is the last sustained rate in the sweep.
KNEE_ATTAINMENT = 0.9


def knee(rates: Sequence[float], goodput: Mapping[float, float]) -> float:
    """The goodput knee of a rate sweep (0.0 if no rate is sustained)."""
    sustained = [r for r in rates if goodput[r] >= KNEE_ATTAINMENT * r]
    return max(sustained) if sustained else 0.0


def default_results_dir() -> str:
    return os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "results"),
    )
