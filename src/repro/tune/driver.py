"""The ``repro tune`` search driver.

Deterministic grid search over mitigation pipelines.  The unit of work
is one ``ext_recovered_serving`` ``cell`` variant — a single
(pipeline, rate, mode) serving scenario — scheduled through
:func:`repro.exec.runner.run_grid`, so points are content-addressed:
a re-run after an interrupt (or after editing unrelated figures) only
simulates the points whose cache entries are missing or stale, and
``--jobs N`` fans misses over a process pool while staying
byte-identical to the serial sweep.

The verdict deliberately excludes anything run-dependent (cache
hit/miss counts, wall times): for a fixed (spec, code, calibration)
triple, :func:`tune_verdict_json` is the same bytes on every machine,
every run — the determinism contract CI's ``tune-smoke`` job enforces
with ``cmp``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exec.runner import CellSpec, GridReport, run_grid
from ..optim.passes import parse_pipeline

#: Canonical family application order — matches the cumulative ladder
#: in :mod:`repro.figures.ext_recovered_serving` so pipeline ids line
#: up between the figure and the tuner.
FAMILY_ORDER = ("fusion", "overlap", "batch", "staging", "quant")

#: Per-family config candidates for each search grid.  ``small`` is
#: one candidate per family (2^5 = 32 pipelines over all families);
#: ``full`` widens the numeric knobs (2*3*4*2*3 = 144 pipelines).
CANDIDATES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "small": {
        "fusion": ("fusion",),
        "overlap": ("overlap:2",),
        "batch": ("batch:4",),
        "staging": ("staging",),
        "quant": ("quant:awq:8",),
    },
    "full": {
        "fusion": ("fusion",),
        "overlap": ("overlap:2", "overlap:4"),
        "batch": ("batch:2", "batch:4", "batch:8"),
        "staging": ("staging",),
        "quant": ("quant:awq:8", "quant:awq:4"),
    },
}


class TuneError(ValueError):
    """Invalid tune spec, or a sweep point failed to simulate."""


@dataclass(frozen=True)
class TuneSpec:
    """One auto-tuning problem: which passes to search, at what load."""

    families: Tuple[str, ...] = FAMILY_ORDER
    grid: str = "small"
    rate: float = 24.0
    duration_s: float = 2.0
    tenants: int = 2
    seed: int = 42

    def validate(self) -> None:
        if self.grid not in CANDIDATES:
            raise TuneError(
                f"unknown grid {self.grid!r} (have {sorted(CANDIDATES)})"
            )
        if not self.families:
            raise TuneError("families must be non-empty")
        seen = set()
        for family in self.families:
            if family not in FAMILY_ORDER:
                raise TuneError(
                    f"unknown pass family {family!r} "
                    f"(have {list(FAMILY_ORDER)})"
                )
            if family in seen:
                raise TuneError(f"duplicate pass family {family!r}")
            seen.add(family)
        if not (
            isinstance(self.rate, (int, float))
            and math.isfinite(self.rate)
            and self.rate > 0
        ):
            raise TuneError(f"rate must be positive finite, got {self.rate!r}")
        if not (
            isinstance(self.duration_s, (int, float))
            and math.isfinite(self.duration_s)
            and self.duration_s > 0
        ):
            raise TuneError(
                f"duration_s must be positive finite, got {self.duration_s!r}"
            )
        if not isinstance(self.tenants, int) or self.tenants < 1:
            raise TuneError(f"tenants must be an int >= 1, got {self.tenants!r}")


def enumerate_pipelines(spec: TuneSpec) -> Tuple[str, ...]:
    """Deterministic pipeline enumeration: the cross product of
    (absent | candidate...) per selected family, in canonical family
    order.  The all-absent combination spells ``naive`` and always
    comes first — the untuned baseline every sweep includes."""
    spec.validate()
    candidates = CANDIDATES[spec.grid]
    axes = [
        (None, *candidates[family])
        for family in FAMILY_ORDER
        if family in spec.families
    ]
    pipelines: List[str] = []
    for combo in itertools.product(*axes):
        chosen = [token for token in combo if token is not None]
        pipelines.append("+".join(chosen) if chosen else "naive")
    return tuple(pipelines)


def _cell_slug(pipeline: str) -> str:
    return (
        parse_pipeline(pipeline)
        .pipeline_id()
        .replace(":", "")
        .replace("+", "-")
    )


def build_grid(spec: TuneSpec) -> Dict[str, CellSpec]:
    """The sweep as an exec grid: one non-hidden cell per point.

    Cells must NOT be hidden — hidden cells get a self-test cache key
    instead of the code fingerprint, which would defeat invalidation
    when :mod:`repro.optim` / the figure module changes.
    """

    def cell(cell_id: str, pipeline: str, mode: str) -> CellSpec:
        return CellSpec(
            cell_id=cell_id,
            module="ext_recovered_serving",
            variant="cell",
            params=(
                ("passes", pipeline),
                ("rate", float(spec.rate)),
                ("mode", mode),
                ("duration_s", float(spec.duration_s)),
                ("tenants", spec.tenants),
                ("seed", spec.seed),
            ),
            slow=True,
        )

    grid: Dict[str, CellSpec] = {}
    base_id = f"tune_base_r{spec.rate:g}"
    grid[base_id] = cell(base_id, "naive", "base")
    for pipeline in enumerate_pipelines(spec):
        cell_id = f"tune_cc_r{spec.rate:g}_{_cell_slug(pipeline)}"
        if cell_id in grid:  # pragma: no cover - candidate sets are injective
            raise TuneError(f"duplicate tune cell id {cell_id!r}")
        grid[cell_id] = cell(cell_id, pipeline, "cc")
    return grid


@dataclass
class TuneReport:
    """Everything one tuning sweep produced."""

    spec: TuneSpec
    points: List[Dict]  # per-pipeline metric records (cc mode)
    baseline: Dict  # base-mode + naive-cc reference metrics
    grid_report: GridReport = field(repr=False, default=None)

    @property
    def pareto(self) -> List[Dict]:
        return [p for p in self.points if p["pareto"]]

    @property
    def best(self) -> Dict:
        """Top-goodput Pareto point (ties break on lower TTFT p99,
        then pipeline id — all deterministic)."""
        return min(
            self.pareto,
            key=lambda p: (-p["goodput_rps"], p["ttft_p99_ms"],
                           p["pipeline"]),
        )


def pareto_frontier(points: Sequence[Mapping]) -> List[bool]:
    """Non-dominated mask over (goodput up, TTFT p99 down, CC overhead
    ratio down).  A point is dominated when another is at least as good
    on every objective and strictly better on one."""

    def objectives(p: Mapping) -> Tuple[float, float, float]:
        return (
            -p["goodput_rps"],
            p["ttft_p99_ms"],
            p["cc_overhead_ratio"],
        )

    mask: List[bool] = []
    for me in points:
        mine = objectives(me)
        dominated = any(
            all(o <= m for o, m in zip(objectives(other), mine))
            and objectives(other) != mine
            for other in points
        )
        mask.append(not dominated)
    return mask


def _harvest_row(json_path: str) -> Dict:
    with open(json_path) as handle:
        payload = json.load(handle)
    columns = payload["columns"]
    row = dict(zip(columns, payload["rows"][0]))
    for note in payload.get("notes", []):
        if note.startswith("accuracy_drop_pct="):
            row["accuracy_drop_pct"] = float(note.split("=", 1)[1])
    return row


def run_tune(
    spec: TuneSpec,
    jobs: int = 1,
    results_dir: str = os.path.join("results", "tune"),
    cache_dir: Optional[str] = None,
    force: bool = False,
    use_cache: bool = True,
) -> TuneReport:
    """Run (or resume) one tuning sweep.

    ``cache_dir`` defaults to the main grid's ``results/.cache`` so
    tune points share the content-addressed store with ``repro run``
    (and CI's cache restore); per-point outputs land under
    ``results_dir`` as ``<figure_id>.json|.txt``.
    """
    spec.validate()
    grid = build_grid(spec)
    cache_dir = cache_dir or os.path.join("results", ".cache")
    report = run_grid(
        list(grid),
        jobs=jobs,
        results_dir=results_dir,
        cache_dir=cache_dir,
        force=force,
        use_cache=use_cache,
        grid=grid,
    )
    failed = report.failed
    if failed:
        details = "; ".join(
            f"{outcome.cell}: {outcome.error}" for outcome in failed
        )
        raise TuneError(f"{len(failed)} tune point(s) failed: {details}")

    rows = {
        outcome.cell: _harvest_row(outcome.json_path)
        for outcome in report.outcomes
    }
    base_id = f"tune_base_r{spec.rate:g}"
    base_row = rows.pop(base_id)
    base_goodput = base_row["goodput_rps"]

    naive_id = f"tune_cc_r{spec.rate:g}_naive"
    naive_goodput = rows[naive_id]["goodput_rps"]
    gap = base_goodput - naive_goodput

    points: List[Dict] = []
    for cell_id in sorted(rows):
        row = rows[cell_id]
        goodput = row["goodput_rps"]
        points.append({
            "pipeline": row["pipeline"],
            "goodput_rps": goodput,
            "completed_rps": row["completed_rps"],
            "ttft_p50_ms": row["ttft_p50_ms"],
            "ttft_p99_ms": row["ttft_p99_ms"],
            "tpot_p99_ms": row["tpot_p99_ms"],
            "preemptions": row["preemptions"],
            "accuracy_drop_pct": row.get("accuracy_drop_pct", 0.0),
            # CC tax left after mitigation: untuned-native over tuned-CC
            # goodput (1.0 = gap closed; < 1.0 = now beating native).
            "cc_overhead_ratio": round(base_goodput / goodput, 4)
            if goodput > 0 else math.inf,
            "clawback_frac": round((goodput - naive_goodput) / gap, 4)
            if gap > 0 else 0.0,
        })
    for point, flag in zip(points, pareto_frontier(points)):
        point["pareto"] = flag
    baseline = {
        "base_goodput_rps": base_goodput,
        "base_ttft_p99_ms": base_row["ttft_p99_ms"],
        "naive_cc_goodput_rps": naive_goodput,
        "naive_cc_ttft_p99_ms": rows[naive_id]["ttft_p99_ms"],
    }
    return TuneReport(
        spec=spec, points=points, baseline=baseline, grid_report=report
    )


def tune_verdict(report: TuneReport) -> Dict:
    """Deterministic, JSON-ready verdict (no cache/wall statistics)."""
    best = report.best
    return {
        "command": "tune",
        "spec": asdict(report.spec),
        "cells": len(report.points) + 1,  # + the base-mode point
        "baseline": report.baseline,
        "points": report.points,
        "pareto": [p["pipeline"] for p in report.pareto],
        "best": {
            "pipeline": best["pipeline"],
            "goodput_rps": best["goodput_rps"],
            "ttft_p99_ms": best["ttft_p99_ms"],
            "cc_overhead_ratio": best["cc_overhead_ratio"],
            "clawback_frac": best["clawback_frac"],
            "accuracy_drop_pct": best["accuracy_drop_pct"],
        },
    }


def tune_verdict_json(report: TuneReport) -> str:
    """Byte-stable encoding (the ``tune-smoke`` determinism gate)."""
    return json.dumps(tune_verdict(report), indent=1, sort_keys=True)


def render_pareto_table(report: TuneReport) -> str:
    """Human-readable Pareto summary for the CLI."""
    lines = [
        "pareto frontier (goodput up, ttft p99 down, cc ratio down):",
        f"{'pipeline':<48} {'goodput':>8} {'ttft_p99':>9} "
        f"{'cc_ratio':>9} {'clawback':>9} {'acc_drop':>9}",
    ]
    frontier = sorted(
        report.pareto, key=lambda p: (-p["goodput_rps"], p["pipeline"])
    )
    for p in frontier:
        lines.append(
            f"{p['pipeline']:<48} {p['goodput_rps']:>8.2f} "
            f"{p['ttft_p99_ms']:>9.2f} {p['cc_overhead_ratio']:>9.3f} "
            f"{p['clawback_frac']:>9.2f} {p['accuracy_drop_pct']:>9.2f}"
        )
    base = report.baseline
    lines.append(
        f"baseline: base goodput {base['base_goodput_rps']:.2f} rps, "
        f"naive CC goodput {base['naive_cc_goodput_rps']:.2f} rps "
        f"({len(report.pareto)}/{len(report.points)} points on frontier)"
    )
    best = report.best
    lines.append(
        f"best: {best['pipeline']} — goodput {best['goodput_rps']:.2f} rps, "
        f"ttft p99 {best['ttft_p99_ms']:.2f} ms, "
        f"claws back {100 * best['clawback_frac']:.0f}% of the CC gap"
    )
    return "\n".join(lines)
