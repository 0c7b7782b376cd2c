"""Parallel experiment orchestrator for the figure/workload grid.

``repro run --figures fig04,fig05 --jobs 4`` (or ``--all``) fans the
grid out across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Each worker runs one *(figure, variant)* cell in an isolated process —
its own interpreter state, its own seeded RNG — through the figure
module's uniform ``run(config) -> FigureResult`` entry point, and
ships back the exact ``to_json``/``to_text`` strings the serial path
writes, so the merged ``results/`` tree is byte-identical however many
jobs produced it.

Results are content-addressed in ``results/.cache/`` (see
:mod:`repro.exec.cache`); the key covers the calibration targets, the
resolved base/CC :class:`~repro.config.SystemConfig`, the per-figure
code fingerprint, and the cell's own parameters.  Unchanged cells are
served from cache without touching the simulator; only edited figures
re-simulate.  Per-cell wall time and hit/miss stats are recorded in a
:class:`~repro.obs.MetricsRegistry`.

A cell that raises is reported as a failure and never poisons the rest
of the grid — the pool keeps draining, the failing cell is simply not
cached.
"""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import importlib
import multiprocessing
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..figures.common import FigureResult, RunConfig
from ..figures.extensions import EXPERIMENTS
from ..obs import MetricsRegistry
from ..sim import SimTimeCollector
from . import fingerprint
from .cache import CacheStats, ResultCache, default_cache_dir, entry_key

# ---------------------------------------------------------------------------
# The grid


@dataclass(frozen=True)
class CellSpec:
    """One (figure, variant) cell of the experiment grid."""

    cell_id: str
    module: str  # figure module basename under repro.figures
    variant: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()
    slow: bool = False  # excluded from the default set, included by --all
    hidden: bool = False  # never listed; resolvable by exact id only

    def entry_module(self) -> str:
        if self.hidden:
            return "repro.exec.runner"
        return f"repro.figures.{self.module}"


def _cells(*specs: CellSpec) -> Dict[str, CellSpec]:
    return {spec.cell_id: spec for spec in specs}


GRID: Dict[str, CellSpec] = _cells(
    CellSpec("table1", "table1_config"),
    CellSpec("fig01", "fig01_overview"),
    CellSpec("fig03", "fig03_model"),
    CellSpec("fig04a", "fig04_bandwidth", variant="a"),
    CellSpec("fig04b", "fig04_bandwidth", variant="b"),
    CellSpec("fig05", "fig05_copytime"),
    CellSpec("fig06", "fig06_alloc"),
    CellSpec("fig07", "fig07_launch"),
    CellSpec("fig08", "fig08_flamegraph"),
    CellSpec("fig09", "fig09_ket"),
    CellSpec("fig10", "fig10_events"),
    CellSpec("fig11", "fig11_cdf"),
    CellSpec("fig12a", "fig12_micro", variant="a"),
    CellSpec("fig12b", "fig12_micro", variant="b"),
    CellSpec("fig12c", "fig12_micro", variant="c", slow=True),
    CellSpec("fig13", "fig13_cnn", slow=True),
    CellSpec("fig14", "fig14_llm", slow=True),
    *[
        CellSpec(f"ext_{name}", "extensions", variant=name, slow=True)
        for name in EXPERIMENTS
    ],
    # The serving extension lives in its own figure module (it layers
    # on repro.serve rather than the single-app extension harness).
    CellSpec("ext_serving", "ext_serving", slow=True),
    CellSpec("ext_fault_serving", "ext_fault_serving", slow=True),
    CellSpec("ext_serve_telemetry", "ext_serve_telemetry", slow=True),
    CellSpec("ext_cluster_serving", "ext_cluster_serving", slow=True),
    CellSpec("ext_recovered_serving", "ext_recovered_serving", slow=True),
    # Harness self-test hook: a cell that always raises, so tests can
    # assert one crashing cell doesn't poison the pool.
    CellSpec("selftest_boom", "", variant="boom", hidden=True),
)


def run(config: Optional[RunConfig] = None) -> FigureResult:
    """Entry point for hidden self-test cells (crash isolation tests)."""
    raise RuntimeError(
        f"selftest cell raised on purpose (variant="
        f"{config.variant if config else ''!r})"
    )


def default_cells(include_slow: bool = False) -> List[str]:
    return [
        cell_id
        for cell_id, spec in GRID.items()
        if not spec.hidden and (include_slow or not spec.slow)
    ]


def resolve_cells(
    tokens: Sequence[str], grid: Optional[Mapping[str, CellSpec]] = None
) -> List[str]:
    """Expand user tokens to cell ids.

    A token matches its exact cell id, or — for grouped figures — every
    non-hidden id it prefixes (``fig04`` -> ``fig04a``, ``fig04b``;
    ``ext`` -> every extension).  Unknown tokens raise ValueError.
    """
    grid = GRID if grid is None else grid
    resolved: List[str] = []
    for token in tokens:
        if token in grid:
            matches = [token]
        else:
            matches = [
                cell_id
                for cell_id, spec in grid.items()
                if not spec.hidden and cell_id.startswith(token)
            ]
        if not matches:
            known = [c for c, s in grid.items() if not s.hidden]
            raise ValueError(
                f"unknown figure {token!r}; known cells: {', '.join(known)}"
            )
        for cell_id in matches:
            if cell_id not in resolved:
                resolved.append(cell_id)
    return resolved


# ---------------------------------------------------------------------------
# Cache keys


def cell_cache_key(spec: CellSpec) -> str:
    """Content address of one cell's payload."""
    if spec.hidden:
        code = f"selftest:{spec.cell_id}"
    else:
        code = fingerprint.cell_fingerprint(spec.module)
    return entry_key({
        "cell": spec.cell_id,
        "variant": spec.variant,
        "params": fingerprint.canonical(dict(spec.params)),
        "calibration": fingerprint.calibration_hash(),
        "config": fingerprint.grid_config_hash(),
        "code": code,
    })


def _cell_seed(cell_id: str) -> int:
    """Deterministic per-cell seed for worker RNG isolation."""
    digest = hashlib.sha256(f"repro.exec:{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Workers

WorkItem = Tuple[str, str, str, Tuple[Tuple[str, Any], ...]]


def _work_item(spec: CellSpec) -> WorkItem:
    return (spec.cell_id, spec.entry_module(), spec.variant, spec.params)


def execute_cell(item: WorkItem) -> Dict[str, Any]:
    """Run one grid cell; always returns (never raises) so a failing
    cell cannot take the pool down with it.  Top-level so it pickles
    into worker processes.

    The cell runs with the cyclic GC paused (the DES kernel allocates
    events in bursts that trigger collection sweeps mid-simulation but
    creates no cycles the refcounter can't reclaim) and under a
    :class:`~repro.sim.SimTimeCollector`, so the payload carries the
    final simulator clock (``sim_ns``) alongside wall time — the pair
    behind the ``sim_ns_per_wall_s`` throughput metric in the perf
    baseline.
    """
    cell_id, entry_module, variant, params = item
    random.seed(_cell_seed(cell_id))  # isolate ambient-RNG consumers
    started = time.perf_counter_ns()
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        module = importlib.import_module(entry_module)
        with SimTimeCollector() as sim_time:
            result = module.run(
                RunConfig(variant=variant, params=dict(params))
            )
        return {
            "cell": cell_id,
            "ok": True,
            "figure_id": result.figure_id,
            "payload_json": result.to_json(),
            "payload_text": result.to_text(),
            "wall_ns": time.perf_counter_ns() - started,
            "sim_ns": sim_time.total_sim_ns,
        }
    except BaseException as exc:  # noqa: BLE001 — isolation boundary
        return {
            "cell": cell_id,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "wall_ns": time.perf_counter_ns() - started,
            "sim_ns": 0,
        }
    finally:
        if gc_was_enabled:
            gc.enable()


def _pool_context():
    """Prefer fork: children inherit PYTHONHASHSEED and module state,
    which keeps payloads byte-identical to the serial path even for
    code that iterates hash-ordered containers."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class CellOutcome:
    """What happened to one cell in one harness invocation."""

    cell: str
    figure_id: str = ""
    status: str = "run"  # "hit" | "run" | "failed"
    wall_ns: int = 0
    sim_ns: int = 0  # final simulator clock (0 for hits/failures)
    json_path: str = ""
    error: str = ""
    traceback: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass
class GridReport:
    """Merged outcome of one ``run_grid`` invocation."""

    outcomes: List[CellOutcome]
    stats: CacheStats
    results_dir: str
    cache_dir: str
    jobs: int
    wall_ns: int = 0
    metrics: Optional[MetricsRegistry] = None

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> List[CellOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def executed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "run"]

    def all_cached(self) -> bool:
        return bool(self.outcomes) and all(
            outcome.status == "hit" for outcome in self.outcomes
        )

    def render(self) -> str:
        cell_width = max([5] + [len(o.cell) for o in self.outcomes]) + 2
        fig_width = max([7] + [len(o.figure_id) for o in self.outcomes]) + 2
        lines = [
            f"{'cell':<{cell_width}}{'figure':<{fig_width}}"
            f"{'status':<8}{'wall_ms':>9}",
            "-" * (cell_width + fig_width + 17),
        ]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.cell:<{cell_width}}{outcome.figure_id:<{fig_width}}"
                f"{outcome.status:<8}{outcome.wall_ns / 1e6:>9.1f}"
            )
            if outcome.error:
                lines.append(f"    {outcome.error}")
        hits, misses = self.stats.hits, self.stats.misses
        lines.append(
            f"{len(self.outcomes)} cells in {self.wall_ns / 1e6:.1f} ms "
            f"({self.jobs} job{'s' if self.jobs != 1 else ''}): "
            f"{hits} cache hit{'s' if hits != 1 else ''}, "
            f"{misses} miss{'es' if misses != 1 else ''}"
            f" ({100.0 * self.stats.hit_rate():.0f}% hit rate)"
        )
        if self.stats.evicted_corrupt:
            lines.append(
                f"  dropped {len(self.stats.evicted_corrupt)} corrupt cache "
                f"entr{'ies' if len(self.stats.evicted_corrupt) != 1 else 'y'}"
            )
        for outcome in self.failed:
            lines.append(f"FAILED {outcome.cell}: {outcome.error}")
        return "\n".join(lines)


def _write_outputs(
    results_dir: str, figure_id: str, payload_json: str, payload_text: str
) -> str:
    """Write ``<figure_id>.json`` + ``.txt`` exactly like
    :meth:`FigureResult.save` does on the serial path."""
    os.makedirs(results_dir, exist_ok=True)
    json_path = os.path.join(results_dir, f"{figure_id}.json")
    with open(json_path, "w") as handle:
        handle.write(payload_json)
    with open(os.path.join(results_dir, f"{figure_id}.txt"), "w") as handle:
        handle.write(payload_text + "\n")
    return json_path


def payload_to_result(payload_json: str) -> FigureResult:
    """Rehydrate a FigureResult from its serialized payload (a cache
    entry's ``payload_json`` or a ``results/<figure_id>.json`` file)."""
    import json as _json

    payload = _json.loads(payload_json)
    return FigureResult(
        figure_id=payload["figure_id"],
        title=payload["title"],
        columns=payload["columns"],
        rows=payload["rows"],
        notes=payload.get("notes", []),
        comparisons=payload.get("comparisons", []),
    )


def bench_cell(
    cell_id: str,
    repeats: int = 3,
    grid: Optional[Mapping[str, CellSpec]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Time one cell's real compute: run it ``repeats`` times with the
    cache bypassed and report min-of-N wall time (the perf gate's
    noise-resistant statistic).  Each repeat's wall time is recorded in
    the ``exec.bench.<cell>.wall_ns`` histogram."""
    grid = GRID if grid is None else grid
    metrics = metrics if metrics is not None else MetricsRegistry()
    spec = grid[cell_id]
    histogram = metrics.histogram(f"exec.bench.{cell_id}.wall_ns")
    times: List[int] = []
    sim_ns = 0
    for _ in range(max(1, repeats)):
        payload = execute_cell(_work_item(spec))
        if not payload["ok"]:
            return {
                "cell": cell_id,
                "ok": False,
                "error": payload["error"],
            }
        histogram.observe(payload["wall_ns"])
        times.append(payload["wall_ns"])
        # Deterministic cells advance the same simulated time every
        # repeat, so the last observation is the cell's sim_ns.
        sim_ns = payload.get("sim_ns", 0)
    return {
        "cell": cell_id,
        "ok": True,
        "wall_ns_min": min(times),
        "wall_ns_all": times,
        "sim_ns": sim_ns,
    }


def cell_for_generator(generator: Callable) -> Optional[str]:
    """Reverse lookup: which grid cell wraps this generator function?
    Lets the benches route their existing ``generate_*`` calls through
    the cache without changing their call sites."""
    for cell_id, spec in GRID.items():
        if spec.hidden or spec.params:
            continue
        module = importlib.import_module(spec.entry_module())
        variants = getattr(module, "VARIANTS", None)
        if variants is not None and variants.get(spec.variant) is generator:
            return cell_id
    return None


def run_grid(
    cell_ids: Sequence[str],
    jobs: int = 1,
    results_dir: str = "results",
    cache_dir: Optional[str] = None,
    force: bool = False,
    use_cache: bool = True,
    grid: Optional[Mapping[str, CellSpec]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> GridReport:
    """Run the named cells, serving unchanged ones from the cache.

    ``force`` recomputes every cell (refreshing cache entries);
    ``use_cache=False`` bypasses the cache entirely (no reads, no
    writes) — the pure serial-equivalence mode tests compare against.
    ``jobs <= 1`` executes inline in this process; otherwise misses fan
    out over a process pool and merge as they complete.
    """
    grid = GRID if grid is None else grid
    metrics = metrics if metrics is not None else MetricsRegistry()
    cache = ResultCache(cache_dir or default_cache_dir(results_dir))
    started = time.perf_counter_ns()

    specs = [grid[cell_id] for cell_id in cell_ids]
    keys = {spec.cell_id: cell_cache_key(spec) for spec in specs}
    outcomes: Dict[str, CellOutcome] = {}
    pending: List[CellSpec] = []

    for spec in specs:
        if use_cache and not force:
            entry = cache.get(keys[spec.cell_id])
        else:
            entry = None
            cache.stats.misses += 1  # bypassed lookups still count
        if entry is not None:
            json_path = _write_outputs(
                results_dir,
                entry["figure_id"],
                entry["payload_json"],
                entry["payload_text"],
            )
            outcomes[spec.cell_id] = CellOutcome(
                cell=spec.cell_id,
                figure_id=entry["figure_id"],
                status="hit",
                wall_ns=0,
                sim_ns=entry.get("sim_ns", 0),
                json_path=json_path,
            )
            metrics.counter("exec.cache.hits").inc()
            continue
        pending.append(spec)
        metrics.counter("exec.cache.misses").inc()

    def _absorb(spec: CellSpec, payload: Dict[str, Any]) -> None:
        metrics.histogram("exec.cell_wall_ns").observe(payload["wall_ns"])
        if not payload["ok"]:
            outcomes[spec.cell_id] = CellOutcome(
                cell=spec.cell_id,
                status="failed",
                wall_ns=payload["wall_ns"],
                error=payload["error"],
                traceback=payload.get("traceback", ""),
            )
            metrics.counter("exec.cells.failed").inc()
            return
        json_path = _write_outputs(
            results_dir,
            payload["figure_id"],
            payload["payload_json"],
            payload["payload_text"],
        )
        if use_cache:
            cache.put(
                keys[spec.cell_id],
                {
                    "cell": spec.cell_id,
                    "figure_id": payload["figure_id"],
                    "payload_json": payload["payload_json"],
                    "payload_text": payload["payload_text"],
                    "wall_ns": payload["wall_ns"],
                    "sim_ns": payload.get("sim_ns", 0),
                },
            )
        outcomes[spec.cell_id] = CellOutcome(
            cell=spec.cell_id,
            figure_id=payload["figure_id"],
            status="run",
            wall_ns=payload["wall_ns"],
            sim_ns=payload.get("sim_ns", 0),
            json_path=json_path,
        )
        metrics.counter("exec.cells.ok").inc()

    if pending and (jobs <= 1 or len(pending) == 1):
        for spec in pending:
            _absorb(spec, execute_cell(_work_item(spec)))
    elif pending:
        workers = min(jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(execute_cell, _work_item(spec)): spec
                for spec in pending
            }
            for future in concurrent.futures.as_completed(futures):
                spec = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:  # a worker died outright
                    payload = {
                        "cell": spec.cell_id,
                        "ok": False,
                        "error": f"worker crashed: {type(exc).__name__}: {exc}",
                        "traceback": "",
                        "wall_ns": 0,
                    }
                _absorb(spec, payload)

    report = GridReport(
        outcomes=[outcomes[cell_id] for cell_id in cell_ids],
        stats=cache.stats,
        results_dir=results_dir,
        cache_dir=cache.root,
        jobs=jobs,
        wall_ns=time.perf_counter_ns() - started,
        metrics=metrics,
    )
    metrics.gauge("exec.grid.wall_ns").set(report.wall_ns)
    return report
