"""Pareto auto-tuner over CC-mitigation pipelines.

``repro tune`` searches mitigation pipelines (the
:meth:`repro.serve.tuning.EngineTuning.parse` strings) for those that
close the CC serving gap: it enumerates a deterministic pass x config
grid, runs every (pipeline, rate, mode) point as an
``ext_recovered_serving`` *cell* through the content-addressed
:mod:`repro.exec` cache (resumable — re-running a partially finished
sweep only simulates the missing points; parallel via ``--jobs``),
and reports the Pareto frontier over

    (goodput up, TTFT p99 down, CC overhead ratio down)

with per-pipeline claw-back attribution against the untuned CC
baseline.  :func:`tune_verdict_json` is byte-deterministic for a
fixed (spec, code) pair — the CI ``tune-smoke`` job runs the sweep
twice and ``cmp``s the bytes.
"""

from .driver import (
    CANDIDATES,
    FAMILY_ORDER,
    TuneError,
    TuneReport,
    TuneSpec,
    build_grid,
    enumerate_pipelines,
    pareto_frontier,
    render_pareto_table,
    run_tune,
    tune_verdict,
    tune_verdict_json,
)

__all__ = [
    "CANDIDATES",
    "FAMILY_ORDER",
    "TuneError",
    "TuneReport",
    "TuneSpec",
    "build_grid",
    "enumerate_pipelines",
    "pareto_frontier",
    "render_pareto_table",
    "run_tune",
    "tune_verdict",
    "tune_verdict_json",
]
