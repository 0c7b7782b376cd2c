"""Mitigation behaviour of Sec. VII-A (Observations 7 and 8), checked on
the models that drive Fig. 12 and the cudaGraph-batching extension."""

from repro import units
from repro.config import SystemConfig
from repro.core import decompose
from repro.cuda import run_app
from repro.figures.extensions import generate_graph_fusion_cc
from repro.workloads import fusion_sweep
from repro.workloads.microbench import overlap_app


def _end_to_end_by_launches(config, total_ket_ns, launch_counts):
    points = fusion_sweep(
        config, launch_counts=launch_counts, total_ket_ns=total_ket_ns
    )
    return {p.num_launches: p.end_to_end_ns for p in points}


def _cc_graph_times(batches):
    result = generate_graph_fusion_cc(
        batches=batches, num_launches=128, per_kernel_ns=units.us(5)
    )
    return {batch: ms for mode, batch, ms in result.rows if mode == "cc"}


def test_fully_fused_is_suboptimal():
    """Observation 7: fully fusing is never better than the best level."""
    times = _end_to_end_by_launches(
        SystemConfig.confidential(),
        total_ket_ns=units.ms(20),
        launch_counts=(1, 4, 16, 64, 256),
    )
    assert min(times.values()) <= times[1]


def test_fusion_reduces_cc_time_vs_many_launches():
    # Launch-bound regime: 500 us of total KET over 256 launches means
    # per-kernel KET ~ KLO, so fusing launches shortens the run.
    times = _end_to_end_by_launches(
        SystemConfig.confidential(),
        total_ket_ns=units.us(500),
        launch_counts=(4, 256),
    )
    assert times[4] < times[256]


def test_graph_fusion_beats_individual_launches_under_cc():
    times = _cc_graph_times(batches=(1, 32))
    assert times[32] < times[1]


def test_graph_batch_sweep_has_interior_optimum_or_monotone():
    times = _cc_graph_times(batches=(1, 8, 64))
    assert times[8] <= times[1]


def test_overlap_alpha_lower_under_cc():
    """Observation 8: under CC, overlap hides a smaller share of the copy."""
    alpha = {}
    for config in (SystemConfig.base(), SystemConfig.confidential()):
        trace, _ = run_app(
            overlap_app,
            config,
            num_streams=8,
            total_bytes=256 * units.MB,
            ket_ns=units.ms(2),
        )
        alpha[config.cc_on] = decompose(trace).alpha
    assert alpha[True] < alpha[False]
