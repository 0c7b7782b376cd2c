#!/usr/bin/env python3
"""Tuning kernel fusion and stream overlap for CC (Sec. VII-A).

Sweeps fusion levels for a launch-bound workload (showing that fully
fused is not the optimum — Observation 7), evaluates CUDA-graph launch
fusion for a 3dconv-style iterative app, and measures how stream count
and kernel length (the compute-to-IO ratio) drive copy/compute overlap
under CC (Observation 8).

Usage:
    python examples/fusion_tuning.py
"""

from repro import SystemConfig, units
from repro.figures.extensions import generate_graph_fusion_cc
from repro.workloads import fusion_sweep, overlap_experiment


def main() -> None:
    base = SystemConfig.base()
    cc = SystemConfig.confidential()

    print("== kernel fusion sweep under CC (500 us total KET, launch-bound) ==")
    points = fusion_sweep(cc, total_ket_ns=units.us(500))
    best = min(points, key=lambda p: p.end_to_end_ns)
    for point in points:
        marker = "  <- best" if point is best else ""
        print(f"  {point.num_launches:>4} launches: "
              f"{units.to_ms(point.end_to_end_ns):8.3f} ms{marker}")
    print(f"  fully fused is {'' if best.num_launches == 1 else 'NOT '}optimal "
          f"(Observation 7)\n")

    print("== cudaGraph launch fusion (254 iterative 5us kernels) ==")
    figure = generate_graph_fusion_cc()
    for mode, batch, end_to_end_ms in figure.rows:
        print(f"  {mode:<5} graph batch {batch:>4}: {end_to_end_ms:8.3f} ms")
    print()

    print("== stream overlap (512 MB copies + 10 ms kernels) ==")
    for streams in (1, 4, 16):
        speedups = [
            overlap_experiment(
                config, streams, 512 * units.MB, units.ms(10)
            ).overlap_speedup
            for config in (base, cc)
        ]
        print(f"  {streams:>3} streams: overlap speed-up base {speedups[0]:.2f}x, "
              f"cc {speedups[1]:.2f}x")
    print()

    print("== kernel length under CC (8 streams, 512 MB) ==")
    for ket_ms in (1, 10, 100):
        point = overlap_experiment(cc, 8, 512 * units.MB, units.ms(ket_ms))
        print(f"  {ket_ms:>4} ms kernels: overlap speed-up {point.overlap_speedup:.2f}x")
    print("  Longer kernels per copied byte hide more of CC's serialized "
          "transfer (Observation 8)")


if __name__ == "__main__":
    main()
