"""Simulator benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_apps --seed 42 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Each metric is printed by name with its unit, and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv, benchmark):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, benchmark)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure

    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    run = measure.per_layer if args.trace else measure.end_to_end
    summary = run(args.workload, args.seed, args.seconds)

    missing = sorted(set(wanted) - set(summary.metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for name in sorted(summary.metrics):
        value, unit = summary.metrics[name]
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(f"{'error_rate':28s} {summary.failed / summary.attempted:>16.6g} ratio")
    for key, note in sorted(summary.notes.items()):
        print(f"  {key}: {note}")
    result = {
        "correct": summary.failed == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {
            name: {"value": summary.metrics[name][0], "unit": summary.metrics[name][1]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
