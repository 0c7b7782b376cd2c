"""Compare a perfbench --trace 1 run's work counts with the newest BENCH file.

Usage::

    python3 perfbench/run.py --workload W --seconds 3 --trace 1 > out.txt
    python3 .github/scripts/compare_counts.py W out.txt

Every metric whose unit is ``count`` or ``bytes`` is a deterministic
work count, so it must equal the committed ``BENCH_<n>.json`` value
(highest ``n``) exactly.  Each mismatch is printed as metric, old and
new; the exit status is 1 if there is any, 2 on bad usage.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COUNT_UNITS = ("count", "bytes")


def newest_bench() -> Path:
    numbered = [
        (int(match.group(1)), path)
        for path in ROOT.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    if not numbered:
        raise SystemExit(f"error: no BENCH_<n>.json under {ROOT}")
    return max(numbered)[1]


def counts(metrics: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] in COUNT_UNITS
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload, output = argv
    lines = Path(output).read_text().strip().splitlines()
    new = counts(json.loads(lines[-1])["metrics"])
    bench = newest_bench()
    old = counts(
        json.loads(bench.read_text())["workloads"][workload]["trace1"]["metrics"]
    )
    mismatches = [
        (name, old.get(name), new.get(name))
        for name in sorted(set(old) | set(new))
        if old.get(name) != new.get(name)
    ]
    for name, was, now in mismatches:
        print(f"{workload}: {name}: {bench.name} {was} -> {now}")
    print(f"{workload}: {len(old) - len(mismatches)}/{len(old)} counts equal "
          f"{bench.name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
