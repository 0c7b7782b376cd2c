"""Pin the Chrome trace export and the attribution of every catalogue app run.

Usage::

    PYTHONPATH=src python3 .github/scripts/check_exports.py           # check
    PYTHONPATH=src python3 .github/scripts/check_exports.py --update  # re-pin

Runs every ``CATALOG`` app in base and CC mode, with explicit copies and
with UVM, at seed 42 (132 runs, a few seconds), and compares two SHA-256
digests per run with ``tests/data/catalogue_exports.json``: one of
``Trace.to_chrome_trace()`` (the ``exports`` map), and one of the
``breakdown(trace).by_category_ns`` totals and the ``decompose(trace)``
part totals (the ``attribution`` map).  Each run that drifted is named as
``app|mode|uvm``, with `` (attribution)`` appended for an attribution
drift; the exit status is 1 if any did.  Only a change that alters an
export or an attribution on purpose re-pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.config import resolve_system_configs
from repro.core import breakdown, decompose
from repro.cuda import Machine
from repro.workloads import CATALOG

ROOT = Path(__file__).resolve().parents[2]
PINS = ROOT / "tests" / "data" / "catalogue_exports.json"
SEED = 42


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def attribution_record(trace) -> dict:
    """The attribution totals of one trace: both Fig.-1 and Sec.-V views."""
    deco = decompose(trace)
    return {
        "breakdown": breakdown(trace).by_category_ns,
        "decompose": {
            "t_mem_ns": deco.t_mem_ns,
            "part_a_ns": deco.part_a_ns,
            "part_b_ns": deco.part_b_ns,
            "part_c_raw_ns": deco.part_c_raw_ns,
            "part_c_ns": deco.part_c_ns,
            "t_other_ns": deco.t_other_ns,
            "t_recovery_ns": deco.t_recovery_ns,
            "span_ns": deco.span_ns,
        },
    }


def catalogue_digests() -> dict:
    """``{"exports": {run: sha}, "attribution": {run: sha}}``."""
    digests = {"exports": {}, "attribution": {}}
    for name, info in CATALOG.items():
        for cc in (False, True):
            config = resolve_system_configs(cc=cc, seed=SEED)
            for uvm in (False, True):
                machine = Machine(config, label=name)
                machine.run(info.app(uvm))
                key = f"{name}|{'cc' if cc else 'base'}|{'uvm' if uvm else 'explicit'}"
                trace = machine.trace
                digests["exports"][key] = _sha256(trace.to_chrome_trace())
                digests["attribution"][key] = _sha256(
                    json.dumps(attribution_record(trace), sort_keys=True)
                )
    return digests


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the pinned digests"
    )
    args = parser.parse_args(argv)
    digests = catalogue_digests()
    if args.update:
        PINS.write_text(
            json.dumps({"seed": SEED, **digests}, indent=1, sort_keys=True)
            + "\n"
        )
        print(f"pinned {len(digests['exports'])} runs in {PINS.relative_to(ROOT)}")
        return 0
    pins = json.loads(PINS.read_text())
    failed = False
    for view, suffix in (("exports", ""), ("attribution", " (attribution)")):
        pinned, current = pins.get(view, {}), digests[view]
        runs = set(pinned) | set(current)
        drifted = sorted(key for key in runs if pinned.get(key) != current.get(key))
        for key in drifted:
            print(f"DRIFT {key}{suffix}")
        print(f"catalogue {view}: {len(runs) - len(drifted)}/{len(runs)} match")
        failed = failed or bool(drifted)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
