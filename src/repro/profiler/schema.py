"""Structural validation of exported Chrome-trace JSON.

A dependency-free validator for the trace format
:meth:`repro.profiler.Trace.to_chrome_trace` produces (a constrained
subset of the Chrome tracing format).  Used by ``repro trace
validate`` and the CI trace-smoke step to catch schema regressions
before a trace ships as a build artifact.

Checked invariants:

* top level: object with a ``traceEvents`` array (or a bare array);
* every row is an object with a string ``ph`` phase;
* "X" rows carry string ``name``/``cat``, numeric ``ts`` and a
  non-negative numeric ``dur``, integer ``pid``/``tid``, and an object
  ``args`` when present;
* span rows (``cat == "span"``) carry integer unique ``args.id``, a
  string ``args.layer``, and a ``args.parent`` that is null or a known
  span id (parents must appear before children is *not* required —
  only referential integrity);
* "C" rows carry a string ``name``, numeric ``ts`` and ``args.value``;
* "M" rows carry a string ``name``;
* every number is finite: a checked field holding NaN or an infinity
  is reported, and so is any ``NaN``/``Infinity`` token in JSON text
  (strict JSON parsers reject them).
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Union

from .importers import TraceImportError

_NUMBER = (int, float)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return (
        isinstance(value, _NUMBER) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_chrome_trace(payload: Union[str, dict, list]) -> List[str]:
    """Return a list of schema violations (empty when valid)."""
    errors: List[str] = []
    if isinstance(payload, str):
        constants: List[str] = []
        try:
            payload = json.loads(
                payload, parse_constant=lambda c: constants.append(c) or float(c)
            )
        except json.JSONDecodeError as exc:
            return [f"invalid JSON: {exc}"]
        if constants:
            errors.append(
                f"{len(constants)} non-finite number(s) "
                f"({', '.join(sorted(set(constants)))}), not valid JSON"
            )
    if isinstance(payload, dict):
        rows = payload.get("traceEvents")
    elif isinstance(payload, list):
        rows = payload
    else:
        return errors + ["top level must be an object or array"]
    if not isinstance(rows, list):
        return errors + ["missing traceEvents array"]

    span_ids = set()
    span_parents = []  # (row index, parent id) checked after the scan
    for index, row in enumerate(rows):
        where = f"traceEvents[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: row is not an object")
            continue
        phase = row.get("ph")
        if not isinstance(phase, str):
            errors.append(f"{where}: missing ph")
            continue
        if phase == "M":
            if not isinstance(row.get("name"), str):
                errors.append(f"{where}: metadata row without a name")
            continue
        if phase == "C":
            if not isinstance(row.get("name"), str):
                errors.append(f"{where}: counter row without a name")
            if not _is_finite(row.get("ts")):
                errors.append(f"{where}: counter row without a finite numeric ts")
            args = row.get("args")
            if not isinstance(args, dict) or not _is_finite(args.get("value")):
                errors.append(f"{where}: counter row without a finite numeric value")
            continue
        if phase != "X":
            continue  # other phases are legal Chrome trace, unchecked
        if not isinstance(row.get("name"), str):
            errors.append(f"{where}: event without a name")
        if not isinstance(row.get("cat"), str):
            errors.append(f"{where}: event without a category")
        if not _is_finite(row.get("ts")):
            errors.append(f"{where}: ts is not a finite number")
        if not _is_finite(row.get("dur")) or row.get("dur", 0) < 0:
            errors.append(f"{where}: missing, non-finite or negative dur")
        if "pid" in row and not _is_int(row["pid"]):
            errors.append(f"{where}: pid must be an integer")
        if "tid" in row and not _is_int(row["tid"]):
            errors.append(f"{where}: tid must be an integer")
        args = row.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
            continue
        if row.get("cat") == "span" and isinstance(args, dict):
            span_id = args.get("id")
            if not _is_int(span_id):
                errors.append(f"{where}: span without integer id")
            elif span_id in span_ids:
                errors.append(f"{where}: duplicate span id {span_id}")
            else:
                span_ids.add(span_id)
            if not isinstance(args.get("layer"), str):
                errors.append(f"{where}: span without a layer")
            parent = args.get("parent")
            if parent is not None:
                if not _is_int(parent):
                    errors.append(f"{where}: span parent must be int or null")
                else:
                    span_parents.append((index, parent))
    for index, parent in span_parents:
        if parent not in span_ids:
            errors.append(
                f"traceEvents[{index}]: span parent {parent} is unknown"
            )
    return errors


def assert_valid_chrome_trace(payload: Union[str, dict, list]) -> None:
    """Raise :class:`TraceImportError` on the first schema violation."""
    errors = validate_chrome_trace(payload)
    if errors:
        raise TraceImportError(
            f"{len(errors)} schema violation(s): " + "; ".join(errors[:5])
        )
