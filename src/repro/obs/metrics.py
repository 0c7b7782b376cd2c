"""Metrics registry: counters, gauges, and histograms in simulated time.

Counters and gauges keep every sample, as two parallel columns
(``times``, an ``array('q')`` of ints, and ``values``, a list that
keeps each value's int or float type), so they export as Chrome-trace counter
("C"-phase) tracks next to the span timeline — bounce-pool occupancy,
engine utilisation and launch-queue depth over the run, not just their
final values.  ``series`` is a ``[(t_ns, value), ...]`` view built on
read.  Histograms collect raw observations for distribution summaries.
Each sample is validated when it is recorded: a counter takes only
finite deltas >= 0, gauges and histograms only finite values.

All recording is pure bookkeeping (no simulation interaction), so the
registry can never perturb simulated timings.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


def percentile(values: Sequence[Number], pct: float) -> float:
    """Nearest-rank percentile over raw samples.

    Uses the same convention as the serving results (index
    ``min(n - 1, int(pct / 100 * n))``) so every percentile reported
    anywhere in the repo reduces identically. Returns 0.0 on empty
    input.  NaN samples are rejected (``ValueError``): a NaN would
    sort unpredictably and silently poison every rank above it.
    """
    if not values:
        return 0.0
    if any(isinstance(v, float) and math.isnan(v) for v in values):
        raise ValueError("percentile: NaN sample in input")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return float(ordered[index])


class Metric:
    """Base: a named instrument bound to its registry's clock."""

    kind = "metric"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry


class _Sampled(Metric):
    """Base of the sampled instruments: the reads of their ``times``
    and ``values`` columns."""

    @property
    def series(self) -> List[Tuple[int, Number]]:
        """The samples as ``(t_ns, value)`` pairs (a copy)."""
        return list(zip(self.times, self.values))

    @property
    def value(self) -> Number:
        return self.values[-1] if self.values else 0


class Counter(_Sampled):
    """Monotonic cumulative count; each increment is a sample."""

    kind = "counter"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.times = array("q")
        self.values: List[Number] = []

    def inc(self, delta: Number = 1) -> None:
        if not 0 <= delta < math.inf or delta.__class__ is bool:
            raise ValueError(
                f"counter {self.name!r}: delta must be a finite number"
                f" >= 0, not {delta!r}"
            )
        if delta:
            values = self.values
            self.times.append(self._registry._clock())
            values.append(values[-1] + delta if values else delta)


class Gauge(_Sampled):
    """Point-in-time sampled value (occupancy, queue depth...)."""

    kind = "gauge"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.times = array("q")
        self.values: List[Number] = []

    def set(self, value: Number) -> None:
        if not -math.inf < value < math.inf:
            raise ValueError(
                f"gauge {self.name!r}: value must be finite, not {value!r}"
            )
        self.times.append(self._registry._clock())
        self.values.append(value)

    def max(self) -> Number:
        return max(self.values, default=0)


class Histogram(Metric):
    """Raw observation collector for distribution summaries."""

    kind = "histogram"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.values: List[Number] = []

    def observe(self, value: Number) -> None:
        if not -math.inf < value < math.inf:
            # Reject at the door: a NaN observation would make every
            # later summary() raise far from the culprit, and NaN or an
            # infinity exports as a token strict JSON parsers reject.
            raise ValueError(
                f"histogram {self.name!r}: NaN or infinite observation"
            )
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> Number:
        return sum(self.values)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile of the raw observations."""
        return percentile(self.values, pct)

    def summary(self) -> Dict[str, float]:
        """Distribution summary: count, mean, min/max and p50/p95/p99."""
        if not self.values:
            return {
                "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": float(min(self.values)),
            "max": float(max(self.values)),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _unbound_clock() -> int:
    """The clock of a registry not yet bound to a simulator: time 0."""
    return 0


class MetricsRegistry:
    """Create-or-get registry of named metrics for one run."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock if clock is not None else _unbound_clock
        self._metrics: Dict[str, Metric] = {}

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    def _get(self, name: str, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = _KINDS[kind](name, self)
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def sampled(self) -> List[Metric]:
        """Counters and gauges (the exportable counter tracks), by name."""
        return [
            self._metrics[name]
            for name in self.names()
            if self._metrics[name].kind in ("counter", "gauge")
        ]

    def histograms(self) -> List[Histogram]:
        return [
            self._metrics[name]  # type: ignore[misc]
            for name in self.names()
            if self._metrics[name].kind == "histogram"
        ]

    # -- trace import support ----------------------------------------------

    def import_series(
        self, name: str, kind: str, samples: List[Tuple[int, Number]]
    ) -> None:
        """Restore a counter/gauge sample series from a trace file."""
        metric = self._get(name, kind)
        metric.times = array("q", [t for t, _ in samples])  # type: ignore[union-attr]
        metric.values = [v for _, v in samples]  # type: ignore[union-attr]

    def import_histogram(self, name: str, values: List[Number]) -> None:
        metric = self._get(name, "histogram")
        metric.values = list(values)  # type: ignore[union-attr]
