"""Metrics registry: counters, gauges, and histograms in simulated time.

Counters and gauges keep their full sample series ``(t_ns, value)`` so
they export as Chrome-trace counter ("C"-phase) tracks next to the
span timeline — bounce-pool occupancy, engine utilisation and
launch-queue depth over the run, not just their final values.
Histograms collect raw observations for distribution summaries.

All recording is pure bookkeeping (no simulation interaction), so the
registry can never perturb simulated timings.
"""

from __future__ import annotations

import math
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

    def _now(self) -> int:
        clock = self._registry._clock
        return clock() if clock is not None else 0


class Counter(Metric):
    """Monotonic cumulative count; each increment is a sample."""

    kind = "counter"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.series: List[Tuple[int, Number]] = []

    @property
    def value(self) -> Number:
        return self.series[-1][1] if self.series else 0

    def inc(self, delta: Number = 1) -> None:
        if delta == 0:
            return
        self.series.append((self._now(), self.value + delta))


class Gauge(Metric):
    """Point-in-time sampled value (occupancy, queue depth...)."""

    kind = "gauge"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.series: List[Tuple[int, Number]] = []

    @property
    def value(self) -> Number:
        return self.series[-1][1] if self.series else 0

    def set(self, value: Number) -> None:
        self.series.append((self._now(), value))

    def max(self) -> Number:
        return max((v for _, v in self.series), default=0)


class Histogram(Metric):
    """Raw observation collector for distribution summaries."""

    kind = "histogram"

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self.values: List[Number] = []

    def observe(self, value: Number) -> None:
        if isinstance(value, float) and math.isnan(value):
            # Reject at the door: a NaN observation would make every
            # later summary() raise far from the culprit.
            raise ValueError(f"histogram {self.name!r}: NaN observation")
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


class MetricsRegistry:
    """Create-or-get registry of named metrics for one run."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock
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
        metric.series = list(samples)  # type: ignore[union-attr]

    def import_histogram(self, name: str, values: List[Number]) -> None:
        metric = self._get(name, "histogram")
        metric.values = list(values)  # type: ignore[union-attr]
