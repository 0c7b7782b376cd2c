"""Tests for the metrics registry: counters, gauges, histograms,
clock binding, and trace-import restore."""

import pytest

from repro.obs import MetricsRegistry, percentile


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_counter_cumulative_series():
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    counter = reg.counter("tdx.hypercalls")
    counter.inc()
    clock.now = 10
    counter.inc(4)
    assert counter.value == 5
    assert counter.series == [(0, 1), (10, 5)]
    counter.inc(0)  # zero deltas are not sampled
    assert len(counter.series) == 2


def test_gauge_set_and_max():
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    gauge = reg.gauge("launch.queue_depth")
    gauge.set(3)
    clock.now = 5
    gauge.set(1)
    assert gauge.value == 1
    assert gauge.max() == 3
    assert gauge.series == [(0, 3), (5, 1)]


def test_histogram_stats():
    reg = MetricsRegistry()
    hist = reg.histogram("memcpy.bytes")
    for v in (10, 20, 30):
        hist.observe(v)
    assert hist.count == 3
    assert hist.sum == 60
    assert hist.mean() == 20.0
    assert reg.histograms() == [hist]


def test_create_or_get_and_kind_mismatch():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    with pytest.raises(ValueError, match="is a counter"):
        reg.gauge("a")
    assert "a" in reg
    assert len(reg) == 1


def test_unbound_clock_samples_at_zero():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    assert reg.counter("c").series == [(0, 1)]


def test_sampled_sorted_by_name():
    reg = MetricsRegistry()
    reg.gauge("z").set(1)
    reg.counter("a").inc()
    reg.histogram("m").observe(1)  # not a sampled track
    assert [m.name for m in reg.sampled()] == ["a", "z"]
    assert reg.names() == ["a", "m", "z"]


def test_percentile_nearest_rank():
    values = [50, 10, 40, 20, 30]  # unsorted on purpose
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 30
    assert percentile(values, 99) == 50
    assert percentile(values, 100) == 50
    assert percentile([7.5], 95) == 7.5
    assert percentile([], 50) == 0.0


def test_histogram_percentile_and_summary():
    reg = MetricsRegistry()
    hist = reg.histogram("ttft_ms")
    for v in range(1, 101):  # 1..100
        hist.observe(float(v))
    assert hist.percentile(50) == 51.0
    assert hist.percentile(95) == 96.0
    assert hist.percentile(99) == 100.0
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert summary["mean"] == 50.5
    assert summary["p50"] == 51.0
    assert summary["p99"] == 100.0


def test_histogram_summary_empty_is_zeros():
    reg = MetricsRegistry()
    summary = reg.histogram("empty").summary()
    assert summary == {"count": 0, "mean": 0.0, "min": 0.0,
                       "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_import_series_and_histogram_restore():
    reg = MetricsRegistry()
    reg.import_series("bounce.used_bytes", "gauge", [(0, 64), (9, 0)])
    reg.import_histogram("lat", [1.5, 2.5])
    assert reg.gauge("bounce.used_bytes").series == [(0, 64), (9, 0)]
    assert reg.histogram("lat").values == [1.5, 2.5]


def test_percentile_single_and_all_equal_samples():
    # single sample: every percentile is that sample
    for pct in (0, 1, 50, 99, 100):
        assert percentile([3.25], pct) == 3.25
    # all-equal samples: percentiles collapse to the common value
    for pct in (0, 50, 95, 99, 100):
        assert percentile([7.0] * 9, pct) == 7.0


def test_percentile_rejects_nan_samples():
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, float("nan"), 3.0], 50)


def test_histogram_rejects_nan_observation():
    reg = MetricsRegistry()
    hist = reg.histogram("lat")
    with pytest.raises(ValueError, match="NaN"):
        hist.observe(float("nan"))
    # the rejected observation must not have been recorded
    assert hist.values == []


def test_histogram_summary_single_sample():
    reg = MetricsRegistry()
    hist = reg.histogram("one")
    hist.observe(42.0)
    assert hist.summary() == {
        "count": 1, "mean": 42.0, "min": 42.0, "max": 42.0,
        "p50": 42.0, "p95": 42.0, "p99": 42.0,
    }


def test_histogram_summary_all_equal_samples():
    reg = MetricsRegistry()
    hist = reg.histogram("flat")
    for _ in range(5):
        hist.observe(2.5)
    summary = hist.summary()
    assert summary["count"] == 5
    assert summary["mean"] == 2.5
    assert summary["min"] == summary["max"] == 2.5
    assert summary["p50"] == summary["p95"] == summary["p99"] == 2.5
