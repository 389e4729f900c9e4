"""The metrics registry: counters, timers, histograms, snapshots."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.metrics import (
    Histogram,
    MetricsRegistry,
)


def test_counters_accumulate():
    registry = MetricsRegistry()
    registry.increment("hits")
    registry.increment("hits", 4)
    registry.increment("misses")
    assert registry.counters == {"hits": 5, "misses": 1}


def test_timer_context_manager_records_calls_and_time():
    registry = MetricsRegistry()
    for _ in range(3):
        with registry.timer("phase"):
            pass
    entry = registry.timers["phase"]
    assert entry["calls"] == 3
    assert entry["total_seconds"] >= 0.0
    assert entry["max_seconds"] <= entry["total_seconds"] + 1e-12


def test_observe_tracks_max():
    registry = MetricsRegistry()
    registry.observe("solve", 0.25)
    registry.observe("solve", 1.5)
    registry.observe("solve", 0.5)
    entry = registry.timers["solve"]
    assert entry["calls"] == 3
    assert entry["total_seconds"] == pytest.approx(2.25)
    assert entry["max_seconds"] == pytest.approx(1.5)


def test_disabled_registry_is_a_no_op():
    registry = MetricsRegistry(enabled=False)
    registry.increment("hits")
    with registry.timer("phase"):
        pass
    registry.observe("solve", 1.0)
    assert registry.counters == {}
    assert registry.timers == {}


def test_snapshot_roundtrip_and_merge():
    a = MetricsRegistry()
    a.increment("hits", 2)
    a.observe("solve", 1.0)
    b = MetricsRegistry()
    b.increment("hits", 3)
    b.increment("misses")
    b.observe("solve", 2.0)
    b.observe("batch", 0.5)
    a.merge_snapshot(b.snapshot())
    assert a.counters == {"hits": 5, "misses": 1}
    assert a.timers["solve"]["calls"] == 2
    assert a.timers["solve"]["total_seconds"] == pytest.approx(3.0)
    assert a.timers["solve"]["max_seconds"] == pytest.approx(2.0)
    assert a.timers["batch"]["calls"] == 1


def test_snapshot_is_a_copy():
    registry = MetricsRegistry()
    registry.increment("hits")
    snap = registry.snapshot()
    snap["counters"]["hits"] = 99
    assert registry.counters["hits"] == 1


def test_reset():
    registry = MetricsRegistry()
    registry.increment("hits")
    registry.observe("solve", 1.0)
    registry.reset()
    assert registry.counters == {}
    assert registry.timers == {}


def test_render_contains_everything():
    registry = MetricsRegistry()
    registry.increment("cost.cache_hits", 7)
    registry.observe("solve.SRA", 0.125)
    text = registry.render()
    assert "cost.cache_hits = 7" in text
    assert "solve.SRA" in text
    assert "calls=1" in text


def test_render_empty():
    assert "(empty)" in MetricsRegistry().render()


def test_histogram_exact_stats():
    hist = Histogram()
    for value in (1.0, 2.0, 4.0, 8.0):
        hist.record(value)
    assert hist.count == 4
    assert hist.mean() == pytest.approx(3.75)
    assert hist.min == pytest.approx(1.0)
    assert hist.max == pytest.approx(8.0)


def test_histogram_percentiles_within_bucket_resolution():
    hist = Histogram()
    for i in range(1, 1001):
        hist.record(float(i))
    # log-scale buckets: ~9% worst-case relative error
    assert hist.percentile(50.0) == pytest.approx(500.0, rel=0.1)
    assert hist.percentile(95.0) == pytest.approx(950.0, rel=0.1)
    assert hist.percentile(99.0) == pytest.approx(990.0, rel=0.1)
    assert hist.percentile(0.0) == pytest.approx(hist.min)
    assert hist.percentile(100.0) == pytest.approx(hist.max)


def test_histogram_zero_and_empty():
    hist = Histogram()
    assert hist.mean() == 0.0
    assert hist.percentile(50.0) == 0.0
    hist.record(0.0)
    hist.record(0.0)
    assert hist.percentile(99.0) == 0.0
    assert hist.mean() == 0.0
    with pytest.raises(Exception):
        hist.percentile(101.0)


def test_histogram_merge_equals_single_process():
    values = [0.0, 0.5, 1.0, 3.0, 3.0, 10.0, 250.0, 1e-12]
    merged = Histogram()
    part_a, part_b = Histogram(), Histogram()
    single = Histogram()
    for i, value in enumerate(values):
        single.record(value)
        (part_a if i % 2 == 0 else part_b).record(value)
    merged.merge(part_a)
    merged.merge(part_b)
    assert merged.count == single.count
    assert merged.total == pytest.approx(single.total)
    assert merged.min == pytest.approx(single.min)
    assert merged.max == pytest.approx(single.max)
    assert merged.zero_count == single.zero_count
    assert merged._buckets == single._buckets
    for q in (50.0, 95.0, 99.0):
        assert merged.percentile(q) == pytest.approx(single.percentile(q))


def test_histogram_dict_round_trip():
    hist = Histogram()
    for value in (0.0, 1.5, 40.0):
        hist.record(value)
    clone = Histogram.from_dict(hist.to_dict())
    assert clone.count == hist.count
    assert clone.mean() == pytest.approx(hist.mean())
    assert clone._buckets == hist._buckets
    empty = Histogram.from_dict(Histogram().to_dict())
    assert empty.count == 0
    assert empty.percentile(50.0) == 0.0


def test_registry_histograms_snapshot_and_merge():
    a = MetricsRegistry()
    a.observe_value("latency", 1.0)
    b = MetricsRegistry()
    b.observe_value("latency", 4.0)
    b.observe_value("queue", 2.0)
    a.merge_snapshot(b.snapshot())
    assert a.histogram("latency").count == 2
    assert a.histogram("latency").mean() == pytest.approx(2.5)
    assert a.histogram("queue").count == 1
    assert a.histogram("missing") is None


def test_registry_histograms_respect_disabled_and_reset():
    disabled = MetricsRegistry(enabled=False)
    disabled.observe_value("latency", 1.0)
    assert disabled.histograms == {}
    registry = MetricsRegistry()
    registry.observe_value("latency", 1.0)
    registry.reset()
    assert registry.histograms == {}


def test_render_includes_mean_column_and_histograms():
    registry = MetricsRegistry()
    registry.observe("solve", 1.0)
    registry.observe("solve", 3.0)
    registry.observe_value("latency", 5.0)
    text = registry.render()
    assert "mean=" in text
    assert "latency" in text
    assert "p95=" in text


def test_render_stable_when_disabled():
    registry = MetricsRegistry(enabled=False)
    registry.increment("hits")
    registry.observe("solve", 1.0)
    registry.observe_value("latency", 5.0)
    assert "(empty)" in registry.render()


# --------------------------------------------------------------------- #
# histogram edge cases (scale-path bugfix sweep)
# --------------------------------------------------------------------- #
class TestHistogramEdgeCases:
    def test_nonfinite_values_rejected_before_mutation(self):
        # Regression: inf/NaN used to bump count/total first and then
        # blow up in the bucket math, leaving the histogram corrupted.
        hist = Histogram()
        hist.record(2.0)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                hist.record(bad)
        assert hist.count == 1
        assert hist.mean() == pytest.approx(2.0)
        assert hist.max == pytest.approx(2.0)

    def test_empty_histogram_summary_is_finite(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.percentile(50.0) == 0.0
        assert hist.percentile(99.0) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0.0
        assert summary["mean"] == 0.0
        assert summary["max"] == 0.0
        assert all(
            value == value and abs(value) != float("inf")
            for value in summary.values()
        )

    def test_single_observation_summary(self):
        hist = Histogram()
        hist.record(5.0)
        summary = hist.summary()
        assert summary["count"] == 1.0
        assert summary["mean"] == pytest.approx(5.0)
        assert summary["max"] == pytest.approx(5.0)
        # bucketed percentiles are approximate, but must be close and
        # identical across all q for a single observation
        assert summary["p50"] == summary["p95"] == summary["p99"]
        assert summary["p50"] == pytest.approx(5.0, rel=0.1)

    def test_zero_only_observations(self):
        hist = Histogram()
        hist.record(0.0, count=3)
        assert hist.mean() == 0.0
        assert hist.percentile(50.0) == 0.0
        assert hist.summary()["p99"] == 0.0

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)


def _loop_and_bulk(prefix, values):
    """The same histogram fed ``values`` by a ``record`` loop and in bulk."""
    looped, bulk = Histogram(), Histogram()
    for hist in (looped, bulk):
        for value in prefix:
            hist.record(value)
    for value in values:
        looped.record(value)
    bulk.record_many(values)
    return looped, bulk


class TestRecordMany:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=5),
        st.lists(
            st.one_of(
                st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, 1e-9, 1e-10, 3.25, 0.1, 7.0]),
            ),
            max_size=300,
        ),
    )
    def test_equals_record_loop(self, prefix, values):
        looped, bulk = _loop_and_bulk(prefix, values)
        assert bulk.to_dict() == looped.to_dict()
        assert list(bulk.to_dict()["buckets"]) == list(
            looped.to_dict()["buckets"]
        )
        assert bulk._memo == looped._memo

    def test_total_is_a_left_fold(self):
        # values whose pairwise sum differs from the left fold
        values = np.random.default_rng(5).random(20_000) * 1e3
        looped, bulk = _loop_and_bulk([0.1], values)
        assert bulk.total == looped.total
        assert bulk.total != 0.1 + float(np.sum(values))

    def test_empty_is_a_no_op(self):
        hist = Histogram()
        hist.record(2.0)
        before = hist.to_dict()
        hist.record_many([])
        assert hist.to_dict() == before

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_rejected_before_mutation(self, bad):
        hist = Histogram()
        hist.record(2.0)
        before = hist.to_dict()
        with pytest.raises(ValueError, match="finite"):
            hist.record_many([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="finite"):
            hist.record(bad)
        assert hist.to_dict() == before
