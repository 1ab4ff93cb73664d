"""MetricsRegistry and Histogram: the metric half of the telemetry layer."""

import pytest

from repro.core.instrument import InstrumentationBus
from repro.core.telemetry import (
    FCT_US_BUCKETS,
    Histogram,
    MetricsRegistry,
    QUEUE_DEPTH_BUCKETS,
    UTILIZATION_BUCKETS,
    WAIT_MS_BUCKETS,
)


class TestHistogram:
    def test_records_land_in_the_right_buckets(self):
        h = Histogram((10, 100, 1000))
        for v in (0, 5, 10):        # <=10
            h.record(v)
        h.record(50)                # <=100
        h.record(5000)              # overflow
        assert h.counts == [3, 1, 0, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(0 + 5 + 10 + 50 + 5000)

    def test_mean_and_quantile(self):
        h = Histogram((1, 2, 4, 8))
        for v in (1, 1, 2, 4, 8):
            h.record(v)
        assert h.mean() == pytest.approx(16 / 5)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(0.5) <= 4

    def test_empty_histogram(self):
        h = Histogram((1, 2))
        assert h.count == 0
        assert h.mean() == 0.0
        assert h.quantile(0.99) == 0.0

    def test_snapshot_merge_roundtrip(self):
        a = Histogram((10, 100))
        b = Histogram((10, 100))
        a.record(5)
        a.record(500)
        b.record(50)
        b.merge_snapshot(a.snapshot())
        assert b.count == 3
        assert b.counts == [1, 1, 1]
        assert b.sum == pytest.approx(555)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram((10, 100))
        b = Histogram((1, 2, 3))
        with pytest.raises(ValueError):
            b.merge_snapshot(a.snapshot())

    def test_bucket_catalogs_are_sorted(self):
        for buckets in (QUEUE_DEPTH_BUCKETS, UTILIZATION_BUCKETS,
                        FCT_US_BUCKETS, WAIT_MS_BUCKETS):
            assert list(buckets) == sorted(buckets)
            assert len(set(buckets)) == len(buckets)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        """Counters live on the bus alone; the registry keeps gauges."""
        bus = InstrumentationBus()
        bus.count("events")
        bus.count("events", 4)
        m = bus.metrics
        m.gauge("depth", 7.5)
        m.gauge("depth", 2.5)  # gauges overwrite
        assert bus.counters["events"] == 5
        assert m.gauges["depth"] == 2.5
        assert not hasattr(m, "count") and "counters" not in m.snapshot()

    def test_histogram_create_or_get(self):
        m = MetricsRegistry()
        h1 = m.histogram("fct", (1, 2, 3))
        h2 = m.histogram("fct")  # existing: no buckets needed
        assert h1 is h2
        with pytest.raises(ValueError):
            m.histogram("unknown")  # first use must supply buckets

    def test_record_convenience(self):
        m = MetricsRegistry()
        m.histogram("wait", (1.0, 10.0))
        m.record("wait", 0.5)
        m.record("wait", 100.0)
        assert m.histograms["wait"].count == 2

    def test_bool_reflects_content(self):
        m = MetricsRegistry()
        assert not m
        m.gauge("x", 1.0)
        assert m

    def test_snapshot_merge_sums_counters_and_histograms(self):
        """The registry's snapshot sums histograms; the bus state it
        rides in sums the counters."""
        a = InstrumentationBus()
        a.count("drops", 3)
        a.metrics.histogram("depth", (10, 100)).record(50)
        b = InstrumentationBus()
        b.count("drops", 2)
        b.metrics.histogram("depth", (10, 100)).record(5)
        b.merge_child("a0", a.export_state())
        assert b.counters["drops"] == 5
        assert b.metrics.histograms["depth"].count == 2

    def test_merge_prefixes_gauges_only(self):
        child = MetricsRegistry()
        child.gauge("busy_s", 0.25)
        parent = MetricsRegistry()
        parent.merge(child.snapshot(), prefix="a3:")
        # gauges stay per-agent
        assert parent.gauges["a3:busy_s"] == 0.25
        assert "busy_s" not in parent.gauges

    def test_merge_creates_missing_histograms(self):
        child = MetricsRegistry()
        child.histogram("util", (0.5, 1.0)).record(0.7)
        parent = MetricsRegistry()
        parent.merge(child.snapshot())
        assert parent.histograms["util"].count == 1
        assert parent.histograms["util"].buckets == (0.5, 1.0)
