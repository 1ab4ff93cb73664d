"""InstrumentationBus: spans, merge_child, trace plumbing edge cases."""

import pytest

from repro.core.instrument import (
    InstrumentationBus,
    SystemProfile,
    WindowProfile,
    _NOOP_SPAN,
)
from repro.metrics import TraceLevel, TraceRecorder


def _child_payload(systems=("ack", "send"), windows=(0, 1)):
    totals = {name: SystemProfile(elapsed_s=0.5) for name in systems}
    wins = []
    for index in windows:
        win = WindowProfile(index=index, start_ps=index * 1000)
        for name in systems:
            win.system(name).elapsed_s = 0.25
        wins.append(win)
    return {"ack.count": 3}, totals, wins


class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        bus = InstrumentationBus()
        assert bus.span("anything") is _NOOP_SPAN
        with bus.span("anything", "cat", key=1):
            pass
        assert bus.spans == []

    def test_enabled_span_records_interval(self):
        bus = InstrumentationBus()
        bus.enable_telemetry()
        with bus.span("work", "system", window=3):
            pass
        assert len(bus.spans) == 1
        t0, t1, name, cat, attrs = bus.spans[0]
        assert t0 <= t1
        assert (name, cat, attrs) == ("work", "system", {"window": 3})

    def test_span_add_uses_caller_times(self):
        bus = InstrumentationBus()
        bus.enable_telemetry()
        bus.span_add("w", 1.0, 2.0, "window")
        assert bus.spans[0][:2] == (1.0, 2.0)

    def test_rel_converts_perf_counter_readings(self):
        import time
        bus = InstrumentationBus()
        t = time.perf_counter()
        assert bus.rel(t) == pytest.approx(bus.now(), abs=0.05)


class TestMergeChild:
    def test_tags_totals_and_windows(self):
        bus = InstrumentationBus()
        counters, totals, wins = _child_payload()
        bus.merge_child("a0", counters, totals, wins)
        assert bus.counters["ack.count"] == 3
        assert bus.totals["a0:ack"].elapsed_s == 0.5
        assert [w.index for w in bus.windows] == [0, 1]
        assert "a0:send" in bus.windows[0].systems

    def test_empty_windows_child(self):
        """An agent that ran no windows still merges cleanly."""
        bus = InstrumentationBus()
        bus.merge_child("a1", {"x": 1}, {}, [])
        assert bus.counters["x"] == 1
        assert bus.windows == []
        assert bus.profile_rows() == []

    def test_remerged_child_accumulates(self):
        """Merging the same child twice (e.g. a re-finalized engine)
        sums rather than duplicating window rows."""
        bus = InstrumentationBus()
        for _ in range(2):
            counters, totals, wins = _child_payload(windows=(0,))
            bus.merge_child("a0", counters, totals, wins)
        assert len(bus.windows) == 1
        assert bus.windows[0].system("a0:ack").elapsed_s == 0.5
        assert bus.totals["a0:ack"].elapsed_s == 1.0
        assert bus.counters["ack.count"] == 6

    def test_two_children_interleave_into_sorted_windows(self):
        bus = InstrumentationBus()
        _, totals, wins = _child_payload(windows=(3,))
        bus.merge_child("a1", {}, totals, wins)
        _, totals, wins = _child_payload(windows=(1,))
        bus.merge_child("a0", {}, totals, wins)
        assert [w.index for w in bus.windows] == [1, 3]

    def test_spans_are_tagged_and_clock_shifted(self):
        parent = InstrumentationBus()
        child_spans = [(0.5, 0.7, "window", "window", {"index": 0})]
        # child epoch 2 wall-seconds after the parent's: its t=0.5 is
        # the parent's t=2.5
        parent.merge_child("a2", {}, {}, [], spans=child_spans,
                           epoch_wall=parent.epoch_wall + 2.0)
        t0, t1, name, cat, attrs = parent.spans[0]
        assert t0 == pytest.approx(2.5)
        assert t1 == pytest.approx(2.7)
        assert name == "a2:window"
        assert cat == "window"

    def test_metrics_merge_rides_along(self):
        parent = InstrumentationBus()
        from repro.core.telemetry import MetricsRegistry
        child = MetricsRegistry()
        child.count("port.drops", 2)
        child.gauge("port.max_queue_bytes", 512.0)
        parent.merge_child("a1", {}, {}, [], metrics=child.snapshot())
        assert parent.metrics.counters["port.drops"] == 2
        assert parent.metrics.gauges["a1:port.max_queue_bytes"] == 512.0

    def test_profile_rows_shape(self):
        bus = InstrumentationBus()
        _, totals, wins = _child_payload(systems=("ack",), windows=(0,))
        bus.merge_child("a0", {}, totals, wins)
        rows = bus.profile_rows()
        assert rows == [{
            "window": 0, "start_ps": 0, "system": "a0:ack",
            "elapsed_s": 0.25,
        }]


class TestTracePlumbing:
    def test_unsubscribed_trace_is_empty_not_an_error(self):
        bus = InstrumentationBus()
        bus.enq(1, 2, 3, 0, 4, 0)  # no subscribers: silently dropped
        assert bus.trace_entries() == []
        assert bus.canonical_trace() == []
        assert isinstance(bus.trace_digest(), str)

    def test_digest_of_empty_trace_is_stable(self):
        assert (InstrumentationBus().trace_digest()
                == InstrumentationBus().trace_digest())

    def test_replace_trace_swaps_subscriber_and_level(self):
        bus = InstrumentationBus()
        old = bus.subscribe_trace(TraceRecorder(TraceLevel.FULL))
        assert bus.trace_level == int(TraceLevel.FULL)
        new = TraceRecorder(TraceLevel.PORTS)
        bus.replace_trace(old, new)
        assert bus.trace_level == int(TraceLevel.PORTS)
        bus.drop(5, 1, 2, 0, 7)
        assert new.entries and not old.entries

    def test_replace_trace_with_unsubscribed_old_still_subscribes_new(self):
        """Replacing a recorder that was never subscribed must not
        corrupt the subscriber list (checkpoint restore on a fresh
        engine hits this)."""
        bus = InstrumentationBus()
        never = TraceRecorder(TraceLevel.FULL)
        new = bus.replace_trace(never, TraceRecorder(TraceLevel.FULL))
        bus.flow_done(1, 2, 3)
        assert len(new.entries) == 1


class TestStateExportAdopt:
    def test_roundtrip_rebases_spans(self):
        a = InstrumentationBus()
        a.enable_telemetry()
        a.count("windows", 7)
        a.span_add("window", 0.1, 0.2, "window")
        a.metrics.count("port.drops", 4)
        state = a.export_state()
        b = InstrumentationBus()
        b.epoch_wall = a.epoch_wall - 1.0  # b's epoch is 1s earlier
        b.adopt_state(state)
        assert b.telemetry
        assert b.counters["windows"] == 7
        assert b.metrics.counters["port.drops"] == 4
        t0, t1 = b.spans[0][:2]
        assert t0 == pytest.approx(1.1)
        assert t1 == pytest.approx(1.2)
