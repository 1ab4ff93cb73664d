"""InstrumentationBus: spans, merge_child, trace plumbing edge cases."""

import pytest

from repro.core.instrument import (
    SYSTEMS,
    InstrumentationBus,
    SystemProfile,
    WindowProfile,
    _NOOP_SPAN,
)
from repro.metrics import TraceLevel, TraceRecorder


def _child_payload(systems=("ack", "send"), windows=(0, 1)):
    """An agent report's bus streams: totals, and the raw window rows
    ``(index, start_ps, ack_s, send_s, forward_s, transmit_s)``."""
    totals = {name: SystemProfile(elapsed_s=0.5) for name in systems}
    rows = [(index, index * 1000, 0.25, 0.25, 0.25, 0.25)
            for index in windows]
    return {"ack.count": 3}, totals, rows


def _old_windows(own_rows, children):
    """The per-window profiles as built before reports shipped raw
    rows: each child bus materialised its own profiles (last row of a
    window wins), and the merge added them in under the child's tag."""
    def profiles(rows):
        by_index = {}
        for index, start_ps, *times in rows:
            win = by_index[index] = WindowProfile(index, start_ps)
            for name, dt in zip(SYSTEMS, times):
                win.systems[name] = SystemProfile(elapsed_s=dt)
        return sorted(by_index.values(), key=lambda w: w.index)

    merged = {}
    for tag, rows in children:
        for child in profiles(rows):
            mine = merged.setdefault(
                child.index, WindowProfile(child.index, child.start_ps))
            for system, prof in child.systems.items():
                mine.system(f"{tag}:{system}").add(prof)
    by_index = {w.index: w for w in profiles(own_rows)}
    for index, child in merged.items():
        if index in by_index:
            by_index[index].systems.update(child.systems)
        else:
            by_index[index] = child
    return sorted(by_index.values(), key=lambda w: w.index)


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
        assert bus.windows[1].start_ps == 1000

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
            "window": 0, "start_ps": 0, "system": f"a0:{system}",
            "elapsed_s": 0.25,
        } for system in ("ack", "forward", "send", "transmit")]

    def test_two_agent_merge_equals_the_old_materialisation(self):
        """Raw rows merged under their tags profile exactly as the
        shipped ``WindowProfile`` lists did: overlapping and disjoint
        windows, a window an agent re-ran after a rollback (its last
        row counts), and the parent's own rows next to the children's."""
        own = [(2, 2000, 1.0, 2.0, 3.0, 4.0)]
        children = [
            ("a0", [(0, 0, .1, .2, .3, .4), (2, 2000, .5, .6, .7, .8),
                    (5, 5000, .9, 1.1, 1.2, 1.3)]),
            ("a1", [(2, 2000, 2.1, 2.2, 2.3, 2.4),
                    (3, 3000, 3.1, 3.2, 3.3, 3.4),
                    (3, 3000, 4.1, 4.2, 4.3, 4.4),
                    (0, 0, 5.1, 5.2, 5.3, 5.4)]),
        ]
        bus = InstrumentationBus()
        bus.window_rows = list(own)
        for tag, rows in children:
            bus.merge_child(tag, {}, {}, rows)
        old = _old_windows(own, children)
        assert bus.windows == old
        assert [w.index for w in old] == [0, 2, 3, 5]
        assert old[2].system("a1:ack").elapsed_s == 4.1
        assert bus.profile_rows() == [
            {"window": w.index, "start_ps": w.start_ps, "system": name,
             "elapsed_s": prof.elapsed_s}
            for w in old for name, prof in sorted(w.systems.items())]


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
