"""InstrumentationBus: spans, merge_child, the trace sink."""

import pytest

from repro.core.instrument import SYSTEMS, InstrumentationBus
from repro.metrics import TraceLevel, TraceRecorder


def _child_state(windows=(0, 1), counters=None, **fields):
    """An agent bus's ``export_state()``, the dict an agent report
    carries: its counters, the raw window rows ``(index, start_ps, ack_s,
    send_s, forward_s, transmit_s, ack, send, forward, transmit)``, and
    no spans or metrics unless ``fields`` replaces them."""
    state = InstrumentationBus().export_state()
    state["counters"] = {"ack.count": 3} if counters is None else counters
    state["window_rows"] = [
        (index, index * 1000, 0.25, 0.25, 0.25, 0.25, 1, 2, 3, 4)
        for index in windows]
    state.update(fields)
    return state


def _old_windows(own_rows, children):
    """The per-window profiles as built before reports shipped raw
    rows, as ``[(index, start_ps, {system: elapsed_s})]``: each child
    bus materialised its own profiles (last row of a window wins), and
    the merge added them in under the child's tag."""
    def profiles(rows):
        by_index = {}
        for index, start_ps, *times in rows:
            by_index[index] = (start_ps, dict(zip(SYSTEMS, times[:4])))
        return by_index

    merged = {}
    for tag, rows in children:
        for index, (start_ps, systems) in profiles(rows).items():
            mine = merged.setdefault(index, (start_ps, {}))[1]
            for system, dt in systems.items():
                name = f"{tag}:{system}"
                mine[name] = mine.get(name, 0.0) + dt
    by_index = profiles(own_rows)
    for index, child in merged.items():
        if index in by_index:
            by_index[index][1].update(child[1])
        else:
            by_index[index] = child
    return [(index, *by_index[index]) for index in sorted(by_index)]


def _row_sums(rows):
    """Per-system in-order float sums of raw window rows — what a
    whole-run total must equal exactly."""
    sums = dict.fromkeys(SYSTEMS, 0.0)
    for row in rows:
        for name, dt in zip(SYSTEMS, row[2:6]):
            sums[name] += dt
    return sums


class TestSpans:
    def test_span_add_uses_caller_times(self):
        bus = InstrumentationBus()
        bus.telemetry = True
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
        bus.merge_child("a0", _child_state())
        assert bus.counters["ack.count"] == 3
        assert bus.totals["a0:ack"].elapsed_s == 0.5
        profile = bus.profile_rows()
        assert sorted({r["window"] for r in profile}) == [0, 1]
        assert {"window": 0, "start_ps": 0, "system": "a0:send",
                "elapsed_s": 0.25} in profile
        assert profile[-1]["start_ps"] == 1000

    def test_empty_windows_child(self):
        """An agent that ran no windows still merges cleanly."""
        bus = InstrumentationBus()
        bus.merge_child("a1", _child_state(windows=(), counters={"x": 1}))
        assert bus.counters["x"] == 1
        assert bus.totals == {}
        assert bus.profile_rows() == []

    def test_remerged_child_accumulates(self):
        """Merging the same child twice (e.g. a re-finalized engine)
        sums rather than duplicating window rows."""
        bus = InstrumentationBus()
        for _ in range(2):
            bus.merge_child("a0", _child_state(windows=(0,)))
        profile = bus.profile_rows()
        assert len(profile) == len(SYSTEMS)
        assert profile[0] == {"window": 0, "start_ps": 0,
                              "system": "a0:ack", "elapsed_s": 0.5}
        assert bus.totals["a0:ack"].elapsed_s == 0.5
        assert bus.counters["ack.count"] == 6

    def test_two_children_interleave_into_sorted_windows(self):
        bus = InstrumentationBus()
        bus.merge_child("a1", _child_state(windows=(3,)))
        bus.merge_child("a0", _child_state(windows=(1,)))
        assert [r["window"] for r in bus.profile_rows()] == [1] * 4 + [3] * 4

    def test_spans_are_tagged_and_clock_shifted(self):
        parent = InstrumentationBus()
        child_spans = [(0.5, 0.7, "window", "window", {"index": 0})]
        # child epoch 2 wall-seconds after the parent's: its t=0.5 is
        # the parent's t=2.5
        parent.merge_child("a2", _child_state(
            windows=(), spans=child_spans,
            epoch_wall=parent.epoch_wall + 2.0))
        t0, t1, name, cat, attrs = parent.spans[0]
        assert t0 == pytest.approx(2.5)
        assert t1 == pytest.approx(2.7)
        assert name == "a2:window"
        assert cat == "window"

    def test_metrics_merge_rides_along(self):
        """Counters are summed, gauges kept per agent, histograms
        summed cluster-wide."""
        parent = InstrumentationBus()
        child = InstrumentationBus()
        child.count("port.drops", 2)
        child.metrics.gauge("port.max_queue_bytes", 512.0)
        child.metrics.record("flow.completion_time_us", 30.0, (10, 100))
        for tag in ("a0", "a1"):
            parent.merge_child(tag, child.export_state())
        assert parent.counters["port.drops"] == 4
        assert parent.metrics.gauges["a1:port.max_queue_bytes"] == 512.0
        assert parent.metrics.histograms[
            "flow.completion_time_us"].count == 2

    def test_profile_rows_shape(self):
        bus = InstrumentationBus()
        bus.merge_child("a0", _child_state(windows=(0,)))
        assert bus.profile_rows() == [{
            "window": 0, "start_ps": 0, "system": f"a0:{system}",
            "elapsed_s": 0.25,
        } for system in ("ack", "forward", "send", "transmit")]

    def test_two_agent_merge_equals_the_old_materialisation(self):
        """Raw rows merged under their tags profile exactly as the
        shipped per-window profiles did: overlapping and disjoint
        windows, a window an agent re-ran after a rollback (its last
        row counts), and the parent's own rows next to the children's.
        The totals, by contrast, count every row."""
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
            bus.merge_child(tag, _child_state(window_rows=rows))
        old = _old_windows(own, children)
        assert [index for index, _start, _systems in old] == [0, 2, 3, 5]
        assert old[2][2]["a1:ack"] == 4.1
        assert bus.profile_rows() == [
            {"window": index, "start_ps": start_ps, "system": name,
             "elapsed_s": elapsed_s}
            for index, start_ps, systems in old
            for name, elapsed_s in sorted(systems.items())]
        totals = bus.totals
        for tag, rows in [(None, own), *children]:
            for system, expected in _row_sums(rows).items():
                name = system if tag is None else f"{tag}:{system}"
                assert totals[name].elapsed_s == expected


class TestTracePlumbing:
    def test_attach_trace_makes_the_recorder_the_sink(self,
                                                      dumbbell_scenario):
        """Checkpoint restore on a fresh engine: the attached recorder
        becomes the bus's one trace sink, at its own level, and the
        run's trace lands in it."""
        from repro.core.engine import DodEngine
        engine = DodEngine(dumbbell_scenario)
        assert engine.bus.trace_level == int(TraceLevel.NONE)
        new = TraceRecorder(TraceLevel.FULL)
        assert engine.attach_trace(new) is new
        assert engine.trace is new and engine.bus.trace is new
        assert engine.bus.trace_level == int(TraceLevel.FULL)
        engine.run()
        assert new.entries


class TestStateExportAdopt:
    def test_roundtrip_rebases_spans(self):
        a = InstrumentationBus()
        a.telemetry = True
        a.count("windows", 7)
        a.span_add("window", 0.1, 0.2, "window")
        a.metrics.gauge("port.max_queue_bytes", 4.0)
        state = a.export_state()
        b = InstrumentationBus()
        b.epoch_wall = a.epoch_wall - 1.0  # b's epoch is 1s earlier
        b.adopt_state(state)
        assert not b.telemetry  # the restoring bus keeps its own switch
        assert b.counters["windows"] == 7
        assert b.metrics.gauges["port.max_queue_bytes"] == 4.0
        t0, t1 = b.spans[0][:2]
        assert t0 == pytest.approx(1.1)
        assert t1 == pytest.approx(1.2)


class TestTotalsAreAView:
    """``bus.totals`` is computed from the window rows when read: each
    system's total is exactly the in-order float sum of its rows."""

    @staticmethod
    def assert_row_sums(totals, rows, tag=None):
        for system, expected in _row_sums(rows).items():
            name = system if tag is None else f"{tag}:{system}"
            assert totals[name].elapsed_s == expected

    def test_serial_engine(self, dumbbell_scenario):
        from repro.core.engine import DodEngine
        engine = DodEngine(dumbbell_scenario)
        engine.run()
        bus = engine.bus
        assert set(bus.totals) == set(SYSTEMS)
        assert (len(bus.window_rows) == bus.counters["windows"]
                == engine.progress()["windows"] > 0)
        self.assert_row_sums(bus.totals, bus.window_rows)

    def test_memo_served_windows_have_rows(self):
        """Under ``ffwd`` every window is one row too: each window a
        cycle jump skips writes its row at 0.0 s with the window's event
        counts, so the breakdown is the plain engine's and
        ``profile_rows`` lists every window.  The memo serves a window
        only by jumping over it; every other window executes."""
        from repro.bench.scenarios import steady_state_scenario
        from repro.core.engine import DodEngine
        scenario = steady_state_scenario()
        plain = DodEngine(scenario)
        expected = plain.run().window_breakdown
        engine = DodEngine(scenario, ffwd=True)
        executed = set()
        process_window = engine.process_window

        def spy(index):
            executed.add(index)
            return process_window(index)
        engine.process_window = spy
        results = engine.run()
        bus = engine.bus
        assert bus.counters["memo.jump_windows"] > 0
        assert (len(bus.window_rows) == bus.counters["windows"]
                == engine.progress()["windows"]
                == plain.progress()["windows"])
        assert results.window_breakdown == expected
        self.assert_row_sums(bus.totals, bus.window_rows)
        profiled = {}
        for row in bus.profile_rows():
            profiled.setdefault(row["window"], []).append(row["elapsed_s"])
        assert profiled.keys() == {row[0] for row in bus.window_rows}
        served = profiled.keys() - executed
        assert len(served) == bus.counters["memo.jump_windows"]
        assert all(profiled[index] == [0.0] * len(SYSTEMS)
                   for index in served)

    def test_merged_two_agent_bus(self, dumbbell_scenario):
        from repro.cluster import AgentSpec, ClusterEngine
        from repro.core.runner import EngineRunner
        from repro.partition import ClusterSpec, plan_scenario
        part = plan_scenario(dumbbell_scenario,
                             ClusterSpec.homogeneous(2)).partition
        engine = ClusterEngine([AgentSpec(a, dumbbell_scenario, part)
                                for a in range(2)])
        EngineRunner(engine).run()
        totals = engine.bus.totals
        assert set(totals) == {f"a{a}:{s}" for a in (0, 1) for s in SYSTEMS}
        for agent_id, agent in enumerate(engine.transport.engines):
            assert agent.bus.window_rows
            self.assert_row_sums(totals, agent.bus.window_rows,
                                 f"a{agent_id}")

    def test_telemetered_engine_restored_from_checkpoint(
            self, dumbbell_scenario):
        """The rows ride the checkpoint, so a restored engine's totals
        cover the windows run before the snapshot too."""
        from repro.core.checkpoint import restore_checkpoint, take_checkpoint
        from repro.core.engine import DodEngine
        first = DodEngine(dumbbell_scenario, telemetry=True)
        first.build()
        current = -1
        for _ in range(7):
            current = first._next_window(current)
            first.process_window(current)
        before = list(first.bus.window_rows)
        fresh = DodEngine(dumbbell_scenario, telemetry=True)
        fresh.build()
        current = restore_checkpoint(fresh, take_checkpoint(first, current))
        while (current := fresh._next_window(current)) is not None:
            fresh.process_window(current)
        rows = fresh.bus.window_rows
        assert rows[:len(before)] == before and len(rows) > len(before)
        self.assert_row_sums(fresh.bus.totals, rows)
