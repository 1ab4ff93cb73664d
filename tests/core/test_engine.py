"""The DOD engine: window mechanics, LCC invariants, results parity."""

import dataclasses

import pytest

from repro.core.engine import DodEngine, run_dons
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow, Transport
from repro.units import GBPS, us


class TestWindowMechanics:
    def test_lookahead_is_min_link_delay(self, dumbbell_scenario):
        eng = DodEngine(dumbbell_scenario)
        assert eng.lookahead == dumbbell_scenario.topology.min_link_delay_ps()

    def test_deliveries_always_land_in_future_windows(self, dumbbell_scenario):
        """The LCC invariant: nothing is inserted into the current or a
        past window."""
        eng = DodEngine(dumbbell_scenario)
        eng.build()
        original_insert = eng._insert
        current_window = [-1]

        def guarded(t, node, entry):
            win = eng._window_of(t)
            assert win > current_window[0], (
                f"entry for window {win} inserted while running "
                f"{current_window[0]}"
            )
            original_insert(t, node, entry)

        eng._insert = guarded
        while True:
            nxt = eng._next_window(current_window[0])
            if nxt is None:
                break
            current_window[0] = nxt
            eng.process_window(nxt)
        eng.finalize()
        assert eng.results.completed() == 4

    def test_window_breakdown_records_busy_windows(self, dumbbell_scenario):
        res = run_dons(dumbbell_scenario)
        assert res.window_breakdown
        for start, ack, send, fwd, tx in res.window_breakdown:
            assert start % dumbbell_scenario.lookahead_ps == 0
            assert ack + send + fwd + tx > 0

    def test_idle_gaps_are_skipped(self):
        """Two bursts separated by a long gap must not iterate every
        intermediate window."""
        topo = dumbbell(1, edge_rate_bps=10 * GBPS)
        flows = [Flow(0, 0, 1, 3_000, 0, Transport.UDP),
                 Flow(1, 1, 0, 3_000, us(5_000), Transport.UDP)]
        sc = make_scenario(topo, flows)
        for ffwd in (False, True):
            res = DodEngine(sc, ffwd=ffwd).run()
            busy = len(res.window_breakdown)
            assert busy < 200, (
                f"engine visited {busy} windows for 2 tiny bursts")
            assert res.completed() == 2

    def test_options_after_trace_level_are_keyword_only(self, dumbbell_scenario):
        """A third positional used to be ``workers``; a stale caller
        must fail, not silently become some other option."""
        from repro.cluster import AgentEngine
        from repro.des.partition_types import contiguous_partition
        with pytest.raises(TypeError):
            DodEngine(dumbbell_scenario, TraceLevel.NONE, 2)
        partition = contiguous_partition(dumbbell_scenario.topology, 2)
        with pytest.raises(TypeError):
            AgentEngine(0, dumbbell_scenario, partition, TraceLevel.NONE, 2)

    def test_public_annotations_resolve(self):
        """Every name an engine method is annotated with is importable
        (``progress()`` once named an un-imported ``Any``)."""
        import inspect
        import typing
        for _name, fn in inspect.getmembers(DodEngine, inspect.isfunction):
            typing.get_type_hints(fn)


class TestParityWithBaseline:
    def test_results_match(self, fattree4_scenario):
        a = run_baseline(fattree4_scenario)
        b = run_dons(fattree4_scenario)
        assert a.fcts_ps() == b.fcts_ps()
        assert a.events.total == b.events.total
        assert a.node_events == b.node_events
        assert a.marks == b.marks
        assert a.tx_bytes == b.tx_bytes

    def test_duration_cutoff(self, dumbbell_scenario):
        sc = dataclasses.replace(dumbbell_scenario, duration_ps=us(50))
        a = run_baseline(sc, TraceLevel.FULL)
        b = run_dons(sc, TraceLevel.FULL)
        # Both engines stop within one lookahead of the cutoff.
        assert abs(a.end_time_ps - b.end_time_ps) <= sc.lookahead_ps
        assert b.end_time_ps <= us(50) + sc.lookahead_ps
