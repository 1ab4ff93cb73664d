"""Engine ablation knobs: lookahead override and system order."""

import pytest

from repro.bench import NaiveOrderEngine
from repro.cluster import ClusterEngine, DonsManager
from repro.core.engine import DodEngine, run_dons
from repro.des import run_baseline
from repro.errors import SimulationError
from repro.metrics import TraceLevel


class TestLookaheadOverride:
    @pytest.mark.parametrize("divisor", [2, 4, 10])
    def test_smaller_lookahead_still_exact(self, dumbbell_scenario, divisor):
        reference = run_baseline(dumbbell_scenario, TraceLevel.FULL)
        la = dumbbell_scenario.lookahead_ps // divisor
        res = DodEngine(dumbbell_scenario, TraceLevel.FULL,
                        lookahead_override=la).run()
        assert res.trace.sorted_entries() == reference.trace.sorted_entries()

    def test_smaller_lookahead_more_windows(self, dumbbell_scenario):
        full = DodEngine(dumbbell_scenario).run()
        half = DodEngine(dumbbell_scenario,
                         lookahead_override=dumbbell_scenario.lookahead_ps // 2).run()
        assert len(half.window_breakdown) > len(full.window_breakdown)

    def test_too_large_override_rejected(self, dumbbell_scenario):
        with pytest.raises(SimulationError):
            DodEngine(dumbbell_scenario,
                      lookahead_override=dumbbell_scenario.lookahead_ps + 1)

    def test_zero_override_rejected(self, dumbbell_scenario):
        with pytest.raises(SimulationError):
            DodEngine(dumbbell_scenario, lookahead_override=0)


class TestSystemOrder:
    def test_paper_order_matches_ground_truth(self, fattree4_scenario):
        truth = run_baseline(fattree4_scenario, TraceLevel.FULL)
        res = DodEngine(fattree4_scenario, TraceLevel.FULL).run()
        assert res.trace.digest() == truth.trace.digest()

    @pytest.mark.parametrize("env_backend", ["python", "numpy"])
    def test_naive_order_diverges_but_completes(self, fattree4_scenario,
                                                monkeypatch, env_backend):
        """The §3.3 ablation lives in a bench-only subclass that runs
        the engine's own systems in the rejected order; a stale
        $REPRO_BACKEND export of either old value changes nothing."""
        monkeypatch.setenv("REPRO_BACKEND", env_backend)
        truth = run_baseline(fattree4_scenario, TraceLevel.FULL)
        res = NaiveOrderEngine(fattree4_scenario, TraceLevel.FULL).run()
        assert res.trace.digest() != truth.trace.digest()
        assert res.completed() == len(fattree4_scenario.flows)


class TestOneWindowPerAdvance:
    def test_batch_windows_env_is_ignored(self, dumbbell_scenario,
                                          monkeypatch):
        """K-window batching is gone: a stale $REPRO_BATCH_WINDOWS
        export changes nothing — every advance() runs one window."""
        monkeypatch.setenv("REPRO_BATCH_WINDOWS", "8")
        engine = DodEngine(dumbbell_scenario)
        engine.build()
        steps = 0
        while True:
            before = engine._windows_run
            more = engine.advance()
            assert engine._windows_run - before == (1 if more else 0)
            if not more:
                break
            steps += 1
        assert steps == engine._windows_run > 8
        assert engine.bus.counters["windows"] == steps

    def test_batch_windows_argument_is_gone(self, dumbbell_scenario):
        from repro.partition import ClusterSpec
        with pytest.raises(TypeError):
            DodEngine(dumbbell_scenario, batch_windows=8)
        with pytest.raises(TypeError):
            run_dons(dumbbell_scenario, batch_windows=8)
        with pytest.raises(TypeError):
            ClusterEngine([], batch_windows=8)
        with pytest.raises(TypeError):
            DonsManager(dumbbell_scenario, ClusterSpec.homogeneous(2),
                        batch_windows=8)


class TestRenoTransport:
    def test_reno_trace_equal_and_distinct_from_dctcp(self):
        from repro.scenario import make_scenario
        from repro.topology import dumbbell
        from repro.traffic import Flow, Transport
        from repro.units import GBPS
        topo = dumbbell(4, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=2 * GBPS)

        def run_with(transport):
            flows = [Flow(i, i, 4 + i, 120_000, 0, transport)
                     for i in range(4)]
            sc = make_scenario(topo, flows)
            a = run_baseline(sc, TraceLevel.FULL)
            b = run_dons(sc, TraceLevel.FULL)
            assert a.trace.digest() == b.trace.digest()
            return a

        reno = run_with(Transport.RENO)
        dctcp = run_with(Transport.DCTCP)
        assert reno.marks > 0 and dctcp.marks > 0
        # Reno halves on any marked window; DCTCP cuts proportionally —
        # under identical marking Reno is the slower of the two.
        assert sum(reno.fcts_ps()) > sum(dctcp.fcts_ps())
