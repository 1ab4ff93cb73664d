"""Window-signature memoization: lockstep signatures, digest identity
with the cache on/off, counter accounting, and checkpoint invalidation.

The fidelity bar is the same as everywhere else in the repository: the
fast-forward path must be byte-invisible.  ``window_signature()`` (the
backend-stable state hash the cache design keys on) must agree across
ECS backends at every cursor, and ``trace_digest()`` must be identical
with the memo cache on and off.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import (
    CheckpointingEngine, restore_checkpoint, take_checkpoint,
)
from repro.core.engine import DodEngine
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow, Transport
from repro.units import GBPS, us


def steady_scenario(n_pairs=4, size=600_000, edge=12 * GBPS):
    """Drop-free periodic UDP permutation: the memo's home regime.

    A 12 Gbps NIC serializes a 1500 B frame in exactly 1 us — one
    lookahead window — so after the pipeline fills, every window's
    signature repeats and the cache hits until the flows drain.
    """
    topo = dumbbell(n_pairs, edge_rate_bps=edge,
                    bottleneck_rate_bps=100 * GBPS, delay_ps=us(1))
    flows = [Flow(i, i, n_pairs + i, size, 0, Transport.UDP)
             for i in range(n_pairs)]
    return make_scenario(topo, flows, name=f"steady-{n_pairs}")


@st.composite
def memo_scenarios(draw):
    """Small mixed scenarios: some memo-eligible, some not — the
    signature lockstep must hold regardless."""
    pairs = draw(st.integers(min_value=2, max_value=4))
    edge = draw(st.sampled_from([10, 12])) * GBPS
    bottleneck = draw(st.sampled_from([2, 10, 100])) * GBPS
    topo = dumbbell(pairs, edge_rate_bps=edge,
                    bottleneck_rate_bps=bottleneck,
                    delay_ps=us(draw(st.integers(1, 3))))
    hosts = topo.hosts
    flows = []
    for i in range(draw(st.integers(min_value=1, max_value=2 * pairs))):
        src = hosts[draw(st.integers(0, len(hosts) - 1))]
        dst = [h for h in hosts if h != src][
            draw(st.integers(0, len(hosts) - 2))]
        flows.append(Flow(
            i, src, dst,
            size_bytes=draw(st.integers(3_000, 90_000)),
            start_ps=draw(st.integers(0, 10)) * us(1),
            transport=draw(st.sampled_from([Transport.UDP,
                                            Transport.DCTCP])),
        ))
    return make_scenario(topo, flows)


def _signatures_by_cursor(scenario, backend, ffwd=False):
    """Map of window cursor -> state signature over one full run."""
    engine = DodEngine(scenario, TraceLevel.NONE, backend=backend, ffwd=ffwd)
    engine.build()
    sigs = {engine._cursor: engine.window_signature()}
    while engine.advance():
        sigs[engine._cursor] = engine.window_signature()
    engine.finalize()
    return sigs


class TestSignatureLockstep:
    @given(memo_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_signature_identical_across_backends(self, scenario):
        """The backend-stability contract the memo cache rests on:
        python and numpy agree at every cursor of the run."""
        assert (_signatures_by_cursor(scenario, "numpy")
                == _signatures_by_cursor(scenario, "python"))

    def test_signature_identical_on_fattree_mix(self, fattree4_scenario):
        """Nothing here is memo-eligible (DCTCP mix); the signature
        contract must hold regardless."""
        assert (_signatures_by_cursor(fattree4_scenario, "numpy")
                == _signatures_by_cursor(fattree4_scenario, "python"))

    def test_signature_sensitive_to_pending_state(self):
        engine = DodEngine(steady_scenario(), TraceLevel.NONE)
        engine.build()
        before = engine.window_signature()
        assert before == engine.window_signature()  # deterministic
        engine.advance()
        assert engine.window_signature() != before
        engine.finalize()

    def test_ffwd_apply_preserves_state_signature(self):
        """A fast-forwarded window must leave the engine in the same
        state an executed one would — checked cursor by cursor."""
        scenario = steady_scenario()
        plain = _signatures_by_cursor(scenario, "numpy", ffwd=False)
        ffwd = _signatures_by_cursor(scenario, "numpy", ffwd=True)
        assert ffwd == plain


class TestDigestIdentity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_memo_on_off_trace_digest_identical(self, backend):
        scenario = steady_scenario()
        digests = {}
        counters = {}
        for ffwd in (False, True):
            engine = DodEngine(scenario, TraceLevel.FULL, backend=backend,
                               ffwd=ffwd)
            engine.run()
            digests[ffwd] = engine.bus.trace_digest()
            counters[ffwd] = dict(engine.bus.counters)
        assert digests[True] == digests[False]
        assert counters[True]["memo.hit"] > 0
        assert "memo.hit" not in counters[False]

    def test_memo_counters_account_for_every_window(self):
        scenario = steady_scenario()
        engine = DodEngine(scenario, TraceLevel.NONE, backend="numpy",
                           ffwd=True, telemetry=True)
        results = engine.run()
        c = engine.bus.counters
        handled = (c.get("memo.hit", 0) + c.get("memo.miss", 0)
                   + c.get("memo.ineligible", 0)
                   + c.get("memo.uncacheable", 0))
        assert handled == c["windows"]
        assert c["memo.hit"] > c["memo.miss"] > 0
        assert c.get("memo.validate", 0) > 0
        assert c.get("memo.validate_fail", 0) == 0
        assert results.drops == 0 and results.completed() == 4
        hist = engine.bus.metrics.histograms.get("memo.apply_ms")
        assert hist is not None and hist.count == c["memo.hit"] - \
            c.get("memo.validate", 0)

    def test_env_var_enables_ffwd(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFWD", "1")
        engine = DodEngine(steady_scenario(), TraceLevel.NONE,
                           backend="numpy")
        assert engine.ffwd and os.environ["REPRO_FFWD"] == "1"
        engine.run()
        assert engine.bus.counters.get("memo.hit", 0) > 0

    def test_ineligible_scenarios_never_build_a_cache(self):
        """Static gates: no UDP flow -> no memo, zero overhead."""
        topo = dumbbell(2, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=2 * GBPS, delay_ps=us(1))
        flows = [Flow(0, 0, 2, 60_000, 0, Transport.DCTCP)]
        scenario = make_scenario(topo, flows)
        engine = DodEngine(scenario, TraceLevel.NONE, ffwd=True)
        engine.run()
        assert engine._memo is None
        assert "memo.hit" not in engine.bus.counters


class TestCheckpointInteraction:
    def test_restore_invalidates_memo_cache(self):
        scenario = steady_scenario()
        engine = DodEngine(scenario, TraceLevel.FULL, backend="numpy",
                           ffwd=True)
        engine.build()
        current = -1
        for _ in range(30):
            nxt = engine._next_window(current)
            if nxt is None:
                break
            current = nxt
            assert engine._memo.run_window(current) or True
        assert engine._memo.cache, "warm cache expected before snapshot"
        ckpt = take_checkpoint(engine, current)
        restore_checkpoint(engine, ckpt)
        assert engine._memo.cache == {}, "restore must invalidate the cache"
        engine.pool.close()

    def test_resume_with_ffwd_matches_uninterrupted_digest(self):
        scenario = steady_scenario()
        reference = DodEngine(scenario, TraceLevel.FULL, backend="numpy",
                              ffwd=True)
        reference.run()

        engine = DodEngine(scenario, TraceLevel.FULL, backend="numpy",
                           ffwd=True)
        engine.build()
        current = -1
        for _ in range(5):
            nxt = engine._next_window(current)
            if nxt is None:
                break
            current = nxt
            engine.process_window(current)
        ckpt = take_checkpoint(engine, current)
        engine.pool.close()

        fresh = CheckpointingEngine(scenario, TraceLevel.FULL,
                                    backend="numpy", ffwd=True)
        results = fresh.resume_from(ckpt)
        assert results.trace is not None
        assert fresh.bus.trace_digest() == reference.bus.trace_digest()
        assert fresh.bus.counters.get("memo.hit", 0) > 0
