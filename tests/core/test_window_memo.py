"""Window-signature memoization: lockstep signatures, digest identity
with the cache on/off, counter accounting, and checkpoint invalidation.

The fidelity bar is the same as everywhere else in the repository: the
fast-forward path must be byte-invisible.  ``window_signature()`` (the
state hash the cache design keys on) must agree between a traced run
and an untraced one — the delivery sink publishing each port's records,
and the sink publishing nothing — at every cursor, and
``trace_digest()`` must be identical with the memo cache on and off.
"""

from hashlib import blake2b
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import steady_state_scenario
from repro.core.checkpoint import (
    CheckpointingEngine, CheckpointStore, restore_checkpoint,
    take_checkpoint,
)
from repro.conformance.oracles import result_parts
from repro.conformance.runner import load_spec_file
from repro.core.engine import DodEngine
from repro.core.memo import VALIDATE_EVERY
from repro.metrics import TraceLevel
from repro.metrics.timeline import stats_dict
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


def _signatures_by_cursor(scenario, ffwd=False,
                          trace_level=TraceLevel.NONE):
    """Map of window cursor -> state signature over one full run."""
    engine = DodEngine(scenario, trace_level, ffwd=ffwd)
    engine.build()
    sigs = {engine._cursor: engine.window_signature()}
    while engine.advance():
        sigs[engine._cursor] = engine.window_signature()
    engine.finalize()
    return sigs


#: Digest of the ``window_signature()`` sequence (every cursor of a
#: plain run) per corpus scenario, taken before the UDP schedule and the
#: transmit plan changed hands (PR 24): the pending state a window
#: leaves behind is what neither may move.
CORPUS_SIGNATURES = {
    "dumbbell-dctcp-fixed": "502e806997bd4fce",
    "dumbbell-incast-drops": "d17e155a2bfd6db5",
    "dumbbell-rr-ecn-drops": "cb0450f5cb903483",
    "duration-boundary-cut": "4ca834a847739d63",
    "hetero-mixed-transports": "7bbf5e805c421d1c",
    "leafspine-drr-classes": "f1a9e9a3bade42cb",
    "steady-udp-cycle-jump": "512e1757cd5ef29a",
    "storage-replica-pipeline": "f71adbc8970a7082",
    "wan-twin-diffserv-onoff": "ab7bf1e4708aca30",
}


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("name", sorted(CORPUS_SIGNATURES))
def test_corpus_signature_sequences_are_pinned(name, backend, monkeypatch):
    """Pinned once; a stale $REPRO_BACKEND export of either old value
    changes no signature."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    corpus = Path(__file__).parents[1] / "conformance" / "corpus"
    scenario = load_spec_file(corpus / f"{name}.json").build()
    digest = blake2b(digest_size=8)
    for signature in _signatures_by_cursor(scenario).values():
        digest.update(signature.encode())
    assert digest.hexdigest() == CORPUS_SIGNATURES[name]


class TestSignatureLockstep:
    @given(memo_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_signature_identical_across_backends(self, scenario):
        """The contract the memo cache rests on: the delivery sink
        leaves the same pending state at every cursor of the run
        whether it publishes (trace on: local deliveries installed
        after the call) or not (trace off: installed in the call)."""
        assert (_signatures_by_cursor(scenario)
                == _signatures_by_cursor(scenario,
                                         trace_level=TraceLevel.FULL))

    def test_signature_identical_on_fattree_mix(self, fattree4_scenario):
        """Nothing here is memo-eligible (DCTCP mix); the signature
        contract must hold regardless."""
        assert (_signatures_by_cursor(fattree4_scenario)
                == _signatures_by_cursor(fattree4_scenario,
                                         trace_level=TraceLevel.FULL))

    def test_signature_sensitive_to_pending_state(self):
        engine = DodEngine(steady_scenario(), TraceLevel.NONE)
        engine.build()
        before = engine.window_signature()
        assert before == engine.window_signature()  # deterministic
        engine.advance()
        assert engine.window_signature() != before
        engine.finalize()

    def test_ffwd_apply_preserves_state_signature(self):
        """A fast-forwarded window — and a cycle jump over many — must
        leave the engine in the same state executing would: checked at
        every cursor the fast-forwarded run stops at."""
        scenario = steady_scenario()
        plain = _signatures_by_cursor(scenario, ffwd=False)
        ffwd = _signatures_by_cursor(scenario, ffwd=True)
        assert ffwd == {cursor: plain[cursor] for cursor in ffwd}
        assert list(ffwd)[-1] == list(plain)[-1]
        assert len(ffwd) < len(plain), "no cycle jump on the home regime"


@st.composite
def cycle_scenarios(draw):
    """Paced UDP whose pending state repeats with some period P: pacing
    intervals that do and do not divide the window (8/10 Gb/s against
    1-3 us: P up to 6), flows of unequal length ending mid-run (the
    tail bound), optionally a duration cut (inside a would-be jump as
    often as not) and a DCTCP flow starting later (a foreign bucket)."""
    pairs = draw(st.integers(1, 3))
    edge = draw(st.sampled_from([8, 10, 12, 24]))
    delay = us(draw(st.integers(1, 3)))
    topo = dumbbell(pairs, edge_rate_bps=edge * GBPS,
                    bottleneck_rate_bps=400 * GBPS, delay_ps=delay)
    flows = [Flow(i, i, pairs + i,
                  size_bytes=draw(st.integers(60, 400)) * 1_440,
                  start_ps=draw(st.integers(0, 4)) * us(1),
                  transport=Transport.UDP) for i in range(pairs)]
    if draw(st.booleans()):
        flows.append(Flow(pairs, 0, pairs, 30_000,
                          draw(st.integers(20, 200)) * us(1),
                          Transport.DCTCP))
    duration = draw(st.one_of(st.none(), st.integers(40, 400)))
    return make_scenario(
        topo, flows, name="cycle",
        duration_ps=None if duration is None else us(duration))


def _finish(engine):
    results = engine.finalize()
    stats = [engine.port_stats(i) for i in range(len(engine.world.egress))]
    return (result_parts(results, stats), engine.trace.digest(),
            results.window_breakdown, dict(results.node_events))


def _check_reused_probes(engine):
    """Hold every window probe the memo does not encode afresh — the
    window part of a full-state pass, a jump's landing translation — to
    a fresh ``_probe(win)`` at the same state; returns the list the
    reused windows are appended to."""
    memo = engine._memo
    probes = memo._probes
    reused = []

    def checked(win):
        landing = memo._landing
        probe, state = probes(win)
        if state is not None or (landing is not None
                                 and landing.win == win):
            reused.append(win)
            assert probe == memo._probe(win), f"window {win}"
        return probe, state
    memo._probes = checked
    return reused


class TestCycleJumpLockstep:
    """A jumping engine against a twin executed window by window; every
    probe the jumper reuses is held to a fresh one on the way."""

    @given(cycle_scenarios(),
           st.one_of(st.none(), st.integers(20, 300)),
           st.one_of(st.none(), st.integers(10, 200)))
    @settings(max_examples=40, deadline=None)
    def test_jumper_matches_stepped_twin(self, scenario, max_windows,
                                         restore_after):
        def make(ffwd):
            engine = DodEngine(scenario, TraceLevel.FULL, ffwd=ffwd,
                               max_windows=max_windows)
            engine.build()
            if ffwd:
                _check_reused_probes(engine)
            return engine
        jumper, stepped = make(True), make(False)
        counters = jumper.bus.counters  # of the first engine, if restored
        more = True
        while more:
            more = jumper.advance()
            while stepped._windows_run < jumper._windows_run:
                assert stepped.advance() == (
                    more or stepped._windows_run < jumper._windows_run)
            assert stepped._cursor == jumper._cursor
            assert stepped.window_signature() == jumper.window_signature()
            if restore_after is not None \
                    and jumper._windows_run >= restore_after:
                # Snapshot right after whatever advance() just did — a
                # jump as often as not — and go on in a fresh engine.
                restore_after = None
                counters = {}
                ckpt = take_checkpoint(jumper, jumper._cursor)
                done = jumper._windows_run
                jumper = make(True)
                restore_checkpoint(jumper, ckpt)
                jumper._windows_run = done
        c = counters
        assert (c.get("memo.hit", 0) + c.get("memo.miss", 0)
                + c.get("memo.ineligible", 0)) == c.get("windows", 0)
        assert jumper.bus.counters.get("memo.validate_fail", 0) == 0
        assert _finish(jumper) == _finish(stepped)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("edge,delay,period", [
        (24, 1, 1), (8, 1, 3), (10, 1, 6), (10, 2, 3)])
    def test_periods_beyond_one_jump(self, edge, delay, period, backend,
                                     monkeypatch):
        """Pacing that does not divide the window repeats every
        ``period`` windows; whole cycles are skipped all the same, and a
        stale $REPRO_BACKEND export changes nothing."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        topo = dumbbell(2, edge_rate_bps=edge * GBPS,
                        bottleneck_rate_bps=400 * GBPS, delay_ps=us(delay))
        flows = [Flow(i, i, 2 + i, 600 * 1_440, 0, Transport.UDP)
                 for i in range(2)]
        scenario = make_scenario(topo, flows, name=f"period-{period}")
        runs = {}
        for ffwd in (False, True):
            engine = DodEngine(scenario, TraceLevel.FULL, ffwd=ffwd)
            engine.build()
            while engine.advance():
                pass
            runs[ffwd] = (_finish(engine), dict(engine.bus.counters))
        assert runs[True][0] == runs[False][0]
        c = runs[True][1]
        assert c["memo.jump"] > 0
        assert c["memo.jump_windows"] % period == 0
        assert c["windows"] == runs[False][1]["windows"]

    def test_refusals_are_named(self):
        """Each bound that leaves no whole cycle to skip says so.  The
        first comparison of a plain run (P = 6: 10 Gb/s against 1 us
        windows) gives the window, run count, hit count and cursors at
        which a bound has to bite; each variant then moves one bound
        inside that cycle."""
        topo = dumbbell(2, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=400 * GBPS, delay_ps=us(1))

        def run(segments=(300, 500), extra=(), hits=0, **kwargs):
            flows = [Flow(i, i, 2 + i, n * 1_440, 0, Transport.UDP)
                     for i, n in enumerate(segments)]
            scenario = make_scenario(
                topo, flows + list(extra), name="refusals",
                duration_ps=kwargs.pop("duration_ps", None))
            engine = DodEngine(scenario, ffwd=True, **kwargs)
            engine.build()
            memo = engine._memo
            memo.hits = hits  # only moves the validation phase
            checks = []
            jump = memo._jump

            def spy(state, *args):
                checks.append((state.win, engine._windows_run, memo.hits,
                               state.base_of.get(0)))
                return jump(state, *args)
            memo._jump = spy
            while engine.advance():
                pass
            engine.finalize()
            refused = {k.rsplit(".", 1)[1] for k in engine.bus.counters
                       if k.startswith("memo.jump_refused.")}
            return checks, refused

        checks, refused = run()
        assert not refused
        win, done, hit, cursor = checks[0]
        assert "flow_tail" in run(segments=(cursor + 4, 500))[1]
        assert run(duration_ps=us(win + 3))[1] == {"duration_cut"}
        assert run(max_windows=done + 3)[1] == {"max_windows"}
        assert "validation_due" in run(hits=(30 - hit) % 32)[1]
        late = Flow(2, 0, 2, 30_000, us(win + 60), Transport.DCTCP)
        assert "state_differs" in run(extra=[late])[1]


@pytest.mark.parametrize("make", [steady_scenario,
                                  steady_state_scenario])
def test_steady_runs_reuse_probes(make):
    """One encode per validation period: the comparison's window probe
    comes from its full-state pass and the landing's from the jump, and
    each equals a fresh one."""
    engine = DodEngine(make(), ffwd=True)
    engine.build()
    reused = _check_reused_probes(engine)
    while engine.advance():
        pass
    assert len(reused) >= 2 * engine.bus.counters["memo.jump"] - 1 > 0


def _count_encodes(engine):
    """``{"window": n, "full": n}`` fresh encodes by the memo's probe."""
    memo = engine._memo
    probe = memo._probe
    counts = {"window": 0, "full": 0}

    def counted(win, cycle=None):
        counts["window" if cycle is None else "full"] += 1
        return probe(win, cycle)
    memo._probe = counted
    return counts


def test_small_steady_sibling_spends_its_windows_in_jumps():
    """The count behind ``steady_udp_ffwd`` (no timing): on the
    benchmark's small sibling at least four windows in five are skipped
    inside a cycle jump, every validation passes, the cadence of
    validations is the per-window memo's, and a validation period pays
    one encode — the full-state one the comparison needs: the window
    probes of the misses and the first two hits are the only fresh
    ones."""
    engine = DodEngine(steady_state_scenario(), ffwd=True)
    engine.build()
    encodes = _count_encodes(engine)
    engine.run()
    c = engine.bus.counters
    assert c["memo.jump_windows"] >= 0.8 * c["windows"]
    assert c["memo.hit"] + c["memo.miss"] == c["windows"]
    assert c["memo.validate"] == c["memo.hit"] // VALIDATE_EVERY
    assert c.get("memo.validate_fail", 0) == 0
    assert (c["windows"], c["memo.hit"], c["memo.miss"],
            c["memo.validate"], c["memo.jump"]) == (1_046, 1_036, 10, 32, 33)
    assert encodes == {"window": c["memo.miss"] + 2, "full": 34}


def test_full_size_steady_counters_are_pinned():
    """``steady_udp_ffwd`` at benchmark size: how the probe computes a
    flow's emissions may change, the keys it builds from them may not —
    so hits, misses, validations and skipped windows stay what they
    were.  Encodes: one full-state pass per comparison plus the
    proposal, and window probes only for the misses and the first two
    hits."""
    scenario = steady_state_scenario(flow_bytes=24_000_000)
    engine = DodEngine(scenario, ffwd=True)
    engine.build()
    encodes = _count_encodes(engine)
    engine.run()
    c = engine.bus.counters
    assert (c["windows"], c["memo.hit"], c["memo.miss"],
            c["memo.validate"], c["memo.jump"], c["memo.jump_windows"]) == (
        8_338, 8_328, 10, 260, 261, 8_066)
    assert "memo.validate_fail" not in c
    assert encodes == {"window": 12, "full": 262}


class TestDigestIdentity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_memo_on_off_trace_digest_identical(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        scenario = steady_scenario()
        digests = {}
        counters = {}
        for ffwd in (False, True):
            engine = DodEngine(scenario, TraceLevel.FULL, ffwd=ffwd)
            engine.run()
            digests[ffwd] = engine.bus.trace_digest()
            counters[ffwd] = dict(engine.bus.counters)
        assert digests[True] == digests[False]
        assert counters[True]["memo.hit"] > 0
        assert "memo.hit" not in counters[False]

    def test_memo_counters_account_for_every_window(self):
        scenario = steady_scenario()
        engine = DodEngine(scenario, TraceLevel.NONE, ffwd=True,
                           telemetry=True)
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

    def test_ineligible_scenarios_never_build_a_cache(self):
        """Static gates: no UDP flow -> no memo, zero overhead, and the
        run that asked for one says which gate refused it."""
        topo = dumbbell(2, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=2 * GBPS, delay_ps=us(1))
        flows = [Flow(0, 0, 2, 60_000, 0, Transport.DCTCP)]
        scenario = make_scenario(topo, flows)
        engine = DodEngine(scenario, TraceLevel.NONE, ffwd=True)
        engine.run()
        assert engine._memo is None
        assert "memo.hit" not in engine.bus.counters
        assert stats_dict(engine.bus)["memo"]["disabled.no_udp_flow"] == 1


class TestCheckpointInteraction:
    def test_restore_invalidates_memo_cache(self):
        scenario = steady_scenario()
        engine = DodEngine(scenario, TraceLevel.FULL, ffwd=True)
        engine.build()
        for _ in range(30):
            engine.advance()
        assert engine._memo.cache, "warm cache expected before snapshot"
        ckpt = take_checkpoint(engine, engine._cursor)
        restore_checkpoint(engine, ckpt)
        assert engine._memo.cache == {}, "restore must invalidate the cache"

    def test_resume_with_ffwd_matches_uninterrupted_digest(self, tmp_path):
        scenario = steady_scenario()
        reference = DodEngine(scenario, TraceLevel.FULL, ffwd=True)
        reference.run()

        engine = DodEngine(scenario, TraceLevel.FULL, ffwd=True)
        engine.build()
        current = -1
        for _ in range(5):
            nxt = engine._next_window(current)
            if nxt is None:
                break
            current = nxt
            engine.process_window(current)
        ckpt = take_checkpoint(engine, current)

        fresh = CheckpointingEngine(scenario, TraceLevel.FULL, ffwd=True)
        results = fresh.resume_from(ckpt)
        assert results.trace is not None
        assert fresh.bus.trace_digest() == reference.bus.trace_digest()
        assert fresh.bus.counters.get("memo.hit", 0) > 0

        # "Every 50 windows" means windows advanced: with > 95 % of them
        # fast-forwarded or jumped over, counting executed windows
        # stretched the cadence thirty-fold.  And a snapshot taken right
        # after a jump resumes to the uninterrupted digest.
        windows = reference.bus.counters["windows"]
        store = CheckpointStore([str(tmp_path)])
        engine = CheckpointingEngine(scenario, TraceLevel.FULL, ffwd=True,
                                     store=store, every_windows=50)
        engine.build()
        after_jump = None
        while True:
            jumps = engine.bus.counters.get("memo.jump", 0)
            taken = engine.checkpoints_taken
            more = engine.advance()
            if (after_jump is None and engine.checkpoints_taken > taken
                    and engine.bus.counters.get("memo.jump", 0) > jumps):
                after_jump = store.load("run")
            if not more:
                break
        engine.finalize()
        assert engine.bus.counters["memo.jump_windows"] > windows // 2
        assert engine.checkpoints_taken == windows // 50
        assert engine.bus.trace_digest() == reference.bus.trace_digest()

        assert after_jump is not None, "no snapshot fell right after a jump"
        fresh = CheckpointingEngine(scenario, TraceLevel.FULL, ffwd=True)
        fresh.resume_from(after_jump)
        assert fresh.bus.trace_digest() == reference.bus.trace_digest()
        assert fresh.bus.counters.get("memo.jump", 0) > 0
