"""The agent-to-agent window protocol: the agreement rule, horizons,
live progress, and running with fewer cores than agents."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import AgentSpec, ClusterEngine
from repro.cluster.agent import Horizon, agreed_window, window_offer
from repro.core import EngineRunner
from repro.core.engine import run_dons
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import TINY, full_mesh_dynamic
from repro.units import GBPS, ms, us

LOOKAHEAD = 1000

_window = st.one_of(st.none(), st.integers(5, 60))


@settings(max_examples=200, deadline=None)
@given(
    peeks=st.lists(_window, min_size=1, max_size=4),
    data=st.data(),
)
def test_every_agent_derives_the_window_a_coordinator_would(peeks, data):
    """For random per-agent ``(peek, sent-arrival)`` tables, the
    minimum over the agents' offers — what each agent computes from the
    frames it holds — equals what the coordinator used to compute: the
    minimum of all ``peek_next_window`` values *after* delivery."""
    n = len(peeks)
    # sent[src][dst] -> arrival times of the records src sent to dst
    sent = [
        {dst: [w * LOOKAHEAD + data.draw(st.integers(0, LOOKAHEAD - 1))
               for w in data.draw(st.lists(st.integers(5, 60), max_size=3))]
         for dst in range(n) if dst != src}
        for src in range(n)
    ]
    outboxes = [{dst: [(t, 0, ()) for t in times]
                 for dst, times in out.items()} for out in sent]
    offers = [window_offer(peeks[a], outboxes[a], LOOKAHEAD)
              for a in range(n)]

    # the old rule: deliver, then ask every agent for its peek
    after = []
    for dst in range(n):
        arrivals = [t // LOOKAHEAD for src in range(n) if src != dst
                    for t in sent[src][dst]]
        candidates = arrivals + ([peeks[dst]] if peeks[dst] is not None
                                 else [])
        after.append(min(candidates) if candidates else None)
    live = [w for w in after if w is not None]
    expected = min(live) if live else None

    assert agreed_window(offers, LOOKAHEAD, None) == expected
    # every agent holds the same offers (its own + one per frame), in
    # any order: the rule is a pure function of the multiset
    assert agreed_window(list(reversed(offers)), LOOKAHEAD, None) == expected
    if expected is not None:
        cut = expected * LOOKAHEAD
        assert agreed_window(offers, LOOKAHEAD, cut) == expected
        assert agreed_window(offers, LOOKAHEAD, cut - 1) is None


def test_horizon_reached():
    assert not Horizon().reached(10**9, 10**9)
    assert Horizon(max_windows=3).reached(3, 0)
    assert not Horizon(max_windows=3).reached(2, 0)
    assert Horizon(stop_at=12).reached(0, 12)
    assert not Horizon(stop_at=12).reached(0, 11)


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=17, max_flows=30)
    return make_scenario(topo, flows, buffer_bytes=50_000)


@pytest.mark.parametrize(
    "transport", ["local", pytest.param("shm", id="process")])
def test_live_progress_reports_events_and_reported_windows(scenario,
                                                           transport):
    """A cluster's in-flight ``progress()`` carries the events the
    agents have committed (it used to stay 0 until ``finalize()``) and
    counts exactly the windows ``advance()`` reported."""
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part) for a in range(2)]
    engine = ClusterEngine(specs, transport=transport)
    engine.build()
    try:
        calls = 0
        for _ in range(40):
            assert engine.advance()
            calls += 1
        progress = engine.progress()
        assert progress["windows"] == calls
        assert progress["events"] > 0
        assert progress["sim_ps"] > 0
        while engine.advance():
            calls += 1
    finally:
        results = engine.finalize()
    final = engine.progress()
    assert final["windows"] == calls == engine.stats.windows
    assert final["events"] == results.events.total >= progress["events"]


def test_process_checkpoint_horizons_are_invisible(scenario):
    """With ``checkpoint_every`` the agents run in grants of that many
    windows; the reported windows, the trace and the accounting are the
    same as in one unlimited grant."""
    part = contiguous_partition(scenario.topology, 2)

    def run(**kwargs):
        engine = ClusterEngine([AgentSpec(a, scenario, part, TraceLevel.FULL)
                                for a in range(2)], transport="shm", **kwargs)
        EngineRunner(engine).run()
        return engine

    plain, stepped = run(), run(checkpoint_every=7)
    assert stepped.bus.counters["cluster.checkpoints"] > 2
    assert plain.results.trace.entries == stepped.results.trace.entries
    assert plain.stats == stepped.stats


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_setaffinity")
def test_three_agents_on_one_cpu_complete_with_the_reference_digest(scenario):
    """Oversubscribed — three agents and the coordinator on one core —
    the barrier must yield instead of spinning: the run completes and
    reproduces the single-machine trace."""
    reference = run_dons(scenario, TraceLevel.FULL)
    part = contiguous_partition(scenario.topology, 3)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        results = EngineRunner(ClusterEngine(
            [AgentSpec(a, scenario, part, TraceLevel.FULL) for a in range(3)],
            transport="shm")).run()
    finally:
        os.sched_setaffinity(0, allowed)
    assert sorted(results.trace.entries) == sorted(reference.trace.entries)
    assert results.trace.digest() == reference.trace.digest()
