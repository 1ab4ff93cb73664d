"""Property-based fidelity: hypothesis-generated scenarios, two engines,
one trace.  This is the strongest test in the repository — any semantic
divergence between the OOD and DOD engines shows up here first."""

from hypothesis import given, settings, strategies as st

from repro.core.engine import run_dons
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.schedulers import SchedulerKind
from repro.topology import dumbbell, fattree
from repro.traffic import Flow, Transport
from repro.units import GBPS, us


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(["dumbbell", "fattree"]))
    if shape == "dumbbell":
        pairs = draw(st.integers(min_value=2, max_value=6))
        bottleneck = draw(st.sampled_from([1, 2, 10])) * GBPS
        topo = dumbbell(pairs, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=bottleneck,
                        delay_ps=us(draw(st.integers(1, 5))))
    else:
        topo = fattree(4, rate_bps=10 * GBPS,
                       delay_ps=us(draw(st.integers(1, 3))))
    hosts = topo.hosts
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for i in range(n_flows):
        src = hosts[draw(st.integers(0, len(hosts) - 1))]
        dst_candidates = [h for h in hosts if h != src]
        dst = dst_candidates[draw(st.integers(0, len(dst_candidates) - 1))]
        flows.append(Flow(
            i, src, dst,
            size_bytes=draw(st.integers(1_000, 120_000)),
            start_ps=draw(st.integers(0, 40)) * us(1),
            transport=draw(st.sampled_from([Transport.DCTCP,
                                            Transport.UDP])),
            priority=draw(st.integers(0, 2)),
        ))
    sched = draw(st.sampled_from(list(SchedulerKind)))
    buffer_bytes = draw(st.sampled_from([12_000, 60_000, 4_000_000]))
    return make_scenario(topo, flows, scheduler=sched, num_classes=3,
                         buffer_bytes=buffer_bytes)


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_generated_scenarios_trace_equal(scenario):
    a = run_baseline(scenario, TraceLevel.FULL)
    b = run_dons(scenario, TraceLevel.FULL)
    assert a.trace.sorted_entries() == b.trace.sorted_entries()
    assert a.rtt_samples == b.rtt_samples
    assert a.fcts_ps() == b.fcts_ps()
    # Fast-forwarding on whatever part of the draw is memo-eligible.
    c = run_dons(scenario, TraceLevel.FULL, ffwd=True)
    assert c.trace.digest() == b.trace.digest()
    assert c.rtt_samples == b.rtt_samples
    # DCTCP recovers losses; UDP does not, so a dropped UDP segment
    # legitimately leaves its flow incomplete.
    from repro.traffic import Transport
    for flow in scenario.flows:
        if flow.transport == Transport.DCTCP:
            assert a.flows[flow.flow_id].complete_ps is not None
    if a.drops == 0:
        assert a.completed() == len(scenario.flows)
