"""A partition builds only what it owns (§3.1: an agent's Simulation
Builder "only instantiates sender state for flows starting locally").

Each DONS agent and each OOD LP runs its serial engine's builder under a
per-node ownership fact: it schedules the starts of the flows its nodes
send and keeps the record of the flows its nodes receive, so a flow's
``FlowResult`` lives in exactly one part, its destination's owner.
"""

import pytest

from repro.bench.workloads import wan_twin_scenario
from repro.cluster import ClusterEngine
from repro.cluster.agent import AgentSpec
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des import ParallelOodSimulator, run_baseline
from repro.des.partition_types import contiguous_partition, random_partition
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


def _fattree4():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=5, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=60_000)


def _wan_twin():
    return wan_twin_scenario(classes=3, max_flows=80, duration_ms=0.15,
                             scheduler="sp", seed=41)


SCENARIOS = {"fattree4": _fattree4, "wan-twin": _wan_twin}
CASES = [(name, parts) for name in SCENARIOS for parts in (2, 3)]


def _owner_of_dst(scenario, partition):
    dst = scenario.flows.columns()["dst"].tolist()
    return [partition.part_of(node) for node in dst]


def _assert_one_record_per_flow(parts, scenario, partition):
    """Every flow's record is held by exactly one part: its
    destination's owner."""
    for flow_id, owner in enumerate(_owner_of_dst(scenario, partition)):
        holders = [i for i, flows in enumerate(parts) if flow_id in flows]
        assert holders == [owner], (flow_id, holders, owner)


@pytest.mark.parametrize("name,parts", CASES)
def test_agent_builds_only_what_it_owns(name, parts):
    scenario = SCENARIOS[name]()
    partition = contiguous_partition(scenario.topology, parts)
    engine = ClusterEngine([AgentSpec(a, scenario, partition)
                            for a in range(parts)])
    engine.build()
    agents = engine.transport.engines
    for agent in agents:
        events = agent.events
        for bucket in events._buckets.values():
            assert all(partition.part_of(node) == agent.agent_id
                       for node in bucket.nodes)
        # No window is indexed that holds no entry of this agent.
        assert sorted(events._queued) == sorted(events._heap) \
            == events.windows()
    _assert_one_record_per_flow([agent.results.flows for agent in agents],
                                scenario, partition)
    merged = EngineRunner(engine).run()
    serial = run_dons(scenario)
    assert merged.flows == serial.flows
    assert list(merged.flows) == sorted(serial.flows)


@pytest.mark.parametrize("name,parts", CASES)
def test_record_follows_the_receiver_through_a_migration(name, parts):
    scenario = SCENARIOS[name]()
    first = contiguous_partition(scenario.topology, parts)
    second = random_partition(scenario.topology, parts, seed=3)
    engine = ClusterEngine([AgentSpec(a, scenario, first)
                            for a in range(parts)], schedule=[(8, second)])
    merged = EngineRunner(engine).run()
    assert len(engine.migrations) == 1
    _assert_one_record_per_flow([part.flows for part in engine.per_agent],
                                scenario, second)
    assert merged.flows == run_dons(scenario).flows


@pytest.mark.parametrize("name,parts", CASES)
def test_lp_builds_only_what_it_owns(name, parts):
    scenario = SCENARIOS[name]()
    partition = contiguous_partition(scenario.topology, parts)
    sim = ParallelOodSimulator(scenario, partition)
    cols = scenario.flows.columns()
    src, dst = cols["src"].tolist(), cols["dst"].tolist()
    for lp_id, lp in enumerate(sim.lps):
        lp.build()
        sends = {f for f, node in enumerate(src)
                 if partition.part_of(node) == lp_id}
        receives = {f for f, node in enumerate(dst)
                    if partition.part_of(node) == lp_id}
        assert set(lp.senders) | set(lp.udp) == sends
        assert set(lp.receivers) == set(lp.results.flows) == receives
        assert len(lp.queue) == len(sends)
    _assert_one_record_per_flow([lp.results.flows for lp in sim.lps],
                                scenario, partition)
    ran = ParallelOodSimulator(scenario, partition)
    merged = ran.run()
    _assert_one_record_per_flow([lp.results.flows for lp in ran.lps],
                                scenario, partition)
    assert merged.flows == run_baseline(scenario).flows
