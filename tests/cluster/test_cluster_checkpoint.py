"""Cluster restore refuses a stale agent snapshot (§8 multi-machine
fault tolerance): :meth:`Transport.restore_all`, the call a rollback and
a phase boundary make, checks every engine checkpoint it installs."""

import dataclasses

import pytest

from repro.cluster import AgentSpec, ClusterEngine
from repro.core.checkpoint import FORMAT as ENGINE_FORMAT
from repro.des.partition_types import contiguous_partition
from repro.errors import SimulationError
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.4), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=29, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=60_000)


@pytest.mark.parametrize("damage", ["format", "scenario"])
def test_stale_agent_snapshot_refused(scenario, damage):
    """An agent snapshot of another engine format or scenario is refused
    by the engine's own check instead of being installed."""
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part, TraceLevel.FULL)
             for a in range(part.num_parts)]
    engine = ClusterEngine(specs, transport="local")
    engine.build()
    for _ in range(2):
        assert engine.advance()
    window = engine._cursor
    agents = engine.transport.snapshot_all(window)
    assert all(snap.format == ENGINE_FORMAT
               and snap.scenario_name == scenario.name
               for snap in agents)
    if damage == "format":
        agents[1] = dataclasses.replace(agents[1],
                                        format="dons-checkpoint-v2")
    else:
        agents[1] = dataclasses.replace(agents[1],
                                        scenario_name="something-else")
    try:
        with pytest.raises(SimulationError, match=damage):
            engine.transport.restore_all(specs, agents, window)
    finally:
        engine.finalize()
