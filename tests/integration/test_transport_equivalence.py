"""Transport equivalence: the merged distributed trace is the same
bytes whether the agents run in-process (LocalTransport), in separate
worker processes (ProcessTransport), or as one single-machine engine.

This is the contract that makes the transport a pure execution-placement
choice: nothing about *where* an agent runs may leak into *what* it
simulates.
"""

import pytest

from repro.cluster import (
    AgentSpec, ClusterEngine, RPC_FRAME_BYTES, RPC_RECORD_BYTES,
)
from repro.core import EngineRunner
from repro.core.engine import run_dons
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    """FatTree(4) under dynamic DCTCP traffic (ECN threshold marking is
    the make_scenario default)."""
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=21, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=50_000)


@pytest.fixture(scope="module")
def reference(scenario):
    return run_dons(scenario, TraceLevel.FULL)


def _run(scenario, transport, partition):
    engine = ClusterEngine([AgentSpec(a, scenario, partition, TraceLevel.FULL)
                            for a in range(partition.num_parts)],
                           transport=transport)
    EngineRunner(engine).run()
    return engine


@pytest.mark.parametrize("machines,seed", [(2, 3), (3, 8)])
def test_local_and_process_byte_identical(scenario, reference,
                                          machines, seed):
    part = random_partition(scenario.topology, machines, seed)
    local = _run(scenario, "local", part)
    proc = _run(scenario, "shm", part)
    # byte-identical: raw entry lists, not sorted views — the merge
    # order (agent 0, agent 1, ...) is part of the contract
    assert local.results.trace.entries == proc.results.trace.entries
    assert local.results.fcts_ps() == proc.results.fcts_ps()
    assert local.results.rtt_samples == proc.results.rtt_samples
    # the traffic accounting cannot tell the transports apart either
    assert local.stats == proc.stats
    # it is priced from the agents' own bus counters: a frame per RPC
    # plus the records, summed per machine
    traffic = proc.stats
    for run in (local, proc):
        assert (run.stats.rpc_records
                == run.bus.counters["cluster.rpc_records"])
    assert (sum(traffic.egress_bytes) == traffic.rpc_bytes
            == RPC_FRAME_BYTES * traffic.rpc_messages
            + RPC_RECORD_BYTES * traffic.rpc_records)
    # on shm the agents sent exactly the records their peers received
    assert (proc.bus.counters["cluster.rpc_records"]
            == proc.bus.counters["transport.records_in"])
    # and both reproduce the single-machine run
    assert (sorted(local.results.trace.entries)
            == sorted(reference.trace.entries))


def test_process_transport_matches_single_machine(scenario, reference):
    part = contiguous_partition(scenario.topology, 2)
    proc = _run(scenario, "shm", part)
    assert (sorted(proc.results.trace.entries)
            == sorted(reference.trace.entries))
    assert proc.results.fcts_ps() == reference.fcts_ps()


def test_process_transport_merges_bus(scenario):
    """The worker processes ship their instrumentation home: the merged
    bus sees every agent's tagged systems even though the engines lived
    in other address spaces."""
    part = contiguous_partition(scenario.topology, 2)
    proc = _run(scenario, "shm", part)
    for agent in range(2):
        for system in ("ack", "send", "forward", "transmit"):
            assert f"a{agent}:{system}" in proc.bus.totals
    assert proc.bus.counters["cluster.windows"] == proc.stats.windows
