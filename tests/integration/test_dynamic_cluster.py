"""Appendix A executed: live repartitioning preserves the trace.

The hardest correctness property in the repository: a cluster run that
*migrates node state between machines mid-simulation* must still produce
the single-machine trace, byte for byte.
"""

import pytest

from repro.cluster import ClusterEngine
from repro.cluster.agent import AgentSpec
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec, dynamic_partition_plan
from repro.scenario import make_scenario
from repro.topology import fattree, isp_wan
from repro.traffic import Flow, full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.5), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=17, max_flows=60)
    return make_scenario(topo, flows, buffer_bytes=60_000)


@pytest.fixture(scope="module")
def reference(scenario):
    return run_dons(scenario, TraceLevel.FULL)


def run_with_schedule(scenario, first, schedule, machines,
                      transport="local"):
    specs = [
        AgentSpec(a, scenario, first, TraceLevel.FULL)
        for a in range(machines)
    ]
    controller = ClusterEngine(specs, transport=transport,
                               schedule=schedule)
    return EngineRunner(controller).run(), controller


@pytest.mark.parametrize("boundary_window", [1, 50, 200])
def test_single_migration_preserves_trace(scenario, reference,
                                          boundary_window):
    topo = scenario.topology
    first = contiguous_partition(topo, 3)
    second = random_partition(topo, 3, seed=9)
    merged, controller = run_with_schedule(
        scenario, first, [(boundary_window, second)], machines=3)
    assert len(controller.migrations) == 1
    stats = controller.migrations[0]
    assert stats.nodes_moved > 0
    assert (sorted(merged.trace.entries)
            == sorted(reference.trace.entries))
    assert merged.fcts_ps() == reference.fcts_ps()


@pytest.mark.parametrize("transport", ["local", "shm"])
def test_multiple_migrations_preserve_trace(scenario, reference, transport):
    """Three boundaries, each a snapshot rewritten and restored, on
    either transport."""
    topo = scenario.topology
    parts = [contiguous_partition(topo, 3),
             random_partition(topo, 3, seed=1),
             random_partition(topo, 3, seed=2),
             contiguous_partition(topo, 3)]
    schedule = [(40, parts[1]), (120, parts[2]), (260, parts[3])]
    merged, controller = run_with_schedule(scenario, parts[0], schedule, 3,
                                           transport)
    assert len(controller.migrations) == 3
    assert (sorted(merged.trace.entries)
            == sorted(reference.trace.entries))
    assert merged.fcts_ps() == reference.fcts_ps()
    # An egress row moves, it is not shared: each port's counters are
    # summed by exactly one agent however often its node changed hands.
    assert (merged.tx_bytes, merged.marks) == (reference.tx_bytes,
                                               reference.marks)


def test_migration_moves_inflight_state(scenario):
    """A boundary in the thick of the traffic must move queued packets."""
    topo = scenario.topology
    first = contiguous_partition(topo, 3)
    second = random_partition(topo, 3, seed=9)
    _merged, controller = run_with_schedule(scenario, first,
                                            [(60, second)], 3)
    stats = controller.migrations[0]
    assert stats.calendar_entries_moved > 0
    assert stats.bytes_moved > 0


def test_run_dynamic_end_to_end():
    """Appendix A end to end: shifting hotspot, detected, partitioned
    per phase and executed with a migration at each phase boundary."""
    topo = isp_wan(backbone_routers=8, provinces=2, provincial_routers=5,
                   metros_per_province=2, metro_routers=3,
                   servers_per_metro=2, seed=3)
    hosts = topo.hosts
    half = len(hosts) // 2
    f1 = full_mesh_dynamic(hosts[:half], ms(1), load=1.0,
                           host_rate_bps=10 * GBPS, sizes=TINY, seed=1,
                           max_flows=30)
    f2 = full_mesh_dynamic(hosts[half:], ms(1), load=1.0,
                           host_rate_bps=10 * GBPS, sizes=TINY, seed=2,
                           max_flows=30)
    flows = list(f1)
    for f in f2:
        flows.append(Flow(len(f1) + f.flow_id, f.src, f.dst, f.size_bytes,
                          f.start_ps + ms(1), f.transport))
    sc = make_scenario(topo, flows)
    reference = run_dons(sc, TraceLevel.FULL)

    bin_ps = ms(1)
    phases = dynamic_partition_plan(sc.topology, sc.fib, sc.flows, bin_ps,
                                    ClusterSpec.homogeneous(3), 0.2)
    schedule = [(phase.start_bin * bin_ps // sc.lookahead_ps,
                 phase.plan.partition) for phase in phases[1:]]
    merged, run = run_with_schedule(sc, phases[0].plan.partition, schedule,
                                    machines=3)
    migrations = run.migrations
    assert sorted(merged.trace.entries) == sorted(reference.trace.entries)
    assert merged.fcts_ps() == reference.fcts_ps()
    # The hotspot shift produced at least one real migration.
    assert migrations and migrations[0].nodes_moved > 0
