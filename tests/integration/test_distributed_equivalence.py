"""Distributed DONS correctness: the cluster runtime reproduces the
single-machine trace for *every* partition (§4.2's conservative sync)."""

import pytest

from repro.cluster import AgentSpec, ClusterEngine
from repro.core import EngineRunner
from repro.core.engine import run_dons
from repro.des.partition_types import (
    contiguous_partition, random_partition,
)
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec, plan_scenario
from repro.scenario import make_scenario
from repro.topology import fattree, isp_wan
from repro.traffic import Flow, full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.5), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=13, max_flows=60)
    return make_scenario(topo, flows, buffer_bytes=50_000)


@pytest.fixture(scope="module")
def reference(scenario):
    return run_dons(scenario, TraceLevel.FULL)


def _run(scenario, partition, trace_level=TraceLevel.FULL):
    engine = ClusterEngine([AgentSpec(a, scenario, partition, trace_level)
                            for a in range(partition.num_parts)])
    EngineRunner(engine).run()
    return engine


def _planned(scenario, machines):
    return plan_scenario(scenario, ClusterSpec.homogeneous(machines)).partition


@pytest.mark.parametrize("machines,seed", [(2, 1), (3, 9), (4, 2), (6, 5)])
def test_random_partitions_equivalent(scenario, reference, machines, seed):
    part = random_partition(scenario.topology, machines, seed)
    run = _run(scenario, part)
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))
    assert run.results.fcts_ps() == reference.fcts_ps()
    assert run.results.rtt_samples == reference.rtt_samples


def test_planned_partition_equivalent(scenario, reference):
    run = _run(scenario, _planned(scenario, 4))
    assert (sorted(run.results.trace.entries)
            == sorted(reference.trace.entries))


def test_planned_partition_moves_less_traffic(scenario):
    planned = _run(scenario, _planned(scenario, 4), TraceLevel.NONE)
    rand = _run(scenario, random_partition(scenario.topology, 4, 3),
                TraceLevel.NONE)
    assert planned.stats.rpc_bytes < rand.stats.rpc_bytes


def test_wan_distributed_equivalence():
    topo = isp_wan(backbone_routers=10, provinces=3, provincial_routers=6,
                   metros_per_province=2, metro_routers=4, seed=2)
    flows = full_mesh_dynamic(topo.hosts, ms(1), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=5, max_flows=50)
    sc = make_scenario(topo, flows)
    ref = run_dons(sc, TraceLevel.FULL)
    run = _run(sc, contiguous_partition(topo, 3))
    assert sorted(run.results.trace.entries) == sorted(ref.trace.entries)
