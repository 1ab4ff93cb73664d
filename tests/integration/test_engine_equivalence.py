"""The paper's fidelity claim, asserted literally (Fig. 10 / Theorem 2):

the DOD engine and the OOD baseline produce byte-identical event traces,
timestamp for timestamp, across topologies, transports, schedulers, AQMs
and loss regimes.
"""

import pytest

from repro.core.engine import run_dons
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.protocols import AqmConfig, AqmKind
from repro.scenario import make_scenario
from repro.schedulers import SchedulerKind
from repro.topology import Topology, abilene, dumbbell, fattree
from repro.traffic import Flow, Transport, full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


def assert_equivalent(scenario, ffwd=False):
    a = run_baseline(scenario, TraceLevel.FULL)
    b = run_dons(scenario, TraceLevel.FULL, ffwd=ffwd)
    assert a.trace.sorted_entries() == b.trace.sorted_entries()
    assert a.rtt_samples == b.rtt_samples
    assert a.fcts_ps() == b.fcts_ps()
    assert a.drops == b.drops
    assert a.marks == b.marks
    assert a.events.total == b.events.total
    return a, b


def test_dumbbell_dctcp(dumbbell_scenario):
    a, _ = assert_equivalent(dumbbell_scenario)
    assert a.completed() == 4


def test_fattree_ecmp_mixed_transports(fattree4_scenario):
    assert_equivalent(fattree4_scenario)
    # The UDP flows make the mix memo-eligible: windows probed, captured
    # and run under the tap must read exactly as the plain ones.
    assert_equivalent(fattree4_scenario, ffwd=True)


def test_drops_and_retransmissions():
    topo = dumbbell(8, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=1 * GBPS)
    flows = [Flow(i, i, 8 + i, 120_000, 0) for i in range(8)]
    sc = make_scenario(topo, flows, buffer_bytes=15_000)
    a, _ = assert_equivalent(sc)
    assert a.drops > 0, "loss regime not exercised"
    assert a.completed() == 8


@pytest.mark.parametrize("sched", [SchedulerKind.SP, SchedulerKind.RR,
                                   SchedulerKind.DRR])
def test_schedulers_with_priorities(sched):
    topo = dumbbell(6, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=2 * GBPS)
    flows = [Flow(i, i, 6 + (i % 3), 60_000, 0, Transport.DCTCP,
                  priority=i % 3) for i in range(6)]
    sc = make_scenario(topo, flows, scheduler=sched, num_classes=3)
    assert_equivalent(sc)


def test_red_marking():
    topo = dumbbell(6, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=2 * GBPS)
    flows = [Flow(i, i, 11 - i, 100_000, 0) for i in range(6)]
    sc = make_scenario(topo, flows, aqm=AqmConfig(kind=AqmKind.RED))
    a, _ = assert_equivalent(sc)
    assert a.marks > 0, "RED never marked"


def test_wan_full_mesh():
    topo = abilene()
    flows = full_mesh_dynamic(topo.hosts, ms(1), load=0.3,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=7, max_flows=60)
    assert_equivalent(make_scenario(topo, flows))


def test_heterogeneous_link_delays():
    topo = Topology("hetero")
    hosts = [topo.add_host() for _ in range(4)]
    s = [topo.add_switch() for _ in range(3)]
    topo.add_link(hosts[0], s[0], 10 * GBPS, us(1))
    topo.add_link(hosts[1], s[0], 10 * GBPS, us(4))
    topo.add_link(hosts[2], s[2], 10 * GBPS, us(2))
    topo.add_link(hosts[3], s[2], 10 * GBPS, us(9))
    topo.add_link(s[0], s[1], 5 * GBPS, us(13))
    topo.add_link(s[1], s[2], 5 * GBPS, us(6))
    topo.freeze()
    flows = [Flow(0, hosts[0], hosts[2], 80_000, 0),
             Flow(1, hosts[1], hosts[3], 80_000, us(3)),
             Flow(2, hosts[3], hosts[0], 50_000, us(1), Transport.UDP)]
    assert_equivalent(make_scenario(topo, flows))


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_randomized_fattree_scenarios(seed):
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.4), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=seed, max_flows=80)
    sc = make_scenario(topo, flows, buffer_bytes=60_000)
    assert_equivalent(sc)
