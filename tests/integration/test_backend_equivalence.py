"""Observation equivalence: watching a run does not change it.

There is one kernel set and one transmit path: a window's whole port
list is replayed in one call that commits in place (the delivery sink)
— on the serial engine and on every cluster agent, whose sink hands a
remote peer's packets to the owner's outbox.  A traced or op-probed
window's sink also collects every port's services and publishes the
port's records after it.  Everything here runs the *same scenario*
unobserved and traced, or through the serial engine and a cluster, and
diffs what both can observe: the result parts (event counts, drops,
marks, every flow, the RTT samples, every port's stats).  A probed
run's op stream must not depend on the trace level.
"""

from hashlib import blake2b

import pytest

from repro.cluster import AgentSpec, ClusterEngine
from repro.cluster.agent import AgentEngine
from repro.conformance.oracles import result_parts
from repro.core import EngineRunner
from repro.core.checkpoint import restore_checkpoint
from repro.core.engine import DodEngine
from repro.core.instrument import OP_FORWARD
from repro.core.systems import transmit as transmit_mod
from repro.des import run_baseline
from repro.des.partition_types import contiguous_partition, random_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell, fattree
from repro.traffic import TINY, Flow, Transport, fixed_flows, full_mesh_dynamic
from repro.units import GBPS, ms, us


def run_parts(scenario, trace_level):
    engine = DodEngine(scenario, trace_level)
    results = engine.run()
    stats = [engine.port_stats(i) for i in range(len(engine.world.egress))]
    return results, result_parts(results, stats)


def assert_paths_identical(scenario):
    """The sink unobserved (trace off) and publishing (trace on) agree
    on every result part; the traced run agrees with the OOD
    baseline."""
    sink, sink_parts = run_parts(scenario, TraceLevel.NONE)
    traced, traced_parts = run_parts(scenario, TraceLevel.FULL)
    assert sink_parts == traced_parts
    assert traced.trace.digest() == run_baseline(
        scenario, TraceLevel.FULL).trace.digest()
    return sink


def test_dumbbell_dctcp_serial(dumbbell_scenario):
    assert assert_paths_identical(dumbbell_scenario).completed() == 4


#: blake2b-8 over the ``repr`` of every ``(code, location, uid)`` op of
#: a probed ``fattree4_scenario`` run: the same at both trace levels,
#: what each of the two former kernel sets and each of the two former
#: transmit paths published.
FATTREE4_OP_STREAM = (4_207, "e4cf1923c74190e4")


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL],
                         ids=["untraced", "traced"])
def test_fattree_op_stream_identical(fattree4_scenario, trace_level):
    """The machine-model probes read the op stream, so a probed run
    publishes the same ``(code, location, uid)`` sequence, op for op —
    ``OP_FORWARD`` per switch in arrival order included — whether or
    not a trace is recorded next to it: the sink publishes the pinned
    stream either way."""
    engine = DodEngine(fattree4_scenario, trace_level)
    ops = []
    engine.bus.ops = lambda code, location, uid: ops.append(
        (code, location, uid))
    engine.run()
    assert sum(op[0] == OP_FORWARD for op in ops) > 1000
    digest = blake2b(digest_size=8)
    for op in ops:
        digest.update(repr(op).encode())
    assert (len(ops), digest.hexdigest()) == FATTREE4_OP_STREAM


def test_loss_regime_with_retransmissions():
    topo = dumbbell(8, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=1 * GBPS)
    flows = [Flow(i, i, 8 + i, 120_000, 0) for i in range(8)]
    sc = make_scenario(topo, flows, buffer_bytes=15_000)
    assert assert_paths_identical(sc).drops > 0, "loss regime not exercised"


def test_udp_closed_form_schedule():
    """UDP enqueue times are closed-form in the emitted segments."""
    topo = dumbbell(4)
    flows = fixed_flows(topo.hosts, n_flows=4, size_bytes=80_000,
                        transport=Transport.UDP, seed=3)
    assert_paths_identical(make_scenario(topo, flows))


def cluster_parts(scenario, transport, agents, schedule=()):
    """A trace-off cluster run's result parts, with every port's stats
    read off its final owner's egress row.  The agents are snapshotted
    once the run is over (a worker process's rows never come home
    otherwise) and each snapshot restored into a fresh engine."""
    partition = contiguous_partition(scenario.topology, agents)
    cluster = ClusterEngine([AgentSpec(a, scenario, partition)
                             for a in range(agents)],
                            transport=transport, schedule=list(schedule))
    cluster.build()
    while cluster.advance():
        pass
    checkpoints = cluster.transport.snapshot_all(
        cluster.transport.cursor)
    final = schedule[-1][1] if schedule else partition
    results = cluster.finalize()
    engines = []
    for agent_id, checkpoint in enumerate(checkpoints):
        engine = AgentEngine(agent_id, scenario, final)
        engine.build()
        restore_checkpoint(engine, checkpoint)
        engines.append(engine)
    stats = [engines[final.part_of(iface.node)].port_stats(i)
             for i, iface in enumerate(scenario.topology.interfaces)]
    return cluster, result_parts(results, stats)


@pytest.mark.parametrize("agents", [2, 4])
@pytest.mark.parametrize("transport", ["local", "shm"])
def test_cluster_agents_equal_the_serial_sink(fattree4_scenario, transport,
                                              agents):
    """Trace off, agents commit through the one-call sink like the
    serial engine — a remote peer's packets go to the owner's outbox —
    and every result part equals the serial run's: event counts, drops,
    marks, every flow, the RTT samples and every port's stats."""
    _serial, serial_parts = run_parts(fattree4_scenario, TraceLevel.NONE)
    cluster, parts = cluster_parts(fattree4_scenario, transport, agents)
    assert cluster.stats.rpc_records > 0, "no packet crossed the cut"
    assert parts == serial_parts


def test_traced_agents_commit_through_the_sink(fattree4_scenario):
    """There is no two-phase path left: no per-port ``transmit_kernel``,
    no per-packet ``deliver``.  A traced 2-agent run commits through
    the sink — local deliveries installed after the call, remote ones
    sent to their owner — and reproduces the OOD trace."""
    assert not hasattr(transmit_mod, "transmit_kernel")
    assert not hasattr(AgentEngine, "deliver")
    assert not hasattr(DodEngine, "deliver")
    partition = contiguous_partition(fattree4_scenario.topology, 2)
    run = ClusterEngine([AgentSpec(a, fattree4_scenario, partition,
                                   TraceLevel.FULL) for a in range(2)],
                        transport="local")
    EngineRunner(run).run()
    assert run.stats.rpc_records > 0, "no packet crossed the cut"
    assert run.results.trace.digest() == run_baseline(
        fattree4_scenario, TraceLevel.FULL).trace.digest()


def test_live_migration_trace_off_equals_the_serial_sink():
    """Trace off, a migration rebinds every agent's partition between
    windows, and the sink must route by the new owners: a node that
    moved makes a local port remote and a remote one local."""
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.5), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=17, max_flows=60)
    scenario = make_scenario(topo, flows, buffer_bytes=60_000)
    _serial, serial_parts = run_parts(scenario, TraceLevel.NONE)
    schedule = [(60, random_partition(topo, 3, seed=9))]
    cluster, parts = cluster_parts(scenario, "local", 3, schedule)
    assert len(cluster.migrations) == 1
    assert cluster.migrations[0].queued_packets_moved > 0
    assert parts == serial_parts
