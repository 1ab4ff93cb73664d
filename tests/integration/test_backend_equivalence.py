"""Backend equivalence: the two transmit back ends are byte-identical.

There is one kernel set, but the TransmitSystem has two back ends.
With no trace stream, no op probe and local deliveries it replays a
window's whole port list in one call that commits in place (the
delivery sink); traced, op-probed and cluster-agent windows run the
two-phase kernel + commit.  Everything here runs the *same scenario*
through both back ends and diffs what both can observe: the result
parts (event counts, drops, marks, every flow, every port's stats).  A
probed run's op stream must not depend on the trace level.
"""

from hashlib import blake2b

import pytest

from repro.conformance.oracles import result_parts
from repro.core.engine import DodEngine
from repro.core.instrument import OP_FORWARD
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow, Transport, fixed_flows
from repro.units import GBPS


def run_parts(scenario, trace_level):
    engine = DodEngine(scenario, trace_level)
    results = engine.run()
    stats = [engine.port_stats(i) for i in range(len(engine.world.egress))]
    return results, result_parts(results, stats)


def assert_paths_identical(scenario):
    """The sink (trace off) and the two-phase path (trace on) agree on
    every result part; the traced run agrees with the OOD baseline."""
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
#: and what each of the two former kernel sets published.
FATTREE4_OP_STREAM = (4_207, "e4cf1923c74190e4")


@pytest.mark.parametrize("trace_level", [TraceLevel.NONE, TraceLevel.FULL],
                         ids=["untraced", "traced"])
def test_fattree_op_stream_identical(fattree4_scenario, trace_level):
    """The machine-model probes read the op stream, so a probed run
    publishes the same ``(code, location, uid)`` sequence, op for op —
    ``OP_FORWARD`` per switch in arrival order included — whether or
    not a trace is recorded next to it: untraced the sink runs, traced
    the two-phase commit, and both publish the pinned stream."""
    engine = DodEngine(fattree4_scenario, trace_level)
    ops = []
    engine.bus.subscribe_ops(
        lambda code, location, uid: ops.append((code, location, uid)))
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


def test_cluster_agents_equal_the_serial_sink(fattree4_scenario):
    """Cluster agents always take the two-phase path (their peers can be
    remote); 2 local-transport agents equal the serial engine's sink."""
    from repro.cluster import DonsManager
    from repro.des.partition_types import contiguous_partition
    from repro.partition import ClusterSpec

    serial, _parts = run_parts(fattree4_scenario, TraceLevel.NONE)
    partition = contiguous_partition(fattree4_scenario.topology, 2)
    run = DonsManager(fattree4_scenario, ClusterSpec.homogeneous(2),
                      transport="local").run(partition=partition)
    assert run.results.events == serial.events
    assert (run.results.drops, run.results.marks) == (serial.drops,
                                                      serial.marks)
    assert run.results.fcts_ps() == serial.fcts_ps()
