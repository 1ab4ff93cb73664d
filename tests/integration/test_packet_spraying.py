"""Per-packet ECMP (packet spraying): correctness under reordering."""

import pytest

from repro.core.engine import run_dons
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.metrics.traceview import hops
from repro.scenario import make_scenario
from repro.topology import fattree, leaf_spine
from repro.traffic import Flow, Transport
from repro.units import GBPS, us


@pytest.fixture(scope="module")
def spray_scenario():
    # Many spines -> real path diversity for a single flow.
    topo = leaf_spine(2, 4, hosts_per_leaf=2,
                      host_rate_bps=10 * GBPS, fabric_rate_bps=10 * GBPS)
    hosts = topo.hosts
    flows = [Flow(0, hosts[0], hosts[3], 150_000, 0),
             Flow(1, hosts[1], hosts[2], 150_000, 0)]
    return make_scenario(topo, flows, ecmp_mode="packet")


def test_engines_agree_under_spraying(spray_scenario):
    a = run_baseline(spray_scenario, TraceLevel.FULL)
    b = run_dons(spray_scenario, TraceLevel.FULL)
    assert a.trace.sorted_entries() == b.trace.sorted_entries()
    assert a.fcts_ps() == b.fcts_ps()
    assert a.completed() == 2


def test_spraying_actually_sprays(spray_scenario):
    res = run_baseline(spray_scenario, TraceLevel.FULL)
    # Different segments of flow 0 should traverse different spine ports.
    second_hop_ifaces = set()
    for seq in range(0, 40):
        hop_list = hops(res.trace, flow=0, seq=seq)
        if len(hop_list) >= 2:
            second_hop_ifaces.add(hop_list[1].iface_id)
    assert len(second_hop_ifaces) >= 2, "all packets took one path"


def test_flow_mode_pins_one_path(spray_scenario):
    import dataclasses
    pinned = dataclasses.replace(spray_scenario, ecmp_mode="flow")
    res = run_baseline(pinned, TraceLevel.FULL)
    second_hop_ifaces = set()
    for seq in range(0, 40):
        hop_list = hops(res.trace, flow=0, seq=seq)
        if len(hop_list) >= 2:
            second_hop_ifaces.add(hop_list[1].iface_id)
    assert len(second_hop_ifaces) == 1


def test_spraying_with_reordering_still_completes():
    """Asymmetric spine delays force out-of-order arrival; cumulative-ACK
    reassembly must absorb it (possibly via dup-ack retransmissions)."""
    from repro.topology.graph import Topology
    topo = Topology("asym-spines")
    h = [topo.add_host() for _ in range(2)]
    leaves = [topo.add_switch("leafA"), topo.add_switch("leafB")]
    spines = [topo.add_switch(f"spine{i}") for i in range(2)]
    topo.add_link(h[0], leaves[0], 10 * GBPS, us(1))
    topo.add_link(h[1], leaves[1], 10 * GBPS, us(1))
    for leaf in leaves:
        topo.add_link(leaf, spines[0], 10 * GBPS, us(1))
        topo.add_link(leaf, spines[1], 10 * GBPS, us(9))  # slow spine
    topo.freeze()
    sc = make_scenario(topo, [Flow(0, h[0], h[1], 100_000, 0)],
                       ecmp_mode="packet")
    a = run_baseline(sc, TraceLevel.FULL)
    b = run_dons(sc, TraceLevel.FULL)
    assert a.trace.digest() == b.trace.digest()
    assert a.completed() == 1


def _asym_spines():
    from repro.topology.graph import Topology
    topo = Topology("asym-spines")
    h = [topo.add_host() for _ in range(2)]
    leaves = [topo.add_switch("leafA"), topo.add_switch("leafB")]
    spines = [topo.add_switch(f"spine{i}") for i in range(2)]
    topo.add_link(h[0], leaves[0], 10 * GBPS, us(1))
    topo.add_link(h[1], leaves[1], 10 * GBPS, us(1))
    for leaf in leaves:
        topo.add_link(leaf, spines[0], 10 * GBPS, us(1))
        topo.add_link(leaf, spines[1], 10 * GBPS, us(9))  # slow spine
    return topo.freeze(), h


@pytest.mark.parametrize("transport", [Transport.DCTCP, Transport.UDP])
def test_reassembly_sets_exist_only_while_a_gap_is_open(transport):
    """A receiver row's ``out_of_order`` is ``None`` until its flow's
    first gap and goes back to ``None`` when the gap closes: no row ever
    holds an empty set, none holds one after ``build()``, and the run
    still matches the OOD reference digest."""
    from repro.core.engine import DodEngine
    topo, h = _asym_spines()
    sc = make_scenario(topo, [Flow(0, h[0], h[1], 100_000, 0, transport),
                              Flow(1, h[1], h[0], 60_000, 0, transport)],
                       ecmp_mode="packet")
    engine = DodEngine(sc, TraceLevel.FULL)
    engine.build()
    ooo = engine.world.receiver_cols["out_of_order"]
    assert ooo == [None, None]
    gaps = 0
    while engine.advance():
        assert all(s is None or s for s in ooo)
        gaps += sum(s is not None for s in ooo)
    results = engine.finalize()
    assert gaps, "no segment ever arrived past a gap"
    assert ooo == [None, None] and results.completed() == 2
    assert results.trace.digest() == run_baseline(
        sc, TraceLevel.FULL).trace.digest()


def test_memo_encodes_no_gap_one_way():
    """The memo's flow encoding and its moves treat ``None`` and an
    empty set alike, and a moved gap set stays a set."""
    from repro.core.memo import _enc_flow, _move_field
    for empty in (None, set()):
        cols = {"out_of_order": ([empty], "seqs")}
        assert _enc_flow(cols, 0, 5, 0) == ((),)
        assert _move_field("seqs", empty, 3) is None
        assert _move_field("seqs", (), 3) is None
    assert _move_field("seqs", (2, 4), 3) == {5, 7}
    assert _enc_flow({"g": ([{7, 9}], "seqs")}, 0, 5, 0) == ((2, 4),)
