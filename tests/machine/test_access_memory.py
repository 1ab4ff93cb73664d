"""Access models and the memory model."""

import pytest

from repro.core.engine import DodEngine
from repro.des.simulator import OodSimulator
from repro.machine import (
    CacheConfig, DodAccessModel, OodAccessModel, StructuralCounts,
    dons_memory_bytes, max_fattree, memory_by_simulator, ns3_memory_bytes,
    omnet_memory_bytes, ood_state_bytes,
)
from repro.core.instrument import (
    OP_FORWARD, OP_HOST_RX, OP_SEND, OP_SERVICE, OP_WINDOW,
)
from repro.units import GIB, MIB


class TestAccessModels:
    def test_ood_records_and_frees(self):
        m = OodAccessModel(10, 20, 4)
        uid = (3 << 25) | 5
        m(OP_SEND, 0, uid)
        n1 = len(m.addresses)
        m(OP_FORWARD, 4, uid)
        m(OP_SERVICE, 7, uid)
        m(OP_HOST_RX, 1, uid)
        assert len(m.addresses) > n1
        # the freed packet slot is reused by the next allocation
        m(OP_SEND, 0, (3 << 25) | 6)
        assert m._free == []

    def test_ood_cap_respected(self):
        m = OodAccessModel(10, 20, 4, max_addresses=50)
        for seq in range(100):
            m(OP_SEND, 0, seq)
        assert m.saturated
        assert len(m.addresses) <= 60  # cap plus one op's worth

    def test_dod_buffer_resets_each_window(self):
        m = DodAccessModel(10, 20, 4, 8)
        m(OP_FORWARD, 4, 1)
        first = m._buffer_cursor
        m(OP_WINDOW, 0, 0)
        assert m._buffer_cursor < first

    def test_engine_hooks_fire(self, fattree4_scenario):
        topo = fattree4_scenario.topology
        ood = OodAccessModel(topo.num_nodes, topo.num_interfaces,
                             topo.num_hosts)
        sim = OodSimulator(fattree4_scenario)
        sim.bus.subscribe_ops(ood)
        sim.run()
        eng = DodEngine(fattree4_scenario)
        eng.bus.subscribe_ops(dod := DodAccessModel(
            topo.num_nodes, topo.num_interfaces,
            topo.num_hosts, len(fattree4_scenario.flows)))
        eng.run()
        assert len(ood.addresses) > 1000
        assert len(dod.addresses) > 1000

    def test_layout_gap_emerges(self, fattree4_scenario):
        """The architectural claim: same ops, different layouts, a
        measurable miss-rate gap."""
        topo = fattree4_scenario.topology
        ood = OodAccessModel(topo.num_nodes, topo.num_interfaces,
                             topo.num_hosts)
        sim = OodSimulator(fattree4_scenario)
        sim.bus.subscribe_ops(ood)
        sim.run()
        eng = DodEngine(fattree4_scenario)
        eng.bus.subscribe_ops(dod := DodAccessModel(
            topo.num_nodes, topo.num_interfaces,
            topo.num_hosts, len(fattree4_scenario.flows)))
        eng.run()
        cfg = CacheConfig(size_bytes=8 * MIB)
        assert (ood.measure(cfg).miss_rate
                > 5 * dod.measure(cfg).miss_rate)


class TestMemoryModel:
    def test_ns3_linear_in_processes(self):
        c = StructuralCounts.from_fattree_k(8)
        assert ns3_memory_bytes(c, 4) == 4 * ns3_memory_bytes(c, 1)

    def test_omnet_flat_in_processes(self):
        c = StructuralCounts.from_fattree_k(8)
        one, many = omnet_memory_bytes(c, 1), omnet_memory_bytes(c, 32)
        assert many < 1.5 * one

    def test_dons_far_smaller(self):
        c = StructuralCounts.from_fattree_k(16)
        assert dons_memory_bytes(c) < ood_state_bytes(c) / 2

    def test_paper_anchors(self):
        c16 = StructuralCounts.from_fattree_k(16)
        gb = ns3_memory_bytes(c16, 32) / GIB
        assert 100 < gb < 170  # paper: 132.5 GB
        c32 = StructuralCounts.from_fattree_k(32)
        assert 8 < dons_memory_bytes(c32) / GIB < 20  # paper: 12.6 GB

    def test_counts_from_topology(self, fattree4):
        c = StructuralCounts.from_topology(fattree4)
        ck = StructuralCounts.from_fattree_k(4)
        assert c == ck

    def test_max_fattree_limits(self):
        assert max_fattree(128 * GIB, "ns-3") == 32
        assert max_fattree(128 * GIB, "omnet++") == 32
        assert max_fattree(128 * GIB, "dons") >= 48
        assert max_fattree(1 * GIB, "dons") < max_fattree(128 * GIB, "dons")
        with pytest.raises(ValueError):
            max_fattree(1 * GIB, "quantum")

    def test_memory_by_simulator_keys(self):
        c = StructuralCounts.from_fattree_k(4)
        table = memory_by_simulator(c, 2)
        assert set(table) == {"ns-3", "omnet++", "dons"}
