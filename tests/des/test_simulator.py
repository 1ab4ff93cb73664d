"""The OOD baseline engine: physics sanity and bookkeeping."""

import pytest

from repro.des import run_baseline
from repro.metrics import TraceKind, TraceLevel
from repro.protocols.packet import HEADER_BYTES, MSS, segment_count
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow, Transport
from repro.units import GBPS, serialization_time_ps, us


class TestPhysics:
    def test_single_udp_flow_fct_exact(self):
        """One unconstrained UDP flow: FCT is pure pipe arithmetic."""
        topo = dumbbell(1, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=10 * GBPS, delay_ps=us(1))
        size = 10 * MSS
        sc = make_scenario(topo, [Flow(0, 0, 1, size, 0, Transport.UDP)])
        res = run_baseline(sc)
        # Store-and-forward through 2 switches, NIC-paced source:
        # last byte leaves the source at 10 * ser; then each of the two
        # remaining hops adds one serialization; plus 3 link delays.
        ser = serialization_time_ps(MSS + HEADER_BYTES, 10 * GBPS)
        expected = 10 * ser + 2 * ser + 3 * us(1)
        assert res.fcts_ps() == [expected]

    def test_dctcp_flow_completes_with_sane_fct(self, dumbbell_scenario):
        res = run_baseline(dumbbell_scenario)
        assert res.completed() == 4
        # 4 x 150 KB over a shared 10G bottleneck: >= 480 us aggregate.
        assert all(f >= 480 * 1_000_000 for f in res.fcts_ps())
        assert all(f < 2_000 * 1_000_000 for f in res.fcts_ps())

    def test_rtt_floor_is_physical(self, dumbbell_scenario):
        res = run_baseline(dumbbell_scenario)
        # min RTT: 4 links out + 4 back, 1 us each, plus serializations.
        assert min(res.rtts_ps()) > 8 * us(1)

    def test_bottleneck_throughput_not_exceeded(self):
        topo = dumbbell(4, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=1 * GBPS)
        flows = [Flow(i, i, 4 + i, 100_000, 0) for i in range(4)]
        res = run_baseline(make_scenario(topo, flows))
        total_bits = 4 * 100_000 * 8
        # wall time >= payload / bottleneck rate
        assert res.fcts_ps()[-1] >= total_bits / 1e9 * 1e12 * 0.9


class TestBookkeeping:
    def test_event_counts_consistent(self, fattree4_scenario):
        res = run_baseline(fattree4_scenario)
        # every transmitted packet was serialized somewhere
        assert res.events.transmit >= res.events.send
        # forwarding happens at switches only, at least once per packet
        assert res.events.forward >= res.events.send
        assert res.events.total == (res.events.send + res.events.forward
                                    + res.events.transmit + res.events.ack)

    def test_node_events_cover_all_traffic_nodes(self, fattree4_scenario):
        res = run_baseline(fattree4_scenario)
        touched = set(res.node_events)
        for f in fattree4_scenario.flows:
            assert f.src in touched and f.dst in touched

    def test_trace_levels(self, dumbbell_scenario):
        none = run_baseline(dumbbell_scenario, TraceLevel.NONE)
        full = run_baseline(dumbbell_scenario, TraceLevel.FULL)
        assert len(none.trace) == 0 < len(full.trace)
        kinds = {e[1] for e in full.trace.entries}
        assert {TraceKind.ENQ, TraceKind.DEQ, TraceKind.DELIVER,
                TraceKind.FLOW_DONE} <= kinds

    def test_duration_cutoff(self, dumbbell_scenario):
        import dataclasses
        sc = dataclasses.replace(dumbbell_scenario, duration_ps=us(50))
        res = run_baseline(sc)
        assert res.end_time_ps <= us(50)
        assert res.completed() < 4

    def test_deterministic_across_runs(self, fattree4_scenario):
        a = run_baseline(fattree4_scenario, TraceLevel.FULL)
        b = run_baseline(fattree4_scenario, TraceLevel.FULL)
        assert a.trace.entries == b.trace.entries
        assert a.fcts_ps() == b.fcts_ps()

    def test_marks_appear_under_congestion(self):
        topo = dumbbell(8, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=1 * GBPS)
        flows = [Flow(i, i, 8 + i, 200_000, 0) for i in range(8)]
        res = run_baseline(make_scenario(topo, flows))
        assert res.marks > 0

    def test_drops_and_recovery_with_tiny_buffer(self):
        topo = dumbbell(8, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=1 * GBPS)
        flows = [Flow(i, i, 8 + i, 150_000, 0) for i in range(8)]
        res = run_baseline(make_scenario(topo, flows, buffer_bytes=15_000))
        assert res.drops > 0
        assert res.completed() == 8, "retransmission must recover all drops"

    def test_all_bytes_delivered_exactly_once(self, fattree4_scenario):
        res = run_baseline(fattree4_scenario)
        assert res.completed() == len(fattree4_scenario.flows)
