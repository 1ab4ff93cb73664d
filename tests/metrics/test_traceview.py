"""Trace analysis utilities."""

import pytest

from repro.core.engine import run_dons
from repro.metrics import TraceLevel
from repro.metrics.traceview import hops, packet_journey
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow
from repro.units import GBPS, serialization_time_ps, us


@pytest.fixture(scope="module")
def run():
    from repro.protocols import AqmConfig, AqmKind
    topo = dumbbell(4, edge_rate_bps=10 * GBPS,
                    bottleneck_rate_bps=2 * GBPS, delay_ps=us(1))
    flows = [Flow(i, i, 4 + i, 60_000, 0) for i in range(4)]
    sc = make_scenario(
        topo, flows, buffer_bytes=25_000,
        aqm=AqmConfig(kind=AqmKind.ECN_THRESHOLD, ecn_threshold_bytes=8_000),
    )
    return sc, run_dons(sc, TraceLevel.FULL)


class TestPacketJourney:
    def test_journey_is_chronological_and_complete(self, run):
        _sc, res = run
        journey = packet_journey(res.trace, flow=0, seq=0)
        times = [e[0] for e in journey]
        assert times == sorted(times)
        # segment 0: enq+deq at 3 ports (host NIC, swL, swR) + delivery
        assert len(journey) >= 7

    def test_hops_pair_up(self, run):
        _sc, res = run
        hop_list = hops(res.trace, flow=0, seq=0)
        assert len(hop_list) == 3
        for hop in hop_list:
            assert hop.deq_ps >= hop.enq_ps
            assert hop.queueing_ps >= 0

    def test_per_hop_latency_is_ser_plus_delay(self, run):
        _sc, res = run
        hop_list = hops(res.trace, flow=0, seq=0)
        lats = [b.enq_ps - a.deq_ps for a, b in zip(hop_list, hop_list[1:])]
        assert len(lats) == 2
        # hop from host NIC (10G) into swL: 1460+60 wire bytes + 1 us
        ser = serialization_time_ps(1500, 10 * GBPS)
        assert lats[0] == ser + us(1)
