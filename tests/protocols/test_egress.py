"""The egress-port automaton: the component trace equality rests on.

The key test is the incremental-vs-windowed equivalence: driving one
port event by event (the OOD style) and replaying the same arrivals
window by window over an egress row (the DOD style) must transmit
identical packets at identical times.
"""

import pytest

from port_lockstep import drive_automaton, egress_row
from repro.core.systems.transmit import (
    contract_key, contract_sort, replay_window,
)
from repro.errors import SimulationError
from repro.protocols import AqmConfig, AqmKind, EgressConfig, EgressPort
from repro.protocols.packet import (
    F_CE, PRIO_ARRIVAL, data_row,
)
from repro.schedulers import SchedulerKind
from repro.topology import dumbbell
from repro.units import GBPS, serialization_time_ps, us


@pytest.fixture
def iface():
    topo = dumbbell(1, bottleneck_rate_bps=10 * GBPS)
    # bottleneck egress from swL toward swR
    return topo.iface(2, 1)


def mk_port(iface, buffer_bytes=10**9, kind=AqmKind.NONE, k=10**9,
            sched=SchedulerKind.FIFO):
    cfg = EgressConfig(buffer_bytes=buffer_bytes,
                       aqm=AqmConfig(kind=kind, ecn_threshold_bytes=k),
                       scheduler=sched)
    return EgressPort(iface, cfg)


def row(flow, seq, payload=1000):
    return data_row(flow, seq, payload, 0, 0, 1)


class TestEventDriven:
    def test_single_packet_service(self, iface):
        port = mk_port(iface)
        r = row(0, 0)
        assert port.arrive(r, 100) is not None
        pkt, end = port.start_service(100)
        assert pkt == r
        assert end == 100 + serialization_time_ps(r[3], iface.rate_bps)
        port.complete_service()
        assert port.start_service(end) is None  # queue empty

    def test_back_to_back_service(self, iface):
        port = mk_port(iface)
        port.arrive(row(0, 0), 100)
        port.arrive(row(0, 1), 100)
        _, end1 = port.start_service(100)
        port.complete_service()
        _, end2 = port.start_service(end1)
        assert end2 == end1 + (end1 - 100)

    def test_double_start_raises(self, iface):
        port = mk_port(iface)
        port.arrive(row(0, 0), 0)
        port.start_service(0)
        with pytest.raises(SimulationError):
            port.start_service(0)

    def test_service_before_line_free_raises(self, iface):
        port = mk_port(iface)
        port.arrive(row(0, 0), 0)
        _, end = port.start_service(0)
        port.complete_service()
        port.arrive(row(0, 1), 1)
        with pytest.raises(SimulationError):
            port.start_service(end - 1)

    def test_tail_drop(self, iface):
        port = mk_port(iface, buffer_bytes=2500)
        assert port.arrive(row(0, 0), 0) is not None  # 1060 B
        assert port.arrive(row(0, 1), 0) is not None  # 2120 B
        assert port.arrive(row(0, 2), 0) is None      # would exceed
        assert port.stats.dropped == 1

    def test_ecn_marking_at_threshold(self, iface):
        port = mk_port(iface, kind=AqmKind.ECN_THRESHOLD, k=2000)
        a = port.arrive(row(0, 0), 0)
        assert a[F_CE] == 0  # queue empty before arrival
        b = port.arrive(row(0, 1), 0)
        assert b[F_CE] == 0  # 1060 < 2000
        c = port.arrive(row(0, 2), 0)
        assert c[F_CE] == 1  # 2120 >= 2000
        assert port.stats.marked == 1


class TestWindowedEqualsEventDriven:
    def _drive_event_style(self, iface, arrivals, **port_kw):
        """Reference: the automaton fed every event of the run."""
        port = mk_port(iface, **port_kw)
        emissions = []
        drive_automaton(port, sorted(arrivals, key=contract_key),
                        float("inf"), emissions, [])
        return emissions

    def _drive_windowed(self, iface, arrivals, window_ps, **port_kw):
        """The engine's replay over an egress row, window by window."""
        cols, static, i = egress_row(iface, mk_port(iface, **port_kw).config,
                                     table=[])
        emissions = []
        horizon = max(a[0] for a in arrivals) + 10 * window_ps
        win = 0
        while True:
            start = win * window_ps
            batch = [a for a in arrivals if start <= a[0] < start + window_ps]
            replay_window(cols, {i: static}, (i,), {i: batch}, contract_sort,
                          start, start + window_ps, emissions, [])
            win += 1
            if start > horizon and cols.qlen[i] == 0:
                break
        return emissions

    @pytest.mark.parametrize("window_us", [1, 3, 17])
    def test_equivalence_bursty_arrivals(self, iface, window_us):
        arrivals = []
        t = 0
        for seq in range(60):
            t += (seq * 37) % 900 * 1000  # bursty, deterministic
            arrivals.append((t, PRIO_ARRIVAL, row(seq % 5, seq)))
        ev = self._drive_event_style(iface, arrivals, buffer_bytes=8000)
        wi = self._drive_windowed(iface, arrivals, us(window_us),
                                  buffer_bytes=8000)
        assert ev == wi

    def test_equivalence_with_marking(self, iface):
        arrivals = [(i * 200_000, PRIO_ARRIVAL, row(i % 3, i))
                    for i in range(80)]
        ev = self._drive_event_style(iface, arrivals,
                                     kind=AqmKind.ECN_THRESHOLD, k=3000)
        wi = self._drive_windowed(iface, arrivals, us(1),
                                  kind=AqmKind.ECN_THRESHOLD, k=3000)
        assert ev == wi
        assert any(r[F_CE] for r, _s, _e in ev), "no marks exercised"

    def test_simultaneous_arrival_and_completion_tie(self, iface):
        ser = serialization_time_ps(1060, iface.rate_bps)
        # second arrival exactly when the first finishes serializing
        arrivals = [(0, PRIO_ARRIVAL, row(0, 0)),
                    (ser, PRIO_ARRIVAL, row(0, 1)),
                    (ser, PRIO_ARRIVAL, row(1, 0))]
        ev = self._drive_event_style(iface, arrivals)
        wi = self._drive_windowed(iface, arrivals, us(1))
        assert ev == wi
