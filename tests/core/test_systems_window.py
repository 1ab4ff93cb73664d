"""Direct window-level tests of the four systems.

The integration suite proves whole-run equivalence; these tests pin the
per-window behaviour of each system in isolation so failures localize.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import DodEngine
from repro.core.window import (
    ENTRY_ARRIVAL, ENTRY_FLOW_START, WindowContext, plan_window,
)
from repro.core.systems import (
    run_ack_system, run_forward_system, run_send_system, run_transmit_system,
)
from repro.core.systems.send import FlowLists, udp_window
from repro.protocols import UdpSchedule
from repro.protocols.packet import (
    F_FLOW, F_ISACK, F_SEQ, HEADER_BYTES, MSS, PRIO_ARRIVAL, ack_row,
    data_row,
)
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow
from repro.units import GBPS, us


@pytest.fixture
def engine(small_dumbbell):
    flows = [Flow(0, 0, 4, 30_000, 0), Flow(1, 1, 5, 30_000, 0)]
    sc = make_scenario(small_dumbbell, flows)
    eng = DodEngine(sc)
    eng.build()
    return eng


def mk_ctx(engine, index=0, entries=None):
    """A context over ``entries`` (``{node: [entry, ...]}``, flattened
    to columns); returns it with its ``(ack, send, forward)`` plan."""
    L = engine.lookahead
    pairs = [(node, e) for node, es in (entries or {}).items() for e in es]
    ctx = WindowContext(index=index, start=index * L, end=(index + 1) * L,
                        columns=([n for n, _e in pairs],
                                 [e for _n, e in pairs]))
    return ctx, plan_window(engine, ctx)


class TestSendSystem:
    def test_flow_start_emits_initial_window(self, engine):
        ctx, (_ack, send, _fwd) = mk_ctx(
            engine, 0, {0: [(ENTRY_FLOW_START, 0, 0)]})
        run_send_system(engine, ctx, send)
        nic = engine.scenario.topology.host_iface(0).iface_id
        staged = ctx.staged[nic]
        # 30 KB = 21 segments, init cwnd 10 -> 10 staged
        assert len(staged) == 10
        assert [row[F_SEQ] for _t, _p, row in staged] == list(range(10))
        assert ctx.counts.send == 10
        # RTO wakeup registered for the armed timer
        assert engine.events, "no retransmission wakeup registered"

    def test_ack_advances_window(self, engine):
        # start the flow first
        ctx0, (_ack, send, _fwd) = mk_ctx(
            engine, 0, {0: [(ENTRY_FLOW_START, 0, 0)]})
        run_send_system(engine, ctx0, send)
        # deliver a cumulative ack for segment 0 at the sender host
        t = engine.lookahead * 3 + 5
        ack = ack_row(0, 1, 0, 0, 4, 0)
        ctx1, (_ack, send, _fwd) = mk_ctx(
            engine, 3, {0: [(ENTRY_ARRIVAL, t, PRIO_ARRIVAL, ack)]})
        run_send_system(engine, ctx1, send)
        nic = engine.scenario.topology.host_iface(0).iface_id
        seqs = [row[F_SEQ] for _t, _p, row in ctx1.staged[nic]]
        # slow start: one ack -> cwnd 11 -> segments 10 and 11 released
        assert seqs == [10, 11]
        assert len(engine.results.rtt_samples) == 1

    def test_flows_processed_in_flow_id_order(self, engine):
        ctx, (_ack, send, _fwd) = mk_ctx(engine, 0, {
            0: [(ENTRY_FLOW_START, 0, 0)],
            1: [(ENTRY_FLOW_START, 0, 1)],
        })
        run_send_system(engine, ctx, send)
        assert ctx.counts.send == 20  # both initial windows


class CountedRate(int):
    """A NIC rate that counts the enqueue times evaluated against it
    (``(seq * wire) // rate`` reflects onto the subclass)."""

    evaluated = 0

    def __rfloordiv__(self, wire):
        self.evaluated += 1
        return wire // int(self)


def one_udp_flow(size, start, rate):
    """``FlowLists`` of one UDP flow, its OOD reference schedule, and
    the counted rate."""
    rate = CountedRate(rate)
    return (FlowLists([0], [1], [size], [start], [0], [0], [rate]),
            UdpSchedule(0, size, start, int(rate)), rate)


def reference_window(sched, cursor, end):
    """What the event-driven baseline enqueues from ``cursor`` on before
    ``end``, one ``UdpSchedule`` call per segment."""
    out = []
    for seq in range(cursor, sched.total_segs):
        if sched.enqueue_time(seq) >= end:
            break
        out.append((sched.enqueue_time(seq), seq, sched.payload(seq)))
    return out


class TestUdpWindow:
    """The one UDP pacing schedule under ``repro.core`` against
    ``UdpSchedule``, the OOD baseline's."""

    @given(size=st.integers(1, 40 * MSS), start=st.integers(0, 5 * us(1)),
           # whole-picosecond wire times and not (7 Gb/s, odd rates)
           rate=st.one_of(
               st.sampled_from([1, 7, 10, 24, 100, 400]).map(GBPS.__mul__),
               st.integers(10 ** 8, 4 * 10 ** 11)),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_schedule(self, size, start, rate, data):
        fl, sched, counted = one_udp_flow(size, start, rate)
        total = sched.total_segs
        cursor = data.draw(st.integers(0, total))
        span = sched.enqueue_time(total) - start + us(1)
        cut = start + data.draw(st.integers(0, span))
        end = cut + data.draw(st.integers(0, span))

        ems, nxt, wakeup = udp_window(fl, 0, cursor, end)
        assert ems == reference_window(sched, cursor, end)
        assert nxt == cursor + len(ems)
        assert wakeup == (sched.enqueue_time(nxt) if nxt < total else None)
        if wakeup is not None:
            assert wakeup >= end
        # A visit pays for what it emits plus the segment that ends it.
        assert counted.evaluated == len(ems) + (wakeup is not None)

        # A window cut anywhere loses and repeats nothing.
        first, mid, _wake = udp_window(fl, 0, cursor, cut)
        assert first + udp_window(fl, 0, mid, end)[0] == ems

    def test_exhausted_schedule_registers_no_wakeup(self):
        fl, sched, counted = one_udp_flow(3 * MSS + 1, 0, 10 * GBPS)
        assert sched.total_segs == 4
        assert udp_window(fl, 0, 4, us(1_000)) == ([], 4, None)
        ems, nxt, wakeup = udp_window(fl, 0, 0, us(1_000))
        assert (len(ems), nxt, wakeup) == (4, 4, None)
        assert ems[-1][2] == 1  # the remainder rides the last segment

    def test_petabyte_flow_costs_its_first_window(self):
        """10^15 bytes at 400 Gb/s: the first 1 us window returns its 34
        segments after 35 evaluations, and the far end of the schedule —
        where ``seq x wire bits x 10^12`` is past 2^63 — is plain
        Python-int arithmetic (no ``int64`` to overflow)."""
        fl, sched, counted = one_udp_flow(10 ** 15, 0, 400 * GBPS)
        ems, nxt, wakeup = udp_window(fl, 0, 0, us(1))
        assert (len(ems), nxt, wakeup) == (34, 34, 34 * 30_000)
        assert counted.evaluated == 35
        total = sched.total_segs
        tail = reference_window(sched, total - 3, 2 ** 80)
        assert tail[-1][1] * (MSS + HEADER_BYTES) * 8 * 10 ** 12 > 2 ** 63
        assert udp_window(fl, 0, total - 3, 2 ** 80) == (tail, total, None)


class TestAckSystem:
    def test_data_delivery_generates_ack(self, engine):
        t = 7
        data = data_row(0, 0, 1400, 2, 0, 4)
        ctx, (ack, _send, _fwd) = mk_ctx(
            engine, 0, {4: [(ENTRY_ARRIVAL, t, PRIO_ARRIVAL, data)]})
        run_ack_system(engine, ctx, ack)
        nic = engine.scenario.topology.host_iface(4).iface_id
        acks = ctx.staged[nic]
        assert len(acks) == 1
        at, _p, arow = acks[0]
        assert at == t
        assert arow[F_ISACK] == 1 and arow[F_SEQ] == 1  # cumulative
        assert ctx.counts.ack == 1

    def test_completion_recorded(self, engine):
        # flow 0 has 21 segments; deliver them all in one window
        entries = [
            (ENTRY_ARRIVAL, 10 + s, PRIO_ARRIVAL,
             data_row(0, s, 1400, 0, 0, 4))
            for s in range(21)
        ]
        ctx, (ack, _send, _fwd) = mk_ctx(engine, 0, {4: entries})
        run_ack_system(engine, ctx, ack)
        assert engine.results.flows[0].complete_ps == 10 + 20


class TestForwardSystem:
    def test_switch_arrival_staged_at_resolved_egress(self, engine):
        topo = engine.scenario.topology
        sw = topo.switches[0]  # swL, node 8
        data = data_row(0, 3, 1400, 0, 0, 4)  # toward host 4 (right side)
        ctx, (_ack, _send, fwd) = mk_ctx(
            engine, 0, {sw: [(ENTRY_ARRIVAL, 5, PRIO_ARRIVAL, data)]})
        run_forward_system(engine, ctx, fwd)
        port = engine.scenario.fib.resolve_port(sw, 4, 0)
        expected_iface = topo.iface_id(sw, port)
        assert list(ctx.staged) == [expected_iface]
        assert ctx.counts.forward == 1

    def test_host_entries_ignored(self, engine):
        data = data_row(0, 3, 1400, 0, 0, 4)
        ctx, (_ack, _send, fwd) = mk_ctx(
            engine, 0, {4: [(ENTRY_ARRIVAL, 5, PRIO_ARRIVAL, data)]})
        run_forward_system(engine, ctx, fwd)
        assert not ctx.staged
        assert ctx.counts.forward == 0


class TestTransmitSystem:
    def test_emission_delivered_next_window(self, engine):
        topo = engine.scenario.topology
        nic = topo.host_iface(0)
        data = data_row(0, 0, 1400, 0, 0, 4)
        ctx, _plan = mk_ctx(engine, 0)
        ctx.stage(nic.iface_id, 3, PRIO_ARRIVAL, data)
        run_transmit_system(engine, ctx)
        assert ctx.counts.transmit == 1
        # the delivery (an ENTRY_ARRIVAL) landed strictly after window 0
        # (build-time flow starts legitimately sit in window 0)
        arrival_windows = [
            win for win, bucket in engine.events._buckets.items()
            for e in bucket.payloads if e[0] == ENTRY_ARRIVAL
        ]
        assert arrival_windows and min(arrival_windows) >= 1

    def test_backlogged_port_stays_active(self, engine):
        topo = engine.scenario.topology
        nic = topo.host_iface(0)
        ctx, _plan = mk_ctx(engine, 0)
        # enough back-to-back packets to outlast one 1 us window at 10G
        for s in range(20):
            ctx.stage(nic.iface_id, 0, PRIO_ARRIVAL,
                      data_row(0, s, 1400, 0, 0, 4))
        run_transmit_system(engine, ctx)
        assert nic.iface_id in engine.active_ports
        # continuing the next window drains more
        ctx2, _plan = mk_ctx(engine, 1)
        run_transmit_system(engine, ctx2)
        assert ctx2.counts.transmit > 0
