"""ACKSystem: receiver-side processing of delivered data packets (§3.2).

For every Receiver entity with data deliveries in the current window,
the system checks sequence numbers, tracks flow completion, and registers
ACK packets toward the paired Sender — i.e. it stages them on the
receiving host's NIC egress queue at the data packet's arrival time.

The work list is the ACK slice of the one window plan
(:func:`~repro.core.window.plan_window`): each receiving host's
deliveries, hosts ascending.  :func:`run_ack_system` sorts every host's
slice canonically (``list.sort`` on this module's key) and then makes
one :func:`ack_window` call: a sweep over every host of the window that
updates the receiver columns and commits in place, host by host.  Hosts
own disjoint receiver rows, so the hosts are independent tasks (the
command-buffer argument of Appendix C) and host order is the commit
order.
"""

from __future__ import annotations

from typing import List

from ..instrument import OP_HOST_RX
from ..window import NodeWork, WindowContext
from ...protocols.packet import (
    F_CE,
    F_FLOW,
    F_ISACK,
    F_SEND_TS,
    F_SEQ,
    PRIO_ARRIVAL,
    ack_row,
    packet_uid,
)


def _delivery_key(a):
    # The ordering contract (t, prio, flow, is_ack, seq) — this module's
    # own copy, so a drill on the transmit tie-break never reorders ACKs.
    return (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])


def ack_window(engine, ctx: WindowContext, work: List[NodeWork]) -> None:
    """Process every host's sorted deliveries of the window, host by host.

    Per host, in this order: the ACK count and the node's event count,
    ``OP_HOST_RX`` per delivery (probes only), a trace DELIVER per
    delivery, then the cumulative-reassembly sweep over the receiver
    columns (a flow's reassembly set is made at its first gap and
    dropped when the gap closes) — each ACK staged on the host's NIC
    (looked up once per host) at the data packet's arrival time, each
    completion recorded with its FLOW_DONE.  ACK endpoints are read from
    :class:`~repro.core.systems.send.FlowLists`, never from a ``Flow``.
    """
    world = engine.world
    cols = world.receiver_cols
    expected_col = cols["expected"]
    ooo_col = cols["out_of_order"]
    unique_col = cols["unique_received"]
    complete_col = cols["complete_ps"]
    needs_ack_col = cols["needs_ack"]
    total_col = world.sender_cols["total_segs"]
    fl = engine.flow_lists
    src_of, dst_of = fl.src, fl.dst
    host_nic = engine.host_nic
    staged = ctx.staged
    node_events = engine.results.node_events
    flow_results = engine.results.flows
    bus = engine.bus
    ops = bus.ops
    trace_on = bool(bus.trace_level)
    n_acked = 0
    for node, arrivals in work:
        n_acked += len(arrivals)
        node_events[node] = node_events.get(node, 0) + len(arrivals)
        if ops is not None:
            for _t, _prio, row in arrivals:
                ops(OP_HOST_RX, node, packet_uid(row))
        if trace_on:
            for t, _prio, row in arrivals:
                bus.trace.deliver(t, node, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        acks = None
        for t, _prio, row in arrivals:
            flow_id = row[F_FLOW]
            seq = row[F_SEQ]
            expected = expected_col[flow_id]
            is_new = False
            if seq == expected:
                is_new = True
                expected += 1
                ooo = ooo_col[flow_id]
                if ooo is not None:
                    while expected in ooo:
                        ooo.remove(expected)
                        expected += 1
                    if not ooo:  # the gap closed
                        ooo_col[flow_id] = None
                expected_col[flow_id] = expected
            elif seq > expected:
                ooo = ooo_col[flow_id]
                if ooo is None:  # the flow's first gap
                    is_new = True
                    ooo_col[flow_id] = {seq}
                elif seq not in ooo:
                    is_new = True
                    ooo.add(seq)
            if is_new:
                unique_col[flow_id] += 1
                if (unique_col[flow_id] == total_col[flow_id]
                        and complete_col[flow_id] < 0):
                    complete_col[flow_id] = t
                    flow_results[flow_id].complete_ps = t
                    if trace_on:
                        bus.trace.flow_done(t, dst_of[flow_id], flow_id)
            if needs_ack_col[flow_id]:
                ack = (t, PRIO_ARRIVAL, ack_row(
                    flow_id, expected, row[F_CE], row[F_SEND_TS],
                    dst_of[flow_id], src_of[flow_id]))
                if acks is None:
                    nic = host_nic[node]
                    acks = staged.get(nic)
                    if acks is None:
                        acks = staged[nic] = []
                acks.append(ack)
    ctx.counts.ack += n_acked


def run_ack_system(engine, ctx: WindowContext,
                   work: List[NodeWork]) -> None:
    """Process all data deliveries of this window (sort → sweep) —
    ``work`` is the plan's ACK slice."""
    if not work:
        return
    for _node, data in work:
        if len(data) > 1:
            data.sort(key=_delivery_key)
    ack_window(engine, ctx, work)
