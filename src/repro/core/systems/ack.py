"""ACKSystem: receiver-side processing of delivered data packets (§3.2).

For every Receiver entity with data deliveries in the current window,
the system checks sequence numbers, tracks flow completion, and registers
ACK packets toward the paired Sender — i.e. it stages them on the
receiving host's NIC egress queue at the data packet's arrival time.

The system is written in the engine's plan → kernel → commit shape
(paper Fig. 7 made literal):

* the work list is the ACK slice of the one window plan
  (:func:`~repro.core.window.plan_window`): one task per receiving
  host, whose deliveries :func:`run_ack_system` sorts canonically;
* :func:`ack_kernel` sweeps the receiver component columns for one
  host's deliveries and returns staged ACKs plus completions.  Hosts
  own disjoint receiver rows, so tasks are independent — the
  command-buffer argument of Appendix C;
* :func:`commit_ack` consolidates kernel outputs deterministically on
  the main thread: counters, op/trace stream publishes, staging.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, NamedTuple, Tuple

from ..window import NodeWork, WindowContext
from ...protocols.packet import (
    F_CE,
    F_FLOW,
    F_ISACK,
    F_SEND_TS,
    F_SEQ,
    PRIO_ARRIVAL,
    Row,
    ack_row,
    packet_uid,
)


class AckCols(NamedTuple):
    """Bulk handles to the receiver columns the kernel sweeps."""

    expected: list
    out_of_order: list
    unique_received: list
    complete_ps: list
    total_segs: list
    needs_ack: list


def _delivery_key(a):
    # The ordering contract (t, prio, flow, is_ack, seq) — this module's
    # own copy, so a drill on the transmit tie-break never reorders ACKs.
    return (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])


def ack_kernel(
    cols: AckCols,
    receiver_of_flow: Dict[int, int],
    flows,
    item: NodeWork,
):
    """One host's sorted deliveries; returns staged ACKs and completions.

    Pure over its column slice: the only writes are to the receiver rows
    of this host's flows, which no other task touches.
    """
    node, arrivals = item
    expected_col = cols.expected
    ooo_col = cols.out_of_order
    unique_col = cols.unique_received
    complete_col = cols.complete_ps
    total_col = cols.total_segs
    needs_ack_col = cols.needs_ack
    acks: List[Tuple[int, int, Row]] = []
    completions: List[Tuple[int, int]] = []
    n = 0
    for t, _prio, row in arrivals:
        n += 1
        flow_id = row[F_FLOW]
        ridx = receiver_of_flow[flow_id]
        seq = row[F_SEQ]
        # Inline cumulative-reassembly over the component columns.
        expected = expected_col[ridx]
        is_new = False
        if seq == expected:
            is_new = True
            expected += 1
            ooo = ooo_col[ridx]
            if ooo:
                while expected in ooo:
                    ooo.remove(expected)
                    expected += 1
            expected_col[ridx] = expected
        elif seq > expected:
            ooo = ooo_col[ridx]
            if seq not in ooo:
                is_new = True
                ooo.add(seq)
        if is_new:
            unique_col[ridx] += 1
            if unique_col[ridx] == total_col[ridx] and complete_col[ridx] < 0:
                complete_col[ridx] = t
                completions.append((flow_id, t))
        if needs_ack_col[ridx]:
            flow = flows[flow_id]
            out = ack_row(
                flow_id, expected_col[ridx], row[F_CE], row[F_SEND_TS],
                flow.dst, flow.src,
            )
            acks.append((t, node, out))
    return node, arrivals, acks, completions, n


def commit_ack(engine, ctx: WindowContext, results) -> None:
    """Consolidate kernel outputs on the main thread, in task order."""
    bus = engine.bus
    trace_on = bool(bus.trace_level)
    for node, arrivals, acks, completions, n in results:
        ctx.counts.ack += n
        engine.bump_node(node, n)
        if bus.has_ops:
            for _t, _prio, row in arrivals:
                bus.op(3, node, packet_uid(row))  # OP_HOST_RX
        if trace_on:
            for t, _prio, row in arrivals:
                bus.deliver(t, node, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        if acks:
            host_iface = engine.scenario.topology.host_iface
            ctx.stage_batch(
                [host_iface(a[1]).iface_id for a in acks],
                [a[0] for a in acks],
                repeat(PRIO_ARRIVAL),
                [a[2] for a in acks],
            )
        for flow_id, t in completions:
            engine.results.flows[flow_id].complete_ps = t
            if trace_on:
                bus.flow_done(t, engine.scenario.flows[flow_id].dst, flow_id)


def run_ack_system(engine, ctx: WindowContext,
                   work: List[NodeWork]) -> None:
    """Process all data deliveries of this window (sort → kernel →
    commit) — ``work`` is the plan's ACK slice."""
    if not work:
        return
    for _node, data in work:
        data.sort(key=_delivery_key)
    cols = AckCols(**engine.world.receivers.columns(AckCols._fields))
    receiver_of_flow = engine.world.receiver_of_flow
    flows = engine.scenario.flows
    engine.bus.task_batch("ack", [len(w[1]) for w in work])
    commit_ack(engine, ctx, [ack_kernel(cols, receiver_of_flow, flows, item)
                             for item in work])
