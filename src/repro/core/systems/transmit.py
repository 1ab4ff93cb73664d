"""TransmitSystem: chronological egress processing and cross-device moves.

Per §3.2/Appendix C, this system first sorts each EgressPort's pending
packets in chronological order (the ordering-contract key), then replays
the port's timeline for the window — AQM decisions, scheduler picks,
serialization — and moves transmitted packets to the linked IngressPort
or Receiver by registering their future arrival in the engine calendar.

Interleaving arrivals with departures during the replay reconstructs the
exact queue length every packet saw (the paper's TXhistory mechanism),
so drops and ECN marks match the event-driven baseline exactly.

Plan → kernel → commit: :func:`plan_transmit` lists the fed or active
ports; :func:`transmit_kernel` replays one port's window (ports are
independent entities); :func:`commit_transmit` publishes
trace/op events and registers cross-device arrivals, in port order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..window import Staged, WindowContext
from ...protocols.egress import Emission, EgressPort
from ...protocols.packet import F_CE, F_FLOW, F_ISACK, F_SEQ, Row


def plan_transmit(engine, ctx: WindowContext) -> List[int]:
    """Every port that was fed this window or is still serializing."""
    return sorted(set(ctx.staged) | engine.active_ports)


def transmit_kernel(
    ports: List[EgressPort],
    staged: Dict[int, List[Staged]],
    window_start: int,
    window_end: int,
    full_trace: bool,
    iface_id: int,
):
    """Replay one egress port's window timeline.

    Pure over its port: the merge-sort of its staged arrivals and the
    port automaton replay touch only this port's state.
    """
    port = ports[iface_id]
    arrivals = staged.get(iface_id, [])
    arrivals.sort(
        key=lambda a: (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])
    )
    emissions: List[Emission] = []
    drops: List[Tuple[int, Row]] = []
    enq: Optional[List[Tuple[int, Row]]] = [] if full_trace else None
    port.replay_window(arrivals, window_start, window_end, emissions, drops, enq)
    still_active = len(port.sched) > 0
    return iface_id, emissions, drops, enq, still_active, len(arrivals)


def commit_transmit(engine, ctx: WindowContext, results) -> None:
    """Publish events and register arrivals, in port (task) order."""
    bus = engine.bus
    trace_on = bool(bus.trace_level)
    for iface_id, emissions, drops, enq, still_active, _n in results:
        if bus.has_ops and emissions:
            from ...protocols.packet import packet_uid
            for row, _s, _e in emissions:
                bus.op(2, iface_id, packet_uid(row))  # OP_SERVICE
        iface = engine.ports[iface_id].iface
        if enq:
            for t, row in enq:
                bus.enq(t, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ],
                        row[F_CE])
        for t, row in drops:
            if trace_on:
                bus.drop(t, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])
            engine.results.drops += 1
        ctx.counts.transmit += len(emissions)
        engine.bump_node(iface.node, len(emissions))
        for row, start, end in emissions:
            if trace_on:
                bus.deq(start, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])
            engine.deliver(iface.peer_node, end + iface.delay_ps, row)
        if still_active:
            engine.active_ports.add(iface_id)
        else:
            engine.active_ports.discard(iface_id)


def run_transmit_system(engine, ctx: WindowContext) -> None:
    """Replay every active or newly-fed egress port (plan → kernel → commit)."""
    iface_ids = plan_transmit(engine, ctx)
    if not iface_ids:
        return
    full_trace = engine.bus.trace_level >= 2
    ports, staged = engine.ports, ctx.staged
    engine.bus.task_batch(
        "transmit", [len(staged.get(i, ())) + 1 for i in iface_ids])
    commit_transmit(engine, ctx, [
        transmit_kernel(ports, staged, ctx.start, ctx.end, full_trace, i)
        for i in iface_ids])
