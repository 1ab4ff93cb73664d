"""ForwardSystem: ingress -> egress moves at switches (§3.2).

For every switch arrival of the window, look up the FIB (shared routing
component), resolve the ECMP port, and register the packet on the chosen
EgressPort's buffer.  Many IngressPorts can target one EgressPort; the
paper resolves that write conflict with per-task command buffers
consolidated by the main thread (Appendix C).  On one thread the
consolidated order is simply the (node, arrival) sweep order, so the
system routes every arrival straight into the window's staging lists in
that order; chronological order is established later by the
TransmitSystem's merge sort anyway.

The work list is the forward slice of the window plan
(:func:`~repro.core.window.plan_window`): each switch's arrivals, nodes
ascending.
"""

from __future__ import annotations

from typing import Dict, List

from ..instrument import OP_FORWARD
from ..window import NodeWork, WindowContext
from ...protocols.packet import F_DST, F_FLOW, F_SEQ, packet_uid


def _route(routes: Dict[int, int], sc, node: int, dst: int, flow: int) -> int:
    """Egress iface id of ``flow`` toward ``dst`` at ``node``, cached.

    Where the FIB holds one candidate port the route is keyed by
    ``(node, dst)`` alone — every flow shares it, so one-packet flows
    hit and the cache is bounded by nodes x hosts.  Only a real ECMP
    fan-out (marked ``-1`` under the destination key) takes a
    ``(node, dst, flow)`` entry: flow-hashed ECMP is pure in that key.
    Keys are flat ints packed by exact mixed-radix arithmetic
    (``dst < n_nodes``, ``flow < n_flows``); flow keys sit above every
    destination key.  :func:`run_forward_system` inlines the hit path.
    """
    n_nodes = len(sc.topology.nodes)
    key = node * n_nodes + dst
    target = routes.get(key)
    if target is None:
        ports = sc.fib.ports(node, dst)
        target = routes[key] = (sc.topology.iface_id(node, ports[0])
                                if len(ports) == 1 else -1)
    if target < 0:
        key = n_nodes * n_nodes + key * len(sc.flows) + flow
        target = routes.get(key)
        if target is None:
            target = routes[key] = sc.topology.iface_id(
                node, sc.fib.resolve_port(node, dst, flow))
    return target


def run_forward_system(engine, ctx: WindowContext,
                       work: List[NodeWork]) -> None:
    """Route every switch's arrivals of this window straight into
    ``ctx.staged``.  Staging and the ``OP_FORWARD`` stream both run in
    (node, arrival) order.

    Routes come from the engine's cross-window route cache
    (:func:`_route`).  Packet spraying re-salts the hash per segment, so
    under it every packet walks the FIB.
    """
    if not work:
        return
    sc = engine.scenario
    routes = engine._routes
    routes_get = None if sc.ecmp_mode == "packet" else routes.get
    staged = ctx.staged
    staged_get = staged.get
    node_events = engine.results.node_events
    bus = engine.bus
    has_ops = bus.has_ops
    n_nodes = len(sc.topology.nodes)
    n_flows = len(sc.flows)
    fanout = n_nodes * n_nodes
    total = 0
    for node, arrivals in work:
        base = node * n_nodes
        for t, prio, row in arrivals:
            if routes_get is None:
                target = sc.topology.iface_id(node, sc.fib.resolve_port(
                    node, row[F_DST], row[F_FLOW], row[F_SEQ]))
            else:
                key = base + row[F_DST]
                target = routes_get(key)
                if target is not None and target < 0:  # ECMP fan-out
                    target = routes_get(fanout + key * n_flows + row[F_FLOW])
                if target is None:
                    target = _route(routes, sc, node, row[F_DST],
                                    row[F_FLOW])
            lst = staged_get(target)
            if lst is None:
                staged[target] = [(t, prio, row)]
            else:
                lst.append((t, prio, row))
        if has_ops:
            for _t, _prio, row in arrivals:
                bus.op(OP_FORWARD, node, packet_uid(row))
        n = len(arrivals)
        total += n
        node_events[node] = node_events.get(node, 0) + n
    ctx.counts.forward += total
