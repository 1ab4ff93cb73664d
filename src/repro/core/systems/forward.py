"""ForwardSystem: ingress -> egress moves at switches (§3.2).

For every switch arrival of the window, look up the FIB (shared routing
component), resolve the ECMP port, and register the packet on the chosen
EgressPort's buffer.  Because many IngressPorts can target one
EgressPort, writes go through per-task command buffers consolidated by
the main thread (Appendix C's write-conflict fix); chronological order is
established later by the TransmitSystem's merge sort, so forwarding
itself is embarrassingly parallel.

Plan → kernel → commit: the window plan
(:func:`~repro.core.window.plan_window`) slices the switch arrivals per
node; :func:`forward_kernel` resolves routes into a private
:class:`~repro.core.ecs.CommandBuffer`; :func:`commit_forward` publishes
counters/ops and consolidates the buffers in task order.
"""

from __future__ import annotations

from typing import List

from ..ecs import CommandBuffer, consolidate
from ..window import NodeWork, WindowContext
from ...protocols.packet import F_DST, F_FLOW, F_SEQ, packet_uid


def forward_kernel(fib, iface_id_of, spray: bool, item: NodeWork):
    """Route one switch's arrivals into a private command buffer.

    Pure: reads the shared (immutable) FIB, writes only its own buffer.
    """
    node, arrivals = item
    buf: CommandBuffer = CommandBuffer()
    for t, prio, row in arrivals:
        salt = row[F_SEQ] if spray else None
        port = fib.resolve_port(node, row[F_DST], row[F_FLOW], salt)
        buf.append(iface_id_of(node, port), (t, prio, row))
    return node, len(arrivals), buf


def commit_forward(engine, ctx: WindowContext, results) -> None:
    """Publish per-node counts/ops, then consolidate in task order."""
    bus = engine.bus
    buffers = []
    for node, n, buf in results:
        ctx.counts.forward += n
        engine.bump_node(node, n)
        if bus.has_ops:
            for _target, (_t, _prio, row) in buf.entries:
                bus.op(1, node, packet_uid(row))  # OP_FORWARD
        buffers.append(buf)
    consolidate(buffers, ctx.staged)


def run_forward_system(engine, ctx: WindowContext,
                       work: List[NodeWork]) -> None:
    """Forward all switch arrivals of this window (kernel → commit) —
    ``work`` is the plan's forward slice."""
    if not work:
        return
    sc = engine.scenario
    fib = sc.fib
    iface_id_of = sc.topology.iface_id
    spray = sc.ecmp_mode == "packet"
    engine.bus.task_batch("forward", [len(w[1]) for w in work])
    commit_forward(engine, ctx, [forward_kernel(fib, iface_id_of, spray, item)
                                 for item in work])
