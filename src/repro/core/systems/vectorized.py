"""The ``numpy`` kernel set: the fused pass over a planned window
(:func:`run_window_fused`) and the batch kernels it dispatches.

The window pipeline is the reference's — the same popped columns, the
same :func:`~repro.core.window.plan_window`, the same pure protocol
transitions, the same deterministic commit order — and what this module
swaps in is how each phase runs its slice of the plan:

* ordering-contract sorts go through one stable ``np.lexsort`` over key
  columns instead of a per-element Python key function
  (:func:`sort_contract`);
* the ForwardSystem routes straight into the window's staging lists
  through a cross-window route cache, with no command buffers in
  between (:func:`_forward_serial_np`);
* with no trace stream, no op probe and local deliveries the
  TransmitSystem replays *and* commits the whole port list in one
  ``replay_window`` call (:func:`_transmit_serial_np`); otherwise it
  runs the reference's own two-phase ``transmit_kernel`` +
  ``commit_transmit``, handing the kernel :data:`transmit_sort`.

Kernels index the same list columns of the one
:class:`~repro.core.ecs.SoATable` the reference systems sweep
(``columns(...)`` hands out the live lists), so the
DCTCP/UDP/reassembly state machines run on exactly the value types the
reference feeds them — which is what keeps the traces byte-identical.
Integer timestamp arithmetic stays bit-exact: the only ndarrays are the
sort's key columns, and what leaves them is a permutation of list
indices.  The SendSystem has no array form — flows run the reference's
own ``send_kernel`` (a paced UDP visit costs the segments it emits, not
the segments the flow has left), without the task accounting around it.

The ACK sweep (``ack_window``) and the commit helpers
(``commit_send``/``commit_transmit``) are shared with the Python
reference: the kernel sets differ in how work is dispatched, never in
what is planned or committed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ack import ack_window
from .send import (
    SENDER_COLS, commit_send, flow_lists, send_kernel, trace_ack_deliveries,
)
from .transmit import (
    commit_transmit, contract_key, plan_transmit, replay_window,
    transmit_kernel,
)
from .. import events as events_mod
from ..window import WindowContext, WindowPlan
from ...protocols.packet import F_DST, F_FLOW, F_ISACK, F_SEQ, Row, packet_uid

#: Below this many entries a Python key-function sort beats building the
#: key columns; above it the stable lexsort wins.  Order is identical.
VECTOR_SORT_MIN = 32


def sort_contract(entries: List[Tuple[int, int, Row]]) -> List[Tuple[int, int, Row]]:
    """Sort staged arrivals by the ordering contract, vectorized.

    Builds the five key columns and stable-sorts them with
    ``np.lexsort`` (least-significant key first), reproducing exactly
    the ``(t, prio, flow, is_ack, seq)`` tie-break order of the Python
    backend's ``list.sort``.  Small batches fall back to the scalar
    in-place sort, where building the key arrays would dominate.
    """
    n = len(entries)
    if n < VECTOR_SORT_MIN:
        if n > 1:
            entries.sort(key=contract_key)
        return entries
    t = np.empty(n, np.int64)
    prio = np.empty(n, np.int64)
    flow = np.empty(n, np.int64)
    isack = np.empty(n, np.int64)
    seq = np.empty(n, np.int64)
    for k, (tk, pk, row) in enumerate(entries):
        t[k] = tk
        prio[k] = pk
        flow[k] = row[F_FLOW]
        isack[k] = row[F_ISACK]
        seq[k] = row[F_SEQ]
    order = np.lexsort((seq, isack, flow, prio, t))
    return [entries[k] for k in order.tolist()]


#: The transmit tie-break hook, read from module globals each window so
#: `conformance.inject.unstable_transmit_sort` can patch it the way
#: `flipped_transmit_order` patches the Python kernels' `contract_key`.
transmit_sort = sort_contract


# --- ForwardSystem ---------------------------------------------------------


def _route(routes: Dict[int, int], sc, node: int, dst: int, flow: int) -> int:
    """Egress iface id of ``flow`` toward ``dst`` at ``node``, cached.

    Where the FIB holds one candidate port the route is keyed by
    ``(node, dst)`` alone — every flow shares it, so one-packet flows
    hit and the cache is bounded by nodes x hosts.  Only a real ECMP
    fan-out (marked ``-1`` under the destination key) takes a
    ``(node, dst, flow)`` entry: flow-hashed ECMP is pure in that key.
    Keys are flat ints packed by exact mixed-radix arithmetic
    (``dst < n_nodes``, ``flow < n_flows``); flow keys sit above every
    destination key.  :func:`_forward_serial_np` inlines the hit path.
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


def _forward_serial_np(engine, ctx: WindowContext, work,
                       routes: Optional[Dict[int, int]]) -> None:
    """Route every switch's arrivals straight into ``ctx.staged`` — no
    per-node command buffer, no consolidation pass.  Staging and the
    ``OP_FORWARD`` stream both run in (node, arrival) order, the order
    the reference ``commit_forward`` consolidates and publishes in.

    ``routes`` is the engine's cross-window route cache (:func:`_route`).
    Packet spraying re-salts the hash per segment, so spraying callers
    pass ``None`` and every packet walks the FIB.
    """
    sc = engine.scenario
    staged = ctx.staged
    staged_get = staged.get
    node_events = engine.results.node_events
    bus = engine.bus
    has_ops = bus.has_ops
    routes_get = routes.get if routes is not None else None
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
                bus.op(1, node, packet_uid(row))  # OP_FORWARD
        n = len(arrivals)
        total += n
        node_events[node] = node_events.get(node, 0) + n
    ctx.counts.forward += total


# --- TransmitSystem --------------------------------------------------------


def _transmit_serial_np(engine, ctx: WindowContext,
                        iface_ids: List[int]) -> None:
    """Replay *and* commit the window's whole port list in one call.

    The trace-off, local-delivery, probe-free case (the measured
    configuration): :func:`~repro.core.systems.transmit.replay_window`
    takes every planned port at once with a delivery sink, so dequeues
    land straight in the event columns, and node counts and the active
    set are committed in place — no emission tuples, no result tuples,
    no per-port call.  Port order, per-port emission order, stats and
    active-set updates are exactly the two-phase path's.
    """
    events = engine.events
    results = engine.results
    drops: List[Tuple[int, Row]] = []
    ctx.counts.transmit += replay_window(
        engine.world.egress_cols, engine.port_static, iface_ids,
        ctx.staged, transmit_sort, ctx.start, ctx.end, None, drops, None,
        (events._buckets, events, events_mod.register_window,
         engine.lookahead, engine._running_window + 1, results.node_events,
         engine.active_ports))
    results.drops += len(drops)


# --- Fused window pass ------------------------------------------------------


def run_window_fused(engine, ctx: WindowContext, plan: WindowPlan):
    """One fused pass over the planned window: the four phases in paper
    order over shared column handles.

    Semantically identical to ``run_window_reference`` — same plan, same
    shared commit helpers, same ordering contract — but each phase is
    one sweep over its work list.  Returns the five ``perf_counter``
    phase marks ``(t0..t4)`` so the engine's profiling and telemetry
    spans stay per-system.
    """
    clock = perf_counter
    bus = engine.bus
    world = engine.world
    sc = engine.scenario
    ack_work, (flow_ids, acks_of, starts, deliver_trace), forward_work = plan
    t0 = clock()

    if ack_work:
        ack_window(engine, ctx, [
            (node, sort_contract(data) if len(data) > 1 else data)
            for node, data in ack_work])
    t1 = clock()

    if flow_ids:
        if bus.trace_level:
            trace_ack_deliveries(bus, deliver_trace)
        cols = world.senders.columns(SENDER_COLS)
        sender_of_flow = world.sender_of_flow
        fl = flow_lists(engine)
        end = ctx.end
        commit_send(engine, ctx, [
            send_kernel(cols, sender_of_flow, sc, fl, acks_of, starts, end, f)
            for f in flow_ids])
    t2 = clock()

    if forward_work:
        # Packet spraying re-salts the ECMP hash per segment: no cache.
        _forward_serial_np(
            engine, ctx, forward_work,
            None if sc.ecmp_mode == "packet" else engine._routes)
    t3 = clock()

    iface_ids = plan_transmit(engine, ctx)
    if iface_ids:
        if not (bus.trace_level or bus.has_ops) and engine.deliveries_local:
            # Nothing observes a packet and every peer is local: one
            # replay call over the port list, committed in place.
            _transmit_serial_np(engine, ctx, iface_ids)
        else:
            cols, static, staged = (world.egress_cols, engine.port_static,
                                    ctx.staged)
            full_trace = bus.trace_level >= 2
            sort = transmit_sort  # module attribute: the injectable tie-break
            commit_transmit(engine, ctx, [
                transmit_kernel(cols, static, staged, ctx.start, ctx.end,
                                full_trace, sort, i)
                for i in iface_ids])
    t4 = clock()
    return t0, t1, t2, t3, t4
