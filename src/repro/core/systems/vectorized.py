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
* with no trace stream the TransmitSystem replays *and* commits the
  port axis in one sweep (:func:`_transmit_serial_np`); with one it
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

The commit helpers (``commit_send``/``commit_ack``/``commit_transmit``)
are shared with the Python reference: the kernel sets differ in how work
is dispatched, never in what is planned or committed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ack import AckCols, ack_kernel, commit_ack
from .send import (
    SENDER_COLS, commit_send, flow_lists, send_kernel, trace_ack_deliveries,
)
from .transmit import (
    PICK_LOWEST, _PS8, commit_transmit, contract_key, plan_transmit,
    replay_window, transmit_kernel,
)
from .. import events as events_mod
from ..window import ENTRY_ARRIVAL, WindowContext, WindowPlan
from ...protocols.packet import (
    F_DST, F_FLOW, F_ISACK, F_SEQ, F_SIZE, PRIO_ARRIVAL, Row, packet_uid,
    with_ce,
)

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
                        iface_ids: List[int],
                        window_start: int, window_end: int) -> None:
    """Replay *and* commit the port axis in one serial sweep.

    Fuses ``transmit_kernel`` with ``commit_transmit`` for the
    trace-off case (the measured configuration): no
    intermediate result tuples, scratch emission/drop lists reused
    across ports, and with local delivery and no conformance bus the
    replay takes a delivery sink and appends dequeues straight to the
    event columns — no emission tuples at all.  Port order, per-port
    emission order, stats and active-set updates are exactly the
    two-phase path's — only the dispatch around them is collapsed.
    Trace-on runs keep the two-phase path so per-packet ENQ/DEQ/DROP
    events interleave exactly as the Python backend emits them.
    """
    cols = engine.world.egress_cols
    (free_col, queued_col, avg_col, qlen, queues_col, _heads, enqueued_col,
     dequeued_col, dropped_col, marked_col, tx_col, max_q_col,
     _samples, _rr_next, _deficit, _current, _granted) = cols
    static = engine.port_static
    staged_get = ctx.staged.get
    bus = engine.bus
    has_ops = bus.has_ops
    active = engine.active_ports
    results = engine.results
    node_events = results.node_events
    sort = transmit_sort  # module attribute: the injectable tie-break
    # Local deliveries append straight to the event columns; the
    # cluster's AgentEngine keeps the bulk-method dispatch (its peers
    # can live on another partition).
    inline = engine.deliveries_local
    sink = None
    if inline:
        events = engine.events
        buckets = events._buckets
        reg = events_mod.register_window
        L = engine.lookahead
        floor = engine._running_window + 1
        last_win = None
        b_nodes = b_payloads = None
        if not has_ops:
            sink = (buckets, events, reg, L, floor)
    deliver_emissions = engine.deliver_emissions
    count = 0
    emissions: List = []
    drops: List[Tuple[int, Row]] = []
    for iface_id in iface_ids:
        st = static[iface_id]
        arrivals = staged_get(iface_id, ())
        if len(arrivals) > 1:  # 0/1 arrivals: nothing to tie-break
            arrivals = sort(arrivals)
        elif (arrivals and qlen[iface_id] == 0 and st.kind == PICK_LOWEST
                and st.red is None and not st.sample_queue
                and not has_ops):
            # Single arrival, empty FIFO/SP queues, threshold or no
            # AQM: the replay collapses to "maybe mark, then emit when
            # the line frees" — ~58% of replays on the reference
            # workload (switch egresses and host NICs alike).  Same
            # transitions as replay_window with queued == 0, including
            # the EWMA step and the enqueue-or-emit split.
            (classes, node, peer, delay, rate, shift, buffer_bytes, ecn_k,
             _red, _kind, _quantum, table, _sample) = st
            t, _prio, row = arrivals[0]
            size = row[F_SIZE]
            avg = avg_col[iface_id]
            avg_col[iface_id] = avg + ((0 - avg) >> shift)
            if size > buffer_bytes:
                dropped_col[iface_id] += 1
                results.drops += 1
                active.discard(iface_id)
                continue
            if ecn_k is not None and 0 >= ecn_k and not row[F_ISACK]:
                row = with_ce(row)
                marked_col[iface_id] += 1
            enqueued_col[iface_id] += 1
            if size > max_q_col[iface_id]:
                max_q_col[iface_id] = size
            free_at = free_col[iface_id]
            start = free_at if free_at > t else t
            if start >= window_end:  # stays queued past the window
                c = 0
                if table is not None:  # the packet's class, clamped
                    c = table[row[F_FLOW]]
                    c = 0 if c < 0 else min(c, classes - 1)
                queues_col[iface_id][c].append(row)
                qlen[iface_id] = 1
                queued_col[iface_id] = size
                active.add(iface_id)
                continue
            end = start + (size * _PS8) // rate
            free_col[iface_id] = end
            dequeued_col[iface_id] += 1
            tx_col[iface_id] += size
            count += 1
            node_events[node] = node_events.get(node, 0) + 1
            if inline:
                t = end + delay
                win = t // L
                if win < floor:
                    win = floor
                if win != last_win:
                    bucket = buckets.get(win)
                    if bucket is None:
                        bucket = buckets[win] = events_mod._Bucket()
                    reg(events, win)
                    last_win = win
                    b_nodes = bucket.nodes.append
                    b_payloads = bucket.payloads.append
                b_nodes(peer)
                b_payloads((ENTRY_ARRIVAL, t, PRIO_ARRIVAL, row))
            else:
                deliver_emissions(peer, delay, [(row, start, end)])
            active.discard(iface_id)
            continue
        n = replay_window(cols, st, iface_id, arrivals, window_start,
                          window_end, emissions, drops, None, sink)
        if drops:
            results.drops += len(drops)
            drops.clear()
        if n:
            count += n
            node_events[st.node] = node_events.get(st.node, 0) + n
            if emissions:  # not sunk: ops, then one bulk delivery
                if has_ops:
                    for row, _s, _e in emissions:
                        bus.op(2, iface_id, packet_uid(row))  # OP_SERVICE
                deliver_emissions(st.peer_node, st.delay_ps, emissions)
                emissions.clear()
        if qlen[iface_id] > 0:
            active.add(iface_id)
        else:
            active.discard(iface_id)
    ctx.counts.transmit += count


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
        cols = AckCols(**world.receivers.columns(AckCols._fields))
        receiver_of_flow = world.receiver_of_flow
        flows = sc.flows
        commit_ack(engine, ctx, [
            ack_kernel(cols, receiver_of_flow, flows,
                       (node, sort_contract(data)))
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
        if not bus.trace_level:
            # No trace stream: replay and commit fuse into one sweep
            # with bulk per-port delivery.
            _transmit_serial_np(engine, ctx, iface_ids, ctx.start, ctx.end)
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
