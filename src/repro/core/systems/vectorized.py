"""The ``numpy`` backend's window execution: one fused pass over the four
systems (:func:`run_window_fused`) and the batch kernels it dispatches.

Same plan → kernel → commit decomposition as the Python reference, same
pure protocol transitions, same deterministic commit order — but the
orchestration around the kernels is columnar:

* **plan** stages operate on per-window index arrays: the transmit work
  list is a masked selection over the port axis (fed ∪ active), and
  ordering-contract sorts go through one stable ``np.lexsort`` over key
  columns instead of a per-element Python key function
  (:func:`sort_contract`).
* **kernel** stages index the same list columns of the one
  :class:`~repro.core.ecs.SoATable` the reference systems sweep
  (``columns(...)`` hands out the live lists), so the
  DCTCP/UDP/reassembly state machines run on exactly the value types
  the reference feeds them — which is what keeps the traces
  byte-identical.
* **commit** mutates those columns in place; the ForwardSystem routes
  straight into the window's staging lists, with no command buffers in
  between (:func:`_forward_serial_np`).

Integer timestamp arithmetic stays bit-exact: every value that crosses
from an ndarray into a packet row or trace entry is converted to a
Python scalar first, and the vectorized UDP schedule decomposes its
closed form so ``int64`` cannot overflow (falling back to the scalar
schedule — same floor divisions — when it could).

The commit helpers (``commit_send``/``commit_ack``/``commit_transmit``)
are shared with the Python reference: the backends differ in how work
is planned and dispatched, never in what is committed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .ack import AckCols, ack_kernel, commit_ack
from .send import (
    SENDER_COLS, FlowLists, commit_send, flow_lists, send_kernel,
)
from .transmit import commit_transmit
from .. import events as events_mod
from ..window import ENTRY_ARRIVAL, ENTRY_FLOW_START, Staged, WindowContext
from ...protocols.aqm import AqmConfig, AqmKind, should_mark
from ...protocols.egress import TableClassifier
from ...schedulers.disciplines import FifoScheduler, StrictPriorityScheduler
from ...protocols.packet import (
    F_DST, F_FLOW, F_ISACK, F_SEQ, F_SIZE, HEADER_BYTES, MSS,
    PRIO_ARRIVAL, PRIO_FLOW_START, Row, data_row, packet_uid, with_ce,
)
from ...traffic import Transport
from ...units import PS_PER_S

#: Below this many entries a Python key-function sort beats building the
#: key columns; above it the stable lexsort wins.  Order is identical.
VECTOR_SORT_MIN = 32


def _contract_key(a: Tuple[int, int, Row]):
    """The canonical arrival ordering: (t, prio, flow, is_ack, seq)."""
    return (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])


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
            entries.sort(key=_contract_key)
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


#: The transmit tie-break hook, resolved from module globals at kernel
#: run time so `conformance.inject.unstable_transmit_sort` can patch it
#: the way `flipped_transmit_order` patches the Python backend's
#: `transmit_kernel`.
transmit_sort = sort_contract


# --- SendSystem ------------------------------------------------------------

#: 8 * PS_PER_S, the serialization-formula constant (see repro.units).
_PS8 = 8 * PS_PER_S

#: A UDP flow with at most this many segments left runs the scalar
#: schedule: building the array expression costs more than a few loop
#: turns, and short flows (the WAN twin's one-segment starts) dominate
#: where flow starts are frequent.  Both schedules are bit-identical.
UDP_SCALAR_SEGS = 8


def _udp_send_kernel(cols, fl: FlowLists, window_end: int, flow_id: int,
                     k: int):
    """UDP pacing of one flow's window, off the per-flow lists.

    The closed form ``t(seq) = start + (seq*wire*8*PS)//rate`` runs as a
    scalar loop while only a handful of segments remain, and as one
    array expression over the whole remaining range otherwise.  To stay
    inside ``int64`` the array form decomposes the division via
    ``q, r = divmod(wire*8*PS, rate)`` into ``start + seq*q +
    (seq*r)//rate`` — identical floor arithmetic, and for every rate
    that divides the wire term (all realistic ones) ``r == 0``; where
    the decomposition could still overflow (degenerate rate/size
    combinations) the scalar loop runs instead.  Returns the kernel
    result and whether the array form ran.
    """
    src = fl.src[flow_id]
    dst = fl.dst[flow_id]
    size = fl.size[flow_id]
    start = fl.start[flow_id]
    rate = fl.nic_rate[flow_id]
    udp_col = cols["udp_next_seq"]
    seq = udp_col[k]
    last = (size + MSS - 1) // MSS - 1   # its payload is the remainder
    tail = size - MSS * last
    wire8ps = (MSS + HEADER_BYTES) * _PS8
    out: List[Tuple[int, int, Row]] = []
    array = False
    if last - seq >= UDP_SCALAR_SEGS:
        q, r = divmod(wire8ps, rate)
        # Python-int bounds on the largest values the range can reach.
        array = (start + (last * wire8ps) // rate < 2 ** 63
                 and last * r < 2 ** 63)
    if array:
        seqs = np.arange(seq, last + 1, dtype=np.int64)
        times = start + seqs * q
        if r:
            times += (seqs * r) // rate
        cut = int(np.searchsorted(times, window_end, side="left"))
        for s, t in zip(seqs[:cut].tolist(), times[:cut].tolist()):
            out.append((t, PRIO_FLOW_START,
                        data_row(flow_id, s, MSS if s < last else tail, t,
                                 src, dst)))
        seq += cut
    else:
        while seq <= last:
            t = start + (seq * wire8ps) // rate
            if t >= window_end:
                break
            out.append((t, PRIO_FLOW_START,
                        data_row(flow_id, seq, MSS if seq < last else tail,
                                 t, src, dst)))
            seq += 1
    udp_col[k] = seq
    udp_wakeup = start + (seq * wire8ps) // rate if seq <= last else None
    return (flow_id, out, [], None, udp_wakeup, len(out)), array


def send_batch_kernel(cols, sender_of_flow, scenario, fl: FlowLists, acks_of,
                      starts, window_end, flow_ids: List[int]):
    """The sender sweep, flow by flow in order.

    Returns ``(results, array schedules, scalar schedules)`` — the two
    counts say which UDP schedule the window's flows took.
    """
    out = []
    n_array = n_udp = 0
    transport = fl.transport
    udp = int(Transport.UDP)
    for flow_id in flow_ids:
        if transport[flow_id] == udp:
            result, array = _udp_send_kernel(cols, fl, window_end, flow_id,
                                             sender_of_flow[flow_id])
            out.append(result)
            n_udp += 1
            n_array += array
        else:
            out.append(send_kernel(cols, sender_of_flow, scenario, acks_of,
                                   starts, window_end, flow_id))
    return out, n_array, n_udp - n_array


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


def plan_transmit_np(engine, ctx: WindowContext) -> List[int]:
    """Masked selection over the port axis: fed ∪ still-serializing.

    ``np.flatnonzero`` of the boolean mask yields ascending iface ids —
    the same list ``sorted(set(staged) | active)`` produces.
    """
    staged = ctx.staged
    active = engine.active_ports
    if len(staged) + len(active) < VECTOR_SORT_MIN:
        return sorted(set(staged) | active)
    mask = np.zeros(len(engine.ports), dtype=bool)
    if staged:
        mask[np.fromiter(staged, np.int64, len(staged))] = True
    if active:
        mask[np.fromiter(active, np.int64, len(active))] = True
    return np.flatnonzero(mask).tolist()


class PortStatic(NamedTuple):
    """One port's topology-fixed constants, gathered once per engine."""

    #: How many class queues :func:`replay_window_inline` serves
    #: lowest-first — 1 for FIFO, N for Strict Priority behind a
    #: ``TableClassifier`` — or ``None`` where the port stays on the
    #: reference ``EgressPort.replay_window`` (RR/DRR carry scheduler
    #: state the inline loop does not model).
    classes: Optional[int]
    node: int
    peer_node: int
    delay_ps: int
    rate_bps: int
    ewma_shift: int
    buffer_bytes: int
    ecn_k: Optional[int]         # the DCTCP threshold, else None
    red: Optional[AqmConfig]     # the RED config, else None


def _port_static(port) -> PortStatic:
    kind = type(port.sched)
    if kind is FifoScheduler:
        classes = 1
    elif (kind is StrictPriorityScheduler
          and type(port.classifier) is TableClassifier):
        classes = port.sched.num_classes
    else:
        classes = None
    iface = port.iface
    cfg = port.config
    aqm = cfg.aqm
    return PortStatic(
        classes, iface.node, iface.peer_node, iface.delay_ps,
        iface.rate_bps, aqm.red_weight_shift, cfg.buffer_bytes,
        aqm.ecn_threshold_bytes
        if aqm.kind == AqmKind.ECN_THRESHOLD else None,
        aqm if aqm.kind == AqmKind.RED else None)


def _tx_static(engine) -> List[PortStatic]:
    """Per-port constants, gathered once per engine.  Dynamic state
    (queue contents, ``free_at``, EWMA) stays on the port objects —
    migration moves those, never these."""
    static = engine._tx_static
    if static is None:
        static = engine._tx_static = [_port_static(p) for p in engine.ports]
    return static


def replay_window_inline(
    port,
    static: PortStatic,
    arrivals,
    window_start: int,
    window_end: int,
    emissions: List,
    drops: List[Tuple[int, Row]],
    enq: Optional[List[Tuple[int, Row]]] = None,
    sink: Optional[Tuple] = None,
) -> int:
    """:meth:`EgressPort.replay_window` inlined for FIFO and Strict
    Priority ports (``static.classes`` queues, lowest non-empty wins;
    FIFO is the one-class case).

    Same interleave, same state transitions, statement for statement —
    but every per-packet helper (``arrive``, ``_dequeue``,
    ``serialization_ps``, ``Scheduler.enqueue``/``_pop``, the
    ``TableClassifier`` lookup, the integer EWMA, the DCTCP threshold
    test) runs over local variables, with port/stats state written back
    once at exit.  Class 0's queue and head live in locals, so a FIFO
    port never touches the per-class lists; higher classes are scanned
    only when class 0 is empty.  No arrivals (a busy line draining) and
    one arrival are the same loop with a shorter input.  Keep in
    lockstep with ``EgressPort.replay_window``/``arrive`` and
    ``Scheduler.enqueue``/``_pop``: ``tests/core/test_port_replay.py``
    drives twin ports through both.

    ``sink`` is the caller's ``(buckets, events, register_window,
    lookahead, floor)``; when given, dequeued packets are delivered
    straight into the engine's event columns instead of filling
    ``emissions``.  Returns the number of dequeues.
    """
    (classes, _node, peer, delay, rate, weight_shift, buffer_bytes, ecn_k,
     red) = static
    sched = port.sched
    queues = sched.queues
    heads = sched._heads
    queue = queues[0]
    head = heads[0]
    slen = sched._len
    table = port.classifier.classes if classes > 1 else None
    top = classes - 1
    stats = port.stats
    if sink is not None:
        buckets, events, reg, L, floor = sink
        last_win = -1
        b_nodes = b_payloads = None
    sample_queue = port.sample_queue
    queued = port.queued_bytes
    avg = port.avg_bytes
    free_at = port.free_at
    max_q = stats.max_queue_bytes
    n_deq = n_enq = n_drop = n_mark = tx = 0
    cursor = window_start
    i = 0
    n = len(arrivals)
    next_arr = arrivals[0][0] if n else None
    while True:
        if slen > 0:
            start = free_at if free_at > cursor else cursor
            if start < window_end and (next_arr is None
                                       or start <= next_arr):
                if head < len(queue):    # Scheduler._pop, inlined
                    row = queue[head]
                    head += 1
                    if head > 64 and head * 2 >= len(queue):
                        del queue[:head]
                        head = 0
                else:                    # class 0 empty: next class up
                    c = 1
                    while heads[c] >= len(queues[c]):
                        c += 1
                    q = queues[c]
                    h = heads[c]
                    row = q[h]
                    h += 1
                    if h > 64 and h * 2 >= len(q):
                        del q[:h]
                        h = 0
                    heads[c] = h
                slen -= 1
                size = row[F_SIZE]
                queued -= size
                n_deq += 1
                tx += size
                free_at = end = start + (size * _PS8) // rate
                if sink is None:
                    emissions.append((row, start, end))
                else:
                    ta = end + delay
                    win = ta // L
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
                    b_payloads((ENTRY_ARRIVAL, ta, PRIO_ARRIVAL, row))
                cursor = start
                continue
        if next_arr is None:
            break
        t, _prio, row = arrivals[i]
        i += 1
        next_arr = arrivals[i][0] if i < n else None
        # EgressPort.arrive, inlined (marking sees the queue occupancy
        # before the packet, per the DCTCP convention)
        size = row[F_SIZE]
        avg += (queued - avg) >> weight_shift
        if queued + size > buffer_bytes:
            n_drop += 1
            drops.append((t, row))
        else:
            if (queued >= ecn_k and not row[F_ISACK] if ecn_k is not None
                    else red is not None and should_mark(
                        red, row, queued, avg, port.iface.iface_id)):
                row = with_ce(row)
                n_mark += 1
            if table is None:
                queue.append(row)
            else:            # Scheduler.enqueue clamps the class id
                c = table[row[F_FLOW]]
                queues[0 if c < 0 else top if c > top else c].append(row)
            slen += 1
            queued += size
            n_enq += 1
            if queued > max_q:
                max_q = queued
            if sample_queue:
                stats.queue_samples.append((t, queued))
            if enq is not None:
                enq.append((t, row))
        cursor = t
    heads[0] = head
    sched._len = slen
    port.queued_bytes = queued
    port.avg_bytes = avg
    port.free_at = free_at
    stats.dequeued += n_deq
    stats.enqueued += n_enq
    stats.dropped += n_drop
    stats.marked += n_mark
    stats.tx_bytes += tx
    stats.max_queue_bytes = max_q
    return n_deq


def transmit_batch_kernel(
    ports,
    static: List[PortStatic],
    staged: Dict[int, List[Staged]],
    window_start: int,
    window_end: int,
    full_trace: bool,
    iface_ids: List[int],
):
    """The port axis replayed port by port, results left for
    ``commit_transmit`` (the trace-on path, see
    :func:`_transmit_serial_np`)."""
    out = []
    sort = transmit_sort  # module attribute: the injectable tie-break
    staged_get = staged.get
    append = out.append
    for iface_id in iface_ids:
        port = ports[iface_id]
        arrivals = staged_get(iface_id)
        if arrivals is None:
            if len(port.sched) > 0 and port.free_at >= window_end:
                # Busy line, nothing fed, and the head packet outlasts
                # the window: the replay is a guaranteed no-op (its
                # first service start would land at or past window_end).
                # Most active ports in a large fan-in hit this.
                append((iface_id, (), (), [] if full_trace else None,
                        True, 0))
                continue
            arrivals = []
        elif len(arrivals) > 1:  # 0/1 arrivals: nothing to tie-break
            arrivals = sort(arrivals)
        emissions: List = []
        drops: List[Tuple[int, Row]] = []
        enq: Optional[List[Tuple[int, Row]]] = [] if full_trace else None
        if static[iface_id].classes is not None:
            replay_window_inline(port, static[iface_id], arrivals,
                                 window_start, window_end, emissions,
                                 drops, enq)
        else:
            port.replay_window(arrivals, window_start, window_end,
                               emissions, drops, enq)
        append((iface_id, emissions, drops, enq,
                len(port.sched) > 0, len(arrivals)))
    return out


def _transmit_serial_np(engine, ctx: WindowContext,
                        iface_ids: List[int],
                        window_start: int, window_end: int) -> None:
    """Replay *and* commit the port axis in one serial sweep.

    Fuses :func:`transmit_batch_kernel` with ``commit_transmit`` for the
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
    ports = engine.ports
    static = _tx_static(engine)
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
    count = n_reference = 0
    emissions: List = []
    drops: List[Tuple[int, Row]] = []
    for iface_id in iface_ids:
        port = ports[iface_id]
        st = static[iface_id]
        sched = port.sched
        arrivals = staged_get(iface_id)
        if arrivals is None:
            if sched._len > 0 and port.free_at >= window_end:
                # Busy line, nothing fed, head packet outlasts the
                # window: guaranteed no-op (see transmit_batch_kernel).
                # The port is already in the active set — keep it there.
                continue
            arrivals = ()
        elif len(arrivals) > 1:  # 0/1 arrivals: nothing to tie-break
            arrivals = sort(arrivals)
        elif (arrivals and sched._len == 0 and st.classes is not None
                and st.red is None and not port.sample_queue
                and not has_ops):
            # Single arrival, empty FIFO/SP queues, threshold or no
            # AQM: the replay collapses to "maybe mark, then emit when
            # the line frees" — ~58% of replays on the reference
            # workload (switch egresses and host NICs alike).  Same
            # transitions as replay_window_inline with queued == 0,
            # including the EWMA step and the enqueue-or-emit split.
            (classes, node, peer, delay, rate, shift, buffer_bytes, ecn_k,
             _red) = st
            t, _prio, row = arrivals[0]
            size = row[F_SIZE]
            stats = port.stats
            avg = port.avg_bytes
            port.avg_bytes = avg + ((0 - avg) >> shift)
            if size > buffer_bytes:
                stats.dropped += 1
                results.drops += 1
                active.discard(iface_id)
                continue
            if ecn_k is not None and 0 >= ecn_k and not row[F_ISACK]:
                row = with_ce(row)
                stats.marked += 1
            stats.enqueued += 1
            if size > stats.max_queue_bytes:
                stats.max_queue_bytes = size
            free_at = port.free_at
            start = free_at if free_at > t else t
            if start >= window_end:  # stays queued past the window
                c = 0
                if classes > 1:      # into the packet's class, clamped
                    c = port.classifier.classes[row[F_FLOW]]
                    c = 0 if c < 0 else min(c, classes - 1)
                sched.queues[c].append(row)
                sched._len += 1
                port.queued_bytes = size
                active.add(iface_id)
                continue
            end = start + (size * _PS8) // rate
            port.free_at = end
            stats.dequeued += 1
            stats.tx_bytes += size
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
        if st.classes is None:
            n_reference += 1
            port.replay_window(arrivals, window_start, window_end,
                               emissions, drops, None)
            n = len(emissions)
        else:
            n = replay_window_inline(port, st, arrivals, window_start,
                                     window_end, emissions, drops, None,
                                     sink)
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
        if sched._len > 0:
            active.add(iface_id)
        else:
            active.discard(iface_id)
    ctx.counts.transmit += count
    bus.count("transmit.reference_replays", n_reference)


# --- Fused window pass ------------------------------------------------------


def plan_window_np(engine, ctx: WindowContext):
    """All four systems' plans in one traversal of the window columns.

    The classic path groups the window's entries by node and then walks
    the grouped dict four times (once per system's plan); this consumes
    the raw insert-ordered ``ctx.columns`` in one pass, classifying
    every entry into the ACK, Send and Forward work lists directly.
    Output order is provably identical: grouping preserves insertion
    order, so every per-node (and per-flow — a flow's ACKs all land on
    its one source host) sequence comes out the same whether entries
    are visited node-by-node or in global insert order, and the
    order-sensitive outputs are sorted exactly where the classic plans
    sort them (``plan_ack``/``plan_forward`` sort by node,
    ``plan_send`` by flow id, ACK slices through the same
    :func:`sort_contract`).
    """
    is_host = getattr(engine, "_is_host", None)
    if is_host is None:
        is_host = engine._is_host = [
            n.is_host for n in engine.scenario.topology.nodes]
    ack_data: Dict[int, List[Tuple[int, int, Row]]] = {}
    acks_of: Dict[int, List[Tuple[int, Row]]] = {}
    starts: Dict[int, int] = {}
    visits: List[int] = []
    deliver_trace: List[Tuple[int, int, Row]] = []
    fwd: Dict[int, List[Tuple[int, int, Row]]] = {}
    ack_get = ack_data.get
    acks_get = acks_of.get
    fwd_get = fwd.get
    nodes_col, payloads = ctx.columns
    for i, node in enumerate(nodes_col):
        e = payloads[i]
        tag = e[0]
        if is_host[node]:
            if tag == ENTRY_ARRIVAL:
                row = e[3]
                if row[F_ISACK]:
                    lst = acks_get(row[F_FLOW])
                    if lst is None:
                        acks_of[row[F_FLOW]] = [(e[1], row)]
                    else:
                        lst.append((e[1], row))
                    deliver_trace.append((e[1], node, row))
                else:
                    lst = ack_get(node)
                    if lst is None:
                        ack_data[node] = [(e[1], e[2], row)]
                    else:
                        lst.append((e[1], e[2], row))
            elif tag == ENTRY_FLOW_START:
                starts[e[2]] = e[1]
            elif e[1] >= 0:  # TIMER / UDP; negative = bare wakeup
                visits.append(e[1])
        elif tag == ENTRY_ARRIVAL:
            lst = fwd_get(node)
            if lst is None:
                fwd[node] = [(e[1], e[2], e[3])]
            else:
                lst.append((e[1], e[2], e[3]))
    ack_work = [(node, sort_contract(data))
                for node, data in sorted(ack_data.items())]
    flow_ids = sorted(set(acks_of) | set(starts) | set(visits))
    return (ack_work, (flow_ids, acks_of, starts, deliver_trace),
            sorted(fwd.items()))


def run_window_fused(engine, ctx: WindowContext):
    """One fused pass over the window: plan once, then the four phases
    in paper order over shared column handles.

    Semantically identical to the reference backend's four
    ``run_*_system`` calls back to back — same kernels, same shared
    commit helpers, same ordering contract — but the plan traversal
    happens once and each phase is one sweep over its work list.
    Returns the five ``perf_counter`` phase marks ``(t0..t4)`` so the
    engine's profiling and telemetry spans stay per-system.
    """
    clock = perf_counter
    bus = engine.bus
    world = engine.world
    sc = engine.scenario
    t0 = clock()
    if ctx.columns is not None:
        ack_work, send_plan, forward_work = plan_window_np(engine, ctx)
    else:
        ack_work = ()
        send_plan = None
        forward_work = ()

    if ack_work:
        cols = AckCols(**world.receivers.columns(AckCols._fields))
        receiver_of_flow = world.receiver_of_flow
        flows = sc.flows
        commit_ack(engine, ctx, [
            ack_kernel(cols, receiver_of_flow, flows, item)
            for item in ack_work])
    t1 = clock()

    if send_plan is not None and send_plan[0]:
        flow_ids, acks_of, starts, deliver_trace = send_plan
        if bus.trace_level:
            for t, node, row in sorted(
                deliver_trace,
                key=lambda d: (d[0], d[2][F_FLOW], d[2][F_ISACK],
                               d[2][F_SEQ]),
            ):
                bus.deliver(t, node, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        results, n_array, n_scalar = send_batch_kernel(
            world.senders.columns(SENDER_COLS), world.sender_of_flow, sc,
            flow_lists(engine), acks_of, starts, ctx.end, flow_ids)
        commit_send(engine, ctx, results)
        # Which UDP schedule the window's flow visits took, one count
        # each per window (docs/OBSERVABILITY.md, "fused" section).
        if n_array:
            bus.count("send.array_schedules", n_array)
        if n_scalar:
            bus.count("send.scalar_schedules", n_scalar)
    t2 = clock()

    if forward_work:
        # Packet spraying re-salts the ECMP hash per segment: no cache.
        _forward_serial_np(
            engine, ctx, forward_work,
            None if sc.ecmp_mode == "packet" else engine._routes)
    t3 = clock()

    iface_ids = plan_transmit_np(engine, ctx)
    if iface_ids:
        if not bus.trace_level:
            # No trace stream: replay and commit fuse into one sweep
            # with bulk per-port delivery.
            _transmit_serial_np(engine, ctx, iface_ids, ctx.start, ctx.end)
        else:
            commit_transmit(engine, ctx, transmit_batch_kernel(
                engine.ports, _tx_static(engine), ctx.staged, ctx.start,
                ctx.end, bus.trace_level >= 2, iface_ids))
    t4 = clock()
    return t0, t1, t2, t3, t4
