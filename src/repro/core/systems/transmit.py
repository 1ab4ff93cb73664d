"""TransmitSystem: chronological egress processing and cross-device moves.

Per §3.2/Appendix C, this system first sorts each EgressPort's pending
packets in chronological order (the ordering-contract key), then replays
the port's timeline for the window — AQM decisions, scheduler picks,
serialization — and moves transmitted packets to the linked IngressPort
or Receiver by registering their future arrival in the engine calendar.

Interleaving arrivals with departures during the replay reconstructs the
exact queue length every packet saw (the paper's TXhistory mechanism),
so drops and ECN marks match the event-driven baseline exactly.

A port is one row of ``world.egress`` (its mutable state) plus one
:class:`PortStatic` (what the topology and the scenario fix), and
:func:`replay_window` over a list of those is the only windowed replay
there is.  Its lockstep twin is the event-by-event ``EgressPort``
automaton of the OOD baseline (``tests/core/test_port_replay.py``).

:func:`plan_transmit` lists the fed ports and the active ones due in
the window, and :func:`run_transmit_system` replays them in one
:func:`replay_window` call over the whole port list that commits in
place (the delivery sink), on the serial engine and on a cluster
agent, traced or not: a port whose peer is local appends to the event
columns, one whose peer another agent owns to that agent's outbox.  A
window something observes (a trace stream or an op probe) collects
every port's services, publishes the port's op and trace records after
it, and installs the local deliveries once the call returns.  A port's
arrivals are ordered with :data:`transmit_sort`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import events as events_mod
from ..ecs import EgressCols
from ..instrument import OP_SERVICE
from ..window import ENTRY_ARRIVAL, Staged, WindowContext
from ...errors import ConfigError
from ...protocols.aqm import AqmConfig, AqmKind, should_mark
from ...protocols.packet import (
    F_CE, F_FLOW, F_ISACK, F_SEQ, F_SIZE, PRIO_ARRIVAL, Row, packet_uid,
    with_ce,
)
from ...schedulers import SchedulerKind
from ...units import PS_PER_S

#: 8 * PS_PER_S, the serialization-formula constant (see repro.units).
_PS8 = 8 * PS_PER_S

#: An emission: (row, service_start_ps, service_end_ps).
Emission = Tuple[Row, int, int]

#: ``PortStatic.kind``: how the next class to serve is picked.
PICK_LOWEST, PICK_RR, PICK_DRR = 0, 1, 2

#: The outbox key an observed window collects local deliveries under
#: (agent ids are >= 0); see ``DodEngine.port_observed``.
LOCAL = -1


class PortStatic(NamedTuple):
    """One port's topology- and scenario-fixed constants, gathered once
    per engine at ``build()`` (``engine.port_static``, by interface id).
    Dynamic state stays in ``world.egress`` — migration and checkpoints
    move that, never these."""

    #: Class queues of the port: 1 for FIFO, N otherwise.
    classes: int
    node: int
    peer_node: int
    delay_ps: int
    rate_bps: int
    ewma_shift: int
    buffer_bytes: int
    ecn_k: Optional[int]         # the DCTCP threshold, else None
    red: Optional[AqmConfig]     # the RED config, else None
    #: ``PICK_LOWEST`` (FIFO and Strict Priority: the lowest non-empty
    #: class), ``PICK_RR`` or ``PICK_DRR``.
    kind: int
    quantum: int                 # DRR bytes granted per visit
    #: flow id -> traffic class (clamped into range on enqueue);
    #: ``None`` on a one-class port.
    table: Optional[List[int]]
    sample_queue: bool


def port_static(iface, cfg, table: List[int],
                sample_queue: bool) -> PortStatic:
    """The constants of one interface under egress config ``cfg``."""
    aqm = cfg.aqm
    classes = 1 if cfg.scheduler == SchedulerKind.FIFO else cfg.num_classes
    if classes < 1:
        raise ConfigError("need at least one traffic class")
    if cfg.scheduler == SchedulerKind.DRR and cfg.drr_quantum_bytes < 1:
        raise ConfigError("DRR quantum must be positive")
    return PortStatic(
        classes, iface.node, iface.peer_node, iface.delay_ps,
        iface.rate_bps, aqm.red_weight_shift, cfg.buffer_bytes,
        aqm.ecn_threshold_bytes
        if aqm.kind == AqmKind.ECN_THRESHOLD else None,
        aqm if aqm.kind == AqmKind.RED else None,
        PICK_RR if cfg.scheduler == SchedulerKind.RR
        else PICK_DRR if cfg.scheduler == SchedulerKind.DRR
        else PICK_LOWEST,
        cfg.drr_quantum_bytes,
        table if classes > 1 else None,
        sample_queue)


def contract_key(a: Staged):
    """The canonical arrival ordering: (t, prio, flow, is_ack, seq)."""
    return (a[0], a[1], a[2][F_FLOW], a[2][F_ISACK], a[2][F_SEQ])


def contract_sort(arrivals: List[Staged]) -> List[Staged]:
    """The ordering-contract tie-break: an in-place ``list.sort`` by
    :func:`contract_key`."""
    arrivals.sort(key=contract_key)
    return arrivals


#: The transmit tie-break hook, read from module globals once per window
#: by :func:`run_transmit_system`, so the ``conformance.inject`` drills
#: (``flipped_transmit_order``, ``unstable_transmit_sort``) can patch it.
transmit_sort = contract_sort


def _drr_pick(queues, heads, deficit, quantum: int, cls: int,
              granted: bool) -> int:
    """Deficit Round Robin's next class, from ``cls`` on: an empty class
    forfeits its deficit, a visited one is granted ``quantum`` once and
    keeps the floor while its head fits.  Debits the winner, which the
    caller pops and stays on (quantum granted).  Needs a non-empty
    port."""
    n = len(queues)
    while True:
        q = queues[cls]
        if heads[cls] >= len(q):
            deficit[cls] = 0
        else:
            if not granted:
                deficit[cls] += quantum
                granted = True
            size = q[heads[cls]][F_SIZE]
            if size <= deficit[cls]:
                deficit[cls] -= size
                return cls
        cls = (cls + 1) % n
        granted = False


def _publish(bus, iface_id: int, out: List[Emission],
             enq: Optional[List[Tuple[int, Row]]],
             drops: List[Tuple[int, Row]]) -> None:
    """One observed port's records, after its replay: ``OP_SERVICE``
    per service (op stream), then ``enq`` per accepted packet, ``drop``
    per tail drop and ``deq`` per service start (trace stream).
    Empties ``enq`` for the next port."""
    if bus.has_ops:
        for row, _s, _e in out:
            bus.op(OP_SERVICE, iface_id, packet_uid(row))
    if bus.trace_level:
        if enq:
            for t, row in enq:
                bus.enq(t, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ],
                        row[F_CE])
            enq.clear()
        for t, row in drops:
            bus.drop(t, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        for row, start, _e in out:
            bus.deq(start, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])


def replay_window(
    cols: EgressCols,
    static: List[PortStatic],
    ports: Sequence[int],
    staged: Dict[int, List[Staged]],
    sort: Callable[[List[Staged]], List[Staged]],
    window_start: int,
    window_end: int,
    drops: List[Tuple[int, Row]],
    sink: Tuple,
) -> int:
    """Replay one lookahead window of every row in ``ports``, in turn.

    A port's arrivals are its ``staged`` list, ordered by ``sort`` (the
    caller's ordering-contract tie-break; 0/1 arrivals are not sorted),
    every time in ``[window_start, window_end)``.  Service starts and
    arrivals interleave in chronological order; at equal timestamps
    service precedes arrival, matching the baseline's
    PORT_DONE-before-ARRIVAL event priority.  ``drops`` takes the
    ``(time, row)`` tail drops, port after port.

    The transitions are those of the ``EgressPort`` automaton
    (``arrive`` / ``start_service``, the scheduler's ``enqueue`` /
    ``dequeue`` with its lazy queue compaction) over local variables,
    with the row written back once at the port's end.  Class 0's queue
    and head live in locals, so a FIFO port never touches the per-class
    lists and Strict Priority scans higher classes only when class 0 is
    empty; Round Robin and Deficit Round Robin pick through ``heads``.
    No arrivals (a busy line draining) and one arrival are the same
    loop with a shorter input.

    ``sink`` is the caller's ``(buckets, events, register_window,
    lookahead, floor, node_events, active, owners, outbox, bus)``:
    dequeued packets are delivered, and each port's dequeues and
    busy/idle state are committed to ``node_events`` and the ``active``
    set in place.  ``owners`` maps an interface to ``None`` when its
    peer node is simulated here — its packets go straight into the
    event columns (the bucket cursor carries across ports) — or to an
    ``outbox`` key whose list then takes the port's ``(arrival_ps,
    peer, row)`` records in emission order: the agent that owns the
    peer, or :data:`LOCAL`.  ``bus`` is ``None`` when nothing observes
    the window; otherwise every port must be collected (no ``None``
    owner), and each port's op and trace records are published after
    it (:func:`_publish`).  Returns the number of dequeues.
    """
    (free_col, queued_col, avg_col, qlen_col, queues_col, heads_col,
     enqueued_col, dequeued_col, dropped_col, marked_col, tx_col, max_q_col,
     samples_col, rr_next_col, deficit_col, current_col, granted_col) = cols
    (buckets, events, reg, L, floor, node_events, active, owners, outbox,
     bus) = sink
    # ENQ records are kept for a full trace only.
    enq = [] if bus is not None and bus.trace_level >= 2 else None
    last_win = -1
    b_nodes = b_payloads = None
    staged_get = staged.get
    total = 0
    for iface_id in ports:
        (classes, node, peer, delay, rate, weight_shift, buffer_bytes,
         ecn_k, red, kind, quantum, table, sample_queue) = static[iface_id]
        owner = owners[iface_id]
        out = None if owner is None else []
        arrivals = staged_get(iface_id, ())
        n = len(arrivals)
        if n > 1:
            arrivals = sort(arrivals)
        queues = queues_col[iface_id]
        heads = heads_col[iface_id]
        queue = queues[0]
        head = heads[0]
        slen = qlen_col[iface_id]
        top = classes - 1
        if kind == PICK_RR:
            rr_next = rr_next_col[iface_id]
        elif kind:
            deficit = deficit_col[iface_id]
            drr_current = current_col[iface_id]
            drr_granted = granted_col[iface_id]
        queued = queued_col[iface_id]
        avg = avg_col[iface_id]
        free_at = free_col[iface_id]
        max_q = max_q_col[iface_id]
        n_deq = n_enq = n_drop = n_mark = tx = 0
        cursor = window_start
        i = 0
        next_arr = arrivals[0][0] if n else None
        while True:
            if slen > 0:
                start = free_at if free_at > cursor else cursor
                if start < window_end and (next_arr is None
                                           or start <= next_arr):
                    if not kind and head < len(queue):
                        row = queue[head]  # the scheduler's lazy compaction
                        head += 1
                        if head > 64 and head * 2 >= len(queue):
                            del queue[:head]
                            head = 0
                    else:
                        if not kind:         # class 0 empty: next class up
                            c = 1
                            while heads[c] >= len(queues[c]):
                                c += 1
                        elif kind == PICK_RR:
                            c = rr_next
                            while heads[c] >= len(queues[c]):
                                c = (c + 1) % classes
                            rr_next = (c + 1) % classes
                        else:
                            c = drr_current = _drr_pick(
                                queues, heads, deficit, quantum, drr_current,
                                drr_granted)
                            drr_granted = True
                            if slen == 1:
                                # The queue drains: the next burst starts a
                                # clean round, however many windows later.
                                deficit[:] = [0] * classes
                                drr_current = 0
                                drr_granted = False
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
                    if out is not None:
                        out.append((row, start, end))
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
            # Marking sees the queue occupancy before the packet, per the
            # DCTCP convention.
            size = row[F_SIZE]
            avg += (queued - avg) >> weight_shift
            if queued + size > buffer_bytes:
                n_drop += 1
                drops.append((t, row))
            else:
                if (queued >= ecn_k and not row[F_ISACK] if ecn_k is not None
                        else red is not None and should_mark(
                            red, row, queued, avg, iface_id)):
                    row = with_ce(row)
                    n_mark += 1
                if table is None:
                    queue.append(row)
                else:
                    c = table[row[F_FLOW]]
                    queues[0 if c < 0 else top if c > top else c].append(row)
                slen += 1
                queued += size
                n_enq += 1
                if queued > max_q:
                    max_q = queued
                if sample_queue:
                    samples_col[iface_id].append((t, queued))
                if enq is not None:
                    enq.append((t, row))
            cursor = t
        if not kind:
            heads[0] = head
        elif kind == PICK_RR:
            rr_next_col[iface_id] = rr_next
        else:
            current_col[iface_id] = drr_current
            granted_col[iface_id] = drr_granted
        qlen_col[iface_id] = slen
        queued_col[iface_id] = queued
        avg_col[iface_id] = avg
        free_col[iface_id] = free_at
        max_q_col[iface_id] = max_q
        if n_deq:
            dequeued_col[iface_id] += n_deq
            tx_col[iface_id] += tx
        if n_enq:
            enqueued_col[iface_id] += n_enq
        if n_drop:
            dropped_col[iface_id] += n_drop
        if n_mark:
            marked_col[iface_id] += n_mark
        total += n_deq
        if n_deq:
            node_events[node] = node_events.get(node, 0) + n_deq
        if out is not None:
            if bus is not None:
                _publish(bus, iface_id, out, enq, drops[len(drops) - n_drop:])
            if out:
                outbox.setdefault(owner, []).extend(
                    [(e + delay, peer, r) for r, _s, e in out])
        if slen:
            active.add(iface_id)
        else:
            active.discard(iface_id)
    return total


def plan_transmit(engine, ctx: WindowContext) -> List[int]:
    """Every port with work in this window, ascending: the ports that
    were fed, and the active ones whose line frees before the window
    ends.  An unfed port whose head packet outlasts the window (most
    active ports in a large fan-in) cannot start a service inside it —
    the replay would be a no-op — so it is not planned; ``ctx.end`` is
    already clamped on a duration-cut window, which keeps the test
    exact."""
    free_at = engine.world.egress_cols.free_at
    end = ctx.end
    due = {p for p in engine.active_ports if free_at[p] < end}
    due.update(ctx.staged)
    return sorted(due)


def run_transmit_system(engine, ctx: WindowContext) -> None:
    """Replay every active or newly-fed egress port of the window in one
    :func:`replay_window` call with the delivery sink.

    Dequeues land straight in the event columns — or, on a cluster
    agent, in the outbox of the agent that owns the peer
    (``engine.port_owner``) — and node counts, the active set and drops
    are committed in place; no per-port call.  When a trace stream or an
    op probe observes the window, the sink collects every port
    (``engine.port_observed``) and publishes its records after it, and
    the local deliveries it gathered under :data:`LOCAL` are installed
    by ``engine.accept_arrivals`` — the same bucket order, port by port
    and emission by emission.
    """
    iface_ids = plan_transmit(engine, ctx)
    if not iface_ids:
        return
    bus = engine.bus
    owners, outbox = engine.port_owner, engine.outbox
    if bus.trace_level or bus.has_ops:
        owners = engine.port_observed
        if outbox is None:
            outbox = {}
    else:
        bus = None
    events = engine.events
    results = engine.results
    drops: List[Tuple[int, Row]] = []
    ctx.counts.transmit += replay_window(
        engine.world.egress_cols, engine.port_static, iface_ids, ctx.staged,
        transmit_sort, ctx.start, ctx.end, drops,
        (events._buckets, events, events_mod.register_window,
         engine.lookahead, engine._running_window + 1, results.node_events,
         engine.active_ports, owners, outbox, bus))
    results.drops += len(drops)
    if bus is not None:
        local = outbox.pop(LOCAL, None)
        if local:
            engine.accept_arrivals(local)
