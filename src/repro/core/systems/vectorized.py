"""The NumPy backend's window execution: one fused pass over the four
systems (:func:`run_window_fused`) and the batch kernels it dispatches.

Same plan → kernel → commit decomposition as the Python reference, same
pure protocol transitions, same deterministic commit order — but the
orchestration around the kernels is columnar:

* **plan** stages operate on per-window index arrays: the transmit work
  list is a masked selection over the port axis (fed ∪ active), and
  ordering-contract sorts go through one stable ``np.lexsort`` over key
  columns instead of a per-element Python key function
  (:func:`sort_contract`).
* **kernel** dispatch is batched: one pool task per worker sweeping a
  contiguous slice of the entity axis, instead of one task per entity —
  the per-task overhead (argument binding, result boxing, per-task
  commit headers) amortizes over the slice.  Per-window sender/receiver
  state is *gathered* out of the :class:`~repro.core.ecs.NumpyTable`
  columns into compact Python-value columns in one fancy-indexed read
  per component, so the DCTCP/UDP/reassembly state machines run on
  exactly the value types the Python backend feeds them — which is what
  keeps the traces byte-identical.
* **commit** writes back with whole index arrays: one ``scatter`` per
  mutated component column (the resident working set flushes each list
  column in a single vectorized assignment), and the ForwardSystem's
  command buffers consolidate through
  :func:`~repro.core.ecs.consolidate_grouped`, whose stable-argsort
  path engages for very large batches (below the measured crossover it
  delegates to the reference dict consolidation — see the threshold
  note in ``repro.core.ecs.commands``).

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ack import AckCols, ack_kernel, commit_ack
from .forward import ForwardWork
from .send import SENDER_COLS, commit_send, send_kernel
from .transmit import commit_transmit
from .. import events as events_mod
from ..ecs import CommandBuffer, consolidate_grouped
from ..runtime import chunk_ranges
from ..window import ENTRY_ARRIVAL, ENTRY_FLOW_START, Staged, WindowContext
from ...protocols import UdpSchedule
from ...protocols.aqm import AqmKind, should_mark
from ...schedulers.disciplines import FifoScheduler
from ...protocols.packet import (
    F_DST, F_FLOW, F_ISACK, F_SEQ, F_SIZE, HEADER_BYTES, MSS,
    PRIO_ARRIVAL, PRIO_FLOW_START, Row, data_row, with_ce,
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


def _chunked(items: List, workers: int) -> List[List]:
    """Contiguous near-equal slices of a work list, one per pool task."""
    if workers <= 1 or len(items) <= 1:
        return [items]
    return [items[s:e] for s, e in chunk_ranges(len(items), workers)]


# --- SendSystem ------------------------------------------------------------


def _udp_send_kernel(cols, scenario, window_end: int, flow_id: int, k: int):
    """Vectorized UDP pacing: one flow's window as an array expression.

    The closed form ``t(seq) = start + (seq*wire*8*PS)//rate`` is
    evaluated over the whole remaining segment range at once.  To stay
    inside ``int64``, the division is decomposed via
    ``q, r = divmod(wire*8*PS, rate)`` into ``start + seq*q +
    (seq*r)//rate`` — identical floor arithmetic, and for every rate
    that divides the wire term (all realistic ones) ``r == 0``.  When
    the decomposition could still overflow (degenerate rate/size
    combinations), the scalar schedule runs instead; either path
    produces bit-identical timestamps.
    """
    flow = scenario.flows[flow_id]
    rate = scenario.topology.host_iface(flow.src).rate_bps
    sched = UdpSchedule(flow_id, flow.size_bytes, flow.start_ps, rate)
    udp_col = cols["udp_next_seq"]
    seq = udp_col[k]
    total = sched.total_segs
    out: List[Tuple[int, int, Row]] = []
    if seq < total:
        wire8ps = (MSS + HEADER_BYTES) * 8 * PS_PER_S
        q, r = divmod(wire8ps, rate)
        # Python-int bound on the largest timestamp the range can reach.
        t_last = flow.start_ps + ((total - 1) * wire8ps) // rate
        if t_last < 2 ** 63 and (total - 1) * r < 2 ** 63:
            seqs = np.arange(seq, total, dtype=np.int64)
            times = flow.start_ps + seqs * q
            if r:
                times += (seqs * r) // rate
            cut = int(np.searchsorted(times, window_end, side="left"))
            for s, t in zip(seqs[:cut].tolist(), times[:cut].tolist()):
                out.append((t, PRIO_FLOW_START,
                            data_row(flow_id, s, sched.payload(s), t,
                                     flow.src, flow.dst)))
            seq += cut
        else:  # pragma: no cover - degenerate scales, scalar fallback
            while seq < total:
                t = sched.enqueue_time(seq)
                if t >= window_end:
                    break
                out.append((t, PRIO_FLOW_START,
                            data_row(flow_id, seq, sched.payload(seq), t,
                                     flow.src, flow.dst)))
                seq += 1
    udp_col[k] = seq
    udp_wakeup = sched.enqueue_time(seq) if seq < total else None
    return flow_id, out, [], None, udp_wakeup, len(out)


def send_batch_kernel(cols, sender_of_flow, scenario, acks_of, starts,
                      window_end, flow_ids: List[int]):
    """One worker's slice of the sender sweep, flow by flow in order."""
    out = []
    flows = scenario.flows
    tr_at = getattr(flows, "transport_at", None)
    udp = int(Transport.UDP)
    for flow_id in flow_ids:
        is_udp = (tr_at(flow_id) == udp if tr_at is not None
                  else flows[flow_id].transport == Transport.UDP)
        if is_udp:
            out.append(_udp_send_kernel(cols, scenario, window_end,
                                        flow_id, sender_of_flow[flow_id]))
        else:
            out.append(send_kernel(cols, sender_of_flow, scenario, acks_of,
                                   starts, window_end, flow_id))
    return out


# --- ACKSystem -------------------------------------------------------------


AckWork = Tuple[int, List[Tuple[int, int, Row]]]


def ack_batch_kernel(cols: AckCols, receiver_of_flow, flows,
                     items: List[AckWork]):
    """One worker's slice of the receiver sweep, host by host."""
    return [ack_kernel(cols, receiver_of_flow, flows, item) for item in items]


# --- ForwardSystem ---------------------------------------------------------


def forward_batch_kernel(fib, iface_id_of, spray: bool,
                         items: List[ForwardWork],
                         memo: Optional[Dict] = None):
    """One worker's slice of the switch sweep: all its nodes' arrivals
    routed into private command buffers (one per node, so the commit's
    per-node accounting matches the scalar path).

    ``memo`` caches ``(node, dst, flow) -> egress iface id`` across
    windows: flow-hashed ECMP is pure in that key, so after a flow's
    first packet crosses a switch every later packet's route is a dict
    hit instead of a FIB walk plus hash.  Packet spraying re-salts the
    hash per segment, so the memo is bypassed (``spray=True`` callers
    pass ``memo=None``).
    """
    out = []
    if memo is None:
        for node, arrivals in items:
            buf: CommandBuffer = CommandBuffer()
            for t, prio, row in arrivals:
                salt = row[F_SEQ] if spray else None
                port = fib.resolve_port(node, row[F_DST], row[F_FLOW], salt)
                buf.append(iface_id_of(node, port), (t, prio, row))
            out.append((node, len(arrivals), buf))
        return out
    resolve = fib.resolve_port
    memo_get = memo.get
    for node, arrivals in items:
        buf = CommandBuffer()
        append = buf.append
        for t, prio, row in arrivals:
            key = (node, row[F_DST], row[F_FLOW])
            target = memo_get(key)
            if target is None:
                target = memo[key] = iface_id_of(
                    node, resolve(node, key[1], key[2]))
            append(target, (t, prio, row))
        out.append((node, len(arrivals), buf))
    return out


def commit_forward_np(engine, ctx: WindowContext, results) -> None:
    """``commit_forward`` with the grouped array consolidation path."""
    bus = engine.bus
    buffers = []
    for node, n, buf in results:
        ctx.counts.forward += n
        engine.bump_node(node, n)
        if bus.has_ops:
            from ...protocols.packet import packet_uid
            for _target, (_t, _prio, row) in buf.entries:
                bus.op(1, node, packet_uid(row))  # OP_FORWARD
        buffers.append(buf)
    consolidate_grouped(buffers, ctx.staged)


def _forward_serial_np(engine, ctx: WindowContext, work, memo,
                       spray: bool) -> None:
    """:func:`forward_batch_kernel` fused with its commit for the
    single-worker, probe-off sweep: resolved routes append straight
    into ``ctx.staged`` — no per-node command buffer, no consolidation
    pass.  Per-target arrival order matches the buffered path, which
    also preserves the global (node, arrival) recording order.
    """
    sc = engine.scenario
    resolve = sc.fib.resolve_port
    iface_id_of = sc.topology.iface_id
    staged = ctx.staged
    staged_get = staged.get
    node_events = engine.results.node_events
    memo_get = memo.get if memo is not None else None
    # Flat integer memo keys: (node, dst, flow) packed by exact
    # mixed-radix arithmetic (dst < n_nodes, flow < n_flows), so the
    # per-packet tuple allocation and tuple hash become one int hash.
    n_nodes = len(sc.topology.nodes)
    n_flows = len(sc.flows)
    total = 0
    for node, arrivals in work:
        base = node * n_nodes
        for t, prio, row in arrivals:
            if memo_get is None:
                salt = row[F_SEQ] if spray else None
                target = iface_id_of(
                    node, resolve(node, row[F_DST], row[F_FLOW], salt))
            else:
                key = (base + row[F_DST]) * n_flows + row[F_FLOW]
                target = memo_get(key)
                if target is None:
                    target = memo[key] = iface_id_of(
                        node, resolve(node, row[F_DST], row[F_FLOW]))
            lst = staged_get(target)
            if lst is None:
                staged[target] = [(t, prio, row)]
            else:
                lst.append((t, prio, row))
        n = len(arrivals)
        total += n
        node_events[node] = node_events.get(node, 0) + n
    ctx.counts.forward += total


def _route_memo(engine, spray: bool) -> Optional[Dict]:
    """The engine's cross-window route cache (None when spraying)."""
    if spray:
        return None
    memo = getattr(engine, "_fwd_memo", None)
    if memo is None:
        memo = engine._fwd_memo = {}
    return memo


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


#: 8 * PS_PER_S, the serialization-formula constant (see repro.units).
_PS8 = 8 * PS_PER_S


def _replay_window_fifo(
    port,
    arrivals: List[Staged],
    window_start: int,
    window_end: int,
    emissions: List,
    drops: List[Tuple[int, Row]],
    enq: Optional[List[Tuple[int, Row]]],
    consts: Optional[Tuple[int, int, int, int]] = None,
    sink: Optional[Tuple] = None,
) -> int:
    """:meth:`EgressPort.replay_window` specialized for FIFO ports.

    Same interleave, same state transitions, statement for statement —
    but every per-packet helper (``arrive``, ``_dequeue``,
    ``serialization_ps``, the scheduler's single queue, the integer
    EWMA, the DCTCP threshold test) is inlined over local variables,
    with port/stats state written back once at exit.  FIFO ignores the
    classifier (all classes collapse to queue 0, see
    ``FifoScheduler.enqueue``), so the per-packet classifier call is
    skipped outright.  This loop runs once per fed-or-active port per
    window; on the reference workload the dispatch it removes is most
    of the TransmitSystem's non-automaton cost.  Keep in lockstep with
    ``EgressPort.replay_window``/``arrive`` and ``Scheduler._pop``; the
    backend-equivalence suite diffs the backends byte for byte.

    ``consts`` is the caller's pre-gathered
    ``(rate, weight_shift, buffer_bytes, ecn_k)`` (threshold-AQM ports
    only — it skips the per-call attribute walk).  ``sink`` is the
    caller's ``(buckets, events, register_window, lookahead, floor,
    peer_node, delay_ps)``; when given, dequeued packets are delivered
    straight into the engine's event columns instead of filling
    ``emissions``.  Returns the number of dequeues.
    """
    sched = port.sched
    queue = sched.queues[0]
    head = sched._heads[0]
    slen = sched._len
    stats = port.stats
    if consts is not None:
        rate, weight_shift, buffer_bytes, ecn_k = consts
        aqm = None
        iface_id = -1  # should_mark is unreachable: ecn_k is not None
    else:
        rate = port.iface.rate_bps
        iface_id = port.iface.iface_id
        cfg = port.config
        aqm = cfg.aqm
        weight_shift = aqm.red_weight_shift
        buffer_bytes = cfg.buffer_bytes
        # DCTCP threshold marking (the default) inlines; other AQM
        # kinds go through the shared decision function.
        ecn_k = (aqm.ecn_threshold_bytes
                 if aqm.kind == AqmKind.ECN_THRESHOLD else None)
    if sink is not None:
        buckets, events, reg, L, floor, peer, delay = sink
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
    while True:
        next_arr = arrivals[i][0] if i < n else None
        start: Optional[int] = None
        if slen > 0:
            start = free_at if free_at > cursor else cursor
            if start >= window_end:
                start = None
        if start is not None and (next_arr is None or start <= next_arr):
            row = queue[head]            # Scheduler._pop, inlined
            head += 1
            if head > 64 and head * 2 >= len(queue):
                del queue[:head]
                head = 0
            slen -= 1
            size = row[F_SIZE]
            queued -= size
            n_deq += 1
            tx += size
            end = start + (size * _PS8) // rate
            free_at = end
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
        elif next_arr is not None:
            t, _prio, row = arrivals[i]
            i += 1
            # EgressPort.arrive, inlined (marking sees the queue
            # occupancy before the packet, per the DCTCP convention)
            size = row[F_SIZE]
            avg += (queued - avg) >> weight_shift
            if queued + size > buffer_bytes:
                n_drop += 1
                drops.append((t, row))
            else:
                if (queued >= ecn_k and not row[F_ISACK]
                        if ecn_k is not None
                        else should_mark(aqm, row, queued, avg, iface_id)):
                    row = with_ce(row)
                    n_mark += 1
                queue.append(row)
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
        else:
            break
    sched._heads[0] = head
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


def _replay_one_fifo(port, t: int, row, window_start: int, window_end: int,
                     emissions: List, drops: List, rate: int, shift: int,
                     buffer_bytes: int, ecn_k: Optional[int],
                     sink: Optional[Tuple] = None) -> int:
    """:func:`_replay_window_fifo` for exactly one arrival onto a busy
    FIFO line with plain threshold (or no) AQM.

    The interleave splits in two: dequeues whose service start lands at
    or before ``t`` precede the arrival, then the arrival runs the
    inlined AQM step, then the line keeps draining to ``window_end``.
    The caller hands in the port's static constants (rate, EWMA shift,
    buffer, threshold) from its per-port arrays, so the per-call
    attribute walk of the general replay disappears.  Transitions match
    the general loop statement for statement.  ``sink`` (same tuple as
    :func:`_replay_window_fifo`) delivers dequeues straight to the event
    columns; returns the number of dequeues.
    """
    sched = port.sched
    queue = sched.queues[0]
    head = sched._heads[0]
    slen = sched._len
    stats = port.stats
    queued = port.queued_bytes
    free_at = port.free_at
    if sink is not None:
        buckets, events, reg, L, floor, peer, delay = sink
        last_win = -1
        b_nodes = b_payloads = None
    n_deq = tx = 0
    phase_bound = t  # phase 1: service starts at or before the arrival
    start = free_at if free_at > window_start else window_start
    for _phase in (0, 1):
        while slen > 0 and start < window_end and start <= phase_bound:
            out = queue[head]            # Scheduler._pop, inlined
            head += 1
            if head > 64 and head * 2 >= len(queue):
                del queue[:head]
                head = 0
            slen -= 1
            size = out[F_SIZE]
            queued -= size
            n_deq += 1
            tx += size
            end = start + (size * _PS8) // rate
            free_at = end
            if sink is None:
                emissions.append((out, start, end))
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
                b_payloads((ENTRY_ARRIVAL, ta, PRIO_ARRIVAL, out))
            start = end
        if _phase:
            break
        # the arrival (marking sees the occupancy before the packet)
        size = row[F_SIZE]
        avg = port.avg_bytes
        port.avg_bytes = avg + ((queued - avg) >> shift)
        if queued + size > buffer_bytes:
            stats.dropped += 1
            drops.append((t, row))
        else:
            if ecn_k is not None and queued >= ecn_k and not row[F_ISACK]:
                row = with_ce(row)
                stats.marked += 1
            queue.append(row)
            slen += 1
            queued += size
            stats.enqueued += 1
            if queued > stats.max_queue_bytes:
                stats.max_queue_bytes = queued
            if port.sample_queue:
                stats.queue_samples.append((t, queued))
        # phase 2: drain freely to the window edge
        phase_bound = window_end
        start = free_at if free_at > t else t
    sched._heads[0] = head
    sched._len = slen
    port.queued_bytes = queued
    port.free_at = free_at
    stats.dequeued += n_deq
    stats.tx_bytes += tx
    return n_deq


def _drain_window_fifo(port, window_start: int, window_end: int,
                       emissions: List,
                       rate: Optional[int] = None,
                       sink: Optional[Tuple] = None) -> int:
    """:func:`_replay_window_fifo` for the no-arrival case.

    An active port with nothing staged only *dequeues*: no AQM, no
    EWMA, no drops, no queue growth.  The interleave collapses to
    ``start_1 = max(free_at, window_start); start_{k+1} = end_k`` until
    the line crosses ``window_end`` or the queue drains — so all the
    arrival-side bindings of the full replay are skipped.  Identical
    emissions and port state, by construction.  Callers holding the
    per-port static arrays pass ``rate`` to skip the attribute walk.
    ``sink`` (same tuple as :func:`_replay_window_fifo`) delivers
    dequeues straight to the event columns; returns the dequeue count.
    """
    sched = port.sched
    queue = sched.queues[0]
    head = sched._heads[0]
    slen = sched._len
    stats = port.stats
    if rate is None:
        rate = port.iface.rate_bps
    if sink is not None:
        buckets, events, reg, L, floor, peer, delay = sink
        last_win = -1
        b_nodes = b_payloads = None
    queued = port.queued_bytes
    free_at = port.free_at
    n_deq = tx = 0
    start = free_at if free_at > window_start else window_start
    while slen > 0 and start < window_end:
        row = queue[head]                # Scheduler._pop, inlined
        head += 1
        if head > 64 and head * 2 >= len(queue):
            del queue[:head]
            head = 0
        slen -= 1
        size = row[F_SIZE]
        queued -= size
        n_deq += 1
        tx += size
        end = start + (size * _PS8) // rate
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
        free_at = end
        start = end
    sched._heads[0] = head
    sched._len = slen
    port.queued_bytes = queued
    port.free_at = free_at
    stats.dequeued += n_deq
    stats.tx_bytes += tx
    return n_deq


def transmit_batch_kernel(
    ports,
    staged: Dict[int, List[Staged]],
    window_start: int,
    window_end: int,
    full_trace: bool,
    iface_ids: List[int],
):
    """One worker's slice of the port axis, replayed port by port."""
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
        if type(port.sched) is FifoScheduler:
            _replay_window_fifo(port, arrivals, window_start, window_end,
                                emissions, drops, enq)
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
    single-worker, trace-off case (the measured configuration): no
    intermediate result tuples, scratch emission/drop lists reused
    across ports, and each port's deliveries land through the engine's
    bulk :meth:`~repro.core.engine.DodEngine.deliver_emissions` instead
    of one call chain per packet.  Port order, per-port emission order,
    stats and active-set updates are exactly the two-phase path's —
    only the dispatch around them is collapsed.  Trace-on runs keep the
    two-phase path so per-packet ENQ/DEQ/DROP events interleave exactly
    as the Python backend emits them.
    """
    ports = engine.ports
    static = getattr(engine, "_tx_static", None)
    if static is None or len(static[0]) != len(ports):
        # Topology-fixed per-port metadata, gathered once: scheduler
        # kind, endpoint nodes, link delay/rate, and the inlined AQM
        # constants (None where the port is not plain DCTCP-threshold).
        # Dynamic state (sched contents, free_at, EWMA) stays on the
        # port objects — migration moves those, never these.
        static = engine._tx_static = (
            [type(p.sched) is FifoScheduler for p in ports],
            [p.iface.node for p in ports],
            [p.iface.peer_node for p in ports],
            [p.iface.delay_ps for p in ports],
            [p.iface.rate_bps for p in ports],
            [p.config.aqm.red_weight_shift for p in ports],
            [p.config.buffer_bytes for p in ports],
            [p.config.aqm.ecn_threshold_bytes
             if p.config.aqm.kind == AqmKind.ECN_THRESHOLD else None
             for p in ports],
            [p.config.aqm.kind in (AqmKind.ECN_THRESHOLD, AqmKind.NONE)
             for p in ports],
        )
    (fifo_of, node_of, peer_of, delay_of, rate_of, shift_of, buf_of,
     ecn_of, simple_of) = static
    staged_get = ctx.staged.get
    bus = engine.bus
    has_ops = bus.has_ops
    active = engine.active_ports
    node_events = engine.results.node_events
    results = engine.results
    sort = transmit_sort  # module attribute: the injectable tie-break
    # Local deliveries append straight to the event columns; the
    # cluster's AgentEngine keeps the bulk-method dispatch (its peers
    # can live on another partition).
    inline = engine.deliveries_local
    if inline:
        events = engine.events
        buckets = events._buckets
        reg = events_mod.register_window
        L = engine.lookahead
        floor = engine._running_window + 1
        last_win = None
        b_nodes = b_payloads = None
    else:
        deliver_emissions = engine.deliver_emissions
    # With local delivery and no conformance bus the FIFO replay
    # helpers take a delivery sink and append dequeues straight to the
    # event columns — no intermediate emission tuples at all.
    use_sink = inline and not has_ops
    count = 0
    emissions: List = []
    drops: List[Tuple[int, Row]] = []
    for iface_id in iface_ids:
        port = ports[iface_id]
        arrivals = staged_get(iface_id)
        fifo = fifo_of[iface_id]
        n_sunk = 0
        if arrivals is None:
            if port.sched._len > 0 if fifo else len(port.sched) > 0:
                if port.free_at >= window_end:
                    # Busy line, nothing fed, head packet outlasts the
                    # window: guaranteed no-op (see
                    # transmit_batch_kernel).  The port is already in
                    # the active set — keep it there.
                    continue
            if fifo:
                if use_sink:
                    n_sunk = _drain_window_fifo(
                        port, window_start, window_end, emissions,
                        rate_of[iface_id],
                        (buckets, events, reg, L, floor,
                         peer_of[iface_id], delay_of[iface_id]))
                else:
                    _drain_window_fifo(port, window_start, window_end,
                                       emissions, rate_of[iface_id])
            else:
                port.replay_window([], window_start, window_end,
                                   emissions, drops, None)
        elif (fifo and len(arrivals) == 1 and port.sched._len == 0
                and simple_of[iface_id]
                and not port.sample_queue and not has_ops):
            # Single arrival, empty FIFO queue, threshold or no AQM:
            # the replay collapses to "maybe mark, then emit when the
            # line frees" — ~58% of replays on the reference workload
            # (switch egresses and host NICs alike).  Same transitions
            # as _replay_window_fifo with queued == 0, including the
            # EWMA step and the enqueue-or-emit split.
            t, _prio, row = arrivals[0]
            size = row[F_SIZE]
            stats = port.stats
            avg = port.avg_bytes
            port.avg_bytes = avg + ((0 - avg) >> shift_of[iface_id])
            if size > buf_of[iface_id]:
                stats.dropped += 1
                results.drops += 1
                active.discard(iface_id)
                continue
            ecn_k = ecn_of[iface_id]
            if ecn_k is not None and 0 >= ecn_k and not row[F_ISACK]:
                row = with_ce(row)
                stats.marked += 1
            stats.enqueued += 1
            if size > stats.max_queue_bytes:
                stats.max_queue_bytes = size
            free_at = port.free_at
            start = free_at if free_at > t else t
            if start >= window_end:  # stays queued past the window
                sched = port.sched
                sched.queues[0].append(row)
                sched._len += 1
                port.queued_bytes = size
                active.add(iface_id)
                continue
            end = start + (size * _PS8) // rate_of[iface_id]
            port.free_at = end
            stats.dequeued += 1
            stats.tx_bytes += size
            count += 1
            node = node_of[iface_id]
            node_events[node] = node_events.get(node, 0) + 1
            if inline:
                t = end + delay_of[iface_id]
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
                b_nodes(peer_of[iface_id])
                b_payloads((ENTRY_ARRIVAL, t, PRIO_ARRIVAL, row))
            else:
                deliver_emissions(peer_of[iface_id], delay_of[iface_id],
                                  [(row, start, end)])
            active.discard(iface_id)
            continue
        elif fifo and len(arrivals) == 1 and simple_of[iface_id]:
            # One arrival onto a busy line: two-phase drain around the
            # inlined AQM step, constants from the per-port arrays.
            t, _prio, row = arrivals[0]
            if use_sink:
                n_sunk = _replay_one_fifo(
                    port, t, row, window_start, window_end,
                    emissions, drops, rate_of[iface_id],
                    shift_of[iface_id], buf_of[iface_id],
                    ecn_of[iface_id],
                    (buckets, events, reg, L, floor, peer_of[iface_id],
                     delay_of[iface_id]))
            else:
                _replay_one_fifo(port, t, row, window_start, window_end,
                                 emissions, drops, rate_of[iface_id],
                                 shift_of[iface_id], buf_of[iface_id],
                                 ecn_of[iface_id])
        else:
            if len(arrivals) > 1:  # 0/1 arrivals: nothing to tie-break
                arrivals = sort(arrivals)
            if fifo:
                consts = ((rate_of[iface_id], shift_of[iface_id],
                           buf_of[iface_id], ecn_of[iface_id])
                          if ecn_of[iface_id] is not None else None)
                if use_sink:
                    n_sunk = _replay_window_fifo(
                        port, arrivals, window_start, window_end,
                        emissions, drops, None, consts,
                        (buckets, events, reg, L, floor,
                         peer_of[iface_id], delay_of[iface_id]))
                else:
                    _replay_window_fifo(port, arrivals, window_start,
                                        window_end, emissions, drops,
                                        None, consts)
            else:
                port.replay_window(arrivals, window_start, window_end,
                                   emissions, drops, None)
        if has_ops and emissions:
            from ...protocols.packet import packet_uid
            for row, _s, _e in emissions:
                bus.op(2, iface_id, packet_uid(row))  # OP_SERVICE
        if drops:
            results.drops += len(drops)
            drops.clear()
        if n_sunk:
            # Deliveries already landed in the event columns inside the
            # replay helper; only the counters remain.
            count += n_sunk
            node = node_of[iface_id]
            node_events[node] = node_events.get(node, 0) + n_sunk
            if (port.sched._len if fifo else len(port.sched)) > 0:
                active.add(iface_id)
            else:
                active.discard(iface_id)
            continue
        n = len(emissions)
        if n:
            count += n
            node = node_of[iface_id]
            node_events[node] = node_events.get(node, 0) + n
            if inline:
                peer = peer_of[iface_id]
                delay = delay_of[iface_id]
                for row, _start, end in emissions:
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
                deliver_emissions(peer_of[iface_id], delay_of[iface_id],
                                  emissions)
            emissions.clear()
        if (port.sched._len if fifo else len(port.sched)) > 0:
            active.add(iface_id)
        else:
            active.discard(iface_id)
    ctx.counts.transmit += count


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
    happens once, and single-worker runs dispatch kernels directly
    instead of through the pool's task machinery.  Returns the five
    ``perf_counter`` phase marks ``(t0..t4)`` so the engine's profiling
    and telemetry spans stay per-system.
    """
    clock = perf_counter
    pool = engine.pool
    workers = pool.workers
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
        cols = AckCols(**world.receivers.resident(AckCols._fields))
        receiver_of_flow = world.receiver_of_flow
        if workers > 1 and len(ack_work) > 1:
            chunks = _chunked(ack_work, workers)
            results = pool.map(
                "ack",
                lambda chunk: ack_batch_kernel(cols, receiver_of_flow,
                                               sc.flows, chunk),
                chunks,
                sizes=[sum(len(w[1]) for w in chunk) for chunk in chunks],
            )
            results = (results[0] if len(results) == 1
                       else [r for chunk in results for r in chunk])
        else:
            results = ack_batch_kernel(cols, receiver_of_flow, sc.flows,
                                       ack_work)
        commit_ack(engine, ctx, results)
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
        cols = world.senders.resident(SENDER_COLS)
        sender_of_flow = world.sender_of_flow
        if workers > 1 and len(flow_ids) > 1:
            chunks = _chunked(flow_ids, workers)
            results = pool.map(
                "send",
                lambda chunk: send_batch_kernel(cols, sender_of_flow, sc,
                                                acks_of, starts, ctx.end,
                                                chunk),
                chunks,
                sizes=[sum(len(acks_of.get(f, ())) + 1 for f in chunk)
                       for chunk in chunks],
            )
            results = (results[0] if len(results) == 1
                       else [r for chunk in results for r in chunk])
        else:
            results = send_batch_kernel(cols, sender_of_flow, sc, acks_of,
                                        starts, ctx.end, flow_ids)
        commit_send(engine, ctx, results)
    t2 = clock()

    if forward_work:
        spray = sc.ecmp_mode == "packet"
        if workers <= 1 and not bus.has_ops:
            # The serial sweep keeps its own flat-int-keyed memo (the
            # buffered kernel's memo is tuple-keyed).
            if spray:
                memo = None
            else:
                memo = getattr(engine, "_fwd_memo_flat", None)
                if memo is None:
                    memo = engine._fwd_memo_flat = {}
            _forward_serial_np(engine, ctx, forward_work, memo, spray)
        elif workers > 1 and len(forward_work) > 1:
            memo = _route_memo(engine, spray)
            chunks = _chunked(forward_work, workers)
            results = pool.map(
                "forward",
                lambda chunk: forward_batch_kernel(
                    sc.fib, sc.topology.iface_id, spray, chunk, memo),
                chunks,
                sizes=[sum(len(w[1]) for w in chunk) for chunk in chunks],
            )
            results = (results[0] if len(results) == 1
                       else [r for chunk in results for r in chunk])
            commit_forward_np(engine, ctx, results)
        else:
            results = forward_batch_kernel(sc.fib, sc.topology.iface_id,
                                           spray, forward_work,
                                           _route_memo(engine, spray))
            commit_forward_np(engine, ctx, results)
    t3 = clock()

    iface_ids = plan_transmit_np(engine, ctx)
    if iface_ids:
        if workers <= 1 and not bus.trace_level:
            # Single worker, no trace stream: replay and commit fuse
            # into one sweep with bulk per-port delivery.
            _transmit_serial_np(engine, ctx, iface_ids, ctx.start, ctx.end)
            t4 = clock()
            return t0, t1, t2, t3, t4
        full_trace = bus.trace_level >= 2
        if workers > 1 and len(iface_ids) > 1:
            chunks = _chunked(iface_ids, workers)
            results = pool.map(
                "transmit",
                lambda chunk: transmit_batch_kernel(
                    engine.ports, ctx.staged, ctx.start, ctx.end,
                    full_trace, chunk),
                chunks,
                sizes=[sum(len(ctx.staged.get(i, ())) + 1 for i in chunk)
                       for chunk in chunks],
            )
            results = (results[0] if len(results) == 1
                       else [r for chunk in results for r in chunk])
        else:
            results = transmit_batch_kernel(engine.ports, ctx.staged,
                                            ctx.start, ctx.end, full_trace,
                                            iface_ids)
        commit_transmit(engine, ctx, results)
    t4 = clock()
    return t0, t1, t2, t3, t4
