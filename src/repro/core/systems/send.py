"""SendSystem: traffic generation and transport state machines (§3.2).

For every Sender entity with work in the current window — delivered
ACKs, a flow start, a pending retransmission deadline, or a paced UDP
schedule — the system replays that flow's events in chronological order
using the *same* pure DCTCP/UDP transitions as the OOD baseline, and
stages the resulting data segments on the source host's NIC queue.

Plan → kernel → commit:

* the work list is the send slice of the one window plan
  (:func:`~repro.core.window.plan_window`): the sorted flow ids plus
  each flow's ACK deliveries and start;
* :func:`send_kernel` replays one flow.  Sender state
  lives in the columnar sender table; the kernel reads and writes the
  flow's row through bulk column handles (one indexed access per column
  — the columnar pattern the machine model measures) and returns staged
  segments;
* :func:`commit_send` stages segments, publishes op/trace events, and
  registers wakeups, in flow-id order.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..instrument import OP_HOST_RX, OP_SEND
from ..window import ENTRY_TIMER, ENTRY_UDP, SendPlan, WindowContext
from ...protocols import DctcpState
from ...protocols.packet import (
    F_ECE, F_FLOW, F_ISACK, F_SEND_TS, F_SEQ, HEADER_BYTES, MSS,
    PRIO_ARRIVAL, PRIO_FLOW_START, PRIO_TIMER, Row, data_row, packet_uid,
    segment_count, segment_payload,
)
from ...traffic import Transport
from ...units import PS_PER_S

_UDP = int(Transport.UDP)

#: Wire bits x PS_PER_S of one full segment: segment ``i`` of a paced
#: flow is enqueued ``(i * WIRE8PS) // rate`` after the flow starts.
WIRE8PS = (MSS + HEADER_BYTES) * 8 * PS_PER_S

#: Sender-table columns mirrored into DctcpState (same names both sides).
_DCTCP_FIELDS = (
    "snd_una", "next_seq", "cwnd", "ssthresh", "alpha", "acked_win",
    "marked_win", "alpha_seq", "cut_seq", "dupacks", "srtt_ps",
    "rttvar_ps", "rto_ps", "backoff", "timer_gen",
)

#: Every sender column the kernel sweeps.
SENDER_COLS = _DCTCP_FIELDS + (
    "flow_id", "total_segs", "rtx_deadline", "done", "done_ps",
    "udp_next_seq",
)


def load_dctcp_cols(cols: Dict[str, list], idx: int, params) -> DctcpState:
    """Materialize a flow's sender row from bulk column handles.

    The field moves are written out long-hand (direct attribute stores,
    no ``setattr`` loop): this pair runs once per flow-task per window
    and is the per-row boundary cost the columnar layout is supposed to
    amortize.  Keep the field set in lockstep with ``_DCTCP_FIELDS``.
    """
    state = DctcpState(
        flow_id=cols["flow_id"][idx],
        total_segs=cols["total_segs"][idx],
        params=params,
    )
    state.snd_una = cols["snd_una"][idx]
    state.next_seq = cols["next_seq"][idx]
    state.cwnd = cols["cwnd"][idx]
    state.ssthresh = cols["ssthresh"][idx]
    state.alpha = cols["alpha"][idx]
    state.acked_win = cols["acked_win"][idx]
    state.marked_win = cols["marked_win"][idx]
    state.alpha_seq = cols["alpha_seq"][idx]
    state.cut_seq = cols["cut_seq"][idx]
    state.dupacks = cols["dupacks"][idx]
    state.srtt_ps = cols["srtt_ps"][idx]
    state.rttvar_ps = cols["rttvar_ps"][idx]
    state.rto_ps = cols["rto_ps"][idx]
    state.backoff = cols["backoff"][idx]
    state.timer_gen = cols["timer_gen"][idx]
    deadline = cols["rtx_deadline"][idx]
    state.rtx_deadline = None if deadline < 0 else deadline
    state.done = bool(cols["done"][idx])
    done_ps = cols["done_ps"][idx]
    state.done_ps = None if done_ps < 0 else done_ps
    return state


def store_dctcp_cols(cols: Dict[str, list], idx: int, state: DctcpState) -> None:
    """Write a DctcpState back into the sender row, column by column."""
    cols["snd_una"][idx] = state.snd_una
    cols["next_seq"][idx] = state.next_seq
    cols["cwnd"][idx] = state.cwnd
    cols["ssthresh"][idx] = state.ssthresh
    cols["alpha"][idx] = state.alpha
    cols["acked_win"][idx] = state.acked_win
    cols["marked_win"][idx] = state.marked_win
    cols["alpha_seq"][idx] = state.alpha_seq
    cols["cut_seq"][idx] = state.cut_seq
    cols["dupacks"][idx] = state.dupacks
    cols["srtt_ps"][idx] = state.srtt_ps
    cols["rttvar_ps"][idx] = state.rttvar_ps
    cols["rto_ps"][idx] = state.rto_ps
    cols["backoff"][idx] = state.backoff
    cols["timer_gen"][idx] = state.timer_gen
    cols["rtx_deadline"][idx] = (
        -1 if state.rtx_deadline is None else state.rtx_deadline
    )
    cols["done"][idx] = int(state.done)
    cols["done_ps"][idx] = -1 if state.done_ps is None else state.done_ps


def udp_window(fl: FlowLists, flow_id: int, seq: int, window_end: int,
               ) -> Tuple[List[Tuple[int, int, int]], int, Optional[int]]:
    """One UDP flow's window write-set as data.

    Returns ``(emissions, next_seq, wakeup)``: the ``(enqueue time, seq,
    payload bytes)`` of every segment from cursor ``seq`` on that the
    flow hands its NIC before ``window_end``, the advanced cursor, and
    the next enqueue time past the window (``None`` when the schedule
    is exhausted).  Segment ``i`` starts once segments ``0..i-1`` have
    serialized at NIC rate — the closed form
    :class:`~repro.protocols.udp.UdpSchedule` gives the OOD baseline one
    event at a time — so a visit costs the segments it emits plus the
    one that ends it, however many the flow has left.  The only UDP
    pacing schedule under ``repro.core``: the SendSystem and the
    memoization probe (:mod:`repro.core.memo`) call it, so a cached
    window's predicted emissions are the executed ones by construction.
    """
    size = fl.size[flow_id]
    start = fl.start[flow_id]
    rate = fl.nic_rate[flow_id]
    last = segment_count(size) - 1   # its payload is the remainder
    out: List[Tuple[int, int, int]] = []
    while seq <= last:
        t = start + (seq * WIRE8PS) // rate
        if t >= window_end:
            return out, seq, t
        out.append((t, seq, MSS if seq < last else size - MSS * last))
        seq += 1
    return out, seq, None


#: Per-flow events inside a window: (time, kind, row-or-None).
FlowEvent = Tuple[int, int, Optional[Row]]

def send_kernel(
    cols: Dict[str, list],
    sender_of_flow: Dict[int, int],
    scenario,
    fl: FlowLists,
    acks_of: Dict[int, List[Tuple[int, Row]]],
    starts: Dict[int, int],
    window_end: int,
    flow_id: int,
):
    """Replay one flow's window; returns staged segments + stats.

    Pure over the flow's sender row: each flow id maps to exactly one
    row, and a flow appears in at most one task.
    """
    sidx = sender_of_flow[flow_id]
    src = fl.src[flow_id]
    dst = fl.dst[flow_id]
    out: List[Tuple[int, int, Row]] = []  # (t, prio, row)
    if fl.transport[flow_id] == _UDP:
        udp_col = cols["udp_next_seq"]
        ems, seq, udp_wakeup = udp_window(fl, flow_id, udp_col[sidx],
                                          window_end)
        udp_col[sidx] = seq
        for t, s, payload in ems:
            out.append((t, PRIO_FLOW_START,
                        data_row(flow_id, s, payload, t, src, dst)))
        return flow_id, out, [], None, udp_wakeup, len(ems)

    size = fl.size[flow_id]
    rtts: List[Tuple[int, int, int]] = []
    wakeup: Optional[int] = None  # rtx deadline to register
    events = 0

    # --- window CCA (DCTCP / RENO): per-flow chronological replay ---
    state = load_dctcp_cols(
        cols, sidx, scenario.cca_params(fl.transport[flow_id]))
    evs: List[FlowEvent] = [
        (t, PRIO_ARRIVAL, row) for t, row in acks_of.get(flow_id, ())
    ]
    if flow_id in starts:
        evs.append((starts[flow_id], PRIO_FLOW_START, None))
    evs.sort(key=lambda e: (e[0], e[1], e[2][F_SEQ] if e[2] else 0))

    def emit(seqs: List[int], now: int, prio: int) -> None:
        for seq in seqs:
            out.append((now, prio,
                        data_row(flow_id, seq, segment_payload(size, seq),
                                 now, src, dst)))

    i, n = 0, len(evs)
    while True:
        deadline = state.rtx_deadline
        fire = (
            deadline is not None
            and deadline < window_end
            and (i >= n or deadline < evs[i][0])
        )
        if fire:
            emit(state.on_timeout(deadline), deadline, PRIO_TIMER)
            events += 1
            continue
        if i >= n:
            break
        t, kind, row = evs[i]
        i += 1
        events += 1
        if kind == PRIO_ARRIVAL:
            assert row is not None
            rtts.append((t, t - row[F_SEND_TS], flow_id))
            emit(state.on_ack(row[F_SEQ], row[F_ECE], row[F_SEND_TS], t),
                 t, PRIO_ARRIVAL)
        else:  # flow start
            emit(state.on_start(t), t, PRIO_FLOW_START)

    if state.rtx_deadline is not None and not state.done:
        wakeup = state.rtx_deadline
    store_dctcp_cols(cols, sidx, state)
    return flow_id, out, rtts, wakeup, None, events


class FlowLists(NamedTuple):
    """Per-flow columns as plain-int lists, indexed by flow id."""

    src: List[int]
    dst: List[int]
    size: List[int]
    start: List[int]
    transport: List[int]
    nic: List[int]        # iface id of the source host's NIC
    nic_rate: List[int]   # its line rate, the UDP pacing rate


def flow_lists(engine) -> FlowLists:
    """The engine's :class:`FlowLists`, taken once on first use.

    Columnar traffic converts each column with one ``tolist()``; no
    ``Flow`` facade is built either way the hot path reads a flow.
    """
    fl = engine._flow_lists
    if fl is None:
        flows = engine.scenario.flows
        if hasattr(flows, "columns"):
            cols = flows.columns()
            src, dst, size, start, transport = (
                cols[name].tolist() for name in
                ("src", "dst", "size_bytes", "start_ps", "transport"))
        else:
            src = [f.src for f in flows]
            dst = [f.dst for f in flows]
            size = [f.size_bytes for f in flows]
            start = [f.start_ps for f in flows]
            transport = [int(f.transport) for f in flows]
        host_iface = engine.scenario.topology.host_iface
        nics = {host: host_iface(host) for host in set(src)}
        fl = engine._flow_lists = FlowLists(
            src, dst, size, start, transport,
            [nics[s].iface_id for s in src],
            [nics[s].rate_bps for s in src])
    return fl


def commit_send(engine, ctx: WindowContext, results) -> None:
    """Stage kernel outputs and register wakeups, in flow-id order."""
    bus = engine.bus
    fl = flow_lists(engine)
    src_of = fl.src
    nic_of = fl.nic
    staged = ctx.staged
    counts = ctx.counts
    node_events = engine.results.node_events
    rtt_extend = engine.results.rtt_samples.extend
    has_ops = bus.has_ops
    for flow_id, out, rtts, rtx_wakeup, udp_wakeup, events in results:
        src = src_of[flow_id]
        segments = 0
        if has_ops:
            for _ in rtts:
                bus.op(OP_HOST_RX, src, (flow_id << 25) | (1 << 24))  # ack handled
            for _t, _prio, row in out:
                bus.op(OP_SEND, src, packet_uid(row))
        if out:
            segments = len(out)
            nic = nic_of[flow_id]
            lst = staged.get(nic)
            if lst is None:
                staged[nic] = list(out)
            else:
                lst.extend(out)
            counts.send += segments
        if rtts:
            counts.ack += len(rtts)  # ack deliveries handled at the sender
            rtt_extend(rtts)
        n_ev = segments + len(rtts)
        if n_ev:
            node_events[src] = node_events.get(src, 0) + n_ev
        if rtx_wakeup is not None:
            engine.register_wakeup(rtx_wakeup, src, ENTRY_TIMER, flow_id)
        if udp_wakeup is not None:
            engine.register_wakeup(udp_wakeup, src, ENTRY_UDP, flow_id)


def trace_ack_deliveries(bus, deliver_trace) -> None:
    """Publish the window's ACK deliveries in canonical order (trace
    recording only)."""
    for t, node, row in sorted(
        deliver_trace,
        key=lambda d: (d[0], d[2][F_FLOW], d[2][F_ISACK], d[2][F_SEQ]),
    ):
        bus.deliver(t, node, row[F_FLOW], row[F_ISACK], row[F_SEQ])


def run_send_system(engine, ctx: WindowContext, plan: SendPlan) -> None:
    """Visit every sender with window work (kernel → commit) — ``plan``
    is the plan's send slice."""
    flow_ids, acks_of, starts, deliver_trace = plan
    if not flow_ids:
        return

    bus = engine.bus
    if bus.trace_level:
        trace_ack_deliveries(bus, deliver_trace)

    cols = engine.world.senders.columns(SENDER_COLS)
    sender_of_flow = engine.world.sender_of_flow
    sc = engine.scenario
    fl = flow_lists(engine)
    commit_send(engine, ctx, [
        send_kernel(cols, sender_of_flow, sc, fl, acks_of, starts, ctx.end, f)
        for f in flow_ids])
