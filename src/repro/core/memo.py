"""Window-signature memoization and fast-forwarding (ROADMAP: the
single biggest raw-speed lever).

Steady-state traffic — heartbeats, fixed-rate flows, collective phases —
makes the engine execute the *same* lookahead window over and over: the
same pending entries, the same port queues, the same receiver state, all
shifted in time and sequence space.  "Supercharging Packet-level Network
Simulation of Large Model Training" (PAPERS.md) shows such workloads let
a simulator recognize a repeated window signature, cache the window's
effect, and skip re-execution entirely.  This module implements that for
the DOD engine:

* :class:`WindowMemoCache` computes, per window, a full **execution
  signature**: the pending-event columns of the window plus the mutable
  slice of state the window will read — the union egress ports' queues,
  line/credit state and AQM averages, the receivers' reassembly state,
  and the UDP senders' pacing cursors.  Everything time- or
  sequence-like is **rebased** (times against the window start, sequence
  numbers against each flow's pacing cursor), so two windows that are
  translations of each other in (time x sequence) space hash equal.
* On a **miss** the window executes normally through
  ``DodEngine.process_window`` while a trace tap and a state diff
  capture a :class:`WindowDelta`: port/sender/receiver scatter-writes,
  staged future events, stats/counter increments, and the trace ops —
  the window's write-set as data.
* On a **hit** the delta is applied in O(changed-state) and the engine
  fast-forwards past the window without running any system.  Every Nth
  hit is **validated** by re-executing the window and comparing the
  fresh delta against the cached one; a mismatch evicts the entry
  (``memo.validate_fail``) and keeps the executed result.
* When a hit key recurs, the *whole* rebased pending state is encoded;
  if it is equal one period later the engine state is periodic under
  the translation, and :meth:`WindowMemoCache._jump` skips whole cycles
  up to the next validation point by translating that state once
  (docs/MEMOIZATION.md, "Cycle jumps").

Soundness rests on a closed-world argument: the signature is only
attempted when every input the window can read is in the encoded set.
The gates (see :meth:`WindowMemoCache.eligible` and
``DodEngine._maybe_init_memo``) restrict fast-forwarding to windows
whose work is pure UDP steady-state — no DCTCP/RENO senders touched, no
RED (hashes raw sequence numbers), no packet spraying (ditto), no
cross-agent deliveries (cluster agents disable the cache entirely), no
op probes, no duration cut inside the window.  Within those gates every
engine transition commutes with the (time, sequence) translation, which
is what makes replaying a rebased delta byte-identical to re-execution —
the property the ``dons-numpy-ffwd`` conformance oracle and the
memo-on/off digest tests enforce.

There is no simulation-time RNG to capture: ECMP hashing is a pure
function of static identifiers and traffic generation happens before
``build()`` (see docs/MEMOIZATION.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .systems.send import WIRE8PS, flow_lists, udp_window
from .telemetry import MEMO_APPLY_MS_BUCKETS
from .window import ENTRY_ARRIVAL, ENTRY_UDP
from ..protocols.packet import (
    F_DST, F_FLOW, F_ISACK, F_SEND_TS, F_SEQ, Row, segment_count,
)
from ..metrics.trace import TraceRecorder

__all__ = ["WindowMemoCache", "WindowDelta", "capture_filter"]

#: Re-execute and compare every Nth hit (replay-based validation).
#: Each validation costs one full window execution, so N is a direct
#: term in the fast-forward speedup bound (1/N of the plain cost); 32
#: keeps the standing overhead ~3% while still re-checking every cached
#: delta many times over a steady run.
VALIDATE_EVERY = 32

#: FIFO capacity bound of the per-engine cache.
MAX_ENTRIES = 4096

#: Zero stats increment (shared tuple, compared against on apply).
_NO_STATS = (0, 0, 0, 0, 0)


def _identity_filter(delta: "WindowDelta") -> "WindowDelta":
    return delta


#: Injectable capture hook.  Resolved at call time by
#: :meth:`WindowMemoCache.run_window` just before a freshly captured
#: delta is stored, so the conformance harness can plant a
#: stale-cache-delta bug (:func:`repro.conformance.inject.stale_cache_delta`)
#: and prove the differential fuzz loop catches exactly this class of
#: corruption.
capture_filter: Callable[["WindowDelta"], "WindowDelta"] = _identity_filter


# The unpack encoders below are hot-path; they hard-code the canonical
# 9-field row layout, so pin it (packet.py defines the truth).
assert (F_FLOW, F_ISACK, F_SEQ, F_SEND_TS) == (0, 1, 2, 6)


def _enc_row(row: Row, base: int, start: int) -> Tuple:
    """Rebase one packet row into the window's (time, seq) frame."""
    f, ack, seq, size, ce, ece, ts, src, dst = row
    return (f, ack, seq - base, size, ce, ece, ts - start, src, dst)


def _dec_row(enc: Tuple, base_of: Dict[int, int], start: int) -> Row:
    """Inverse of :func:`_enc_row` in the applying window's frame."""
    f, ack, seq, size, ce, ece, ts, src, dst = enc
    return (f, ack, seq + base_of[f], size, ce, ece, ts + start, src, dst)


@dataclass(frozen=True)
class WindowDelta:
    """One window's write-set as data (everything execution changed).

    All members are plain nested tuples rebased into the window frame,
    so two captures of behaviourally identical windows compare equal —
    that equality is what replay-based validation checks.
    """

    #: (iface_id, post_port_encoding, stats_increment_5tuple) per
    #: union port; the post encoding has the probe encoding's shape and
    #: is applied piecewise against the hit probe's pre encodings.
    ports: Tuple
    #: (flow_id, cursor_advance) — UDP pacing cursors moved.
    senders: Tuple
    #: (flow_id, expected_rel, unique_rel, ooo_rel, complete_rel|-1).
    receivers: Tuple
    #: (flow_id, completion_time_rel) — flows finished in this window.
    completions: Tuple
    #: (window_offset, node, entry_encoding) appended to future windows.
    staged: Tuple
    #: Rebased trace ops (enq/deq/drop/deliver/flow_done bus calls).
    tape: Tuple
    #: (ack, send, forward, transmit) event counts of the window.
    counts: Tuple
    #: (node, increment) results.node_events deltas.
    node_incr: Tuple
    #: results.drops increment.
    drops_incr: int


class _Probe:
    """One eligibility probe: the signature key plus the pre-state the
    capture diff and the hit apply both need."""

    __slots__ = ("win", "start", "end", "key", "union_ports", "port_encs",
                 "port_stats_pre", "base_of", "entry_flows", "recv_flows",
                 "recv_pre")

    def __init__(self, win: int, start: int, end: int) -> None:
        self.win = win
        self.start = start
        self.end = end
        self.key: Tuple = ()
        self.union_ports: Tuple[int, ...] = ()
        self.port_encs: Dict[int, Tuple] = {}
        self.port_stats_pre: Dict[int, Tuple] = {}
        self.base_of: Dict[int, int] = {}
        self.entry_flows: Tuple[int, ...] = ()
        self.recv_flows: Tuple[int, ...] = ()
        self.recv_pre: Dict[int, Tuple] = {}


class _Entry:
    """One cached window: its delta and the hit number at which its key
    last hit (0 = never) — the recurrence cycle detection starts from."""

    __slots__ = ("delta", "seen")

    def __init__(self, delta: WindowDelta) -> None:
        self.delta = delta
        self.seen = 0


def _tap_op(kind: str):
    def record(self, *op) -> None:
        if self.active:
            self.ops.append((kind,) + op)
    return record


class _TraceTap:
    """Trace-stream subscriber that records raw bus ops during capture.

    ``level`` stays 0 so subscribing never raises the bus's trace level
    (the tap observes only what the run would have published anyway),
    and there is deliberately no ``entries`` attribute so
    ``InstrumentationBus.trace_entries`` skips it.
    """

    level = 0

    __slots__ = ("active", "ops")

    def __init__(self) -> None:
        self.active = False
        self.ops: List[Tuple] = []

    enq, drop, deq = _tap_op("enq"), _tap_op("drop"), _tap_op("deq")
    deliver, flow_done = _tap_op("del"), _tap_op("fd")


class WindowMemoCache:
    """Per-engine signature -> delta cache with fast-forward apply.

    Constructed by ``DodEngine._maybe_init_memo`` only when the static
    gates hold (local deliveries, no RED / packet
    spray / queue sampling, at least one UDP flow).  Never persisted:
    checkpoints invalidate it on restore (``core.checkpoint``), and
    cluster agents never build one (``deliveries_local`` is cleared on
    ``AgentEngine`` — a window with cross-agent traffic pending must
    run for real so its outbox fills).
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.cache: Dict[Tuple, _Entry] = {}
        self.hits = 0
        #: Cycle detection: ``(window, entry)`` of the latest hits since
        #: a miss / ineligible window (a longer period never fits before
        #: a validation); the hypothesis ``(window, hit number,
        #: full-state key, flow cursors, hit number to compare at)``;
        #: and the hit number before which none is formed (a refuted one
        #: waits for the next validation point).
        self._trail: deque = deque(maxlen=VALIDATE_EVERY - 1)
        self._hyp: Optional[Tuple] = None
        self._hold = 0
        self._tap = _TraceTap()
        engine.bus.subscribe_trace(self._tap)
        scenario = engine.scenario
        from ..traffic import Transport
        udp_ids = getattr(scenario.flows, "udp_flow_ids", None)
        if udp_ids is not None:
            # Columnar traffic: read the transport column directly.
            self._udp_flows = frozenset(udp_ids())
        else:
            self._udp_flows = frozenset(
                f.flow_id for f in scenario.flows
                if f.transport == Transport.UDP)
        self._routes: Dict[Tuple[int, int, int], int] = {}
        #: Per port, the shared rows tuple of a drained port — lets
        #: :meth:`_enc_port` skip the per-class row walk entirely (the
        #: common steady case).
        self._empty_rows = [((),) * st.classes
                            for st in engine.port_static]

    # --- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached delta (checkpoint restore / migration)."""
        self.cache.clear()
        self._forget_cycle()

    def _forget_cycle(self) -> None:
        self._trail.clear()
        self._hyp = None

    # --- main entry -------------------------------------------------------

    def run_window(self, win: int) -> bool:
        """Try to fast-forward window ``win``.

        Returns ``True`` when the window was fully handled here — by a
        delta apply, a capturing / validating execution, or a cycle jump
        that carried the engine past it — and ``False`` when the window
        is ineligible and the engine must run ``process_window`` itself.
        """
        probe = self._probe(win)
        bus = self.engine.bus
        if isinstance(probe, str):
            bus.count("memo.ineligible")
            bus.count("memo.ineligible." + probe)
            self._forget_cycle()
            return False
        entry = self.cache.get(probe.key)
        if entry is None:
            bus.count("memo.miss")
            self._forget_cycle()
            delta = self._execute_capture(win, probe)
            if isinstance(delta, str):
                bus.count("memo.uncacheable")
                bus.count("memo.uncacheable." + delta)
            else:
                if len(self.cache) >= MAX_ENTRIES:
                    self.cache.pop(next(iter(self.cache)))
                self.cache[probe.key] = _Entry(capture_filter(delta))
            return True
        self.hits += 1
        if self._cycle_step(win, entry):
            return True
        if self.hits % VALIDATE_EVERY == 0:
            # Replay-based validation: execute for real and compare the
            # fresh write-set against the cached one.
            bus.count("memo.validate")
            if self._execute_capture(win, probe) != entry.delta:
                del self.cache[probe.key]
                bus.count("memo.validate_fail")
                self._forget_cycle()
                return True
        else:
            self._apply(win, probe, entry)
        bus.count("memo.hit")
        entry.seen = self.hits
        self._trail.append((win, entry))
        return True

    # --- cycles -----------------------------------------------------------

    def _cycle_step(self, win: int, entry: _Entry) -> bool:
        """Cycle detection on a hit; ``True`` when a jump handled it.

        A key that hit ``period`` hits ago proposes a cycle: the
        full-state signature (:meth:`_probe` with the cycle) is taken
        now and again ``period`` hits later, and equality makes the
        engine state periodic under the translation — whatever proposed
        it, because that signature is closed under execution.
        """
        hyp = self._hyp
        hits = self.hits
        if hyp is None:
            period = hits - entry.seen
            if period > len(self._trail) or hits < self._hold:
                return False
            state = self._probe(win, list(self._trail)[-period:])
            if isinstance(state, str):
                self._refuse("state_differs")
            else:
                self._hyp = (win, hits, state.key, state.base_of,
                             hits + period)
            return False
        win0, hits0, key0, bases0, at_hits = hyp
        if hits < at_hits:
            return False
        cycle = list(self._trail)[hits0 - hits:]
        state = self._probe(win, cycle)
        if isinstance(state, str) or state.key != key0:
            self._refuse("state_differs")
            return False
        return self._jump(state, cycle, win - win0, bases0)

    def _refuse(self, reason: str) -> None:
        self.engine.bus.count("memo.jump_refused." + reason)
        if reason == "state_differs":  # propose again after a validation
            self._hyp = None
            self._hold = (self.hits // VALIDATE_EVERY + 1) * VALIDATE_EVERY

    def _jump(self, state: _Probe, cycle, p_idx: int,
              bases0: Dict[int, int]) -> bool:
        """Skip ``m`` whole cycles from ``state``'s window on.

        The state before this window is the state one cycle ago moved
        ``p_idx`` windows in time and, per flow, ``adv`` segments in
        sequence, so the state ``m`` cycles on is this one moved ``m``
        times: entries, queued rows and busy lines in time and sequence,
        cursors in sequence, accumulators by ``m`` x the cycle's sum.
        ``m`` stops short of the next validation hit, of any flow's last
        segment (the encodings saturate remaining-segment counts; the
        receiver never leads the sender, so its bound is covered), of
        the duration cut and of ``max_windows``.
        """
        engine = self.engine
        bus = engine.bus
        L = engine.lookahead
        win, bases = state.win, state.base_of
        p_run = len(cycle)
        hits = self.hits
        adv = {f: b - bases0[f] for f, b in bases.items()}
        fl = flow_lists(engine)
        bounds = [(-hits % VALIDATE_EVERY // p_run, "validation_due")]
        for f, a in adv.items():
            if not a:
                continue
            if a * WIRE8PS != p_idx * L * fl.nic_rate[f]:
                # a segments do not take exactly the cycle (a rate whose
                # wire time is not whole picoseconds): pacing won't move
                bounds.append((0, "state_differs"))
            bounds.append(((segment_count(fl.size[f]) - bases[f] - 1) // a,
                           "flow_tail"))
        duration = engine.scenario.duration_ps
        if duration is not None:
            bounds.append((((duration + 1) // L - win) // p_idx,
                           "duration_cut"))
        if engine.max_windows is not None:
            bounds.append(((engine.max_windows - engine._windows_run)
                           // p_run, "max_windows"))
        m, reason = min(bounds)
        if m < 1:
            self._refuse(reason)
            if reason != "state_differs":  # still periodic: look again
                self._hyp = (win, hits, state.key, bases, hits + p_run)
            return False

        t0 = bus.now()
        shift, n = m * p_idx, m * p_run
        dt = shift * L
        jump_of = {f: m * a for f, a in adv.items()}

        def move(e):
            if e[0] != ENTRY_ARRIVAL:
                return e
            return (e[0], e[1] + dt, e[2], _dec_row(e[3], jump_of, dt))
        engine.events.translate(shift, move)
        engine.events.touch(win + shift)  # the index had given it out
        world = engine.world
        cols = world.egress_cols
        for iface_id, _act, free_enc, *_rest in state.key[1]:
            if free_enc[0]:
                cols.free_at[iface_id] += dt
            if cols.qlen[iface_id]:
                heads = cols.heads[iface_id]
                cols.queues[iface_id] = [
                    [_dec_row(r, jump_of, dt) for r in q[h:]]
                    for q, h in zip(cols.queues[iface_id], heads)]
                heads[:] = [0] * len(heads)
        next_col = world.senders.column("udp_next_seq")
        rcols = world.receivers.columns(
            ("expected", "unique_received", "out_of_order"))
        for f, k in jump_of.items():
            if k:
                next_col[world.sender_of_flow[f]] += k
                ridx = world.receiver_of_flow[f]
                rcols["expected"][ridx] += k
                rcols["unique_received"][ridx] += k
                ooo = rcols["out_of_order"][ridx]
                if ooo:
                    rcols["out_of_order"][ridx] = {x + k for x in ooo}

        # m x the cycle's sums; the per-window rows; and, when someone
        # listens, the trace ops once per skipped window.
        res = engine.results
        listening = self._listening()
        cur = dict(bases0)
        rows: List[Tuple] = []
        for w, entry in cycle:
            delta = entry.delta
            self._account(delta, m)
            for c in range(1, m + 1):
                at = (w + c * p_idx) * L
                if any(delta.counts):
                    rows.append((at,) + delta.counts)
                if listening:
                    self._replay(delta.tape, at,
                                 {f: b + c * adv[f] for f, b in cur.items()})
            for fid, rel in delta.senders:
                cur[fid] += rel
        res.window_breakdown.extend(sorted(rows))
        last = cycle[-1][0] + shift
        res.end_time_ps = (last + 1) * L

        engine._cursor = engine._running_window = last
        engine._windows_run += n - 1
        self.hits = hits + n - 1
        bus.count("windows", n)
        bus.count("memo.hit", n)
        bus.count("memo.jump")
        bus.count("memo.jump_windows", n)
        # The landing state has the same signature: compare again one
        # cycle after it without re-encoding this end.
        self._trail.clear()
        self._hyp = (win + shift, hits + n, state.key,
                     {f: b + jump_of[f] for f, b in bases.items()},
                     hits + n + p_run)
        if bus.telemetry:
            self._telemetry(t0, win, dt, n)
        return True

    # --- probe ------------------------------------------------------------

    def _probe(self, win: int, cycle=None):
        """Compute the window's execution signature, or the reason (a
        ``memo.ineligible.<reason>`` name) why some input falls outside
        the encodable closed world.  Membership checks bail out while
        encoding (mixed workloads mostly reject on the first non-UDP
        entry, long before any port is touched); pacing cursors come
        through one bulk column handle (list / ndarray view) per probe.

        With ``cycle`` (the ``(window, entry)`` hits of one proposed
        period) the same encoders cover the *whole* pending state: every
        pending bucket under its window offset, the occupancy index, the
        ports the cycle touched next to the active set, the receiver
        state of every flow met on the way.  That key is closed under
        execution — what any later window reads is in it.
        """
        engine = self.engine
        L = engine.lookahead
        start = win * L
        end = start + L
        duration = engine.scenario.duration_ps
        if duration is not None and end > duration + 1:
            return "duration_cut"  # the cut truncates this window
        if engine.bus.has_ops:
            return "ops_subscribed"
        buckets = engine.events._buckets

        udp_flows = self._udp_flows
        probe = _Probe(win, start, end)
        sender_of_flow = engine.world.sender_of_flow
        next_seq_col = engine.world.senders.column("udp_next_seq")
        base_of = probe.base_of
        is_host = engine.is_host
        active = engine.active_ports
        union = set(active)
        entries_enc: List[Tuple] = []
        entry_flows = set()
        recv_counts: Dict[int, int] = {}
        fl = flow_lists(engine)
        routes = self._routes
        for w in (win,) if cycle is None else sorted({win, *buckets}):
            bucket = buckets.get(w)
            if cycle is not None:
                entries_enc.append(w - win)
            if bucket is None:
                continue
            wstart = w * L
            for node, e in zip(bucket.nodes, bucket.payloads):
                tag = e[0]
                if tag == ENTRY_UDP:
                    fid = e[1]
                    if fid not in udp_flows:
                        return "non_udp_entry"
                    entry_flows.add(fid)
                    b = base_of.get(fid)
                    if b is None:
                        b = base_of[fid] = int(
                            next_seq_col[sender_of_flow[fid]])
                    # What the flow emits in this window from cursor
                    # b — times against the window start, payload sizes
                    # (only the last segment's differs, which is what
                    # saturates the remaining-segment count) — and the
                    # wakeup past it (-1: schedule exhausted).
                    ems, _next, wakeup = udp_window(fl, fid, b, wstart + L)
                    entries_enc.append(
                        ("u", node, fid,
                         tuple((t - wstart, p) for t, _s, p in ems),
                         -1 if wakeup is None else wakeup - wstart))
                    if ems:
                        union.add(fl.nic[fid])
                elif tag == ENTRY_ARRIVAL:
                    row = e[3]
                    f, ack, seq, size, ce, ece, ts, src, dst = row
                    if ack:
                        return "ack_row"
                    if f not in udp_flows:
                        return "non_udp_entry"
                    b = base_of.get(f)
                    if b is None:
                        b = base_of[f] = int(
                            next_seq_col[sender_of_flow[f]])
                    entries_enc.append(
                        ("a", node, e[1] - start, e[2],
                         (f, ack, seq - b, size, ce, ece, ts - start,
                          src, dst)))
                    if is_host[node]:
                        recv_counts[f] = recv_counts.get(f, 0) + 1
                    else:
                        iface = routes.get((node, dst, f))
                        if iface is None:
                            iface = self._route(node, row)
                        union.add(iface)
                else:
                    return "cca_entry"  # FLOW_START / TIMER: a CCA flow

        if cycle is not None:
            for _w, entry in cycle:
                union.update(p[0] for p in entry.delta.ports)
        union_sorted = tuple(sorted(union))
        probe.union_ports = union_sorted
        ports_enc: List[Tuple] = []
        port_encs = probe.port_encs
        def resolve(f: int) -> int:
            return int(next_seq_col[sender_of_flow[f]])
        cols = engine.world.egress_cols
        for iface_id in union_sorted:
            enc = self._enc_port(cols, iface_id, iface_id in active,
                                 base_of, resolve, start)
            if enc is None:
                return "foreign_queued_row"
            ports_enc.append(enc)
            port_encs[iface_id] = enc

        probe.entry_flows = tuple(sorted(entry_flows))
        recv_flows = tuple(sorted(recv_counts if cycle is None else base_of))
        probe.recv_flows = recv_flows
        receivers = engine.world.receivers
        receiver_of_flow = engine.world.receiver_of_flow
        flows_enc: List[Tuple] = []
        if recv_flows:
            rcols = receivers.columns(
                ("expected", "unique_received", "complete_ps",
                 "out_of_order"))
            exp_col, uni_col = rcols["expected"], rcols["unique_received"]
            comp_col, ooo_col = rcols["complete_ps"], rcols["out_of_order"]
        for fid in recv_flows:
            ridx = receiver_of_flow[fid]
            b = base_of[fid]
            expected = int(exp_col[ridx])
            unique = int(uni_col[ridx])
            total = segment_count(fl.size[fid])  # receiver total_segs
            complete = int(comp_col[ridx])
            ooo = ooo_col[ridx]
            n_arr = recv_counts.get(fid, 0)
            remaining = total - unique
            # Saturate far-from-complete states: completion can fire
            # only when remaining <= new uniques <= the arrivals encoded
            # here, so any remainder beyond that budget is behaviourally
            # equivalent.
            sat = remaining if remaining <= n_arr else n_arr + 1
            flows_enc.append(
                (fid, expected - b, unique - b, sat,
                 0 if complete < 0 else 1,
                 tuple(sorted(x - b for x in ooo))))
            probe.recv_pre[fid] = flows_enc[-1]

        probe.key = (tuple(entries_enc), tuple(ports_enc), tuple(flows_enc))
        if cycle is not None:
            probe.key += (tuple(sorted(
                w - win for w in engine.events._queued)),)
        return probe

    def _enc_port(self, cols, iface_id: int, active_flag: bool,
                  base_of: Dict[int, int],
                  resolve: Optional[Callable[[int], int]],
                  start: int) -> Optional[Tuple]:
        """Canonical rebased encoding of one egress row's mutable state.

        Returns ``None`` when a queued row falls outside the UDP closed
        world, or — in strict mode (``resolve=None``, used by the
        capture diff) — when a row's flow escaped the probe's base map.
        ``free_at`` collapses to ``(0,)`` whenever the line freed at or
        before the window start — the replay clamps service starts to
        the window cursor, so any such value is behaviourally identical.
        ``max_queue_bytes`` is in the key so the delta's post value is
        an exact absolute write.  Deliberately *excluded*: ``avg_bytes``
        (the RED EWMA converges asymptotically, so it never repeats —
        and RED is one of the memo's static disable gates, making the
        column write-only whenever the cache is live).  The discipline
        extras are the ``rr_*`` / ``drr_*`` fields, on ports that pick
        by them.
        """
        if cols.qlen[iface_id] == 0:
            rows_tuple = self._empty_rows[iface_id]
        else:
            udp_flows = self._udp_flows
            heads = cols.heads[iface_id]
            rows_enc = []
            for cls, q in enumerate(cols.queues[iface_id]):
                cls_rows = []
                for r in q[heads[cls]:]:
                    f, ack, seq, size, ce, ece, ts, src, dst = r
                    if ack or f not in udp_flows:
                        return None
                    b = base_of.get(f)
                    if b is None:
                        if resolve is None:
                            return None  # flow escaped the base map
                        b = base_of[f] = resolve(f)
                    cls_rows.append((f, ack, seq - b, size, ce, ece,
                                     ts - start, src, dst))
                rows_enc.append(tuple(cls_rows))
            rows_tuple = tuple(rows_enc)
        extras: Tuple = ()
        if self.engine.port_static[iface_id].kind:
            extras = (cols.rr_next[iface_id],
                      tuple(cols.drr_deficit[iface_id]),
                      cols.drr_current[iface_id], cols.drr_granted[iface_id])
        free_at = cols.free_at[iface_id]
        free_enc = (1, free_at - start) if free_at > start else (0,)
        return (iface_id, 1 if active_flag else 0, free_enc,
                cols.queued_bytes[iface_id], cols.max_queue_bytes[iface_id],
                extras, rows_tuple)

    def _route(self, node: int, row: Row) -> int:
        """Predict the ForwardSystem's egress choice (flow-mode ECMP is
        a pure function of static identifiers — the packet-spray gate
        keeps sequence-salted hashing out)."""
        key = (node, row[F_DST], row[F_FLOW])
        iface = self._routes.get(key)
        if iface is None:
            scenario = self.engine.scenario
            port = scenario.fib.resolve_port(
                node, row[F_DST], row[F_FLOW], None)
            iface = self._routes[key] = scenario.topology.iface_id(
                node, port)
        return iface

    # --- capture ----------------------------------------------------------

    def _execute_capture(self, win: int, probe: _Probe):
        """Run the window for real and diff its write-set."""
        engine = self.engine
        events = engine.events
        res = engine.results
        pre_sizes = events.bucket_sizes()
        pre_sizes.pop(win, None)
        pre_node_events = dict(res.node_events)
        pre_drops = res.drops
        pre_rtt = len(res.rtt_samples)
        # The stats baseline is only needed by the capture diff, so it
        # is taken here rather than on every (mostly hitting) probe.
        cols = engine.world.egress_cols
        stats_pre = probe.port_stats_pre
        for i in probe.union_ports:
            stats_pre[i] = (cols.enqueued[i], cols.dequeued[i],
                            cols.dropped[i], cols.marked[i], cols.tx_bytes[i])
        tap = self._tap
        tap.ops = []
        tap.active = True
        try:
            ctx = engine.process_window(win)
        finally:
            tap.active = False
        ops = tap.ops
        tap.ops = []
        return self._diff(probe, ctx, pre_sizes, pre_node_events,
                          pre_drops, pre_rtt, ops)

    def _diff(self, probe: _Probe, ctx, pre_sizes, pre_node_events,
              pre_drops: int, pre_rtt: int, ops):
        """The write-set, or a ``memo.uncacheable.<reason>`` name."""
        engine = self.engine
        res = engine.results
        if len(res.rtt_samples) != pre_rtt:
            return "rtt_sample"
        union = set(probe.union_ports)
        if not set(ctx.staged) <= union:
            return "unpredicted_port"  # the prediction missed a target
        base_of = probe.base_of
        start = probe.start

        events = engine.events
        post_sizes = events.bucket_sizes()
        if probe.win in post_sizes:
            return "window_refilled"
        staged_enc: List[Tuple] = []
        for w in sorted(post_sizes):
            n = post_sizes[w]
            pre_n = pre_sizes.get(w, 0)
            if n < pre_n:
                return "bucket_shrank"
            if n == pre_n:
                continue
            got = events.window_slice(w, pre_n)
            if got is None:
                return "bucket_shrank"
            off = w - probe.win
            for node, e in zip(*got):
                tag = e[0]
                if tag == ENTRY_UDP:
                    if e[1] not in base_of:
                        return "foreign_staged_entry"
                    staged_enc.append((off, node, ("u", e[1])))
                elif tag == ENTRY_ARRIVAL:
                    row = e[3]
                    b = base_of.get(row[F_FLOW])
                    if b is None:
                        return "foreign_staged_entry"
                    staged_enc.append(
                        (off, node,
                         ("a", e[1] - start, e[2], _enc_row(row, b, start))))
                else:
                    return "foreign_staged_entry"
        for w, n in pre_sizes.items():
            if post_sizes.get(w, 0) < n:
                return "bucket_shrank"  # a pre-existing bucket vanished

        cols = engine.world.egress_cols
        active = engine.active_ports
        port_items: List[Tuple] = []
        for i in probe.union_ports:
            # Strict mode: a queued row whose flow escaped the probe's
            # base map cannot be rebased consistently -> uncacheable.
            post_enc = self._enc_port(cols, i, i in active, base_of, None,
                                      start)
            if post_enc is None:
                return "foreign_queued_row"
            p = probe.port_stats_pre[i]
            port_items.append((i, post_enc,
                               (cols.enqueued[i] - p[0],
                                cols.dequeued[i] - p[1],
                                cols.dropped[i] - p[2],
                                cols.marked[i] - p[3],
                                cols.tx_bytes[i] - p[4])))

        senders = engine.world.senders
        sender_of_flow = engine.world.sender_of_flow
        sender_items: List[Tuple] = []
        for fid in probe.entry_flows:
            rel = senders.get(sender_of_flow[fid],
                              "udp_next_seq") - base_of[fid]
            if rel:
                sender_items.append((fid, rel))

        receivers = engine.world.receivers
        receiver_of_flow = engine.world.receiver_of_flow
        recv_items: List[Tuple] = []
        completions: List[Tuple] = []
        for fid in probe.recv_flows:
            ridx = receiver_of_flow[fid]
            b = base_of[fid]
            expected = receivers.get(ridx, "expected") - b
            unique = receivers.get(ridx, "unique_received") - b
            ooo = tuple(sorted(
                x - b for x in receivers.get(ridx, "out_of_order")))
            complete = receivers.get(ridx, "complete_ps")
            pre = probe.recv_pre[fid]
            comp_rel = -1
            if pre[4] == 0 and complete >= 0:
                comp_rel = complete - start
                completions.append((fid, comp_rel))
            recv_items.append((fid, expected, unique, ooo, comp_rel))

        tape: List[Tuple] = []
        for op in ops:
            kind = op[0]
            if kind == "fd":
                flow = op[3]
                if flow not in base_of:
                    return "foreign_trace_op"
                tape.append(("fd", op[1] - start, op[2], flow))
            else:
                flow = op[3]
                b = base_of.get(flow)
                if b is None:
                    return "foreign_trace_op"
                rebased = (kind, op[1] - start, op[2], flow, op[4],
                           op[5] - b)
                if kind == "enq":
                    rebased += (op[6],)
                tape.append(rebased)

        counts = (ctx.counts.ack, ctx.counts.send,
                  ctx.counts.forward, ctx.counts.transmit)
        node_incr = tuple(sorted(
            (n, c - pre_node_events.get(n, 0))
            for n, c in res.node_events.items()
            if c != pre_node_events.get(n, 0)))
        return WindowDelta(
            ports=tuple(port_items),
            senders=tuple(sender_items),
            receivers=tuple(recv_items),
            completions=tuple(completions),
            staged=tuple(staged_enc),
            tape=tuple(tape),
            counts=counts,
            node_incr=node_incr,
            drops_incr=res.drops - pre_drops,
        )

    # --- apply ------------------------------------------------------------

    def _apply(self, win: int, probe: _Probe, entry: _Entry) -> None:
        """Fast-forward: scatter the delta into the engine state."""
        delta = entry.delta
        engine = self.engine
        bus = engine.bus
        telemetry = bus.telemetry
        if telemetry:
            t0 = bus.now()
        start = probe.start
        base_of = probe.base_of
        bus.count("windows")
        engine._running_window = win
        engine.events.discard_window(win)

        cols = engine.world.egress_cols
        active = engine.active_ports
        for iface_id, post_enc, _stats_incr in delta.ports:
            pre_enc = probe.port_encs[iface_id]
            if post_enc != pre_enc:
                _, act, free_enc, queued, maxq, extras, rows = post_enc
                (p_act, p_free, p_queued, p_maxq, p_extras,
                 p_rows) = pre_enc[1:]
                if free_enc != p_free:
                    cols.free_at[iface_id] = start + free_enc[1]
                if queued != p_queued:
                    cols.queued_bytes[iface_id] = queued
                if maxq != p_maxq:
                    cols.max_queue_bytes[iface_id] = maxq
                if rows != p_rows:
                    queues = cols.queues[iface_id] = [
                        [_dec_row(r, base_of, start) for r in cls_rows]
                        for cls_rows in rows]
                    cols.heads[iface_id][:] = [0] * len(queues)
                    cols.qlen[iface_id] = sum(map(len, queues))
                if extras != p_extras:
                    (cols.rr_next[iface_id], cols.drr_deficit[iface_id][:],
                     cols.drr_current[iface_id],
                     cols.drr_granted[iface_id]) = extras
                if act != p_act:
                    if act:
                        active.add(iface_id)
                    else:
                        active.discard(iface_id)

        # Scatter the entity writes through column handles fetched once
        # per apply (``set`` would re-resolve the column every call).
        sender_of_flow = engine.world.sender_of_flow
        if delta.senders:
            next_col = engine.world.senders.column("udp_next_seq")
            for fid, rel in delta.senders:
                next_col[sender_of_flow[fid]] = base_of[fid] + rel

        receivers = engine.world.receivers
        receiver_of_flow = engine.world.receiver_of_flow
        if delta.receivers:
            rcols = receivers.columns(
                ("expected", "unique_received", "out_of_order",
                 "complete_ps"))
            exp_col, uni_col = rcols["expected"], rcols["unique_received"]
            ooo_col, comp_col = rcols["out_of_order"], rcols["complete_ps"]
            for fid, expected, unique, ooo, comp_rel in delta.receivers:
                pre = probe.recv_pre[fid]
                ridx = receiver_of_flow[fid]
                b = base_of[fid]
                if expected != pre[1]:
                    exp_col[ridx] = b + expected
                if unique != pre[2]:
                    uni_col[ridx] = b + unique
                if ooo != pre[5]:
                    ooo_col[ridx] = {b + x for x in ooo}
                if comp_rel >= 0:
                    comp_col[ridx] = start + comp_rel

        # Staged future events, through ``insert`` so the injectable
        # stale-index bug (the occupancy hook) reaches this path too.
        insert = engine.events.insert
        for off, node, enc in delta.staged:
            insert(win + off, node,
                   (ENTRY_UDP, enc[1]) if enc[0] == "u" else
                   (ENTRY_ARRIVAL, start + enc[1], enc[2],
                    _dec_row(enc[3], base_of, start)))

        if self._listening():
            self._replay(delta.tape, start, base_of)

        res = engine.results
        for fid, rel in delta.completions:
            res.flows[fid].complete_ps = start + rel
        self._account(delta, 1)
        if any(delta.counts):
            res.window_breakdown.append((start,) + delta.counts)
        res.end_time_ps = probe.end

        if telemetry:
            self._telemetry(t0, win, probe.end - start, 1)

    def _telemetry(self, t0: float, win: int, span_ps: int, n: int) -> None:
        """One apply or one jump over ``n`` windows: sample the ports
        over the span, record the cost per window, close one span."""
        engine = self.engine
        bus = engine.bus
        engine._sample_window_metrics(span_ps)
        t1 = bus.now()
        bus.metrics.histogram("memo.apply_ms", MEMO_APPLY_MS_BUCKETS) \
            .record((t1 - t0) * 1e3 / n, n)
        attrs = {"index": win, "start_ps": win * engine.lookahead,
                 "memo": True}
        if n > 1:
            attrs["windows"] = n
        bus.span_add("window", t0, t1, "window", attrs)

    def _account(self, delta: WindowDelta, k: int) -> None:
        """Add ``k`` x one window's increments to the accumulators
        (port stats, event counts, per-node events, drops)."""
        cols = self.engine.world.egress_cols
        for i, _post, incr in delta.ports:
            if incr != _NO_STATS:
                cols.enqueued[i] += k * incr[0]
                cols.dequeued[i] += k * incr[1]
                cols.dropped[i] += k * incr[2]
                cols.marked[i] += k * incr[3]
                cols.tx_bytes[i] += k * incr[4]
        res = self.engine.results
        ev = res.events
        a, s_, f, tr = delta.counts
        ev.ack += k * a
        ev.send += k * s_
        ev.forward += k * f
        ev.transmit += k * tr
        node_events = res.node_events
        for node, d in delta.node_incr:
            node_events[node] = node_events.get(node, 0) + k * d
        res.drops += k * delta.drops_incr

    def _listening(self) -> bool:
        """Whether replaying a tape can be observed: at trace level 0
        every known subscriber shape (TraceRecorder, the memo's own
        inactive tap) drops each op on its level guard; an unknown
        shape forces the replay to stay safe."""
        bus = self.engine.bus
        return bus.trace_level > 0 or any(
            not isinstance(s, (TraceRecorder, _TraceTap))
            for s in bus._trace_subs)

    def _replay(self, tape: Tuple, start: int,
                base_of: Dict[int, int]) -> None:
        """Publish one window's rebased trace ops in the frame of the
        window starting at ``start`` with flow cursors ``base_of``."""
        bus = self.engine.bus
        bus_enq, bus_deq = bus.enq, bus.deq
        bus_deliver, bus_drop = bus.deliver, bus.drop
        for op in tape:
            kind = op[0]
            if kind == "fd":
                bus.flow_done(start + op[1], op[2], op[3])
                continue
            t = start + op[1]
            seq = base_of[op[3]] + op[5]
            if kind == "enq":
                bus_enq(t, op[2], op[3], op[4], seq, op[6])
            elif kind == "deq":
                bus_deq(t, op[2], op[3], op[4], seq)
            elif kind == "del":
                bus_deliver(t, op[2], op[3], op[4], seq)
            else:
                bus_drop(t, op[2], op[3], op[4], seq)
