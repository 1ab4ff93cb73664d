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

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import events as events_mod
from .events import _Bucket
from .window import ENTRY_ARRIVAL, ENTRY_UDP
from ..protocols.packet import (
    F_DST, F_FLOW, F_ISACK, F_SEND_TS, F_SEQ, HEADER_BYTES, MSS, Row,
)
from ..metrics.trace import TraceRecorder
from ..protocols.udp import UdpSchedule
from ..schedulers.disciplines import (
    DeficitRoundRobinScheduler, RoundRobinScheduler,
)
from ..units import PS_PER_S

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

    def enq(self, t, iface, flow, is_ack, seq, marked):
        if self.active:
            self.ops.append(("enq", t, iface, flow, is_ack, seq, marked))

    def drop(self, t, iface, flow, is_ack, seq):
        if self.active:
            self.ops.append(("drop", t, iface, flow, is_ack, seq))

    def deq(self, t, iface, flow, is_ack, seq):
        if self.active:
            self.ops.append(("deq", t, iface, flow, is_ack, seq))

    def deliver(self, t, node, flow, is_ack, seq):
        if self.active:
            self.ops.append(("del", t, node, flow, is_ack, seq))

    def flow_done(self, t, node, flow):
        if self.active:
            self.ops.append(("fd", t, node, flow))


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
        self.cache: Dict[Tuple, WindowDelta] = {}
        self.hits = 0
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
        self._scheds: Dict[int, UdpSchedule] = {}
        self._nics: Dict[int, int] = {}
        self._routes: Dict[Tuple[int, int, int], int] = {}
        self._is_host = tuple(
            n.is_host for n in scenario.topology.nodes)
        #: Static per-flow facts filled by :meth:`_sched_of`: segment
        #: count and (for NIC rates whose per-segment wire time is an
        #: exact picosecond count — every evaluation rate) the pacing
        #: interval; ``None`` marks exotic rates that must compute.
        self._totals: Dict[int, int] = {}
        self._pace: Dict[int, Optional[int]] = {}
        #: Rebased ENTRY_UDP encodings keyed on (flow, phase, rem) —
        #: see :meth:`_udp_entry_enc`; tiny (a handful of phases per
        #: flow) and saves recomputing the emission schedule on the
        #: probe hot path every window.
        self._udp_enc: Dict[Tuple, Tuple] = {}
        #: Static per-port facts: (scheduler kind code, the shared
        #: empty rows tuple) — lets :meth:`_enc_port` skip the per-class
        #: row walk entirely for drained ports (the common steady case).
        self._port_meta: Dict[int, Tuple] = {}
        #: Prepared apply plans, keyed like :attr:`cache` and evicted
        #: with it; see the staged-events loop in :meth:`_apply`.
        self._plans: Dict[Tuple, Tuple] = {}

    # --- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached delta (checkpoint restore / migration)."""
        self.cache.clear()
        self._plans.clear()

    # --- main entry -------------------------------------------------------

    def run_window(self, win: int) -> bool:
        """Try to fast-forward window ``win``.

        Returns ``True`` when the window was fully handled here — by a
        delta apply, or by a capturing / validating execution — and
        ``False`` when the window is ineligible and the engine must run
        ``process_window`` itself.
        """
        probe = self._probe(win)
        bus = self.engine.bus
        if probe is None:
            bus.count("memo.ineligible")
            return False
        cached = self.cache.get(probe.key)
        if cached is None:
            bus.count("memo.miss")
            delta = self._execute_capture(win, probe)
            if delta is not None:
                delta = capture_filter(delta)
                cache = self.cache
                if len(cache) >= MAX_ENTRIES:
                    evicted = next(iter(cache))
                    cache.pop(evicted)
                    self._plans.pop(evicted, None)
                cache[probe.key] = delta
            else:
                bus.count("memo.uncacheable")
            return True
        self.hits += 1
        if self.hits % VALIDATE_EVERY == 0:
            # Replay-based validation: execute for real and compare the
            # fresh write-set against the cached one.
            bus.count("memo.validate")
            fresh = self._execute_capture(win, probe)
            if fresh != cached:
                del self.cache[probe.key]
                self._plans.pop(probe.key, None)
                bus.count("memo.validate_fail")
            else:
                bus.count("memo.hit")
            return True
        self._apply(win, probe, cached)
        bus.count("memo.hit")
        return True

    # --- probe ------------------------------------------------------------

    def _probe(self, win: int) -> Optional[_Probe]:
        """Compute the window's execution signature, or ``None`` when
        any input falls outside the encodable closed world.

        One fused pass: closed-world membership checks bail out inline
        while encoding (mixed workloads mostly reject on the first
        non-UDP entry, long before any port is touched).  Per-flow
        pacing cursors come through one bulk column handle per probe —
        both backends expose ``column`` (list / ndarray view) — and
        anchor the sequence rebase.
        """
        engine = self.engine
        L = engine.lookahead
        start = win * L
        end = start + L
        duration = engine.scenario.duration_ps
        if duration is not None and end > duration + 1:
            return None  # the duration cut truncates this window
        if engine.bus.has_ops:
            return None
        got = engine.events.window_entries(win)
        nodes, payloads = got if got is not None else ((), ())

        udp_flows = self._udp_flows
        probe = _Probe(win, start, end)
        sender_of_flow = engine.world.sender_of_flow
        next_seq_col = engine.world.senders.column("udp_next_seq")
        base_of = probe.base_of
        is_host = self._is_host
        ports = engine.ports
        active = engine.active_ports
        union = set(active)
        entries_enc: List[Tuple] = []
        entry_flows = set()
        recv_counts: Dict[int, int] = {}
        udp_entry_enc = self._udp_entry_enc
        routes = self._routes
        for node, e in zip(nodes, payloads):
            tag = e[0]
            if tag == ENTRY_UDP:
                fid = e[1]
                if fid not in udp_flows:
                    return None
                entry_flows.add(fid)
                b = base_of.get(fid)
                if b is None:
                    b = base_of[fid] = int(
                        next_seq_col[sender_of_flow[fid]])
                ems_rel, wakeup_rel = udp_entry_enc(fid, b, start, end)
                entries_enc.append(("u", node, fid, ems_rel, wakeup_rel))
                if ems_rel:
                    union.add(self._nic_of(fid))
            elif tag == ENTRY_ARRIVAL:
                row = e[3]
                f, ack, seq, size, ce, ece, ts, src, dst = row
                if ack or f not in udp_flows:
                    return None
                b = base_of.get(f)
                if b is None:
                    b = base_of[f] = int(next_seq_col[sender_of_flow[f]])
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
                return None  # FLOW_START / TIMER: a CCA flow is live

        union_sorted = tuple(sorted(union))
        probe.union_ports = union_sorted
        ports_enc: List[Tuple] = []
        port_encs = probe.port_encs
        def resolve(f: int) -> int:
            return int(next_seq_col[sender_of_flow[f]])
        for iface_id in union_sorted:
            enc = self._enc_port(ports[iface_id], iface_id,
                                 iface_id in active, base_of, resolve,
                                 start)
            if enc is None:
                return None  # a queued row fell outside the UDP world
            ports_enc.append(enc)
            port_encs[iface_id] = enc

        probe.entry_flows = tuple(sorted(entry_flows))
        recv_flows = tuple(sorted(recv_counts))
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
            self._sched_of(fid)  # ensure the static facts are cached
            total = self._totals[fid]  # == receiver total_segs (static)
            complete = int(comp_col[ridx])
            ooo = ooo_col[ridx]
            n_arr = recv_counts[fid]
            remaining = total - unique
            # Saturate far-from-complete states: completion can fire in
            # this window only when remaining <= new uniques <= n_arr,
            # so any remainder beyond the window's arrival budget is
            # behaviourally equivalent.
            sat = remaining if remaining <= n_arr else n_arr + 1
            flows_enc.append(
                (fid, expected - b, unique - b, sat,
                 0 if complete < 0 else 1,
                 tuple(sorted(x - b for x in ooo))))
            probe.recv_pre[fid] = flows_enc[-1]

        probe.key = (tuple(entries_enc), tuple(ports_enc), tuple(flows_enc))
        return probe

    def _sched_of(self, fid: int) -> UdpSchedule:
        sched = self._scheds.get(fid)
        if sched is None:
            flow = self.engine.scenario.flows[fid]
            topo = self.engine.scenario.topology
            sched = self._scheds[fid] = UdpSchedule(
                fid, flow.size_bytes, flow.start_ps,
                topo.host_iface(flow.src).rate_bps)
            self._totals[fid] = sched.total_segs
            wire8 = (MSS + HEADER_BYTES) * 8 * PS_PER_S
            rate = sched.nic_rate_bps
            self._pace[fid] = wire8 // rate if wire8 % rate == 0 else None
        return sched

    def _udp_entry_enc(self, fid: int, b: int, start: int,
                       end: int) -> Tuple[Tuple, int]:
        """Rebased ``(emissions, wakeup)`` encoding of one ENTRY_UDP.

        For linear pacing (exact per-segment wire time) the rebased
        schedule is a pure function of the window phase and the capped
        remaining-segment count at fixed L, so it is served from
        ``_udp_enc`` instead of walking the schedule every window.
        """
        sched = self._sched_of(fid)
        per = self._pace[fid]
        total = self._totals[fid]
        if per is None:
            ems, _nxt, wakeup = _udp_emissions(sched, b, end)
            return (tuple((t - start, p) for t, _s, p in ems),
                    -1 if wakeup is None else wakeup - start)
        if b >= total:
            return ((), -1)
        phase = sched.enqueue_time(b) - start
        L = end - start
        n_unb = (L - phase + per - 1) // per if phase < L else 0
        rem = total - b
        # Beyond n_unb + 1 the exact remainder is unobservable: every
        # in-window payload is a full MSS and the wakeup lands at
        # phase + n_unb * per regardless.
        key = (fid, phase, rem if rem <= n_unb else n_unb + 1)
        enc = self._udp_enc.get(key)
        if enc is None:
            ems, _nxt, wakeup = _udp_emissions(sched, b, end)
            enc = self._udp_enc[key] = (
                tuple((t - start, p) for t, _s, p in ems),
                -1 if wakeup is None else wakeup - start)
        return enc

    def _enc_port(self, port, iface_id: int, active_flag: bool,
                  base_of: Dict[int, int],
                  resolve: Optional[Callable[[int], int]],
                  start: int) -> Optional[Tuple]:
        """Canonical rebased encoding of one egress port's mutable state.

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
        column write-only whenever the cache is live) and ``in_service``
        (baseline-only state the windowed path never reads).
        """
        sched = port.sched
        meta = self._port_meta.get(iface_id)
        if meta is None:
            kind = type(sched)
            code = (1 if kind is RoundRobinScheduler
                    else 2 if kind is DeficitRoundRobinScheduler else 0)
            meta = self._port_meta[iface_id] = (
                code, ((),) * len(sched.queues))
        code, empty_rows = meta
        if sched._len == 0:
            rows_tuple = empty_rows
        else:
            udp_flows = self._udp_flows
            heads = sched._heads
            rows_enc = []
            for cls, q in enumerate(sched.queues):
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
        if code == 0:
            extras: Tuple = ()
        elif code == 1:
            extras = (sched._next,)
        else:
            extras = (tuple(sched.deficit), sched._current, sched._granted)
        free_at = port.free_at
        free_enc = (1, free_at - start) if free_at > start else (0,)
        return (iface_id, 1 if active_flag else 0, free_enc,
                port.queued_bytes, port.stats.max_queue_bytes,
                extras, rows_tuple)

    def _nic_of(self, fid: int) -> int:
        nic = self._nics.get(fid)
        if nic is None:
            flow = self.engine.scenario.flows[fid]
            topo = self.engine.scenario.topology
            nic = self._nics[fid] = topo.host_iface(flow.src).iface_id
        return nic

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

    def _execute_capture(self, win: int,
                         probe: _Probe) -> Optional[WindowDelta]:
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
        ports = engine.ports
        stats_pre = probe.port_stats_pre
        for iface_id in probe.union_ports:
            s = ports[iface_id].stats
            stats_pre[iface_id] = (s.enqueued, s.dequeued, s.dropped,
                                   s.marked, s.tx_bytes)
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
              pre_drops: int, pre_rtt: int, ops) -> Optional[WindowDelta]:
        engine = self.engine
        res = engine.results
        if len(res.rtt_samples) != pre_rtt:
            return None
        union = set(probe.union_ports)
        if not set(ctx.staged) <= union:
            return None  # the port prediction missed a staging target
        base_of = probe.base_of
        start = probe.start

        events = engine.events
        post_sizes = events.bucket_sizes()
        if probe.win in post_sizes:
            return None
        staged_enc: List[Tuple] = []
        for w in sorted(post_sizes):
            n = post_sizes[w]
            pre_n = pre_sizes.get(w, 0)
            if n < pre_n:
                return None
            if n == pre_n:
                continue
            got = events.window_slice(w, pre_n)
            if got is None:
                return None
            off = w - probe.win
            for node, e in zip(*got):
                tag = e[0]
                if tag == ENTRY_UDP:
                    if e[1] not in base_of:
                        return None
                    staged_enc.append((off, node, ("u", e[1])))
                elif tag == ENTRY_ARRIVAL:
                    row = e[3]
                    b = base_of.get(row[F_FLOW])
                    if b is None:
                        return None
                    staged_enc.append(
                        (off, node,
                         ("a", e[1] - start, e[2], _enc_row(row, b, start))))
                else:
                    return None
        for w, n in pre_sizes.items():
            if post_sizes.get(w, 0) < n:
                return None  # a pre-existing bucket shrank

        ports = engine.ports
        active = engine.active_ports
        port_items: List[Tuple] = []
        for iface_id in probe.union_ports:
            port = ports[iface_id]
            # Strict mode: a queued row whose flow escaped the probe's
            # base map cannot be rebased consistently -> uncacheable.
            post_enc = self._enc_port(port, iface_id, iface_id in active,
                                      base_of, None, start)
            if post_enc is None:
                return None
            s = port.stats
            p = probe.port_stats_pre[iface_id]
            port_items.append((iface_id, post_enc,
                               (s.enqueued - p[0], s.dequeued - p[1],
                                s.dropped - p[2], s.marked - p[3],
                                s.tx_bytes - p[4])))

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
                    return None
                tape.append(("fd", op[1] - start, op[2], flow))
            else:
                flow = op[3]
                b = base_of.get(flow)
                if b is None:
                    return None
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

    def _apply(self, win: int, probe: _Probe, delta: WindowDelta) -> None:
        """Fast-forward: scatter the delta into the engine state."""
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

        ports = engine.ports
        active = engine.active_ports
        for iface_id, post_enc, stats_incr in delta.ports:
            port = ports[iface_id]
            pre_enc = probe.port_encs[iface_id]
            if post_enc != pre_enc:
                _, act, free_enc, queued, maxq, extras, rows = post_enc
                (p_act, p_free, p_queued, p_maxq, p_extras,
                 p_rows) = pre_enc[1:]
                if free_enc != p_free:
                    port.free_at = start + free_enc[1]
                if queued != p_queued:
                    port.queued_bytes = queued
                if maxq != p_maxq:
                    port.stats.max_queue_bytes = maxq
                sched = port.sched
                if rows != p_rows:
                    queues: List[List[Row]] = []
                    total = 0
                    for cls_rows in rows:
                        lst = [_dec_row(r, base_of, start) for r in cls_rows]
                        total += len(lst)
                        queues.append(lst)
                    sched.queues = queues
                    sched._heads = [0] * len(queues)
                    sched._len = total
                if extras != p_extras:
                    kind = type(sched)
                    if kind is RoundRobinScheduler:
                        sched._next = extras[0]
                    elif kind is DeficitRoundRobinScheduler:
                        sched.deficit = list(extras[0])
                        sched._current = extras[1]
                        sched._granted = extras[2]
                if act != p_act:
                    if act:
                        active.add(iface_id)
                    else:
                        active.discard(iface_id)
            if stats_incr != _NO_STATS:
                s = port.stats
                s.enqueued += stats_incr[0]
                s.dequeued += stats_incr[1]
                s.dropped += stats_incr[2]
                s.marked += stats_incr[3]
                s.tx_bytes += stats_incr[4]

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

        # Staged future events: append straight to the buckets (the
        # per-entry ``insert`` call chain is measurable at packet rate).
        # The occupancy hook is still resolved through the events module
        # so the injectable stale-index bug reaches this path too.
        # Staged future events: append straight to the buckets (the
        # per-entry ``insert`` call chain is measurable at packet rate),
        # driven by a per-cache-entry prepared plan — ENTRY_UDP payloads
        # prebuilt (they are window-invariant), arrival fields flattened,
        # entries grouped by target window with in-bucket order kept.
        # The occupancy hook is still resolved through the events module
        # so the injectable stale-index bug reaches this path too.
        events = engine.events
        buckets = events._buckets
        register = events_mod.register_window
        default_hook = register is events_mod._register_window
        queued = events._queued
        plan = self._plans.get(probe.key)
        if plan is None:
            groups: Dict[int, List] = {}
            for off, node, enc in delta.staged:
                if enc[0] == "u":
                    item = (node, (ENTRY_UDP, enc[1]), None)
                else:
                    item = (node, None, (enc[1], enc[2]) + enc[3])
                groups.setdefault(off, []).append(item)
            plan = self._plans[probe.key] = tuple(
                (off, tuple(items)) for off, items in groups.items())
        for off, items in plan:
            w = win + off
            bucket = buckets.get(w)
            if bucket is None:
                bucket = buckets[w] = _Bucket()
            nodes_app = bucket.nodes.append
            pays_app = bucket.payloads.append
            for node, pay, fl in items:
                nodes_app(node)
                if pay is not None:
                    pays_app(pay)
                else:
                    rt, p, f, ack, sq, sz, ce, ece, ts, s, d = fl
                    pays_app((ENTRY_ARRIVAL, start + rt, p,
                              (f, ack, sq + base_of[f], sz, ce, ece,
                               ts + start, s, d)))
            if not default_hook or w not in queued:
                register(events, w)

        # The tape exists solely to re-publish the window's trace ops.
        # At trace level 0 every known subscriber shape (the engine's
        # TraceRecorder, the memo's own inactive capture tap) drops each
        # op on its level guard, so the whole replay can be skipped;
        # an unknown subscriber shape forces the replay to stay safe.
        if bus.trace_level > 0 or any(
                not isinstance(s, (TraceRecorder, _TraceTap))
                for s in bus._trace_subs):
            tape = delta.tape
        else:
            tape = ()
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

        res = engine.results
        for fid, rel in delta.completions:
            res.flows[fid].complete_ps = start + rel
        a, s_, f, tr = delta.counts
        if a or s_ or f or tr:
            ev = res.events
            ev.ack += a
            ev.send += s_
            ev.forward += f
            ev.transmit += tr
            res.window_breakdown.append((start, a, s_, f, tr))
        res.end_time_ps = probe.end
        for node, d in delta.node_incr:
            res.node_events[node] = res.node_events.get(node, 0) + d
        res.drops += delta.drops_incr

        if telemetry:
            from types import SimpleNamespace
            engine._sample_window_metrics(
                SimpleNamespace(start=start, end=probe.end))
            t1 = bus.now()
            from .telemetry import MEMO_APPLY_MS_BUCKETS
            bus.metrics.record("memo.apply_ms", (t1 - t0) * 1e3,
                               MEMO_APPLY_MS_BUCKETS)
            bus.span_add("window", t0, t1, "window",
                         {"index": win, "start_ps": start, "memo": True})


def _udp_emissions(sched: UdpSchedule, seq: int, window_end: int):
    """The UDP send write-set as data (shared with ``systems.send``)."""
    from .systems.send import udp_emission_schedule
    return udp_emission_schedule(sched, seq, window_end)


