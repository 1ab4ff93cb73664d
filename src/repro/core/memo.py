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
  slice of state the window will read — the union egress ports'
  :class:`PortEnc` and the per-flow columns of :data:`FLOW_FIELDS`.
  Everything time- or sequence-like is **rebased** (times against the
  window start, sequence numbers against each flow's pacing cursor), so
  two windows that are translations of each other in (time x sequence)
  space hash equal.
* On a **miss** the window executes normally, and the counter
  baselines and the trace entries it appended make a
  :class:`WindowDelta`: exactly what a cycle jump replays of the window
  — its increments, its flows' cursor advances and its trace tape,
  never the state it leaves.  A **hit** counts and feeds cycle
  detection; the window then runs as an ordinary one, except every Nth
  hit, which is **validated** by re-executing the window and comparing
  the fresh delta against the cached one.
* When a hit key recurs, the *whole* rebased pending state is encoded;
  if it is equal one period later the engine state is periodic under
  the translation, and :meth:`WindowMemoCache._jump` skips whole cycles
  up to the next validation point by translating that state once and
  adding ``m`` x each cached delta's increments.  The state a jump
  writes is that proven translation, so no delta carries it.  This is
  the only way the memo skips a window.  The full-state walk seals the
  window's own probe on its way and a jump translates the probe of the
  window it lands on (and reuses its cache entry), so a steady
  validation period pays one encode.

Every state the memo touches is declared once — :data:`FLOW_FIELDS`,
:data:`PORT_COUNTERS`, :class:`PortEnc` and the one packet-row rebase
:func:`_move_row` — and the probe, the capture, the jump and the
accounting loop over those declarations.

Soundness rests on a closed-world argument: the signature is only
attempted when every input the window can read is in the encoded set.
The gates (:meth:`WindowMemoCache._probe` and
``DodEngine._maybe_init_memo``) restrict fast-forwarding to windows
whose work is pure UDP steady-state — no DCTCP/RENO senders touched, no
RED or packet spraying (both hash raw sequence numbers), no cross-agent
deliveries, no op probes, no duration cut inside the window.  Within
those gates every engine transition commutes with the (time, sequence)
translation, which is what makes a jump's translated state and
replayed tapes byte-identical to re-execution — the property the
``dons-ffwd`` conformance oracle and the memo-on/off digest tests
enforce.  There is no simulation-time RNG to capture
(docs/MEMOIZATION.md).
"""

from __future__ import annotations

from collections import deque, namedtuple
from operator import sub
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .systems.forward import _route
from .systems.send import WIRE8PS, udp_window
from .telemetry import MEMO_APPLY_MS_BUCKETS
from .window import ENTRY_ARRIVAL, ENTRY_UDP
from ..protocols.packet import F_DST, F_FLOW, F_ISACK, Row, segment_count
from ..metrics.trace import TraceKind

__all__ = ["WindowMemoCache", "WindowDelta", "PortEnc", "PortDelta",
           "FLOW_FIELDS", "PORT_COUNTERS", "PORT_FIELDS"]

#: Re-execute and compare every Nth hit (replay-based validation).
#: Each validation costs one full window execution, so N is a direct
#: term in the fast-forward speedup bound (1/N of the plain cost); 32
#: keeps the standing overhead ~3% while still re-checking every cached
#: delta many times over a steady run.
VALIDATE_EVERY = 32

#: FIFO capacity bound of the per-engine cache.
MAX_ENTRIES = 4096

#: The per-flow columns a window can read and write, as ``(world table,
#: column, kind)``: the probe keys them and a cycle jump moves them all
#: (the capture reads only the base's advance).  The kind says how a
#: value moves with the window frame: ``base`` is the pacing cursor
#: every sequence value is rebased against (so 0 before a window, its
#: advance after); ``seq`` a sequence number; ``count`` a segment count
#: in step with them that completes the flow at its total (the probe
#: also keys the saturated remainder); ``seqs`` a set of sequence
#: numbers, ``None`` when empty (both encode as ``()``); ``done`` the
#: completion time, -1 until set, which the flow's result record
#: mirrors.
FLOW_FIELDS = (
    ("senders", "udp_next_seq", "base"),
    ("receivers", "expected", "seq"),
    ("receivers", "unique_received", "count"),
    ("receivers", "out_of_order", "seqs"),
    ("receivers", "complete_ps", "done"),
)
_BASE_FIELD = next(name for _t, name, kind in FLOW_FIELDS if kind == "base")
_COUNT_AT = [kind for _t, _n, kind in FLOW_FIELDS].index("count")

#: The egress counters a window adds to: the capture takes their
#: increments over the probe's ports, and a jump adds ``m`` x those.
PORT_COUNTERS = ("enqueued", "dequeued", "dropped", "marked", "tx_bytes")
_NO_COUNTS = (0,) * len(PORT_COUNTERS)
#: The window's event counts (``WindowContext.counts`` into
#: ``results.events``), kept in this order in :attr:`WindowDelta.counts`
#: — the order of a bus window row's counts.
_EVENT_COUNTS = ("ack", "send", "forward", "transmit")


#: One egress row's mutable state in the window frame, by column;
#: ``active`` is its membership of the engine's active set.
#: ``free_at`` is the time past the window start the line frees, 0 when
#: it is free by then (the replay clamps service starts to the window
#: cursor, so any earlier value behaves the same).  ``queues`` holds per
#: class the rows from its head on, through :func:`_move_row`.
#: ``max_queue_bytes`` is here so a jump, which leaves it as it is,
#: needs no other proof that the skipped windows never raise it.  The
#: discipline fields (``rr_next`` on) are ``None``
#: on ports whose static discipline does not pick by them.
PortEnc = namedtuple(
    "PortEnc", "iface active free_at queued_bytes max_queue_bytes queues "
    "rr_next drr_deficit drr_current drr_granted")
_NO_DISCIPLINE = (None,) * 4

#: Every egress column a port encoding covers: :class:`PortEnc`'s own,
#: and the pop indices and packet count its ``queues`` are cut by and
#: rebuilt with.
PORT_FIELDS = PortEnc._fields[2:] + ("heads", "qlen")


def _move_row(row: Row, dseq: int, dt: int) -> Row:
    """The one packet-row rebase: ``row`` moved ``dseq`` in sequence and
    ``dt`` in time.  Into a window's frame is ``(-base, -start)``, a
    cycle jump ``(m·d_f, m·P·L)``."""
    f, ack, seq, size, ce, ece, ts, src, dst = row
    return (f, ack, seq + dseq, size, ce, ece, ts + dt, src, dst)


def _move_field(kind: str, v, dseq: int):
    """One per-flow value moved ``dseq`` in sequence (no gap stays
    ``None``).  A completion time stays: a jump ends before any flow's
    tail, so the flows it moves are unfinished."""
    if kind == "seqs":
        return {x + dseq for x in v} if v else None
    return v if kind == "done" else v + dseq


def _enc_flow(flow_cols: Dict, fid: int, b: int, start: int) -> Tuple:
    """Every :data:`FLOW_FIELDS` value of ``fid`` in the frame of the
    window starting at ``start`` with flow base ``b``, as the probe keys
    it."""
    enc = []
    for col, kind in flow_cols.values():
        v = col[fid]
        if kind == "seqs":
            v = tuple(sorted([x - b for x in v])) if v else ()
        elif kind == "done":
            v = v - start if v >= 0 else v
        else:
            v -= b
        enc.append(v)
    return tuple(enc)


def _put_queues(cols, iface: int, classes, base_of: Dict[int, int],
                dt: int) -> None:
    """Write per-class rows back into ``iface``'s queues, each moved by
    its flow's ``base_of`` entry and ``dt`` (heads reset)."""
    queues = cols.queues[iface] = [
        [_move_row(r, base_of[r[F_FLOW]], dt) for r in rows]
        for rows in classes]
    cols.heads[iface][:] = [0] * len(queues)
    cols.qlen[iface] = sum(map(len, queues))


#: A window's increments of one probe port's :data:`PORT_COUNTERS`, in
#: that order; ``iface`` also puts the port in a full-state probe's union.
PortDelta = namedtuple("PortDelta", "iface counters")
#: What a cycle jump replays of one window, rebased into the window
#: frame so two captures of behaviourally identical windows compare
#: equal — the equality replay-based validation checks.  ``ports``: a
#: :class:`PortDelta` per probe port; ``advance``: ``(flow, segments)``
#: per flow whose pacing cursor moved; ``tape``: the trace entries the
#: window appended, time and sequence rebased; ``counts``: the event
#: counts in ``_EVENT_COUNTS`` order; ``node_incr``: ``(node,
#: increment)`` of ``results.node_events``; ``drops_incr``: of
#: ``results.drops``.  The state a jump writes is not here: it is the
#: translation the full-state key proves.
WindowDelta = namedtuple(
    "WindowDelta", "ports advance tape counts node_incr drops_incr")


class _Probe(NamedTuple):
    """One eligibility probe: the signature key plus the pre-state the
    capture and a jump need.  A window's is encoded alone, sealed
    first by the full-state walk, or moved by ``T^m`` from the window a
    jump started at: ``start`` by ``dt``, ``base_of`` by ``m·d_f``, the
    key and the rebased ``ports`` as they are."""

    win: int
    start: int
    key: Tuple
    ports: Dict[int, Tuple]  # union port -> its encoding, iface order
    base_of: Dict[int, int]


class _Entry:
    """One cached window: its delta and the hit number at which its key
    last hit (0 = never) — the recurrence cycle detection starts from."""

    __slots__ = ("delta", "seen")

    def __init__(self, delta: WindowDelta) -> None:
        self.delta = delta
        self.seen = 0


class WindowMemoCache:
    """Per-engine signature -> delta cache with cycle fast-forward.

    Constructed by ``DodEngine._maybe_init_memo`` only when the static
    gates hold.  Never persisted: checkpoints invalidate it on restore
    (``core.checkpoint``), and cluster agents never build one (a window
    with cross-agent traffic pending must run for real so its outbox
    fills).
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.cache: Dict[Tuple, _Entry] = {}
        self.hits = 0
        #: Cycle detection: ``(window, entry)`` of the latest hits since
        #: a miss / ineligible window (a longer period never fits before
        #: a validation); the hypothesis ``(window, hit number,
        #: full-state key, flow cursors, hit number to compare at)``;
        #: the hit number before which none is formed (a refuted one
        #: waits for the next validation point); and the probe a jump
        #: translated for the window it lands on, with the entry it hits.
        self._trail: deque = deque(maxlen=VALIDATE_EVERY - 1)
        self._hyp: Optional[Tuple] = None
        self._hold = 0
        self._landing: Optional[Tuple[_Probe, _Entry]] = None
        from ..traffic import Transport
        self._udp_flows = frozenset(
            f for f, t in enumerate(engine.flow_lists.transport)
            if t == Transport.UDP)
        self._cols_of = self._cols = None

    # --- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached delta (checkpoint restore / migration)."""
        self.cache.clear()
        self._forget_cycle()

    def _forget_cycle(self) -> None:
        self._trail.clear()
        self._hyp = self._landing = None

    def _flow_cols(self) -> Dict[str, Tuple]:
        """Per :data:`FLOW_FIELDS` column: ``(column list, kind)``, a
        flow's row being its id; taken once per world (a restored
        checkpoint brings its own)."""
        world = self.engine.world
        if self._cols_of is not world:
            self._cols = {name: (getattr(world, table).column(name), kind)
                          for table, name, kind in FLOW_FIELDS}
            self._cols_of = world
        return self._cols

    # --- main entry -------------------------------------------------------

    def run_window(self, win: int) -> bool:
        """Try to fast-forward window ``win``.

        Returns ``True`` when the window was fully handled here — by a
        capturing / validating execution, or a cycle jump that carried
        the engine past it — and ``False`` when the engine must run
        ``process_window`` itself: the window is ineligible, or it hit
        without being jumped or due for validation (the hit is counted
        and noted for cycle detection first).
        """
        probe, state, entry = self._probes(win)
        bus = self.engine.bus
        if isinstance(probe, str):
            bus.count("memo.ineligible")
            bus.count("memo.ineligible." + probe)
            self._forget_cycle()
            return False
        if entry is None:
            entry = self.cache.get(probe.key)
        if entry is None:
            bus.count("memo.miss")
            self._forget_cycle()
            delta = self._capture(win, probe)
            if isinstance(delta, str):
                bus.count("memo.uncacheable")
                bus.count("memo.uncacheable." + delta)
            else:
                if len(self.cache) >= MAX_ENTRIES:
                    self.cache.pop(next(iter(self.cache)))
                self.cache[probe.key] = _Entry(delta)
            return True
        self.hits += 1
        if self._cycle_step(win, entry, probe, state):
            return True
        validate = self.hits % VALIDATE_EVERY == 0
        if validate:
            # Replay-based validation: execute for real and compare the
            # fresh delta against the cached one.
            bus.count("memo.validate")
            if self._capture(win, probe) != entry.delta:
                del self.cache[probe.key]
                bus.count("memo.validate_fail")
                self._forget_cycle()
                return True
        bus.count("memo.hit")
        entry.seen = self.hits
        self._trail.append((win, entry))
        return validate

    def _probes(self, win: int) -> Tuple:
        """The window's probe — a jump's landing translation, the window
        part of a full-state pass, or a fresh encode — the full-state
        one when a hit here would be a cycle comparison, and the entry a
        landing probe hits (each else None)."""
        landing, self._landing = self._landing, None
        if landing is not None and landing[0].win == win:
            return self._gate(win) or landing[0], None, landing[1]
        hyp = self._hyp
        if hyp is not None and self.hits + 1 >= hyp[4]:
            window, state = self._probe(
                win, list(self._trail)[hyp[1] - self.hits - 1:])
            return window, state, None
        return self._probe(win), None, None

    # --- cycles -----------------------------------------------------------

    def _cycle_step(self, win: int, entry: _Entry, probe: _Probe,
                    state) -> bool:
        """Cycle detection on a hit; ``True`` when a jump handled it.

        A key that hit ``period`` hits ago proposes a cycle: the
        full-state signature (:meth:`_probe` with the cycle) is taken
        now and again ``period`` hits later, and equality makes the
        engine state periodic under the translation — whatever proposed
        it, because that signature is closed under execution.  The later
        one is ``state``, taken by :meth:`_probes` before the lookup.
        """
        hyp = self._hyp
        hits = self.hits
        if hyp is None:
            period = hits - entry.seen
            if period > len(self._trail) or hits < self._hold:
                return False
            state = self._probe(win, list(self._trail)[-period:])[1]
            if isinstance(state, str):
                self._refuse("state_differs")
            else:
                self._hyp = (win, hits, state.key, state.base_of,
                             hits + period)
            return False
        win0, hits0, key0, bases0, at_hits = hyp
        if hits < at_hits:
            return False
        if isinstance(state, str) or state.key != key0:
            self._refuse("state_differs")
            return False
        return self._jump(state, list(self._trail)[hits0 - hits:],
                          win - win0, bases0, probe, entry)

    def _refuse(self, reason: str) -> None:
        self.engine.bus.count("memo.jump_refused." + reason)
        if reason == "state_differs":  # propose again after a validation
            self._hyp = None
            self._hold = (self.hits // VALIDATE_EVERY + 1) * VALIDATE_EVERY

    def _jump(self, state: _Probe, cycle, p_idx: int,
              bases0: Dict[int, int], probe: _Probe, entry: _Entry) -> bool:
        """Skip ``m`` whole cycles from ``state``'s window on.

        The state before this window is the state one cycle ago moved
        ``p_idx`` windows in time and, per flow, ``adv`` segments in
        sequence, so the state ``m`` cycles on is this one moved ``m``
        times: entries, queued rows and busy lines in time and sequence,
        every :data:`FLOW_FIELDS` column in sequence, accumulators by
        ``m`` x the cycle's sum.  The bounds on ``m`` are the table in
        docs/MEMOIZATION.md, "Cycle jumps".  ``probe`` and ``entry`` are
        this window's, which the landing window's lookup reuses.
        """
        engine = self.engine
        bus = engine.bus
        L = engine.lookahead
        win, bases = state.win, state.base_of
        p_run = len(cycle)
        hits = self.hits
        adv = {f: b - bases0[f] for f, b in bases.items()}
        fl = engine.flow_lists
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
            row = e[3]
            return (ENTRY_ARRIVAL, e[1] + dt, e[2],
                    _move_row(row, jump_of[row[F_FLOW]], dt))
        engine.events.translate(shift, move)
        engine.events.touch(win + shift)  # the index had given it out
        cols = engine.world.egress_cols
        for i in state.ports:
            if cols.free_at[i] > state.start:  # a busy line
                cols.free_at[i] += dt
            if cols.qlen[i]:
                _put_queues(cols, i, [q[h:] for q, h in zip(
                    cols.queues[i], cols.heads[i])], jump_of, dt)
        flow_cols = self._flow_cols()
        for f, k in jump_of.items():
            if k:
                for col, kind in flow_cols.values():
                    col[f] = _move_field(kind, col[f], k)

        # m x the cycle's sums; then, skipped window by skipped window
        # (the cycle's windows lie within one period, so this is window
        # order), a bus row and, on a traced run, the trace entries.
        traced = bus.trace_level
        cur = dict(bases0)
        steps = []  # (window, delta, flow cursors before it)
        for w, cached in cycle:
            delta = cached.delta
            self._account(delta, m)
            steps.append((w, delta, dict(cur)))
            for f, a in delta.advance:
                cur[f] += a
        rows: List[Tuple] = []
        for c in range(1, m + 1):
            for w, delta, before in steps:
                index = w + c * p_idx
                rows.append((index, index * L, 0.0, 0.0, 0.0, 0.0)
                            + delta.counts)
                if traced:
                    self._replay(delta.tape, index * L, {
                        f: b + c * adv[f] for f, b in before.items()})
        bus.window_rows_add(rows)
        last = cycle[-1][0] + shift
        engine.results.end_time_ps = (last + 1) * L

        engine._cursor = engine._running_window = last
        self.hits = hits + n - 1
        bus.count("memo.hit", n)
        bus.count("memo.jump")
        bus.count("memo.jump_windows", n)
        # The landing state has the same signature: compare again one
        # cycle after it without re-encoding this end.  With slack for
        # m + 1 cycles a longer jump would skip the landing window, so
        # its probe is this window's moved by T^m (else a flow's tail
        # may saturate its encoding differently).
        self._trail.clear()
        self._hyp = (win + shift, hits + n, state.key,
                     {f: b + jump_of[f] for f, b in bases.items()},
                     hits + n + p_run)
        if min(bounds[1:], default=(m + 1,))[0] > m:
            self._landing = probe._replace(
                win=win + shift, start=probe.start + dt,
                base_of={f: b + jump_of[f] for f, b in probe.base_of.items()}
            ), entry
        if bus.telemetry:
            self._telemetry(t0, win, dt, n)
        return True

    # --- probe ------------------------------------------------------------

    def _gate(self, win: int) -> Optional[str]:
        """The reason a window is ineligible whatever the state."""
        engine = self.engine
        cut = engine.scenario.duration_ps
        if cut is not None and (win + 1) * engine.lookahead > cut + 1:
            return "duration_cut"  # the cut truncates this window
        return "ops_subscribed" if engine.bus.ops is not None else None

    def _probe(self, win: int, cycle=None):
        """Compute the window's execution signature, or the reason (a
        ``memo.ineligible.<reason>`` name) why some input falls outside
        the encodable closed world.  Membership checks bail out while
        encoding (mixed workloads mostly reject on the first non-UDP
        entry, long before any port is touched).

        With ``cycle`` (the ``(window, entry)`` hits of one proposed
        period) the same walk goes on to the *whole* pending state and
        returns ``(window probe, full-state probe)``, each a
        :class:`_Probe` or a reason.  The window's own bucket is walked
        first and its probe sealed there — the ports of the active set
        and its own targets, its own receive counts; the full state is
        that plus every other bucket under its window offset, the
        occupancy index, the ports the cycle touched and the per-flow
        fields of every flow met on the way.  That key is closed under
        execution — what any later window reads is in it.
        """
        reason = self._gate(win)
        if reason is not None:
            return reason if cycle is None else (reason, reason)
        engine = self.engine
        L = engine.lookahead
        start = win * L
        buckets = engine.events._buckets
        udp_flows = self._udp_flows
        base_of: Dict[int, int] = {}
        flow_cols = self._flow_cols()
        cursor, _kind = flow_cols[_BASE_FIELD]

        def base(f: int) -> int:  # queued rows'; the entry loop inlines it
            b = base_of.get(f)
            if b is None:
                b = base_of[f] = cursor[f]
            return b

        is_host = engine.is_host
        active = engine.active_ports
        union = set(active)
        recv_counts: Dict[int, int] = {}
        fl = engine.flow_lists
        routes, sc = engine._routes, engine.scenario

        def walk(w: int, entries_enc: List) -> Optional[str]:
            """Encode bucket ``w``; note its bases, targets, receives."""
            bucket = buckets.get(w)
            if bucket is None:
                return None
            wstart = w * L
            for node, e in zip(bucket.nodes, bucket.payloads):
                tag = e[0]
                if tag == ENTRY_UDP:
                    fid = e[1]
                    if fid not in udp_flows:
                        return "non_udp_entry"
                    # What the flow emits in this window from its cursor
                    # — times against the window start, payload sizes
                    # (only the last segment's differs, which is what
                    # saturates the remaining-segment count) — and the
                    # wakeup past it (-1: schedule exhausted).
                    b = base_of.get(fid)
                    if b is None:
                        b = base_of[fid] = cursor[fid]
                    ems, _next, wakeup = udp_window(fl, fid, b, wstart + L)
                    entries_enc.append(
                        (node, tag, fid,
                         tuple((t - wstart, p) for t, _s, p in ems),
                         -1 if wakeup is None else wakeup - wstart))
                    if ems:
                        union.add(fl.nic[fid])
                elif tag == ENTRY_ARRIVAL:
                    row = e[3]
                    if row[F_ISACK]:
                        return "ack_row"
                    f = row[F_FLOW]
                    if f not in udp_flows:
                        return "non_udp_entry"
                    b = base_of.get(f)
                    if b is None:
                        b = base_of[f] = cursor[f]
                    entries_enc.append((node, tag, e[1] - start, e[2],
                                        _move_row(row, -b, -start)))
                    if is_host[node]:
                        recv_counts[f] = recv_counts.get(f, 0) + 1
                        continue
                    # The ForwardSystem's egress choice, from its route
                    # cache: flow-mode ECMP is a pure function of static
                    # identifiers (the packet-spray gate keeps
                    # sequence-salted hashing out).
                    union.add(_route(routes, sc, node, row[F_DST], f))
                else:
                    return "cca_entry"  # FLOW_START / TIMER: a CCA flow
            return None

        cols = engine.world.egress_cols
        encs: Dict[int, Tuple] = {}  # each union port encoded once

        def seal(entries_enc: List, fids, *extra):
            """The probe of the walk so far, keyed on flows ``fids``."""
            ports: Dict[int, Tuple] = {}
            for iface in sorted(union):
                port = encs.get(iface)
                if port is None:
                    port = encs[iface] = self._enc_port(
                        cols, iface, iface in active, base, start)
                    if port is None:
                        return "foreign_queued_row"
                ports[iface] = port
            flows_enc: List[Tuple] = []
            for fid in sorted(fids):
                b = base_of[fid]
                enc = _enc_flow(flow_cols, fid, b, start)
                # Saturate far-from-complete states: completion fires
                # only when remaining <= new uniques <= the arrivals
                # encoded here, so a larger remainder behaves the same.
                remaining = segment_count(fl.size[fid]) - b - enc[_COUNT_AT]
                sat = min(remaining, recv_counts.get(fid, 0) + 1)
                flows_enc.append((fid, sat) + enc)
            key = (tuple(entries_enc), tuple(ports.values()),
                   tuple(flows_enc)) + extra
            return _Probe(win, start, key, ports, dict(base_of))

        entries: List = []
        window = walk(win, entries) or seal(entries, recv_counts)
        if cycle is None:
            return window
        if isinstance(window, str):
            return window, window
        for w in sorted(buckets.keys() - {win}):
            entries.append(w - win)
            reason = walk(w, entries)
            if reason is not None:
                return window, reason
        for _w, entry in cycle:
            union.update(p.iface for p in entry.delta.ports)
        return window, seal(entries, base_of, tuple(
            sorted(w - win for w in engine.events._queued)))

    def _enc_port(self, cols, iface: int, active: bool,
                  base: Callable[[int], int], start: int) -> Optional[Tuple]:
        """Canonical rebased encoding of one egress row's mutable state,
        a plain tuple in :data:`PortEnc` field order (the probe keys one
        per union port).

        Returns ``None`` when a queued row falls outside the UDP closed
        world.  Deliberately *excluded*: ``avg_bytes`` (the
        RED EWMA converges asymptotically, so it never repeats — and RED
        is one of the memo's static disable gates, making the column
        write-only whenever the cache is live).
        """
        static = self.engine.port_static[iface]
        if cols.qlen[iface] == 0:
            queues = ((),) * static.classes  # the common steady case
        else:
            udp_flows = self._udp_flows
            heads = cols.heads[iface]
            classes = []
            for cls, q in enumerate(cols.queues[iface]):
                rows = []
                for r in q[heads[cls]:]:
                    f = r[F_FLOW]
                    if r[F_ISACK] or f not in udp_flows:
                        return None
                    rows.append(_move_row(r, -base(f), -start))
                classes.append(tuple(rows))
            queues = tuple(classes)
        free_at = cols.free_at[iface] - start
        port = (iface, active, free_at if free_at > 0 else 0,
                cols.queued_bytes[iface], cols.max_queue_bytes[iface], queues)
        if not static.kind:
            return port + _NO_DISCIPLINE
        return port + (cols.rr_next[iface], tuple(cols.drr_deficit[iface]),
                       cols.drr_current[iface], cols.drr_granted[iface])

    # --- capture ----------------------------------------------------------

    def _capture(self, win: int, probe: _Probe):
        """Run the window for real and take what a cycle jump replays of
        it: the delta, or a ``memo.uncacheable.<reason>`` name."""
        engine = self.engine
        events = engine.events
        res = engine.results
        base_of = probe.base_of
        start = probe.start
        pre_sizes = events.bucket_sizes()
        pre_sizes.pop(win, None)
        pre_node_events = dict(res.node_events)
        pre_drops = res.drops
        pre_rtt = len(res.rtt_samples)
        # Counter baselines, by column: taken here, not on every (mostly
        # hitting) probe.
        cols = engine.world.egress_cols
        counters = [getattr(cols, name) for name in PORT_COUNTERS]
        ifaces = list(probe.ports)
        counts_pre = [[col[i] for i in ifaces] for col in counters]
        trace = engine.trace.entries
        mark = len(trace)
        ctx = engine.process_window(win)

        if len(res.rtt_samples) != pre_rtt:
            return "rtt_sample"
        if not set(ctx.staged) <= probe.ports.keys():
            return "unpredicted_port"  # the prediction missed a target
        post_sizes = events.bucket_sizes()
        if probe.win in post_sizes:
            return "window_refilled"
        for w, n in pre_sizes.items():
            if post_sizes.get(w, 0) < n:
                return "bucket_shrank"

        tape: List[Tuple] = []
        for t, kind, where, flow, is_ack, seq, extra in trace[mark:]:
            b = base_of.get(flow)
            if b is None:
                return "foreign_trace_op"
            if kind != TraceKind.FLOW_DONE:  # a completion has no seq
                seq -= b
            tape.append((t - start, kind, where, flow, is_ack, seq, extra))

        # Per column the increments; transposed, per port.
        diffs = [map(sub, [col[i] for i in ifaces], pre)
                 for col, pre in zip(counters, counts_pre)]
        ports = tuple(map(PortDelta._make, zip(ifaces, zip(*diffs))))
        cursor, _kind = self._flow_cols()[_BASE_FIELD]
        advance = tuple((f, cursor[f] - b) for f, b in sorted(base_of.items())
                        if cursor[f] != b)
        counts = tuple(getattr(ctx.counts, name) for name in _EVENT_COUNTS)
        node_incr = tuple(sorted(
            (n, c - pre_node_events.get(n, 0))
            for n, c in res.node_events.items()
            if c != pre_node_events.get(n, 0)))
        return WindowDelta(
            ports=ports, advance=advance, tape=tuple(tape), counts=counts,
            node_incr=node_incr, drops_incr=res.drops - pre_drops)

    # --- jump accounting --------------------------------------------------

    def _telemetry(self, t0: float, win: int, span_ps: int, n: int) -> None:
        """One jump over ``n`` windows: sample the ports over the span,
        record the cost per window, close one span."""
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
        (port counters, event counts, per-node events, drops)."""
        cols = self.engine.world.egress_cols
        counters = [getattr(cols, name) for name in PORT_COUNTERS]
        for port in delta.ports:
            if port.counters != _NO_COUNTS:
                i = port.iface
                for col, d in zip(counters, port.counters):
                    col[i] += k * d
        res = self.engine.results
        ev = res.events
        for name, d in zip(_EVENT_COUNTS, delta.counts):
            setattr(ev, name, getattr(ev, name) + k * d)
        node_events = res.node_events
        for node, d in delta.node_incr:
            node_events[node] = node_events.get(node, 0) + k * d
        res.drops += k * delta.drops_incr

    def _replay(self, tape: Tuple, start: int,
                base_of: Dict[int, int]) -> None:
        """Append one window's rebased trace entries to the trace in the
        frame of the window starting at ``start`` with flow cursors
        ``base_of``."""
        append = self.engine.trace.entries.append
        for t, kind, where, flow, is_ack, seq, extra in tape:
            if kind != TraceKind.FLOW_DONE:
                seq += base_of[flow]
            append((start + t, kind, where, flow, is_ack, seq, extra))
