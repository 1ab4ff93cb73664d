"""The DONS engine: batch-based, data-oriented discrete event simulation.

This is the paper's primary contribution (§3): instead of one global
event heap, simulated time advances in *lookahead windows* whose length
is the smallest link delay.  Within each window the four systems run in
the LCC-safe order — ACKSystem, SendSystem, ForwardSystem,
TransmitSystem — and each system processes *all* entities of its aspect
together.

Deliveries, flow starts and timer wakeups are kept in a columnar
pending-event store (:class:`~repro.core.events.EventColumns`): one
bucket of parallel ``node``/``tag``/``time``/``prio``/``payload``
columns per pending window, plus a window-occupancy index that makes
``peek_next_window`` O(1).  The LCC argument (§3.3) shows up as an
invariant here: every entry of window *w* was inserted by a window
strictly before *w* (link delay >= lookahead), so a window's inputs are
complete before it runs, and no synchronization is ever needed within a
machine.  One ``advance()`` runs exactly one such window — the paper's
"batch length = minimum link delay" — through one pipeline: pop the
window's columns, classify them once
(:func:`~repro.core.window.plan_window`), run the four systems over the
plan (:func:`~repro.core.systems.run_window`), commit (see
docs/ARCHITECTURE.md, "Why a batch is exactly one lookahead window").

All observation goes through the engine's
:class:`~repro.core.instrument.InstrumentationBus`: the trace recorder
is its one trace sink, a machine-model access probe its one op sink,
and the profiler reads its window rows, instead of being threaded
through constructors.  The outer drive loop lives in
:class:`~repro.core.runner.EngineRunner`; the engine implements the
``build``/``advance``/``finalize`` protocol.

The engine produces the same :class:`~repro.metrics.SimResults` as the
OOD baseline, and — the headline fidelity claim — byte-identical event
traces (see ``tests/integration/test_engine_equivalence.py``).
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Any, Dict, List, Optional, Set, Tuple

from . import events as events_mod
from .ecs import World
from .events import EventColumns
from .instrument import OP_WINDOW, InstrumentationBus
from .runner import EngineRunner
from .systems import run_window
from .systems.send import FlowLists
from .systems.transmit import LOCAL, PortStatic, port_static
from .window import (
    ENTRY_ARRIVAL, ENTRY_FLOW_START, ENTRY_UDP, Entry, WindowContext,
    plan_window,
)
from ..errors import SimulationError
from ..metrics import SimResults, TraceLevel, TraceRecorder
from ..metrics.results import FlowResult
from ..protocols.egress import PortStats
from ..protocols.packet import PRIO_ARRIVAL, Row
from ..scenario import Scenario
from ..traffic import Transport


class DodEngine:
    """Single-machine DONS: one logical process on one thread (process
    agents in :mod:`repro.cluster` are the parallel execution)."""

    name = "dons"

    def __init__(
        self,
        scenario: Scenario,
        trace_level: TraceLevel = TraceLevel.NONE,
        *,
        lookahead_override: Optional[int] = None,
        backend: Optional[str] = None,
        telemetry: bool = False,
        ffwd: bool = False,
    ) -> None:
        """``lookahead_override`` shrinks the batch below the minimum
        link delay (correct but slower — the ablation of the §3.3 design
        choice).

        ``backend`` is accepted and ignored: there is one set of
        systems.  The keyword stays only because the benchmark
        workloads (``benchmarks/perf/workloads.py``) still pass it; it
        goes when that directory next changes (ROADMAP item 1).

        ``telemetry`` turns on span recording and metric sampling on the
        engine's bus.  Telemetry only reads clocks and port counters —
        the event trace, and therefore the conformance digest, is
        identical either way.

        ``ffwd`` enables the window-signature memoization +
        fast-forwarding cache.  The cache only ever activates under the
        static gates checked by :meth:`_maybe_init_memo` — no RED /
        packet spraying, at least one UDP flow — and
        the ``dons-ffwd`` conformance oracle holds the trace digest
        byte-identical with it on or off.  Cluster agents never
        fast-forward.  See docs/MEMOIZATION.md.
        """
        self.scenario = scenario
        self.bus = InstrumentationBus()
        self.bus.telemetry = bool(telemetry)
        self._tx_prev: Dict[int, int] = {}
        self.trace = self.bus.set_trace(TraceRecorder(trace_level))
        self._running_window = -1
        self.ffwd = ffwd
        self._memo = None

        self.lookahead = scenario.lookahead_ps
        if lookahead_override is not None:
            if not 0 < lookahead_override <= self.lookahead:
                raise SimulationError(
                    "lookahead override must be in (0, min link delay]: "
                    f"{lookahead_override} vs {self.lookahead}"
                )
            self.lookahead = lookahead_override
        if self.lookahead <= 0:
            raise SimulationError("lookahead must be positive")

        self.world = World()
        self.results = SimResults(self.name, scenario.name, 0)

        # Columnar pending-event store + window-occupancy index.
        self.events = EventColumns()
        self.active_ports: Set[int] = set()
        self._built = False
        self._finalized = False
        self._cursor = -1
        #: Per-port constants by interface id, gathered at ``build()``.
        self.port_static: List[PortStatic] = []
        #: Per interface id: ``None`` when the port's peer node is
        #: simulated here, else the cluster agent that owns it.
        self.port_owner: List[Optional[int]] = (
            [None] * len(scenario.topology.interfaces))
        #: ``port_owner`` for an observed window, which collects every
        #: port: a local peer's deliveries under ``LOCAL``.
        self.port_observed: List[int] = [LOCAL] * len(self.port_owner)
        #: ``is_host[node]``, gathered at ``build()`` — what the window
        #: plan and the memo probe classify an entry's node by.
        self.is_host: List[bool] = []
        #: ``host_nic[node]``: a host's NIC interface id (-1 at a
        #: switch), gathered at ``build()`` — where the AckSystem stages.
        self.host_nic: List[int] = []
        #: The flow table as plain-int lists, made once by ``build()``.
        self.flow_lists: Optional[FlowLists] = None
        # The ForwardSystem's route cache: a pure function of the
        # scenario, filled on first use and never checkpointed.
        self._routes: Dict[int, int] = {}

    # --- construction -------------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    def attach_trace(self, recorder: TraceRecorder) -> TraceRecorder:
        """Make ``recorder`` the engine's trace and the bus's trace sink
        (checkpoint restore path)."""
        self.trace = self.bus.set_trace(recorder)
        return recorder

    def build(self) -> None:
        """Simulation Builder: entities, ports, and initial flow starts.

        Ports come from the topology, one egress row per interface; flows
        from the scenario's one flow table, in column batches
        (:meth:`_build_flows`)."""
        sc = self.scenario
        nodes, ifaces = sc.topology.nodes, sc.topology.interfaces
        n = len(ifaces)
        self.is_host = [node.is_host for node in nodes]
        self.host_nic = [-1] * len(nodes)
        for iface in ifaces:
            if self.is_host[iface.node]:
                self.host_nic[iface.node] = iface.iface_id
        table = sc.classifier_table()
        self.port_static = [
            port_static(iface, sc.host_egress if self.is_host[iface.node]
                        else sc.switch_egress, table)
            for iface in ifaces]
        classes = [st.classes for st in self.port_static]
        # One egress row per interface, row index = interface id; every
        # row owns its class queues, pop indices and deficits.
        self.world.egress.add_many(
            n, queues=[[[] for _ in range(c)] for c in classes],
            heads=[[0] * c for c in classes],
            drr_deficit=[[0] * c for c in classes])

        self._build_flows(sc)
        self._built = True
        self._maybe_init_memo()

    def _build_flows(self, sc: Scenario) -> None:
        """Bulk sender/receiver construction from the flow table.

        Consumes :meth:`~repro.traffic.FlowColumns.iter_batches`.  One
        ``tolist()`` per batch column feeds the engine's one
        :class:`~repro.core.systems.send.FlowLists` (plain Python
        scalars, which keep traces byte-identical) and the event
        inserts; the per-flow quantities the tables hold are appended
        with one ``add_many`` per table, so a flow's sender and receiver
        row index is its id.  Under :attr:`owns` a flow's start is
        inserted only where its source is owned and its
        :class:`~repro.metrics.results.FlowResult` made only where its
        destination is; the rows stay dense.  No Flow object is made.
        """
        import numpy as np
        from ..protocols.packet import MSS
        world = self.world
        fl = self.flow_lists = FlowLists([], [], [], [], [], [], [])
        results_flows = self.results.flows
        insert = self._insert
        owns = self.owns
        udp = int(Transport.UDP)
        # The initial CCA values: one object per transport, shared by
        # every flow's row.
        cwnd = {int(t): float(sc.cca_params(t).init_cwnd) for t in Transport}
        rto = {int(t): sc.cca_params(t).init_rto_ps for t in Transport}
        for first, cols in sc.flows.iter_batches():
            lists = [cols[name].tolist() for name in
                     ("src", "dst", "size_bytes", "start_ps", "transport")]
            src, dst, size, start, transport = lists
            for f, s_node, d_node, st, sz, tr in zip(
                    range(first, first + len(src)), src, dst, start, size,
                    transport):
                if owns is None or owns[d_node]:
                    results_flows[f] = FlowResult(f, st, None, sz)
                if owns is not None and not owns[s_node]:
                    continue
                if tr == udp:
                    insert(st, s_node, (ENTRY_UDP, f))
                else:
                    insert(st, s_node, (ENTRY_FLOW_START, st, f))
            for column, values in zip(fl, lists):
                column.extend(values)
            world.senders.add_many(
                len(src),
                total_segs=((cols["size_bytes"] + MSS - 1) // MSS).tolist(),
                cwnd=[cwnd[t] for t in transport],
                rto_ps=[rto[t] for t in transport])
            world.receivers.add_many(len(src), needs_ack=(
                cols["transport"] != udp).astype(np.int64).tolist())
        nics = {h: sc.topology.host_iface(h) for h in set(fl.src)}
        fl.nic.extend([nics[s].iface_id for s in fl.src])
        fl.nic_rate.extend([nics[s].rate_bps for s in fl.src])

    def _maybe_init_memo(self) -> None:
        """Attach a :class:`~repro.core.memo.WindowMemoCache` when the
        static eligibility gates hold.

        The gates keep fast-forwarding inside the closed world the
        signature can encode (see docs/MEMOIZATION.md): no RED and no
        packet-mode ECMP (both hash raw sequence numbers, which the
        per-flow rebase erases), and at least one UDP flow (the
        per-window probe only ever memoizes pure-UDP windows, so without
        UDP flows the cache could never hit).  A run that asked for
        ``ffwd`` and fails a gate counts ``memo.disabled.<gate>``.
        """
        if not self.ffwd or self._memo is not None:
            return
        sc = self.scenario
        from ..protocols.aqm import AqmKind
        gate = ("red_aqm" if AqmKind.RED in (sc.host_egress.aqm.kind,
                                             sc.switch_egress.aqm.kind)
                else "packet_spray" if sc.ecmp_mode == "packet"
                else "no_udp_flow" if not sc.flows.has_udp else None)
        if gate is not None:
            # Asked for and statically impossible: say which gate.
            self.bus.count("memo.disabled." + gate)
            return
        from .memo import WindowMemoCache
        self._memo = WindowMemoCache(self)

    # --- calendar -------------------------------------------------------------

    def _window_of(self, t: int) -> int:
        return t // self.lookahead

    def _insert(self, t: int, node: int, entry: Entry) -> None:
        # LCC guarantees the target window lies after the running one.
        self.events.insert(self._window_of(t), node, entry)

    def accept_arrivals(self, records: List[Tuple[int, int, Row]]) -> None:
        """Install ``(arrival_ps, node, row)`` deliveries — an observed
        window's local ones, or packets another agent sent — into the
        calendar: one bucket append per record, in record order, then
        the ``register_window`` hook once per window touched, the index
        state one ``events.insert`` per record would leave.  Like the
        transmit sink, no record lands before the window after the
        running one (a no-op under LCC; the naive-order ablation
        breaks LCC)."""
        events, L = self.events, self.lookahead
        buckets = events._buckets
        floor = self._running_window + 1
        touched = set()
        for t, node, row in records:
            win = t // L
            if win < floor:
                win = floor
            touched.add(win)
            bucket = buckets.get(win)
            if bucket is None:
                bucket = buckets[win] = events_mod._Bucket()
            bucket.nodes.append(node)
            bucket.payloads.append((ENTRY_ARRIVAL, t, PRIO_ARRIVAL, row))
        for win in touched:
            events_mod.register_window(events, win)

    #: A cluster agent's deliveries to other agents' nodes, by owner.
    outbox: Optional[Dict[int, list]] = None
    #: ``owns[node]``: whether this engine simulates ``node`` (``None``:
    #: every node, a serial run).  A cluster agent's builder reads it.
    owns: Optional[List[bool]] = None

    def register_wakeup(self, t: int, node: int, tag: int, flow_id: int) -> None:
        """SendSystem callback: revisit ``flow_id`` in the window of ``t``."""
        self._insert(t, node, (tag, flow_id))

    # --- main loop --------------------------------------------------------------

    def _next_window(self, current: int) -> Optional[int]:
        return self.events.next_window(current, bool(self.active_ports))

    def peek_next_window(self, current: int) -> Optional[int]:
        """The next window index with pending work, without consuming it.

        O(1) off the occupancy index.  Used by the distributed
        coordinator to agree on the cluster-wide window (§4.2: every
        Runner executes the same batch).
        """
        return self.events.peek_next(current, bool(self.active_ports))

    def window_signature(self) -> str:
        """Hash of the engine's pending-window state (hex, 128-bit).

        Covers the cursor, the lookahead, every pending event column
        (including payload rows) and the active-port set — everything
        that determines the remainder of the run.  The encoding is
        little-endian int64 streams (see
        :meth:`EventColumns.signature_bytes`), so the digest is stable
        across platforms; the memo tests use it to hold a
        fast-forwarded engine to an executed one cursor by cursor.
        """
        h = blake2b(digest_size=16)
        h.update(struct.pack("<qq", self._cursor, self.lookahead))
        h.update(self.events.signature_bytes())
        active = sorted(self.active_ports)
        h.update(struct.pack(f"<q{len(active)}q", len(active), *active))
        return h.hexdigest()

    def _open_window(self, index: int) -> WindowContext:
        """Pop window ``index``'s pending entries into a fresh context."""
        L = self.lookahead
        self._running_window = index
        start = index * L
        end = start + L
        duration = self.scenario.duration_ps
        t_cut = None
        if duration is not None and end > duration + 1:
            # The duration cut falls inside this window.  The baseline
            # processes events with t <= duration and nothing after, so
            # clamp the window (end is exclusive) and drop pending
            # entries past the cut; timer/UDP wakeups carry no timestamp
            # and re-derive their firing times against ctx.end.
            end = duration + 1
            t_cut = duration
        ctx = WindowContext(index, start, end,
                            self.events.pop_window_columns(index, t_cut))
        if self.bus.ops is not None:
            self.bus.ops(OP_WINDOW, 0, 0)  # buffer arenas recycle
        return ctx

    def _close_window(self, ctx: WindowContext, ack_s: float, send_s: float,
                      forward_s: float, transmit_s: float) -> None:
        """Write the executed window's bus row and fold its event counts
        into the results."""
        counts = ctx.counts
        self.bus.window_row(ctx.index, ctx.start, ack_s, send_s, forward_s,
                            transmit_s, counts.ack, counts.send,
                            counts.forward, counts.transmit)
        self.results.end_time_ps = ctx.end
        if counts.total:
            self.results.events.add(counts)

    def process_window(self, index: int) -> WindowContext:
        """Execute one lookahead batch: open, plan, then the four
        systems in §3.3 order (ACK, Send, Forward, Transmit)."""
        bus = self.bus
        telemetry = bus.telemetry
        if telemetry:
            _w0 = bus.now()
        ctx = self._open_window(index)
        # Five clock reads (the phase marks) and one bus call per window.
        t0, t1, t2, t3, t4 = run_window(self, ctx, plan_window(self, ctx))
        self._close_window(ctx, t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        if telemetry:
            # System spans reuse the timing reads above — the only
            # extra hot-path cost is four list appends.
            rel = bus.rel
            bus.span_add("ack", rel(t0), rel(t1), "system")
            bus.span_add("send", rel(t1), rel(t2), "system")
            bus.span_add("forward", rel(t2), rel(t3), "system")
            bus.span_add("transmit", rel(t3), rel(t4), "system")
            self._sample_window_metrics(ctx.end - ctx.start)
            bus.span_add("window", _w0, bus.now(), "window",
                         {"index": index, "start_ps": ctx.start})
        return ctx

    def _sample_window_metrics(self, window_ps: int) -> None:
        """End-of-window metric sampling (telemetry only; read-only).

        Busy ports are sampled for queue depth and link utilization
        over the ``window_ps`` since the last sample — one window, or
        the whole span of a memo cycle jump (tx-bytes delta normalized
        by line rate x span).  Bounded by the active-port set, not the
        topology size.
        """
        from .telemetry import QUEUE_DEPTH_BUCKETS, UTILIZATION_BUCKETS
        metrics = self.bus.metrics
        depth = metrics.histogram("port.queue_depth_bytes",
                                  QUEUE_DEPTH_BUCKETS)
        util = metrics.histogram("link.window_utilization",
                                 UTILIZATION_BUCKETS)
        tx_prev = self._tx_prev
        cols = self.world.egress_cols
        queued_bytes, tx_bytes = cols.queued_bytes, cols.tx_bytes
        static = self.port_static
        for iface_id in self.active_ports:
            depth.record(queued_bytes[iface_id])
            tx = tx_bytes[iface_id]
            sent = tx - tx_prev.get(iface_id, 0)
            if sent:
                tx_prev[iface_id] = tx
                capacity = static[iface_id].rate_bps * window_ps * 1e-12
                if capacity > 0:
                    util.record(min(1.0, sent * 8.0 / capacity))

    def advance(self) -> bool:
        """Run the next pending lookahead window — or, under ``ffwd``,
        let the memo carry the engine over a run of windows it has
        shown to repeat (a cycle jump moves ``_cursor`` past, and writes
        a bus row for, each window it skipped).

        Returns ``False`` once no runnable window remains or the
        duration cut is reached.
        """
        nxt = self._next_window(self._cursor)
        if nxt is None:
            return False
        duration = self.scenario.duration_ps
        if duration is not None and nxt * self.lookahead > duration:
            return False
        self._cursor = nxt
        memo = self._memo
        if memo is None or not memo.run_window(nxt):
            self.process_window(nxt)
        return True

    def progress(self) -> Dict[str, Any]:
        """In-flight progress snapshot (read-only; safe mid-run).

        The live observability plane (:mod:`repro.metrics.live`) and the
        ``--progress`` meter sample this between ``advance()`` calls:
        windows completed (the bus's rows, memo-served ones included),
        simulated time reached, events committed, and
        the completed fraction of the duration cut (``None`` when the
        scenario has no cut to measure against).
        """
        cursor = self._cursor
        sim_ps = (cursor + 1) * self.lookahead if cursor >= 0 else 0
        duration = self.scenario.duration_ps
        return {
            "windows": self.bus.counters.get("windows", 0),
            "sim_ps": sim_ps,
            "duration_ps": duration,
            "events": self.results.events.total,
            "done": min(1.0, sim_ps / duration) if duration else None,
        }

    def run(self) -> SimResults:
        """Run to completion (or to the duration cut)."""
        return EngineRunner(self).run()

    def port_stats(self, iface_id: int) -> PortStats:
        """The counters of one egress row, as the result type the OOD
        baseline's ports carry (built on demand; a copy)."""
        cols = self.world.egress_cols
        return PortStats(
            cols.enqueued[iface_id], cols.dequeued[iface_id],
            cols.dropped[iface_id], cols.marked[iface_id],
            cols.tx_bytes[iface_id], cols.max_queue_bytes[iface_id])

    def finalize(self) -> SimResults:
        """Assemble results (idempotent).  The results read their
        ``window_breakdown`` off the bus's window rows, by reference."""
        res = self.results
        res.window_rows = self.bus.window_rows
        if not self._finalized:
            self._finalized = True
            res.trace = self.trace
            res.rtt_samples.sort()
            cols = self.world.egress_cols
            res.marks += sum(cols.marked)
            res.tx_bytes += sum(cols.tx_bytes)
            if self.bus.telemetry:
                self._final_metrics()
        return self.results

    def _final_metrics(self) -> None:
        """Whole-run metric rollups recorded once at finalize."""
        from .telemetry import FCT_US_BUCKETS
        metrics = self.bus.metrics
        fct = metrics.histogram("flow.completion_time_us", FCT_US_BUCKETS)
        for flow in self.results.flows.values():
            if flow.complete_ps is not None:
                fct.record((flow.complete_ps - flow.start_ps) * 1e-6)
        cols = self.world.egress_cols
        count = self.bus.count
        count("port.drops", sum(cols.dropped))
        count("port.ecn_marks", sum(cols.marked))
        count("port.enqueued", sum(cols.enqueued))
        count("port.dequeued", sum(cols.dequeued))
        metrics.gauge("port.max_queue_bytes",
                      float(max(cols.max_queue_bytes, default=0)))


def run_dons(
    scenario: Scenario,
    trace_level: TraceLevel = TraceLevel.NONE,
    telemetry: bool = False,
    ffwd: bool = False,
) -> SimResults:
    """Convenience one-shot run of the DOD engine."""
    return DodEngine(scenario, trace_level, telemetry=telemetry,
                     ffwd=ffwd).run()
