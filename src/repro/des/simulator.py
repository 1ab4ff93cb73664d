"""The OOD baseline simulator: a classical object-oriented DES engine.

This engine stands in for ns-3 / OMNeT++ in every comparison: a single
event heap, one :class:`~repro.protocols.Packet`-object per packet in
flight, per-connection objects at hosts, and per-port objects at
switches, processed strictly one event at a time.  It is deliberately
architected the way §2.2 describes existing simulators — that is the
point of the baseline — while sharing the *semantic* building blocks
(egress automaton, DCTCP/UDP transitions, receiver logic) with the DOD
engine so their traces can be compared timestamp for timestamp.

Its slowness is a feature, not a bug: the heap-per-event architecture
is the measured reference point of every speedup claim (the
``des.ratio_dons_over_ood`` gates in ``tools/perf_smoke.py``), so this
engine must stay faithful to the §2.2 cost model — no batching, no
columnar storage, no window lookahead.  The fast counterparts live in
``repro.core`` (:class:`~repro.core.events.EventColumns`, the fused
window pass, multi-window batching); DESIGN.md's "Backends" section
maps out which store belongs to which engine.

Like the DOD engine, the simulator publishes every observation to an
:class:`~repro.core.instrument.InstrumentationBus`: machine-model probes
a machine-model probe is the bus's one op sink (``sim.bus.ops``), and
its trace recorder is the bus's one trace sink (``bus.trace``); each
publish site calls its sink directly, behind a ``bus.ops is not None``
or ``bus.trace_level`` check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .events import (
    EventQueue, KIND_ARRIVAL, KIND_FLOW_START, KIND_PORT_DONE, KIND_TIMER,
)
from ..core.instrument import (
    OP_FORWARD, OP_HOST_RX, OP_SEND, OP_SERVICE, InstrumentationBus,
)
from ..core.runner import EngineRunner
from ..errors import SimulationError
from ..metrics import SimResults, TraceLevel, TraceRecorder
from ..metrics.results import FlowResult
from ..protocols import (
    DctcpState,
    EgressPort,
    ReceiverState,
    UdpSchedule,
    ack_row,
    data_row,
    segment_count,
    segment_payload,
)
from ..protocols.packet import (
    F_CE, F_DST, F_ECE, F_FLOW, F_ISACK, F_SEND_TS, F_SEQ, Row, packet_uid,
)
from ..scenario import Scenario
from ..topology import Interface
from ..traffic import Transport


class OodSimulator:
    """Sequential, object-oriented discrete event simulator."""

    name = "ood-des"

    def __init__(
        self,
        scenario: Scenario,
        trace_level: TraceLevel = TraceLevel.NONE,
    ) -> None:
        self.scenario = scenario
        self.bus = InstrumentationBus()
        self.trace = self.bus.set_trace(TraceRecorder(trace_level))

        topo = scenario.topology
        from ..protocols.egress import TableClassifier
        classifier = TableClassifier(scenario.classifier_table())

        self.ports: List[EgressPort] = []
        for iface in topo.interfaces:
            cfg = (
                scenario.host_egress
                if topo.nodes[iface.node].is_host
                else scenario.switch_egress
            )
            self.ports.append(EgressPort(iface, cfg, classifier))

        # What an event reads of its flow, as plain lists taken once:
        # indexing the flow table would build a ``Flow`` per event.
        cols = scenario.flows.columns()
        self._flow_src = cols["src"].tolist()
        self._flow_dst = cols["dst"].tolist()
        self._flow_size = cols["size_bytes"].tolist()

        # Per-flow endpoint state (OOD: one object per connection).
        self.senders: Dict[int, DctcpState] = {}
        self.udp: Dict[int, UdpSchedule] = {}
        self.receivers: Dict[int, ReceiverState] = {}
        self.results = SimResults(self.name, scenario.name, 0)
        self.queue = EventQueue()
        self._built = False
        self._finalized = False

    # --- construction ----------------------------------------------------

    #: ``owns[node]``: whether this simulator runs ``node`` (``None``:
    #: every node, a sequential run).  A parallel LP's builder reads it.
    owns: Optional[List[bool]] = None

    def build(self) -> None:
        """Create endpoint state and schedule flow starts: under
        :attr:`owns`, a flow's receiver state and result where its
        destination is owned, its sender state and start where its
        source is."""
        sc = self.scenario
        owns = self.owns
        for flow in sc.flows:
            total = segment_count(flow.size_bytes)
            if owns is None or owns[flow.dst]:
                self.receivers[flow.flow_id] = ReceiverState(
                    flow.flow_id, total, flow.transport != Transport.UDP
                )
                self.results.flows[flow.flow_id] = FlowResult(
                    flow.flow_id, flow.start_ps, None, flow.size_bytes
                )
            if owns is not None and not owns[flow.src]:
                continue
            if flow.transport != Transport.UDP:
                self.senders[flow.flow_id] = DctcpState(
                    flow.flow_id, total, sc.cca_params(flow.transport)
                )
                self.queue.push(
                    flow.start_ps, KIND_FLOW_START, flow.flow_id, 0, 0,
                    (flow.flow_id, None),
                )
            else:
                nic_rate = sc.topology.host_iface(flow.src).rate_bps
                self.udp[flow.flow_id] = UdpSchedule(
                    flow.flow_id, flow.size_bytes, flow.start_ps, nic_rate
                )
                self.queue.push(
                    flow.start_ps, KIND_FLOW_START, flow.flow_id, 0, 0,
                    (flow.flow_id, 0),
                )
        self._built = True

    # --- helpers ----------------------------------------------------------

    def _emit(self, port: EgressPort, row: Row, start: int, end: int) -> None:
        """A service started: schedule completion and far-end arrival."""
        iface = port.iface
        if self.bus.trace_level:
            self.bus.trace.deq(start, iface.iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        if self.bus.ops is not None:
            self.bus.ops(OP_SERVICE, iface.iface_id, packet_uid(row))
        self.results.events.transmit += 1
        node_events = self.results.node_events
        node_events[iface.node] = node_events.get(iface.node, 0) + 1
        self.queue.push(end, KIND_PORT_DONE, iface.iface_id, 0, 0, iface.iface_id)
        self._deliver(iface, row, end + iface.delay_ps)

    def _deliver(self, iface: Interface, row: Row, arrive: int) -> None:
        """Schedule a serviced packet's arrival at the link's far end."""
        self.queue.push(
            arrive, KIND_ARRIVAL, row[F_FLOW], row[F_ISACK], row[F_SEQ],
            (iface.peer_node, row),
        )

    def _try_start(self, port: EgressPort, now: int) -> None:
        if port.in_service:
            return
        res = port.start_service(now)
        if res is not None:
            row, end = res
            self._emit(port, row, now, end)

    def _enqueue_at_port(self, iface_id: int, row: Row, now: int) -> None:
        port = self.ports[iface_id]
        accepted = port.arrive(row, now)
        if accepted is None:
            if self.bus.trace_level:
                self.bus.trace.drop(now, iface_id, row[F_FLOW], row[F_ISACK], row[F_SEQ])
            self.results.drops += 1
            return
        if self.bus.trace_level:
            self.bus.trace.enq(now, iface_id, row[F_FLOW], row[F_ISACK],
                               row[F_SEQ], accepted[F_CE])
        self._try_start(port, now)

    def _enqueue_at_host_nic(self, host: int, row: Row, now: int) -> None:
        iface = self.scenario.topology.host_iface(host)
        self._enqueue_at_port(iface.iface_id, row, now)

    def _bump_node(self, node: int) -> None:
        self.results.node_events[node] = self.results.node_events.get(node, 0) + 1

    def _send_segments(self, flow_id: int, seqs: List[int], now: int) -> None:
        """Put data segments of ``flow_id`` on the sender's NIC queue."""
        src = self._flow_src[flow_id]
        dst = self._flow_dst[flow_id]
        size = self._flow_size[flow_id]
        for seq in seqs:
            payload = segment_payload(size, seq)
            row = data_row(flow_id, seq, payload, now, src, dst)
            self.results.events.send += 1
            self._bump_node(src)
            if self.bus.ops is not None:
                self.bus.ops(OP_SEND, src, packet_uid(row))
            self._enqueue_at_host_nic(src, row, now)

    def _arm_timer(self, state: DctcpState) -> None:
        if state.rtx_deadline is not None:
            self.queue.push(
                state.rtx_deadline, KIND_TIMER, state.flow_id, 0, 0,
                (state.flow_id, state.timer_gen),
            )

    # --- event handlers ----------------------------------------------------

    def _on_flow_start(self, now: int, payload: Tuple[int, Optional[int]]) -> None:
        flow_id, udp_seq = payload
        if udp_seq is None:
            state = self.senders[flow_id]
            segs = state.on_start(now)
            self._send_segments(flow_id, segs, now)
            self._arm_timer(state)
            return
        # Paced UDP: enqueue this segment, schedule the next.
        sched = self.udp[flow_id]
        payload_bytes = sched.payload(udp_seq)
        src = self._flow_src[flow_id]
        row = data_row(flow_id, udp_seq, payload_bytes, now, src,
                       self._flow_dst[flow_id])
        self.results.events.send += 1
        self._bump_node(src)
        if self.bus.ops is not None:
            self.bus.ops(OP_SEND, src, packet_uid(row))
        self._enqueue_at_host_nic(src, row, now)
        nxt = udp_seq + 1
        if nxt < sched.total_segs:
            self.queue.push(
                sched.enqueue_time(nxt), KIND_FLOW_START, flow_id, 0, nxt,
                (flow_id, nxt),
            )

    def _on_arrival(self, now: int, payload: Tuple[int, Row]) -> None:
        node, row = payload
        topo = self.scenario.topology
        if not topo.nodes[node].is_host:
            # Switch: FIB lookup + move to the chosen egress (ForwardSystem).
            self.results.events.forward += 1
            self._bump_node(node)
            if self.bus.ops is not None:
                self.bus.ops(OP_FORWARD, node, packet_uid(row))
            salt = row[F_SEQ] if self.scenario.ecmp_mode == "packet" else None
            port = self.scenario.fib.resolve_port(node, row[F_DST],
                                                  row[F_FLOW], salt)
            self._enqueue_at_port(topo.iface_id(node, port), row, now)
            return

        # Host side.
        if node != row[F_DST]:
            raise SimulationError(
                f"packet for host {row[F_DST]} delivered to host {node}"
            )
        self.results.events.ack += 1
        self._bump_node(node)
        if self.bus.ops is not None:
            self.bus.ops(OP_HOST_RX, node, packet_uid(row))
        if self.bus.trace_level:
            self.bus.trace.deliver(now, node, row[F_FLOW], row[F_ISACK], row[F_SEQ])
        flow_id = row[F_FLOW]
        if row[F_ISACK]:
            self._on_ack_at_sender(flow_id, row, now)
        else:
            self._on_data_at_receiver(flow_id, row, now)

    def _on_data_at_receiver(self, flow_id: int, row: Row, now: int) -> None:
        rec = self.receivers[flow_id]
        was_complete = rec.complete
        ack = rec.on_data(row[F_SEQ], row[F_CE], row[F_SEND_TS], now)
        if rec.complete and not was_complete:
            self.results.flows[flow_id].complete_ps = now
            if self.bus.trace_level:
                self.bus.trace.flow_done(now, row[F_DST], flow_id)
        if ack is not None:
            ack_seq, ece, echo_ts = ack
            dst = self._flow_dst[flow_id]
            out = ack_row(flow_id, ack_seq, ece, echo_ts, dst,
                          self._flow_src[flow_id])
            self._enqueue_at_host_nic(dst, out, now)

    def _on_ack_at_sender(self, flow_id: int, row: Row, now: int) -> None:
        state = self.senders.get(flow_id)
        if state is None:
            raise SimulationError(f"ACK for non-DCTCP flow {flow_id}")
        self.results.rtt_samples.append((now, now - row[F_SEND_TS], flow_id))
        segs = state.on_ack(row[F_SEQ], row[F_ECE], row[F_SEND_TS], now)
        self._send_segments(flow_id, segs, now)
        self._arm_timer(state)

    def _on_timer(self, now: int, payload: Tuple[int, int]) -> None:
        flow_id, gen = payload
        state = self.senders[flow_id]
        if state.rtx_deadline is None or gen != state.timer_gen:
            return  # stale timer
        if now != state.rtx_deadline:
            return
        segs = state.on_timeout(now)
        self._send_segments(flow_id, segs, now)
        self._arm_timer(state)

    def _on_port_done(self, now: int, iface_id: int) -> None:
        port = self.ports[iface_id]
        port.complete_service()
        self._try_start(port, now)

    # --- main loop -----------------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    def advance(self) -> bool:
        """Process the next event (the runner's unit of progress)."""
        if not self.queue:
            return False
        duration = self.scenario.duration_ps
        t = self.queue.peek_time()
        if duration is not None and t > duration:
            return False
        time_ps, kind, _k1, _k2, _k3, payload = self.queue.pop()
        if kind == KIND_PORT_DONE:
            self._on_port_done(time_ps, payload)
        elif kind == KIND_ARRIVAL:
            self._on_arrival(time_ps, payload)
        elif kind == KIND_FLOW_START:
            self._on_flow_start(time_ps, payload)
        elif kind == KIND_TIMER:
            self._on_timer(time_ps, payload)
        else:
            raise SimulationError(f"unknown event kind {kind}")
        self.results.end_time_ps = time_ps
        return True

    def run(self) -> SimResults:
        """Run to completion (or to the scenario's duration cut)."""
        return EngineRunner(self).run()

    def finalize(self) -> SimResults:
        """Assemble results (idempotent)."""
        if not self._finalized:
            self._finalized = True
            res = self.results
            res.trace = self.trace
            res.rtt_samples.sort()
            for port in self.ports:
                res.marks += port.stats.marked
                res.tx_bytes += port.stats.tx_bytes
        return self.results


def run_baseline(
    scenario: Scenario,
    trace_level: TraceLevel = TraceLevel.NONE,
) -> SimResults:
    """Convenience one-shot run of the OOD baseline."""
    return OodSimulator(scenario, trace_level).run()
