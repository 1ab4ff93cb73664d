"""DONS Agent: one machine's share of a distributed simulation (§3.1).

An Agent wraps the single-machine DOD engine, restricted to its
partition: its Simulation Builder only instantiates sender state for
flows starting locally, and its Runner's TransmitSystem hands packets
whose next hop lives on another machine to an outbox instead of the
local calendar.  After every window the transport moves each outbox
entry to its peer Agent as one batch.

This module also holds the rule by which Agents agree on the next
window without a coordinator round trip (:func:`agreed_window`) and the
run-ahead grant they execute under (:class:`Horizon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..core.engine import DodEngine
from ..core.systems.transmit import LOCAL
from ..des.partition_types import Partition
from ..metrics import TraceLevel
from ..protocols.packet import Row
from ..scenario import Scenario


@dataclass(frozen=True)
class AgentSpec:
    """Everything needed to (re)construct one agent's engine.

    A cluster is built from specs, never from engines: the transport
    makes each engine from its spec (a
    :class:`~repro.cluster.transport.ProcessTransport` pickles it into
    the worker process), and a restore uses it to rebuild an agent
    before loading the checkpoint payload.
    """

    agent_id: int
    scenario: Scenario
    partition: Partition
    trace_level: TraceLevel = TraceLevel.NONE
    #: Accepted and ignored, like ``DodEngine``'s ``backend`` keyword:
    #: the benchmark workloads still pass it (ROADMAP item 1).
    backend: Optional[str] = None
    #: Span recording + metric sampling on the agent's bus; the spans
    #: come back in the AgentReport and merge into the cluster timeline.
    telemetry: bool = False

    def make(self) -> "AgentEngine":
        return AgentEngine(self.agent_id, self.scenario, self.partition,
                           self.trace_level, telemetry=self.telemetry)


def window_offer(peek: Optional[int], outbox: Dict[int, list],
                 lookahead_ps: int) -> Optional[int]:
    """What an agent offers after a window: the earliest window it knows
    work exists in — its own peek, or the arrival window ``t // L`` of a
    record it just sent."""
    for records in outbox.values():
        if records:
            arrival = min(record[0] for record in records) // lookahead_ps
            if peek is None or arrival < peek:
                peek = arrival
    return peek


def agreed_window(offers: Iterable[Optional[int]], lookahead_ps: int,
                  duration_ps: Optional[int]) -> Optional[int]:
    """The next cluster window, or ``None`` when the run is over.

    The next window is the minimum :func:`window_offer` over all agents,
    cut at the scenario duration.  That equals the minimum of all
    peeks *after* delivery — a delivered record lands in window
    ``t // L``, which the lookahead discipline keeps in the receiver's
    future — so every agent derives the same window from the frames it
    waits for anyway.
    """
    live = [w for w in offers if w is not None]
    if not live:
        return None
    window = min(live)
    if duration_ps is not None and window * lookahead_ps > duration_ps:
        return None
    return window


class Horizon(NamedTuple):
    """How far agents may run before they wait for the coordinator."""

    #: Windows this grant covers (``None``: unlimited).
    max_windows: Optional[int] = None
    #: Pause before the first agreed window >= this (fault injection).
    stop_at: Optional[int] = None

    def reached(self, done: int, window: int) -> bool:
        return ((self.max_windows is not None and done >= self.max_windows)
                or (self.stop_at is not None and window >= self.stop_at))


class AgentEngine(DodEngine):
    """The DOD engine of one cluster machine.

    It is built by the serial builder under :attr:`DodEngine.owns`: it
    schedules the starts of the flows its hosts send and keeps the
    :class:`~repro.metrics.results.FlowResult` of the flows its hosts
    receive, so each flow's record lives on exactly one agent.  The
    sender and receiver tables stay dense; a foreign flow's rows are
    never visited."""

    name = "dons-agent"

    def __init__(
        self,
        agent_id: int,
        scenario: Scenario,
        partition: Partition,
        trace_level: TraceLevel = TraceLevel.NONE,
        *,
        telemetry: bool = False,
    ) -> None:
        super().__init__(scenario, trace_level, telemetry=telemetry)
        self.agent_id = agent_id
        self.partition = partition
        #: per remote agent: (arrival_ps, node, row) records of this window
        self.outbox: Dict[int, List[Tuple[int, int, Row]]] = {}
        # What the builder and the transmit sink read; an agent keeps its
        # partition for life (a migration restores into a new engine).
        self.owns = [part == agent_id for part in partition.assignment]
        owners = map(partition.part_of, (
            iface.peer_node for iface in scenario.topology.interfaces))
        self.port_owner = [None if o == agent_id else o for o in owners]
        self.port_observed = [LOCAL if o is None else o
                              for o in self.port_owner]

    # --- runner: remote deliveries go to the outbox --------------------------

    def run_window(self, window: int):
        """One cluster step: execute the agreed window; returns
        ``(outbox, offer)`` — the batches for the peers and this agent's
        offer for the next agreement (see :func:`agreed_window`).

        The agent's bus is the one record of its traffic (§4.2, tau_a of
        Eq. 1): per window a FINISH frame to every peer
        (``cluster.finish_frames``), one RPC per non-empty batch
        (``cluster.rpc_messages``) and its records
        (``cluster.rpc_records``).

        An agent whose own peek lies beyond the window has nothing
        scheduled — no pending entries, no busy ports — so executing it
        is a provable no-op and is skipped.
        """
        peek = self.peek_next_window(window - 1)
        if peek is not None and peek <= window:
            self.process_window(window)
        outbox, self.outbox = self.outbox, {}
        count = self.bus.count
        count("cluster.finish_frames", self.partition.num_parts - 1)
        batches = [len(records) for records in outbox.values() if records]
        if batches:
            count("cluster.rpc_messages", len(batches))
            count("cluster.rpc_records", sum(batches))
        return outbox, window_offer(self.peek_next_window(window), outbox,
                                    self.lookahead)

    def finish(self) -> None:
        self.finalize()
        bus = self.bus
        if bus.telemetry and bus.spans:
            # Agents are driven window-by-window by the coordinator, so
            # no EngineRunner wraps them in a "run" span; synthesize one
            # over the whole recorded range so the agent's track nests
            # like a single-machine timeline.
            t0 = min(span[0] for span in bus.spans)
            bus.span_add("run", t0, bus.now(), "run", {"engine": self.name})
