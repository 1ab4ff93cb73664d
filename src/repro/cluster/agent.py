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

    The spec — not the engine — is what crosses a transport boundary: a
    :class:`~repro.cluster.transport.ProcessTransport` pickles it into
    the worker process, and fault recovery uses it to rebuild a dead
    agent before restoring the checkpoint payload.
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


def spec_of(engine: "AgentEngine") -> AgentSpec:
    """Recover the construction recipe of an existing agent engine."""
    return AgentSpec(engine.agent_id, engine.scenario, engine.partition,
                     TraceLevel(engine.trace.level),
                     telemetry=engine.bus.telemetry)


class AgentEngine(DodEngine):
    """The DOD engine of one cluster machine."""

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

    @property
    def partition(self) -> Partition:
        return self._partition

    @partition.setter
    def partition(self, partition: Partition) -> None:
        """Binding a partition (construction, ``migrate()``) re-derives
        ``port_owner`` and ``port_observed``, which the transmit sink
        routes deliveries by."""
        self._partition = partition
        owners = map(partition.part_of, (
            iface.peer_node for iface in self.scenario.topology.interfaces))
        self.port_owner = [None if o == self.agent_id else o for o in owners]
        self.port_observed = [LOCAL if o is None else o
                              for o in self.port_owner]

    # --- builder: local endpoints only ------------------------------------

    def build(self) -> None:
        super().build()
        # Drop the flow starts that belong to other machines: the base
        # builder registered every flow; non-local starts must not fire
        # here.  (Sender/receiver tables stay fully allocated — component
        # tables are dense — but remote rows are never visited.  The
        # occupancy index deliberately keeps the emptied windows: the
        # agent still schedules them, as no-ops, in step with the
        # cluster.)
        part_of = self.partition.part_of
        me = self.agent_id
        self.events.retain_nodes(lambda node: part_of(node) == me)

    # --- runner: remote deliveries go to the outbox --------------------------

    def run_window(self, window: int, skip_idle: bool = True):
        """One cluster step: execute the agreed window; returns
        ``(outbox, offer)`` — the batches for the peers and this agent's
        offer for the next agreement (see :func:`agreed_window`).

        An agent whose own peek lies beyond the window has nothing
        scheduled — no pending entries, no busy ports — so executing it
        is a provable no-op and is skipped.  ``skip_idle=False`` while a
        migration is scheduled: it rewrites agent state between windows.
        """
        if skip_idle:
            peek = self.peek_next_window(window - 1)
            skip_idle = peek is None or peek > window
        if not skip_idle:
            self.process_window(window)
        outbox, self.outbox = self.outbox, {}
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
