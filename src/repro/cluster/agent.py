"""DONS Agent: one machine's share of a distributed simulation (§3.1).

An Agent wraps the single-machine DOD engine, restricted to its
partition: its Simulation Builder only instantiates sender state for
flows starting locally, and its Runner's TransmitSystem hands packets
whose next hop lives on another machine to an outbox instead of the
local calendar.  The Cluster Controller flushes outboxes as batched
RPCs between windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.engine import DodEngine
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
    workers: int = 1
    #: ECS table/system backend ("python" or "numpy"); ``None`` defers to
    #: the engine's own resolution (``REPRO_BACKEND`` env, then "python"),
    #: re-resolved in the worker process a ProcessTransport spawns.
    backend: Optional[str] = None
    #: Span recording + metric sampling on the agent's bus; the spans
    #: come back in the AgentReport and merge into the cluster timeline.
    telemetry: bool = False
    #: PARSIR-style placement: pin the hosting worker process to this
    #: CPU at startup (``None`` = leave scheduling to the OS).  Set by
    #: the ProcessTransport when pinning is enabled; purely an execution
    #: hint, never part of simulation state.
    pin_cpu: Optional[int] = None

    def make(self) -> "AgentEngine":
        return AgentEngine(self.agent_id, self.scenario, self.partition,
                           self.trace_level, self.workers, self.backend,
                           self.telemetry)


def spec_of(engine: "AgentEngine") -> AgentSpec:
    """Recover the construction recipe of an existing agent engine."""
    return AgentSpec(engine.agent_id, engine.scenario, engine.partition,
                     TraceLevel(engine.trace.level), engine.pool.workers,
                     engine.backend, engine.bus.telemetry)


class AgentEngine(DodEngine):
    """The DOD engine of one cluster machine."""

    name = "dons-agent"

    def __init__(
        self,
        agent_id: int,
        scenario: Scenario,
        partition: Partition,
        trace_level: TraceLevel = TraceLevel.NONE,
        workers: int = 1,
        backend: Optional[str] = None,
        telemetry: bool = False,
    ) -> None:
        # ``False`` defers to REPRO_TELEMETRY (like ``backend=None``), so
        # the env switch reaches worker processes a transport spawns.
        super().__init__(scenario, trace_level, workers, backend=backend,
                         telemetry=telemetry or None)
        self.agent_id = agent_id
        self.partition = partition
        #: per remote agent: (arrival_ps, node, row) records of this window
        self.outbox: Dict[int, List[Tuple[int, int, Row]]] = {}

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

    def deliver(self, node: int, t: int, row: Row) -> None:
        owner = self.partition.part_of(node)
        if owner == self.agent_id:
            super().deliver(node, t, row)
        else:
            self.outbox.setdefault(owner, []).append((t, node, row))

    deliveries_local = False

    def deliver_emissions(self, node: int, delay_ps: int, emissions) -> None:
        owner = self.partition.part_of(node)
        if owner == self.agent_id:
            super().deliver_emissions(node, delay_ps, emissions)
        else:
            out = self.outbox.setdefault(owner, [])
            for row, _start, end in emissions:
                out.append((end + delay_ps, node, row))

    def accept_remote(self, records: List[Tuple[int, int, Row]]) -> None:
        """Install packets received via RPC into the local calendar."""
        for t, node, row in records:
            super().deliver(node, t, row)

    def take_outbox(self) -> Dict[int, List[Tuple[int, int, Row]]]:
        out = self.outbox
        self.outbox = {}
        return out

    def run_window(self, window: int) -> Dict[int, List[Tuple[int, int, Row]]]:
        """One cluster step: execute the window, hand back the outbox."""
        self.process_window(window)
        return self.take_outbox()

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
