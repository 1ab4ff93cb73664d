"""Parallel OOD baseline: logical processes + null-message synchronization.

This reproduces how ns-3/OMNeT++ parallelize (§2.2): the topology is
partitioned into sub-graphs, each simulated by a Logical Process (LP)
with its own event queue, synchronized conservatively with the
Chandy-Misra-Bryant null-message algorithm [8, 10, 16].  Each LP
duplicates the full topology and routing state — the memory blow-up of
paper Fig. 2b.

The LPs here run cooperatively in one OS process (CPython cannot give
them real parallelism anyway; DESIGN.md); what is executed for real is
the *algorithm*: per-LP chronological processing, channel clocks,
null-message exchange, blocking on unsafe timestamps.  The cost model
turns the measured per-LP event counts, null-message counts and blocked
rounds into modeled wall-clock, which is where Fig. 3's "2 LPs slower
than 1" emerges.

Correctness: conservative synchronization never processes an event
before its inputs are final, so the merged trace equals the sequential
baseline's — asserted in
tests/des/test_parallel.py::TestParallelExecution::test_matches_sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .events import KIND_ARRIVAL
from .partition_types import Partition
from .simulator import OodSimulator
from ..errors import SimulationError
from ..metrics import SimResults, TraceLevel
from ..metrics.results import merge_results
from ..protocols.packet import F_FLOW, F_ISACK, F_SEQ, Row
from ..scenario import Scenario
from ..topology import Interface


@dataclass
class Channel:
    """A directed cross-LP channel (one per cut directed interface).

    ``bound`` is the channel clock: the sender guarantees no future
    message with timestamp < bound.  Messages arrive timestamp-ordered
    because a single egress port emits in nondecreasing time.
    """

    src_lp: int
    dst_lp: int
    iface_id: int
    lookahead_ps: int
    bound: int = 0
    queue: List[Tuple[int, Row, int]] = field(default_factory=list)  # (t, row, node)
    null_messages: int = 0
    data_messages: int = 0

    def send(self, t: int, row: Row, node: int) -> None:
        if self.queue and t < self.queue[-1][0]:
            raise SimulationError("channel violated FIFO timestamp order")
        self.queue.append((t, row, node))
        self.data_messages += 1
        if t > self.bound:
            self.bound = t

    def send_null(self, new_bound: int) -> None:
        if new_bound > self.bound:
            self.bound = new_bound
            self.null_messages += 1


class _LpSimulator(OodSimulator):
    """One LP: the sequential engine restricted to its sub-graph.

    The sequential builder runs under :attr:`OodSimulator.owns`: an LP
    holds the sender state of flows starting in its sub-graph and the
    receiver state of flows terminating there (and still duplicates
    topology + FIB, which is exactly the paper's P2 memory problem)."""

    def __init__(self, lp_id: int, scenario: Scenario, partition: Partition,
                 trace_level: TraceLevel) -> None:
        super().__init__(scenario, trace_level)
        self.owns = [part == lp_id for part in partition.assignment]
        self.out_channels: Dict[int, Channel] = {}  # by egress iface id
        self.in_channels: List[Channel] = []

    def _deliver(self, iface: Interface, row: Row, arrive: int) -> None:
        """A cut link's far end belongs to another LP: the arrival goes
        to that link's channel instead of the local heap."""
        channel = self.out_channels.get(iface.iface_id)
        if channel is None:
            super()._deliver(iface, row, arrive)
        else:
            channel.send(arrive, row, iface.peer_node)

    # --- conservative execution ------------------------------------------

    def safe_bound(self) -> int:
        """Largest timestamp (exclusive) this LP may process."""
        if not self.in_channels:
            return 1 << 62
        return min(ch.bound for ch in self.in_channels)

    def drain_channels(self) -> None:
        """Move committed channel messages into the local event heap."""
        for ch in self.in_channels:
            for t, row, node in ch.queue:
                self.queue.push(t, KIND_ARRIVAL, row[F_FLOW],
                                row[F_ISACK], row[F_SEQ], (node, row))
            ch.queue.clear()

    def step(self) -> int:
        """Process every event before the safe bound through the
        sequential :meth:`~OodSimulator.advance`; returns how many were
        handled.  No input channel moves while this LP runs, so the
        bound holds for the whole step."""
        self.drain_channels()
        bound = self.safe_bound()
        handled = 0
        while (self.queue and self.queue.peek_time() < bound
               and self.advance()):
            handled += 1
        return handled

    def next_local_time(self) -> Optional[int]:
        """The head event's time; ``None`` when no event is left before
        the duration cut (this LP is done)."""
        if not self.queue:
            return None
        t = self.queue.peek_time()
        duration = self.scenario.duration_ps
        return None if duration is not None and t > duration else t

    def advertise(self) -> None:
        """Send null messages (CMB): promise no output earlier than the
        earliest event this LP could still process, plus the channel's
        lookahead (its link's propagation delay).

        The earliest processable event is the smaller of the local queue
        head and the earliest possible future channel input (the safe
        bound) — the classic null-message timestamp.  Positive link delays
        make the bounds strictly increase, which is the CMB deadlock-
        freedom argument.
        """
        nxt = self.next_local_time()
        earliest = self.safe_bound()
        if nxt is not None and nxt < earliest:
            earliest = nxt
        floor = max(self.results.end_time_ps, min(earliest, 1 << 62))
        for ch in self.out_channels.values():
            ch.send_null(floor + ch.lookahead_ps)


#: Synchronization rounds after which a run is taken to be livelocked.
MAX_ROUNDS = 100_000_000


@dataclass
class ParallelRunStats:
    """Synchronization measurements (cost-model inputs)."""

    rounds: int = 0
    null_messages: int = 0
    data_messages: int = 0
    blocked_lp_rounds: int = 0
    global_flushes: int = 0
    lp_events: List[int] = field(default_factory=list)


class ParallelOodSimulator:
    """Multi-LP conservative parallel simulation of one scenario."""

    name = "ood-des-parallel"

    def __init__(
        self,
        scenario: Scenario,
        partition: Partition,
        trace_level: TraceLevel = TraceLevel.NONE,
    ) -> None:
        if len(partition.assignment) != scenario.topology.num_nodes:
            raise SimulationError("partition does not match topology")
        self.scenario = scenario
        self.partition = partition
        self.lps = [
            _LpSimulator(i, scenario, partition, trace_level)
            for i in range(partition.num_parts)
        ]
        self.channels: List[Channel] = []
        self._wire_channels()
        self.stats = ParallelRunStats()

    def _wire_channels(self) -> None:
        topo = self.scenario.topology
        for iface in topo.interfaces:
            src_lp = self.partition.part_of(iface.node)
            dst_lp = self.partition.part_of(iface.peer_node)
            if src_lp == dst_lp:
                continue
            ch = Channel(src_lp, dst_lp, iface.iface_id, iface.delay_ps)
            self.channels.append(ch)
            self.lps[src_lp].out_channels[iface.iface_id] = ch
            self.lps[dst_lp].in_channels.append(ch)

    def run(self) -> SimResults:
        for lp in self.lps:
            lp.build()
        rounds = 0
        while True:
            progressed = 0
            for lp in self.lps:
                handled = lp.step()
                if handled == 0 and lp.next_local_time() is not None:
                    self.stats.blocked_lp_rounds += 1
                progressed += handled
            if progressed == 0 and all(
                lp.next_local_time() is None for lp in self.lps) and all(
                not ch.queue for ch in self.channels
            ):
                rounds += 1
                break  # globally quiescent: simulation complete
            bounds_before = [ch.bound for ch in self.channels]
            for lp in self.lps:
                lp.advertise()
            if progressed == 0 and all(not ch.queue for ch in self.channels):
                # Every LP is blocked and nothing is in flight: jump the
                # channel clocks to the global minimum next event (a global
                # reduction, as real PDES kernels do across idle periods).
                # Sound: no LP can emit before processing its next event.
                nexts = [
                    t for t in (lp.next_local_time() for lp in self.lps)
                    if t is not None
                ]
                if nexts:
                    gmin = min(nexts)
                    for ch in self.channels:
                        ch.send_null(gmin + ch.lookahead_ps)
                    self.stats.global_flushes += 1
            bounds_moved = bounds_before != [ch.bound for ch in self.channels]
            rounds += 1
            if progressed == 0 and not bounds_moved:
                raise SimulationError(
                    "null-message deadlock (zero lookahead somewhere?)"
                )
            if rounds >= MAX_ROUNDS:
                raise SimulationError("exceeded max synchronization rounds")
        self.stats.rounds = rounds
        self.stats.null_messages = sum(ch.null_messages for ch in self.channels)
        self.stats.data_messages = sum(ch.data_messages for ch in self.channels)
        self.stats.lp_events = [lp.results.events.total for lp in self.lps]
        return merge_results([lp.finalize() for lp in self.lps],
                             self.scenario.name, self.name)
