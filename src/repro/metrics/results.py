"""Result containers: what a simulation run returns.

Both engines return a :class:`SimResults`; every downstream consumer
(fidelity checks, the cost model, the benches) works from this one type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import TraceRecorder


class FlowResult:
    """Per-flow outcome.

    A slotted record with no ``__dict__``: a run keeps one per flow, so
    its size is the per-flow cost of the results.  Written by hand
    (``dataclass(slots=True)`` needs Python 3.10); it keeps the
    dataclass's positional/keyword constructor, field-wise equality,
    repr and pickling.
    """

    __slots__ = ("flow_id", "start_ps", "complete_ps", "size_bytes")
    __hash__ = None  # mutable, compared by value

    def __init__(self, flow_id: int, start_ps: int,
                 complete_ps: Optional[int], size_bytes: int) -> None:
        self.flow_id = flow_id
        self.start_ps = start_ps
        self.complete_ps = complete_ps  # None if unfinished at sim end
        self.size_bytes = size_bytes

    def _fields(self) -> Tuple:
        return (self.flow_id, self.start_ps, self.complete_ps,
                self.size_bytes)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("FlowResult(flow_id={!r}, start_ps={!r}, complete_ps={!r}, "
                "size_bytes={!r})".format(*self._fields()))

    def __reduce__(self):
        return FlowResult, self._fields()

    @property
    def fct_ps(self) -> Optional[int]:
        if self.complete_ps is None:
            return None
        return self.complete_ps - self.start_ps


@dataclass
class EventCounts:
    """Events processed, bucketed by the paper's four behavioural aspects.

    These are *measured* counts; the machine cost model multiplies them
    by calibrated per-event costs to obtain modeled wall-clocks.
    """

    send: int = 0      # segments put on the wire by senders
    forward: int = 0   # FIB lookups / ingress->egress moves at switches
    transmit: int = 0  # egress service starts (per-packet serialization)
    ack: int = 0       # receiver-side packet handling + ACK generation

    @property
    def total(self) -> int:
        return self.send + self.forward + self.transmit + self.ack

    def add(self, other: "EventCounts") -> None:
        self.send += other.send
        self.forward += other.forward
        self.transmit += other.transmit
        self.ack += other.ack


@dataclass
class SimResults:
    """Everything a run produces."""

    engine: str
    scenario_name: str
    end_time_ps: int
    flows: Dict[int, FlowResult] = field(default_factory=dict)
    #: (sample_time_ps, rtt_ps, flow_id) per ACK processed at a sender.
    rtt_samples: List[Tuple[int, int, int]] = field(default_factory=list)
    events: EventCounts = field(default_factory=EventCounts)
    #: events processed at each node (partition-evaluation input).
    node_events: Dict[int, int] = field(default_factory=dict)
    drops: int = 0
    marks: int = 0
    tx_bytes: int = 0
    trace: Optional[TraceRecorder] = None
    #: DOD engine only: its bus's window rows, by reference from finalize().
    window_rows: Sequence[tuple] = field(default=(), repr=False, compare=False)

    # --- summaries -------------------------------------------------------

    @property
    def window_breakdown(self) -> List[Tuple[int, int, int, int, int]]:
        """``[(window_start_ps, ack, send, forward, transmit), ...]`` per
        window with events, in row order (Fig. 13); ``[]`` without rows."""
        return [(row[1],) + row[6:] for row in self.window_rows if any(row[6:])]

    def fcts_ps(self) -> List[int]:
        """Completed flows' FCTs, ordered by flow id."""
        return [
            fr.fct_ps for _, fr in sorted(self.flows.items())
            if fr.fct_ps is not None
        ]

    def completed(self) -> int:
        return sum(1 for fr in self.flows.values() if fr.complete_ps is not None)

    def rtts_ps(self) -> List[int]:
        """RTT samples in measurement order (Fig. 10a plots the first 200)."""
        return [rtt for _, rtt, _ in self.rtt_samples]


def merge_results(parts: Sequence[SimResults], scenario_name: str,
                  engine: str = "dons-cluster") -> SimResults:
    """One run's results from its parts' (cluster agents or the LPs of
    the parallel baseline): counts, drops, marks and bytes summed, traces
    in part order, and the flow records united in flow-id order — a
    flow's one record lives in the part that owns its destination."""
    merged = SimResults(engine, scenario_name, 0)
    merged.trace = TraceRecorder(parts[0].trace.level if parts[0].trace else 0)
    flows: Dict[int, FlowResult] = {}
    for res in parts:
        merged.end_time_ps = max(merged.end_time_ps, res.end_time_ps)
        merged.events.add(res.events)
        merged.drops += res.drops
        merged.marks += res.marks
        merged.tx_bytes += res.tx_bytes
        merged.rtt_samples.extend(res.rtt_samples)
        for node, count in res.node_events.items():
            merged.node_events[node] = merged.node_events.get(node, 0) + count
        flows.update(res.flows)
        if res.trace:
            merged.trace.entries.extend(res.trace.entries)
    merged.flows = dict(sorted(flows.items()))
    merged.rtt_samples.sort()
    return merged
