"""Per-window context shared by the four systems, and the window plan.

A lookahead window's inputs are fully determined before the window's
systems run (the LCC argument of §3.3): all packet deliveries, flow
starts and timer wakeups with timestamps inside the window were produced
by earlier windows.  :class:`WindowContext` is that input slice — the
raw insert-ordered event columns — plus the staging area the systems
fill for the TransmitSystem, and :func:`plan_window` is the one place
that classifies the slice into the ACK, Send and Forward work lists,
whichever kernels then run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..metrics.results import EventCounts
from ..protocols.packet import F_FLOW, F_ISACK, Row

# Calendar entry tags.
ENTRY_ARRIVAL = 0     # (ENTRY_ARRIVAL, t, prio, row): delivery at this node
ENTRY_FLOW_START = 1  # (ENTRY_FLOW_START, t, flow_id)
ENTRY_TIMER = 2       # (ENTRY_TIMER, flow_id): visit flow, check deadline
ENTRY_UDP = 3         # (ENTRY_UDP, flow_id): visit flow, emit paced segs

Entry = Tuple  # heterogeneous small tuples, see tags above
Staged = Tuple[int, int, Row]  # (t, prio, row) awaiting an egress queue

#: The columns of a window that holds no entries (busy ports only).
NO_ENTRIES: Tuple[Sequence[int], Sequence[Entry]] = ((), ())


@dataclass
class WindowContext:
    """One lookahead batch."""

    index: int
    start: int
    end: int
    #: raw ``(nodes, payloads)`` columns landing in this window, in
    #: insertion order (:meth:`EventColumns.pop_window_columns`).
    columns: Tuple[Sequence[int], Sequence[Entry]] = NO_ENTRIES
    #: egress iface id -> arrivals staged by ACK/Send/Forward systems.
    staged: Dict[int, List[Staged]] = field(default_factory=dict)
    #: events processed per system in this window (Fig. 13 breakdown).
    counts: EventCounts = field(default_factory=EventCounts)

    def stage(self, iface_id: int, t: int, prio: int, row: Row) -> None:
        self.staged.setdefault(iface_id, []).append((t, prio, row))


#: One host's or switch's window arrivals: (node, [(t, prio, row), ...]).
NodeWork = Tuple[int, List[Staged]]

#: The SendSystem's slice of the plan: (flow ids ascending — one task
#: each, ``(t, ack row)`` deliveries per flow, start time per flow,
#: ``(t, host, ack row)`` deliveries for the trace).
SendPlan = Tuple[
    List[int],
    Dict[int, List[Tuple[int, Row]]],
    Dict[int, int],
    List[Tuple[int, int, Row]],
]

#: A window's entries classified per system — ``(ack, send, forward)`` —
#: each slice in the order its system commits in: data deliveries per
#: receiving host ascending, in insertion order (the ACK phase sorts
#: them canonically, each backend its way); the :data:`SendPlan`;
#: arrivals per switch ascending, in insertion order.
WindowPlan = Tuple[List[NodeWork], SendPlan, List[NodeWork]]


def plan_window(engine, ctx: WindowContext) -> WindowPlan:
    """All three entry-driven systems' work in one traversal of the
    window columns (the TransmitSystem plans from what they stage).

    The result is what grouping the window by node and classifying each
    node's entries system by system yields: grouping preserves insertion
    order, so every per-node (and per-flow — a flow's ACKs all land on
    its one source host) sequence comes out the same whether entries are
    visited node by node or in global insert order, and the
    order-sensitive outputs are sorted here (hosts and switches by node,
    flows by id).  ``tests/core/test_window_plan.py`` holds the plan to
    that grouped reference.
    """
    is_host = engine.is_host
    ack_data: Dict[int, List[Staged]] = {}
    acks_of: Dict[int, List[Tuple[int, Row]]] = {}
    starts: Dict[int, int] = {}
    visits: List[int] = []
    deliver_trace: List[Tuple[int, int, Row]] = []
    fwd: Dict[int, List[Staged]] = {}
    ack_get = ack_data.get
    acks_get = acks_of.get
    fwd_get = fwd.get
    nodes_col, payloads = ctx.columns
    for i, node in enumerate(nodes_col):
        e = payloads[i]
        tag = e[0]
        if is_host[node]:
            if tag == ENTRY_ARRIVAL:
                row = e[3]
                if row[F_ISACK]:
                    lst = acks_get(row[F_FLOW])
                    if lst is None:
                        acks_of[row[F_FLOW]] = [(e[1], row)]
                    else:
                        lst.append((e[1], row))
                    deliver_trace.append((e[1], node, row))
                else:
                    lst = ack_get(node)
                    if lst is None:
                        ack_data[node] = [(e[1], e[2], row)]
                    else:
                        lst.append((e[1], e[2], row))
            elif tag == ENTRY_FLOW_START:
                starts[e[2]] = e[1]
            elif e[1] >= 0:  # TIMER / UDP; negative = bare wakeup
                visits.append(e[1])
        elif tag == ENTRY_ARRIVAL:
            lst = fwd_get(node)
            if lst is None:
                fwd[node] = [(e[1], e[2], e[3])]
            else:
                lst.append((e[1], e[2], e[3]))
    flow_ids = sorted(set(acks_of) | set(starts) | set(visits))
    return (sorted(ack_data.items()),
            (flow_ids, acks_of, starts, deliver_trace),
            sorted(fwd.items()))
