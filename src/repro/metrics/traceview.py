"""Trace analysis: follow one packet through a FULL-level trace.

A FULL-level trace contains every enqueue, service start, drop and
delivery.  :func:`packet_journey` is the hop-by-hop life of one packet
and :func:`hops` its ENQ/DEQ pairs per traversed port — what the
ECMP-spraying bench and test read to tell which path a packet took.

Both are pure over the trace entry tuples
``(t, kind, location, flow, is_ack, seq, extra)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .trace import Entry, TraceKind, TraceRecorder

PacketKey = Tuple[int, int, int]  # (flow, is_ack, seq)


def _key(entry: Entry) -> PacketKey:
    return (entry[3], entry[4], entry[5])


@dataclass(frozen=True)
class HopRecord:
    """One port traversal of one packet."""

    iface_id: int
    enq_ps: int
    deq_ps: int

    @property
    def queueing_ps(self) -> int:
        return self.deq_ps - self.enq_ps


def packet_journey(trace: TraceRecorder, flow: int, seq: int,
                   is_ack: int = 0) -> List[Entry]:
    """Every trace entry of one packet, in time order."""
    want = (flow, is_ack, seq)
    return sorted(e for e in trace.entries if _key(e) == want)


def hops(trace: TraceRecorder, flow: int, seq: int,
         is_ack: int = 0) -> List[HopRecord]:
    """ENQ/DEQ pairs of one packet, one per traversed port.

    A retransmitted sequence number traverses ports repeatedly; pairs
    are matched in time order per interface.
    """
    journey = packet_journey(trace, flow, seq, is_ack)
    pending: Dict[int, List[int]] = defaultdict(list)
    out: List[HopRecord] = []
    for t, kind, loc, *_rest in journey:
        if kind == TraceKind.ENQ:
            pending[loc].append(t)
        elif kind == TraceKind.DEQ and pending[loc]:
            out.append(HopRecord(loc, pending[loc].pop(0), t))
    return sorted(out, key=lambda h: h.enq_ps)
