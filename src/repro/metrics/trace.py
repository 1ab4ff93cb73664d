"""Event trace recording for fidelity comparison.

The paper's strongest claim (Fig. 10, §6.1) is that DONS and the OOD
baselines produce *identical* event traces, "even down to the timestamp
of all events".  :class:`TraceRecorder` captures the packet-visible
events of a run — enqueue, drop, service start, delivery, flow
completion — as plain tuples, so two runs can be compared for literal
equality (or via a digest for large runs).

Trace entries are canonical tuples:

    (time_ps, kind, location, flow_id, is_ack, seq, extra)

where ``location`` is an interface id for port events and a node id for
deliveries/completions, and ``extra`` carries the CE mark for enqueues.
"""

from __future__ import annotations

import hashlib
from enum import IntEnum
from typing import List, Tuple


class TraceLevel(IntEnum):
    """Whether a run records its trace."""

    NONE = 0      # results only, no per-event trace
    FULL = 2      # every trace entry


class TraceKind(IntEnum):
    """Trace entry types (values are part of the digest format)."""

    ENQ = 0        # packet accepted into an egress queue
    DROP = 1       # tail drop at an egress queue
    DEQ = 2        # service start at an egress port
    DELIVER = 3    # packet handed to a host (receiver or sender side)
    FLOW_DONE = 4  # last byte of a flow received


Entry = Tuple[int, int, int, int, int, int, int]


class TraceRecorder:
    """Collects trace entries; entries are appended in processing order
    but compared after sorting, since the *set* of timestamped events is
    the engine-independent object (processing order inside one timestamp
    is an engine implementation detail the ordering contract already
    pins; sorting makes the comparison insensitive to batching)."""

    def __init__(self, level: TraceLevel = TraceLevel.NONE) -> None:
        self.level = level
        self.entries: List[Entry] = []

    # Hot-path guard: engines check ``bus.trace_level`` before calling,
    # so a recorder records every entry it is given.

    def enq(self, t: int, iface: int, flow: int, is_ack: int, seq: int,
            marked: int) -> None:
        self.entries.append((t, TraceKind.ENQ, iface, flow, is_ack, seq, marked))

    def drop(self, t: int, iface: int, flow: int, is_ack: int, seq: int) -> None:
        self.entries.append((t, TraceKind.DROP, iface, flow, is_ack, seq, 0))

    def deq(self, t: int, iface: int, flow: int, is_ack: int, seq: int) -> None:
        self.entries.append((t, TraceKind.DEQ, iface, flow, is_ack, seq, 0))

    def deliver(self, t: int, node: int, flow: int, is_ack: int, seq: int) -> None:
        self.entries.append((t, TraceKind.DELIVER, node, flow, is_ack, seq, 0))

    def flow_done(self, t: int, node: int, flow: int) -> None:
        self.entries.append((t, TraceKind.FLOW_DONE, node, flow, 0, 0, 0))

    # --- comparison -----------------------------------------------------

    def sorted_entries(self) -> List[Entry]:
        return sorted(self.entries)

    def digest(self) -> str:
        """Stable hash of the sorted trace (for large-run comparisons)."""
        h = hashlib.blake2b(digest_size=16)
        for entry in self.sorted_entries():
            h.update(repr(entry).encode())
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.entries)
