"""Columnar pending-event store for the DOD engine.

The paper's point (§3) is that *all* simulation state should live in
contiguous, batch-friendly form — not just the entity tables.  The
original engine kept its pending work in nested scalar dicts
(``calendar[window][node] -> [entry, ...]``); this module replaces that
with :class:`EventColumns`, one bucket of parallel columns per pending
window:

``nodes[i] / tags[i] / times[i] / prios[i] / payloads[i]``

``payloads`` holds the original entry tuples (the payload-ref column),
so handing a window to the systems is handing over two lists — no
per-entry reconstruction, no grouping.  ``tags``/``times``/``prios`` are *derived* integer
columns (``-1`` where the entry kind carries no timestamp/priority),
computed on demand from the payload rows: only ``nodes`` and
``payloads`` are materialized, so the hot insert paths append twice per
entry, while the cold consumer (the
:meth:`EventColumns.signature_bytes` encoding) derives the integer
columns when asked.  Columns are appended in
insertion order, which is exactly the order the scalar calendar
preserved — grouping a bucket by node reproduces the old
``Dict[node, List[Entry]]`` byte-for-byte (the reference model of
``tests/core/test_event_columns.py`` still does), and no per-window
sort is needed (the insert stream *is* the stable order).

Scheduling runs off a window-occupancy index maintained next to the
buckets: a min-heap of pending window indices plus a membership set.
That makes ``peek_next_window`` O(1) (top of heap) and keeps
``next_window`` amortized O(log W).  Occupancy registration goes
through the module-level :data:`register_window` hook so the
conformance harness can plant a stale-index bug
(:func:`repro.conformance.inject.stale_window_index`) and prove the
differential fuzz loop catches exactly this class of corruption.

The columns are plain Python lists, like the ``SoATable`` component
columns.  The byte encoding behind ``signature_bytes`` is little-endian
int64 streams, which is what makes ``DodEngine.window_signature()``
platform-stable.
"""

from __future__ import annotations

import heapq
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .window import ENTRY_ARRIVAL, ENTRY_FLOW_START, NO_ENTRIES, Entry
from ..protocols.packet import PRIO_ARRIVAL

__all__ = ["EventColumns", "register_window"]

_pack_header = struct.Struct("<qq").pack


class _Bucket:
    """Parallel columns for one pending window (insertion-ordered).

    Only ``nodes`` and ``payloads`` are materialized — they are the two
    columns every hot path appends to.  The derived integer columns
    (``tags``/``times``/``prios``) are pure functions of the payload
    rows, so they are computed on demand by the cold consumers
    (signature encoding, array views) instead of
    being kept in sync on every insert.
    """

    __slots__ = ("nodes", "payloads")

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.payloads: List[Entry] = []

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def tags(self) -> List[int]:
        return [e[0] for e in self.payloads]

    @property
    def times(self) -> List[int]:
        """Entry timestamps; ``-1`` where the kind carries none
        (TIMER / UDP wakeups re-derive firing times in-window)."""
        return [e[1] if e[0] <= ENTRY_FLOW_START else -1
                for e in self.payloads]

    @property
    def prios(self) -> List[int]:
        return [e[2] if e[0] == ENTRY_ARRIVAL else -1
                for e in self.payloads]


def _register_window(events: "EventColumns", win: int) -> None:
    """Default occupancy registration: queue ``win`` exactly once."""
    if win not in events._queued:
        events._queued.add(win)
        heapq.heappush(events._heap, win)


#: Injectable occupancy-registration hook.  Resolved at call time by
#: :meth:`EventColumns.insert`, so the conformance harness can swap in a
#: corrupted version (see ``inject.stale_window_index``) that every DOD
#: engine inherits.
register_window: Callable[["EventColumns", int], None] = _register_window


class EventColumns:
    """Pending events as per-window parallel columns + occupancy index.

    Only the engine's own nodes' entries are ever inserted (a cluster
    agent builds just its own flow starts), so an indexed window ahead
    of the cursor holds work; :meth:`merge_nodes`, which moves entries
    out, de-indexes a window it empties."""

    __slots__ = ("_buckets", "_heap", "_queued")

    def __init__(self) -> None:
        self._buckets: Dict[int, _Bucket] = {}
        self._heap: List[int] = []
        self._queued: set = set()

    # --- writers ----------------------------------------------------------

    def insert(self, win: int, node: int, entry: Entry) -> None:
        """Append one entry to ``win``'s columns and register occupancy."""
        bucket = self._buckets.get(win)
        if bucket is None:
            bucket = self._buckets[win] = _Bucket()
        bucket.nodes.append(node)
        bucket.payloads.append(entry)
        register_window(self, win)

    def touch(self, win: int) -> None:
        """Register ``win`` as occupied without adding entries (the memo's
        cycle jump re-queues the window the index had given out)."""
        register_window(self, win)

    def insert_arrivals(self, node: int, emissions, delay_ps: int,
                        lookahead: int, floor: int) -> None:
        """Bulk arrival delivery for one egress port's window emissions.

        ``emissions`` is the TransmitSystem's ``(row, start, end)`` list;
        every packet lands on the port's single ``node`` peer at
        ``end + delay_ps``, in a window no earlier than ``floor`` (the
        window after the running one — the LCC bound).  Appending straight
        to the columns here is byte-equivalent to one :meth:`insert` per
        packet, but hoists the window arithmetic and column lookups out
        of the per-packet call chain — what the TransmitSystem's delivery
        sink does inline, port after port.
        """
        buckets = self._buckets
        for row, _start, end in emissions:
            t = end + delay_ps
            win = t // lookahead
            if win < floor:
                win = floor
            bucket = buckets.get(win)
            if bucket is None:
                bucket = buckets[win] = _Bucket()
            bucket.nodes.append(node)
            bucket.payloads.append((ENTRY_ARRIVAL, t, PRIO_ARRIVAL, row))
            register_window(self, win)

    # --- window scheduling ------------------------------------------------

    def _prune(self, current: int) -> None:
        heap = self._heap
        while heap and heap[0] <= current:
            self._queued.discard(heapq.heappop(heap))

    def next_window(self, current: int, active: bool) -> Optional[int]:
        """Smallest runnable window after ``current`` — and consume it
        from the occupancy index if it came from there."""
        self._prune(current)
        heap = self._heap
        candidates = []
        if active:
            candidates.append(current + 1)
        if heap:
            candidates.append(heap[0])
        if not candidates:
            return None
        nxt = min(candidates)
        if heap and heap[0] == nxt:
            self._queued.discard(heapq.heappop(heap))
        return nxt

    def peek_next(self, current: int, active: bool) -> Optional[int]:
        """:meth:`next_window` without consuming — O(1) off the index."""
        self._prune(current)
        heap = self._heap
        candidates = []
        if active:
            candidates.append(current + 1)
        if heap:
            candidates.append(heap[0])
        return min(candidates) if candidates else None

    # --- readers ----------------------------------------------------------

    def windows(self) -> List[int]:
        """Pending window indices, ascending."""
        return sorted(self._buckets)

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def __bool__(self) -> bool:
        return bool(self._buckets)

    # --- capture and cycle jump (memoization support) ---------------------

    def bucket_sizes(self) -> Dict[int, int]:
        """``{window: entry count}`` over every pending bucket — the
        capture's before/after check that a window only adds to later
        buckets."""
        return {win: len(b) for win, b in self._buckets.items()}

    def translate(self, shift: int,
                  move: Callable[[Entry], Entry]) -> None:
        """Move every pending bucket ``shift`` windows later and rewrite
        each payload with ``move`` — the cycle fast-forward's one-shot
        translation of the whole pending state (occupancy index
        included; adding a constant keeps the heap a heap)."""
        self._buckets = {w + shift: b for w, b in self._buckets.items()}
        for bucket in self._buckets.values():
            bucket.payloads = [move(e) for e in bucket.payloads]
        self._heap = [w + shift for w in self._heap]
        self._queued = {w + shift for w in self._queued}

    def pop_window_columns(
        self, win: int, t_cut: Optional[int] = None,
    ) -> Tuple[Sequence[int], Sequence[Entry]]:
        """Remove ``win`` and return its raw ``(nodes, payloads)`` columns
        — the window's entries in global insertion order, which is all
        :func:`~repro.core.window.plan_window` needs (no per-node
        grouping is ever built).

        ``t_cut`` applies the duration cut: timestamped entries
        (ARRIVAL / FLOW_START) with ``t > t_cut`` are dropped.  A window
        that holds no entries yields empty columns.
        """
        bucket = self._buckets.pop(win, None)
        if bucket is None:
            return NO_ENTRIES
        nodes, payloads = bucket.nodes, bucket.payloads
        if t_cut is None:
            return nodes, payloads
        keep_n: List[int] = []
        keep_p: List[Entry] = []
        for i, e in enumerate(payloads):
            if e[0] > ENTRY_FLOW_START or e[1] <= t_cut:
                keep_n.append(nodes[i])
                keep_p.append(e)
        return keep_n, keep_p

    # --- structural edit (state migration) --------------------------------

    def merge_nodes(self, other: "EventColumns", nodes: set) -> int:
        """Move ``other``'s entries at ``nodes`` into this store and
        return how many moved: per window appended in ``other``'s order
        and registered in this occupancy index.  A window left empty in
        ``other`` leaves its index too."""
        moved = 0
        for win, bucket in list(other._buckets.items()):
            keep = _Bucket()
            for node, entry in zip(bucket.nodes, bucket.payloads):
                if node in nodes:
                    self.insert(win, node, entry)
                    moved += 1
                else:
                    keep.nodes.append(node)
                    keep.payloads.append(entry)
            if keep.nodes:
                other._buckets[win] = keep
            else:
                del other._buckets[win]
                other._queued.discard(win)
        # A sorted list is a heap.
        other._heap = sorted(other._queued)
        return moved

    # --- signature --------------------------------------------------------

    def signature_bytes(self) -> bytes:
        """Canonical byte encoding of the pending-event columns.

        Windows ascending; per window the four derived int columns then
        the payload rows, all as little-endian int64, so the digest
        built on top is platform-stable.
        """
        parts: List[bytes] = []
        for win in sorted(self._buckets):
            bucket = self._buckets[win]
            n = len(bucket.nodes)
            parts.append(_pack_header(win, n))
            cols = struct.Struct(f"<{n}q").pack
            parts.append(cols(*bucket.nodes))
            parts.append(cols(*bucket.tags))
            parts.append(cols(*bucket.times))
            parts.append(cols(*bucket.prios))
            for entry in bucket.payloads:
                if entry[0] == ENTRY_ARRIVAL:
                    row = entry[3]
                    parts.append(
                        struct.pack(f"<q{len(row)}q", len(row), *row))
                else:
                    parts.append(struct.pack("<2q", 1, entry[-1]))
        return b"".join(parts)
