"""Lockstep conformance of the columnar event store.

:class:`EventColumns` replaced the engine's scalar nested-dict calendar
(``calendar[window][node] -> [entry, ...]`` plus a window min-heap).
The byte-identical-trace claim rests on the store reproducing the scalar
structure's observable behavior exactly: grouping order, duration-cut
filtering, scheduling decisions, structural edits.  These tests drive
the store and an in-test scalar reference model through the same
hypothesis-generated operation sequences and assert every observable
agrees.  The store hands out raw insert-ordered columns
(``pop_window_columns``) and never groups them itself; the comparison
groups them here (:func:`group`), the way the scalar calendar was keyed.

The byte stream behind ``signature_bytes`` must equal what
``ndarray.tobytes()`` produces for the same columns as int64 (the
property that makes ``window_signature()`` platform-stable).
"""

import heapq
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.events import EventColumns
from repro.core.window import (
    ENTRY_ARRIVAL, ENTRY_FLOW_START, ENTRY_TIMER, ENTRY_UDP,
)

# --- strategies -----------------------------------------------------------

rows = st.tuples(*([st.integers(0, 2 ** 40)] * 9))

entries = st.one_of(
    st.tuples(st.just(ENTRY_ARRIVAL), st.integers(0, 10 ** 6),
              st.integers(0, 3), rows),
    st.tuples(st.just(ENTRY_FLOW_START), st.integers(0, 10 ** 6),
              st.integers(0, 50)),
    st.tuples(st.just(ENTRY_TIMER), st.integers(-1, 50)),
    st.tuples(st.just(ENTRY_UDP), st.integers(0, 50)),
)

inserts = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 9), entries),
    max_size=80,
)


class ScalarCalendar:
    """The engine's pre-columnar pending store, verbatim semantics."""

    def __init__(self):
        self.calendar = {}
        self.heap = []
        self.queued = set()

    def insert(self, win, node, entry):
        self.calendar.setdefault(win, {}).setdefault(node, []).append(entry)
        if win not in self.queued:
            self.queued.add(win)
            heapq.heappush(self.heap, win)

    def _prune(self, current):
        while self.heap and self.heap[0] <= current:
            self.queued.discard(heapq.heappop(self.heap))

    def next_window(self, current, active):
        self._prune(current)
        candidates = []
        if active:
            candidates.append(current + 1)
        if self.heap:
            candidates.append(self.heap[0])
        if not candidates:
            return None
        nxt = min(candidates)
        if self.heap and self.heap[0] == nxt:
            self.queued.discard(heapq.heappop(self.heap))
        return nxt

    def pop_window(self, win, t_cut=None):
        grouped = self.calendar.pop(win, {})
        if t_cut is None:
            return grouped
        return {
            node: kept for node, entries in grouped.items()
            if (kept := [
                e for e in entries
                if e[0] > ENTRY_FLOW_START or e[1] <= t_cut
            ])
        }


def group(columns):
    """``(nodes, payloads)`` columns as the scalar calendar's
    ``{node: [entry, ...]}`` — node keys and entries in column order."""
    out = {}
    for node, entry in zip(*columns):
        out.setdefault(node, []).append(entry)
    return out


def grouped_windows(cand):
    """``(window, grouped entries)`` over the store's pending buckets."""
    return [(win, group((b.nodes, b.payloads)))
            for win, b in sorted(cand._buckets.items())]


def build_pair(ops):
    ref, cand = ScalarCalendar(), EventColumns()
    for win, node, entry in ops:
        ref.insert(win, node, entry)
        cand.insert(win, node, entry)
    return ref, cand


class TestLockstep:
    @given(ops=inserts)
    @settings(max_examples=80, deadline=None)
    def test_grouping_matches_scalar_calendar(self, ops):
        """Insertion-order grouping reproduces the nested dicts exactly:
        same windows, same node-key order, same per-node entry order."""
        ref, cand = build_pair(ops)
        assert sorted(ref.calendar) == cand.windows()
        assert len(cand) == sum(
            len(v) for b in ref.calendar.values() for v in b.values())
        for win, grouped in grouped_windows(cand):
            assert list(grouped) == list(ref.calendar[win])
            assert grouped == ref.calendar[win]

    @given(ops=inserts, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_pop_window_matches(self, ops, data):
        ref, cand = build_pair(ops)
        win = data.draw(st.integers(-1, 13))
        t_cut = data.draw(st.one_of(st.none(), st.integers(0, 10 ** 6)))
        # Per-node entry lists agree; node-key order is only pinned
        # without a cut (test_grouping_matches_scalar_calendar), and the
        # plan sorts by node anyway.
        assert (group(cand.pop_window_columns(win, t_cut))
                == ref.pop_window(win, t_cut))
        # and the bucket is really gone from both
        assert ref.pop_window(win) == {}
        assert cand.pop_window_columns(win) == ((), ())

    @given(ops=inserts, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scheduling_matches(self, ops, data):
        """A full drain loop: the same next_window decisions, with peek
        agreeing one step ahead and never consuming."""
        ref, cand = build_pair(ops)
        current = data.draw(st.integers(-1, 5))
        active_seq = data.draw(st.lists(st.booleans(), min_size=30,
                                        max_size=30))
        for active in active_seq:
            peek = cand.peek_next(current, active)
            ref_next = ref.next_window(current, active)
            cand_next = cand.next_window(current, active)
            assert ref_next == cand_next == peek
            if ref_next is None:
                break
            ref.pop_window(ref_next)
            cand.pop_window_columns(ref_next)
            current = ref_next

    @given(ops=inserts, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_retain_and_take_match(self, ops, data):
        ref, cand = build_pair(ops)
        keep_below = data.draw(st.integers(0, 10))
        cand.retain_nodes(lambda n: n < keep_below)
        for win in list(ref.calendar):
            kept = {n: es for n, es in ref.calendar[win].items()
                    if n < keep_below}
            if kept:
                ref.calendar[win] = kept
            else:
                del ref.calendar[win]
        for win, grouped in grouped_windows(cand):
            assert grouped == ref.calendar[win]
        assert sorted(ref.calendar) == cand.windows()

        node = data.draw(st.integers(0, 9))
        moved = cand.take_node(node)
        assert moved == [
            (win, ref.calendar[win][node])
            for win in sorted(ref.calendar) if node in ref.calendar[win]
        ]
        assert all(node not in grouped
                   for _w, grouped in grouped_windows(cand))


class TestNumpyViews:
    @given(ops=inserts)
    @settings(max_examples=40, deadline=None)
    def test_signature_matches_ndarray_bytes(self, ops):
        """The struct-packed column streams equal ndarray.tobytes() —
        the exact property that makes the signature platform-stable."""
        np = pytest.importorskip("numpy")
        _ref, cand = build_pair(ops)
        for win in cand.windows():
            bucket = cand._buckets[win]
            packed = struct.Struct(f"<{len(bucket.nodes)}q").pack
            for column in (bucket.nodes, bucket.tags, bucket.times,
                           bucket.prios):
                assert packed(*column) == \
                    np.asarray(column, dtype=np.int64).tobytes()

    @given(ops=inserts)
    @settings(max_examples=40, deadline=None)
    def test_signature_is_deterministic_and_sensitive(self, ops):
        a = EventColumns()
        b = EventColumns()
        for win, node, entry in ops:
            a.insert(win, node, entry)
            b.insert(win, node, entry)
        assert a.signature_bytes() == b.signature_bytes()
        b.insert(13, 0, (ENTRY_TIMER, 0))
        assert a.signature_bytes() != b.signature_bytes()

