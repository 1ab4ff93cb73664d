"""Property-based tests for the ECS bulk APIs (hypothesis).

The columnar kernels lean on :class:`SoATable`'s bulk accessors and on
:class:`CommandBuffer` consolidation; these properties pin the algebra
the kernels assume: gather/scatter round-trips, chunk slices tile the
table exactly, bulk handles alias live storage, and consolidation is
insensitive to how writes were batched into buffers.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.ecs.commands import CommandBuffer, consolidate
from repro.core.ecs.components import CHUNK_ENTITIES, FieldSpec, SoATable

SCHEMA = (FieldSpec("a", 0), FieldSpec("b", -1), FieldSpec("c", 0))
NAMES = tuple(f.name for f in SCHEMA)


def make_table(rows):
    table = SoATable("test", SCHEMA)
    for a, b, c in rows:
        table.add(a=a, b=b, c=c)
    return table


row_lists = st.lists(
    st.tuples(st.integers(), st.integers(), st.integers()),
    min_size=1, max_size=200,
)


class TestSoATableProperties:
    @given(rows=row_lists, data=st.data())
    def test_gather_scatter_round_trip(self, rows, data):
        """scatter(idxs, gather(idxs)) leaves every column unchanged,
        and gather returns values in idxs order."""
        table = make_table(rows)
        idxs = data.draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=len(rows), unique=True))
        before = {name: list(table.col(name)) for name in NAMES}
        gathered = table.gather(idxs, NAMES)
        for name in NAMES:
            assert gathered[name] == [before[name][i] for i in idxs]
            table.scatter(idxs, name, gathered[name])
            assert table.col(name) == before[name]

    @given(rows=row_lists, data=st.data())
    def test_scatter_then_gather_reads_back(self, rows, data):
        table = make_table(rows)
        idxs = data.draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=len(rows), unique=True))
        values = data.draw(st.lists(
            st.integers(), min_size=len(idxs), max_size=len(idxs)))
        table.scatter(idxs, "a", values)
        assert table.gather(idxs, ("a",))["a"] == values

    @given(n=st.integers(0, 3 * CHUNK_ENTITIES + 7))
    def test_chunk_slices_tile_the_table(self, n):
        """Chunks are disjoint, in order, cover [0, n) exactly, and the
        per-chunk segments concatenate back to the whole column."""
        table = SoATable("test", SCHEMA)
        table.add_many(n)
        col = table.col("a")
        for i in range(n):
            col[i] = i
        cursor = 0
        rebuilt = []
        for start, end, segs in table.chunk_slices(("a",)):
            assert start == cursor
            assert start < end
            assert end - start <= CHUNK_ENTITIES
            assert segs["a"] == col[start:end]
            rebuilt.extend(segs["a"])
            cursor = end
        assert cursor == n
        assert rebuilt == col
        assert table.chunk_count() == len(list(table.chunks()))

    @given(rows=row_lists)
    def test_column_handles_alias_storage(self, rows):
        """column()/col() return the live column: writes through one
        handle are visible through the other and via get(); slice() is
        a copy and never writes back."""
        table = make_table(rows)
        handle = table.column("b")
        raw = table.col("b")
        assert handle is raw
        handle[0] = 12345
        assert table.get(0, "b") == 12345
        snap = table.slice("b", 0, len(rows))
        snap[0] = -999
        assert table.get(0, "b") == 12345

    @given(rows=row_lists, data=st.data())
    def test_columns_bulk_handles(self, rows, data):
        table = make_table(rows)
        sub = data.draw(st.lists(st.sampled_from(NAMES), unique=True))
        handles = table.columns(sub)
        assert set(handles) == set(sub)
        for name in sub:
            assert handles[name] is table.col(name)


writes = st.lists(st.tuples(st.integers(0, 7), st.integers()), max_size=120)


def split_into_buffers(pairs, cuts):
    """Partition one write stream into consecutive per-worker buffers."""
    buffers = []
    prev = 0
    for cut in sorted(cuts) + [len(pairs)]:
        buf = CommandBuffer()
        buf.extend(pairs[prev:cut])
        buffers.append(buf)
        prev = cut
    return buffers


class TestCommandBufferProperties:
    @given(pairs=writes, data=st.data())
    def test_consolidation_ignores_batching(self, pairs, data):
        """However a write stream is split across workers — and whether
        each worker used append / append_many / extend — consolidating
        in worker order yields the same per-target lists."""
        cuts = data.draw(st.lists(st.integers(0, len(pairs)), max_size=5))
        buffers = split_into_buffers(pairs, cuts)

        reference = CommandBuffer()
        for t, item in pairs:
            reference.append(t, item)
        expected = {}
        consolidate([reference], expected)

        sink = {}
        assert consolidate(buffers, sink) == len(pairs)
        assert sink == expected

        merged = CommandBuffer()
        for buf in buffers:
            merged.merge(buf)
        assert merged.entries == reference.entries

    @given(pairs=writes)
    def test_append_many_matches_appends(self, pairs):
        by_target = {}
        for t, item in pairs:
            by_target.setdefault(t, []).append(item)
        one_by_one = CommandBuffer()
        bulk = CommandBuffer()
        for t in sorted(by_target):
            for item in by_target[t]:
                one_by_one.append(t, item)
            bulk.append_many(t, by_target[t])
        assert bulk.entries == one_by_one.entries
        assert len(bulk) == len(pairs)
        assert bool(bulk) == bool(pairs)
