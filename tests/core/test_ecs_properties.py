"""Property-based tests for the ECS bulk APIs (hypothesis).

The columnar kernels lean on :class:`SoATable`'s bulk accessors and on
:class:`CommandBuffer` consolidation; these properties pin the algebra
the kernels assume: bulk handles alias live storage, and consolidation
is insensitive to how writes were batched into buffers.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.ecs.commands import CommandBuffer, consolidate
from repro.core.ecs.components import FieldSpec, SoATable

SCHEMA = (FieldSpec("a", 0), FieldSpec("b", -1), FieldSpec("c", 0))
NAMES = tuple(f.name for f in SCHEMA)


def mk_table(rows):
    table = SoATable("test", SCHEMA)
    for a, b, c in rows:
        table.add(a=a, b=b, c=c)
    return table


row_lists = st.lists(
    st.tuples(st.integers(), st.integers(), st.integers()),
    min_size=1, max_size=200,
)


class TestSoATableProperties:
    @given(rows=row_lists)
    def test_column_handles_alias_storage(self, rows):
        """column() returns the live column: writes through the handle
        are visible via get() and set() writes show in the handle."""
        table = mk_table(rows)
        handle = table.column("b")
        assert handle is table.column("b")
        handle[0] = 12345
        assert table.get(0, "b") == 12345
        table.set(0, "b", -7)
        assert handle[0] == -7

    @given(rows=row_lists, data=st.data())
    def test_columns_bulk_handles(self, rows, data):
        table = mk_table(rows)
        sub = data.draw(st.lists(st.sampled_from(NAMES), unique=True))
        handles = table.columns(sub)
        assert set(handles) == set(sub)
        for name in sub:
            assert handles[name] is table.column(name)


writes = st.lists(st.tuples(st.integers(0, 7), st.integers()), max_size=120)


def split_into_buffers(pairs, cuts):
    """Partition one write stream into consecutive per-worker buffers."""
    buffers = []
    prev = 0
    for cut in sorted(cuts) + [len(pairs)]:
        buf = CommandBuffer()
        for t, item in pairs[prev:cut]:
            buf.append(t, item)
        buffers.append(buf)
        prev = cut
    return buffers


class TestCommandBufferProperties:
    @given(pairs=writes, data=st.data())
    def test_consolidation_ignores_batching(self, pairs, data):
        """However a write stream is split across workers, consolidating
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
