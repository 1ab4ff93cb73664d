"""Property-based tests for the ECS bulk APIs (hypothesis).

The systems lean on :class:`SoATable`'s bulk accessors; these
properties pin the algebra they assume: bulk handles alias live storage.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

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

