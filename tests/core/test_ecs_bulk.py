"""Bulk column handles."""

import pytest

from repro.core.ecs.components import FieldSpec, SoATable
from repro.errors import ConfigError


def mk_table(n=0):
    t = SoATable("t", [FieldSpec("a", 0), FieldSpec("b", -1)])
    for i in range(n):
        t.add(a=i, b=10 * i)
    return t


class TestBulkColumns:
    def test_column_is_the_raw_column(self):
        t = mk_table(3)
        col = t.column("a")
        assert col is t.column("a")
        col[1] = 99
        assert t.get(1, "a") == 99

    def test_column_unknown_name_raises(self):
        t = mk_table(1)
        with pytest.raises(ConfigError):
            t.column("missing")
        with pytest.raises(ConfigError):
            t.columns(["a", "missing"])

    def test_columns_bulk_handles(self):
        t = mk_table(2)
        cols = t.columns(["b", "a"])
        assert set(cols) == {"a", "b"}
        assert cols["a"] is t.column("a")

