"""Bulk column handles and command buffers."""

import pytest

from repro.core.ecs import CommandBuffer, consolidate
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


class TestCommandBuffers:
    def test_empty_buffer_is_falsy(self):
        buf = CommandBuffer()
        assert not buf
        assert len(buf) == 0

    def test_consolidate_empty_buffers(self):
        sink = {}
        assert consolidate([], sink) == 0
        assert consolidate([CommandBuffer(), CommandBuffer()], sink) == 0
        assert sink == {}

    def test_consolidate_duplicate_targets_keeps_worker_order(self):
        a, b = CommandBuffer(), CommandBuffer()
        a.append(7, "a1")
        a.append(7, "a2")
        b.append(7, "b1")
        b.append(2, "b2")
        sink = {}
        assert consolidate([a, b], sink) == 4
        # same egress target fed by two workers: worker order, then
        # each worker's recorded order
        assert sink == {7: ["a1", "a2", "b1"], 2: ["b2"]}
