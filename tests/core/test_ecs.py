"""ECS substrate: SoA tables, command buffers, the world."""

import pytest

from repro.core.ecs import (
    CommandBuffer, EntityKind, FieldSpec, SoATable, World, consolidate,
)
from repro.errors import ConfigError


def mk_table():
    return SoATable("thing", (
        FieldSpec("a", 0),
        FieldSpec("b", 1.5),
        FieldSpec("c", None, item_bytes=16),
    ))


class TestSoATable:
    def test_add_with_defaults(self):
        t = mk_table()
        i = t.add(a=7)
        assert t.get(i, "a") == 7
        assert t.get(i, "b") == 1.5
        assert t.get(i, "c") is None

    def test_columns_are_contiguous_per_field(self):
        t = mk_table()
        for i in range(10):
            t.add(a=i)
        assert t.column("a") == list(range(10))

    def test_add_many(self):
        t = mk_table()
        r = t.add_many(5)
        assert list(r) == [0, 1, 2, 3, 4]
        assert len(t) == 5
        assert t.column("b") == [1.5] * 5
        # bulk columns: given fields take the sequences, others default
        assert list(t.add_many(2, a=[7, 8])) == [5, 6]
        assert t.column("a")[5:] == [7, 8] and t.column("b")[5:] == [1.5] * 2
        with pytest.raises(ConfigError):
            t.add_many(2, a=[1])
        with pytest.raises(ConfigError):
            t.add_many(1, zzz=[1])
        assert len(t) == 7

    def test_unknown_field_rejected(self):
        t = mk_table()
        with pytest.raises(ConfigError):
            t.add(zzz=1)

    def test_schema_validation(self):
        with pytest.raises(ConfigError):
            SoATable("empty", ())
        with pytest.raises(ConfigError):
            SoATable("dup", (FieldSpec("x", 0), FieldSpec("x", 1)))

    def test_memory_model(self):
        t = mk_table()
        t.add_many(100)
        assert t.memory_bytes() == 100 * (8 + 8 + 16)


class TestCommandBuffer:
    def test_consolidation_in_worker_order(self):
        b1, b2 = CommandBuffer(), CommandBuffer()
        b1.append(5, "w1-a")
        b2.append(5, "w2-a")
        b1.append(5, "w1-b")
        sink = {}
        n = consolidate([b1, b2], sink)
        assert n == 3
        assert sink[5] == ["w1-a", "w1-b", "w2-a"]

    def test_multiple_targets(self):
        b = CommandBuffer()
        b.append(1, "x")
        b.append(2, "y")
        sink = {}
        consolidate([b], sink)
        assert sink == {1: ["x"], 2: ["y"]}

    def test_len(self):
        b = CommandBuffer()
        assert len(b) == 0
        b.append(0, 1)
        assert len(b) == 1


class TestWorld:
    def test_tables_by_kind(self):
        w = World()
        assert w.table(EntityKind.SENDER) is w.senders
        assert w.table(EntityKind.EGRESS_PORT) is w.egress

    def test_one_table_class_on_either_backend(self, dumbbell_scenario):
        from repro.core.engine import BACKENDS, DodEngine
        assert {
            type(DodEngine(dumbbell_scenario, backend=b).world.table(kind))
            for b in BACKENDS for kind in EntityKind
        } == {SoATable}

    def test_memory_accounts_all_tables(self):
        w = World()
        w.senders.add(flow_id=0)
        w.receivers.add(flow_id=0, out_of_order=set())
        assert w.memory_bytes() == (w.senders.memory_bytes()
                                    + w.receivers.memory_bytes())
