"""ECS substrate: SoA tables and the world."""

import pytest

from repro.core.ecs import EntityKind, FieldSpec, SoATable, World
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


class TestWorld:
    def test_tables_by_kind(self):
        w = World()
        assert w.table(EntityKind.SENDER) is w.senders
        assert w.table(EntityKind.EGRESS_PORT) is w.egress

    def test_one_table_class_on_either_backend(self, dumbbell_scenario):
        """One table class for every entity kind."""
        from repro.core.engine import DodEngine
        world = DodEngine(dumbbell_scenario).world
        assert {type(world.table(kind)) for kind in EntityKind} == {SoATable}

    def test_memory_accounts_all_tables(self):
        w = World()
        w.senders.add(total_segs=1)
        w.receivers.add(needs_ack=1)
        assert w.memory_bytes() == (w.senders.memory_bytes()
                                    + w.receivers.memory_bytes())
