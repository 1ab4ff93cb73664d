"""A flow costs only the state it reads.

A flow's static values (endpoints, size, start, transport) live once,
in the engine's ``FlowLists``; the sender and receiver tables hold what
the systems write, and a reassembly set exists only while a gap is
open.  The byte ceiling is tracemalloc's count of what ``build()``
allocates per flow on the 5,000-flow WAN twin.
"""

import gc
import tracemalloc

import pytest

from repro.bench.workloads import wan_twin_smoke
from repro.core.engine import DodEngine

#: Bytes per flow after ``build()``.  Measured 596 B on CPython 3.11
#: (x86-64); the flow-table copies, per-flow empty sets and dict-backed
#: result records this guards against cost 925 B.  The headroom covers
#: other interpreter versions' object sizes.
CEILING_BYTES_PER_FLOW = 760

#: The flow table's own column names, and the two ids it implies.
FLOW_TABLE_NAMES = {"flow_id", "host", "src", "dst", "size_bytes",
                    "start_ps", "transport", "priority"}


@pytest.fixture(scope="module")
def scenario():
    return wan_twin_smoke(n_flows=5000)


def test_build_allocates_under_the_ceiling(scenario):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = DodEngine(scenario)
        engine.build()
        per_flow = ((tracemalloc.get_traced_memory()[0] - before)
                    / len(scenario.flows))
    finally:
        tracemalloc.stop()
    assert per_flow < CEILING_BYTES_PER_FLOW, f"{per_flow:.0f} B per flow"


def test_tables_hold_no_flow_table_column_and_no_empty_set(scenario):
    engine = DodEngine(scenario)
    engine.build()
    world = engine.world
    for table in (world.senders, world.receivers):
        names = {field.name for field in table.schema}
        assert not names & FLOW_TABLE_NAMES, table.kind
        assert len(table) == len(scenario.flows)
    assert set(world.receiver_cols["out_of_order"]) == {None}
    fl = engine.flow_lists
    assert fl.src == scenario.flows.columns()["src"].tolist()
    for _ in range(50):
        engine.advance()
    assert engine.flow_lists is fl  # built once, by build()
