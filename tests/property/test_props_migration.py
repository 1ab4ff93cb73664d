"""Property-based test: arbitrary migration schedules preserve traces.

Randomized partitions at randomized window boundaries — if any piece of
node state (port queues, calendar entries, transport rows) failed to
migrate, the cluster trace would diverge from the single-machine one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.agent import AgentSpec
from repro.cluster import ClusterEngine
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import random_partition
from repro.metrics import TraceLevel
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us

_TOPO = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
_FLOWS = full_mesh_dynamic(_TOPO.hosts, ms(0.3), load=0.5,
                           host_rate_bps=10 * GBPS, sizes=TINY,
                           seed=23, max_flows=30)
_SCENARIO = make_scenario(_TOPO, _FLOWS, buffer_bytes=60_000)
_REFERENCE = run_dons(_SCENARIO, TraceLevel.FULL)


@given(
    machines=st.integers(min_value=2, max_value=4),
    boundaries=st.lists(st.integers(min_value=1, max_value=300),
                        min_size=1, max_size=3, unique=True),
    seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                   min_size=4, max_size=4),
)
@settings(max_examples=15, deadline=None)
def test_random_migration_schedules_preserve_trace(machines, boundaries,
                                                   seeds):
    first = random_partition(_TOPO, machines, seeds[0])
    schedule = [
        (window, random_partition(_TOPO, machines, seed))
        for window, seed in zip(sorted(boundaries), seeds[1:])
    ]
    specs = [
        AgentSpec(a, _SCENARIO, first, TraceLevel.FULL)
        for a in range(machines)
    ]
    merged = EngineRunner(ClusterEngine(specs, schedule=schedule)).run()
    assert (sorted(merged.trace.entries)
            == sorted(_REFERENCE.trace.entries))
    assert merged.fcts_ps() == _REFERENCE.fcts_ps()
