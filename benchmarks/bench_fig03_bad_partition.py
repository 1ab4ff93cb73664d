"""Fig. 3 — a badly-partitioned parallel run is slower than serial.

Paper setup: the nodes of a FatTree are randomly divided between two
ns-3 processes; synchronization overhead makes the pair slower than one
process.  We execute the actual null-message algorithm over the random
partition, then price the measured per-LP loads, rounds and messages
with the cost model.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.bench import emit, format_table
from repro.bench.scenarios import dcn_scenario
from repro.des import ParallelOodSimulator, random_partition
from repro.des.simulator import OodSimulator
from repro.machine import (
    CacheConfig, OodAccessModel, format_duration, multiprocess_time_s,
    sequential_time_s,
)


def test_fig03_bad_partition_slower_than_serial(benchmark):
    scenario = dcn_scenario(8, duration_ms=1.0, max_flows=600, seed=5)
    topo = scenario.topology

    def experiment():
        ood = OodAccessModel(topo.num_nodes, topo.num_interfaces,
                             topo.num_hosts)
        sim = OodSimulator(scenario)
        sim.bus.ops = ood
        serial = sim.run()
        from repro.bench import measure_cmr
        cmr = measure_cmr(ood)
        part = random_partition(topo, 2, seed=1)
        psim = ParallelOodSimulator(scenario, part)
        parallel = psim.run()
        return serial, cmr, psim.stats, parallel

    serial, cmr, stats, parallel = once(benchmark, experiment)

    t1 = sequential_time_s(serial.events.total, cmr)
    t2 = multiprocess_time_s(
        stats.lp_events, cmr, stats.rounds,
        stats.null_messages + stats.data_messages,
    )

    rows = [
        ("ns-3, 1 process", format_duration(t1), "1.00x", "baseline"),
        ("ns-3, 2 processes (random partition)", format_duration(t2),
         f"{t1 / t2:.2f}x", "slower than serial (paper Fig. 3)"),
    ]
    emit("fig03_bad_partition", format_table(
        "Fig 3: random 2-way partition vs serial (modeled from executed "
        "null-message run)",
        ["configuration", "modeled time", "speedup", "paper shape"],
        rows,
        note=(f"measured: lp_events={stats.lp_events} "
              f"rounds={stats.rounds} nulls={stats.null_messages} "
              f"data_msgs={stats.data_messages}"),
    ))

    # Same results, slower wall-clock.
    assert parallel.fcts_ps() == serial.fcts_ps()
    assert t2 > t1, "bad partition should be slower than serial"
    # Imbalance + sync overhead, not a small margin.
    assert t2 / t1 > 1.2
