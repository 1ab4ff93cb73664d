"""Table 2 — large irregular ISP WAN: partitioning methods x simulators.

Paper: an ISP WAN (13k routers / 32k links, irregular, skewed traffic)
simulated on 8 servers under three partitionings — static balanced cut,
OMNeT++'s coupling-factor partitioning (CFP), and DONS's time-cost-model
Partitioner.  Result shape: balanced ~ CFP (both traffic-blind), the
Partitioner ~2x faster than CFP and ~2.8x faster than balanced, for
every simulator it is plugged into.

Method: a bench-scale instance of the same generator (executable in
CPython) is *actually simulated distributed* under each partition —
per-machine event counts and RPC egress are measured, not estimated —
then projected to the paper's horizon with the cluster cost model.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.bench import emit, format_table, windows_at_paper_scale
from repro.bench.scenarios import isp_scenario
from repro.cluster import AgentSpec, ClusterEngine
from repro.core import EngineRunner
from repro.des.partition_types import Partition
from repro.machine import cluster_time_s, format_duration, omnet_cluster_time_s
from repro.partition import (
    ClusterSpec, balanced_cut, cfp_partition, estimate_loads, plan_scenario,
)
from repro.scenario import make_scenario

MACHINES = 8
SCALED_DURATION_MS = 2.0
WINDOWS = windows_at_paper_scale()
#: Event volume of the paper-scale WAN run (back-solved from Table 2's
#: OMNeT++ baseline of 6d7h at the calibrated cluster throughput).  The
#: bench-scale runs supply the *distribution* of events and RPC traffic
#: over machines; this constant supplies the magnitude.
PAPER_WAN_EVENTS = 9.0e11


def _distributed_measurements():
    topo, flows = isp_scenario(scale="bench", duration_ms=SCALED_DURATION_MS)
    scenario = make_scenario(topo, flows, name="isp-wan-bench")
    cluster = ClusterSpec.homogeneous(MACHINES)
    loads = estimate_loads(topo, scenario.fib, flows)

    partitions = {
        "balanced-cut": balanced_cut(topo, MACHINES),
        "cfp": cfp_partition(topo, MACHINES),
        "dons-partitioner": plan_scenario(scenario, cluster, loads).partition,
    }

    out = {}
    reference = None
    for method, partition in partitions.items():
        run = ClusterEngine([AgentSpec(a, scenario, partition)
                             for a in range(MACHINES)])
        EngineRunner(run).run()
        fcts = run.results.fcts_ps()
        if reference is None:
            reference = fcts
        else:
            assert fcts == reference, f"{method}: results depend on partition!"
        part_events = [
            sum(run.results.node_events.get(n, 0)
                for n in partition.nodes_of(a))
            for a in range(MACHINES)
        ]
        out[method] = {
            "part_events": part_events,
            "egress": run.stats.egress_bytes,
            "windows": run.stats.windows,
        }
    return out


def test_table2_partitioning_methods(benchmark):
    measured = once(benchmark, _distributed_measurements)

    rows = []
    times = {}
    for method, m in measured.items():
        total = max(sum(m["part_events"]), 1)
        projection = PAPER_WAN_EVENTS / total
        ev = [int(e * projection) for e in m["part_events"]]
        eg = [int(b * projection) for b in m["egress"]]
        t_omnet = omnet_cluster_time_s(ev, eg, WINDOWS)
        t_dons = cluster_time_s(ev, eg, WINDOWS)
        times[method] = {"omnet": t_omnet, "dons": t_dons}

    base_omnet = times["balanced-cut"]["omnet"]
    for method in ("balanced-cut", "cfp", "dons-partitioner"):
        t = times[method]
        rows += [
            (method, "OMNeT++", format_duration(t["omnet"]),
             f"{base_omnet / t['omnet']:.1f}x"),
            (method, "DONS", format_duration(t["dons"]),
             f"{base_omnet / t['dons']:.1f}x"),
        ]

    emit("table2_wan_partitioning", format_table(
        "Table 2: ISP WAN on 8 servers, partitioning method x simulator "
        "(speedup vs OMNeT++ with balanced cut)",
        ["method", "simulator", "time", "speedup"],
        rows,
        note="paper: Partitioner beats CFP ~2x and balanced ~2.8x; "
             "distributed results identical under every partition",
    ))

    # --- shape assertions -------------------------------------------------
    # Paper §6.2: "the static CFP and static balanced cut have similar
    # effects, as they do not consider dynamic traffic patterns", while
    # the "Partitioner can improve the simulation speed by ~2x compared
    # to CFP".
    for sim in ("omnet", "dons"):
        t_bal = times["balanced-cut"][sim]
        t_cfp = times["cfp"][sim]
        t_dons = times["dons-partitioner"][sim]
        assert t_dons < min(t_bal, t_cfp), (
            f"{sim}: Partitioner must beat both static methods "
            f"({t_dons:.0f} vs {t_cfp:.0f} / {t_bal:.0f})"
        )
        # The two traffic-blind statics land in the same ballpark.
        assert 0.5 <= t_cfp / t_bal <= 2.0, (
            f"{sim}: statics not similar ({t_cfp:.0f} vs {t_bal:.0f})"
        )
        gain = min(t_bal, t_cfp) / t_dons
        assert 1.3 <= gain <= 4.0, (
            f"{sim}: Partitioner gain over best static {gain:.2f}"
        )
    # DONS engine beats OMNeT++ under every partitioning method.
    for method in times:
        assert times[method]["dons"] < times[method]["omnet"]
