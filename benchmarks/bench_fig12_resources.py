"""Fig. 12 — memory usage, cache miss rate, CPU utilization by simulator.

(a) memory: ns-3 grows with LPs, OMNeT++ flat, DONS ~10x smaller;
(b) cache miss rate: ns-3/OMNeT++ > 1% growing, DONS lowest (0.12% at
    FatTree32, "reduced by 56x at the highest, 4.5x at the lowest");
(c) CPU utilization: ns-3/OMNeT++ = #processes used; DONS rises from
    1003% to 2634% across topologies, near all 32 cores.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.bench import emit, format_table, measure_cmr
from repro.bench.scenarios import dcn_scenario, run_dons_probed
from repro.des import ParallelOodSimulator, contiguous_partition
from repro.des.simulator import OodSimulator
from repro.machine import (
    DodAccessModel, OodAccessModel, StructuralCounts, XEON_SERVER,
    dons_memory_bytes, dons_utilization_percent, ns3_memory_bytes,
    omnet_memory_bytes, ood_utilization_percent,
)
from repro.machine.cost import cost_cmr
from repro.units import GIB


def test_fig12a_memory_by_simulator(benchmark):
    ks = (4, 8, 16, 32)

    def experiment():
        out = {}
        for k in ks:
            counts = StructuralCounts.from_fattree_k(k)
            out[k] = (
                ns3_memory_bytes(counts, processes=32),
                omnet_memory_bytes(counts, processes=32),
                dons_memory_bytes(counts),
            )
        return out

    mem = once(benchmark, experiment)

    rows = [
        (f"FatTree{k}", f"{mem[k][0] / GIB:.1f}", f"{mem[k][1] / GIB:.1f}",
         f"{mem[k][2] / GIB:.2f}")
        for k in ks
    ]
    emit("fig12a_memory", format_table(
        "Fig 12a: memory usage (GB), 32 LPs for the OOD simulators",
        ["topology", "ns-3 (32p)", "OMNeT++ (32p)", "DONS"],
        rows,
        note="paper anchors: ns-3 FatTree16x32p = 132.5 GB; "
             "DONS FatTree32 = 12.6 GB",
    ))

    # At FatTree4 fixed runtime overheads dominate every simulator; the
    # paper's memory ordering is about at-scale state (FatTree8 up).
    for k in ks:
        ns3, omnet, dons = mem[k]
        if k >= 8:
            assert dons < omnet <= ns3, f"FatTree{k}: ordering broken"
    # DONS ~10x below OMNeT++ at FatTree32 (paper: 12.6 vs ~126 GB).
    assert mem[32][1] / mem[32][2] > 5
    # ns-3's 32-process FatTree32 needs thousands of GB (paper: >5000).
    assert mem[32][0] / GIB > 3000


def test_fig12b_cache_and_fig12c_utilization(benchmark):
    ks = (4, 8, 16)

    def experiment():
        out = {}
        for k in ks:
            scenario = dcn_scenario(k, duration_ms=0.5, max_flows=75 * k,
                                    seed=5)
            topo = scenario.topology
            ood = OodAccessModel(topo.num_nodes, topo.num_interfaces,
                                 topo.num_hosts)
            sim = OodSimulator(scenario)
            sim.bus.ops = ood
            sim.run()
            dod = DodAccessModel(topo.num_nodes, topo.num_interfaces,
                                 topo.num_hosts, len(scenario.flows))
            dons = run_dons_probed(scenario, dod)
            psim = ParallelOodSimulator(
                scenario, contiguous_partition(topo, min(32, topo.num_nodes - 1)))
            psim.run()
            out[k] = {
                "cmr_ood": measure_cmr(ood),
                "cmr_dod": measure_cmr(dod),
                "dons_util": dons_utilization_percent(
                    dons.window_breakdown,
                    cost_cmr(measure_cmr(dod), is_dod=True),
                    XEON_SERVER, XEON_SERVER.cores),
                "ood_util": ood_utilization_percent(
                    32, psim.stats.lp_events),
            }
        return out

    data = once(benchmark, experiment)

    rows = [
        (f"FatTree{k}", f"{data[k]['cmr_ood']:.2f}%",
         f"{data[k]['cmr_dod']:.3f}%",
         f"{data[k]['ood_util']:.0f}%", f"{data[k]['dons_util']:.0f}%")
        for k in ks
    ]
    emit("fig12bc_cache_util", format_table(
        "Fig 12b/c: L3 miss rate and CPU utilization",
        ["topology", "ood CMR", "DONS CMR", "ns-3(32p) util", "DONS util"],
        rows,
        note="paper: DONS util rises 1003% -> 2634% with scale; "
             "CMR gap 4.5x-56x",
    ))

    for k in ks:
        d = data[k]
        assert d["cmr_ood"] > 1.0
        assert d["cmr_ood"] / max(d["cmr_dod"], 1e-6) > 4.5
    utils = [data[k]["dons_util"] for k in ks]
    assert utils[0] < utils[-1], "DONS utilization should grow with scale"
    assert utils[-1] > 800, f"DONS utilization too low at FatTree16: {utils}"
    assert all(u <= 3200 for u in utils)
