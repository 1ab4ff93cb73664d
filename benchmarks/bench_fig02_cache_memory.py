"""Fig. 2 — the motivation measurements.

(a) L3 cache miss rate of the OOD baseline vs DONS over FatTree sizes:
    the paper reports ns-3 always > 4% and growing, DONS < 0.15%.
(b) ns-3 memory usage vs process count on FatTree16: per-LP state
    duplication drives 132.5 GB at 32 processes.

Miss rates are measured by replaying each engine's actual operation
stream through the cache simulator with that engine's layout model
(DESIGN.md substitution); memory comes from the structural model
calibrated once against the paper's anchors.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.bench import emit, format_table
from repro.bench.scenarios import dcn_scenario, run_dons_probed
from repro.des.simulator import OodSimulator
from repro.machine import (
    CacheConfig, DodAccessModel, OodAccessModel, StructuralCounts,
    ns3_memory_bytes,
)
from repro.units import GIB


def _miss_rates(k: int):
    # The paper holds fractional load constant, so flow count grows with
    # the host count; the cap scales accordingly.
    scenario = dcn_scenario(k, duration_ms=0.5, max_flows=75 * k, seed=5)
    topo = scenario.topology
    ood = OodAccessModel(topo.num_nodes, topo.num_interfaces, topo.num_hosts)
    sim = OodSimulator(scenario)
    sim.bus.subscribe_ops(ood)
    sim.run()
    dod = DodAccessModel(topo.num_nodes, topo.num_interfaces,
                         topo.num_hosts, len(scenario.flows))
    run_dons_probed(scenario, dod)
    from repro.bench import measure_cmr
    return measure_cmr(ood), measure_cmr(dod)


def test_fig02a_cache_miss_rate(benchmark):
    ks = (4, 8, 16)

    def experiment():
        return {k: _miss_rates(k) for k in ks}

    rates = once(benchmark, experiment)

    rows = [
        (f"FatTree{k}", f"{rates[k][0]:.2f}%", f"{rates[k][1]:.3f}%",
         "> 4%", "< 0.15%")
        for k in ks
    ]
    emit("fig02a_cache_miss", format_table(
        "Fig 2a: L3 cache miss rate (measured via cache model)",
        ["topology", "ood-des (ns-3)", "DONS", "paper ns-3", "paper DONS"],
        rows,
        note="replayed op streams, scaled L3 (see bench.scenarios), steady state",
    ))

    ood = [rates[k][0] for k in ks]
    dod = [rates[k][1] for k in ks]
    # Shape claims: OOD high and growing with scale, DONS far lower.
    # (The paper's < 0.15% is a billion-access steady state over ~1000-
    # segment flows; our scaled flows are ~10 segments, so per-flow cold
    # misses amortize less — hence the looser absolute bound here, while
    # the OOD/DOD *ratio* claim is asserted at full strength.)
    assert ood[-1] > 3.0, f"OOD miss rate too low: {ood}"
    assert ood[0] < ood[-1], "OOD miss rate should grow with topology"
    assert max(dod) < 0.5, f"DONS miss rate too high: {dod}"
    assert all(o / max(d, 1e-6) > 10 for o, d in zip(ood, dod) if o > 1)


def test_fig02b_ns3_memory_vs_processes(benchmark):
    counts = StructuralCounts.from_fattree_k(16)

    def experiment():
        return {p: ns3_memory_bytes(counts, p) for p in (1, 2, 4, 8, 16, 32)}

    mem = once(benchmark, experiment)

    rows = [(p, f"{mem[p] / GIB:.1f} GB") for p in sorted(mem)]
    emit("fig02b_ns3_memory", format_table(
        "Fig 2b: ns-3 memory usage vs #processes (FatTree16)",
        ["processes", "modeled memory"],
        rows,
        note="paper: 132.5 GB at 32 processes (memory duplicated per LP)",
    ))

    gb32 = mem[32] / GIB
    assert 100 <= gb32 <= 170, f"32-process footprint off: {gb32:.0f} GB"
    # Linear-in-LPs growth (the duplication pathology).
    assert abs(mem[32] / mem[1] - 32) < 1e-6
