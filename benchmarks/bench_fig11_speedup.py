"""Fig. 11 — simulation speedup versus single-process ns-3.

Paper series per topology: ns-3 (1, 2, 32 processes), OMNeT++, DONS;
speedup = t_ns3(1) / t_x.  On FatTrees the paper's DONS speedup grows
from 3x (FatTree4) to 22x (FatTree32); 2-process ns-3 is *slower* than
1 process; 32 processes barely help.  On the WANs (Abilene, GEANT) DONS
gains ~4x and ~7x.

Method: scaled packet-level runs measure everything scenario-specific —
event counts and per-system shares, per-LP load shares from executed
null-message runs, per-window burstiness, cache miss rates — and the
cost model projects every engine to the paper's horizon (1000 ms, 1 us
lookahead windows), so all series share one scale.  FatTree32 is
projected from FatTree16 ratios (no 8k-server packet run in CPython).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from conftest import once
from repro.bench import (
    EventRatios, emit, fattree_full_events, format_table, measure_cmr,
    windows_at_paper_scale,
)
from repro.bench.scenarios import dcn_scenario, run_dons_probed, wan_scenario
from repro.des import ParallelOodSimulator, contiguous_partition
from repro.des.simulator import OodSimulator
from repro.machine import (
    DodAccessModel, OodAccessModel, XEON_SERVER, sequential_time_s,
)
from repro.machine.cost import (
    cost_cmr, dons_time_uniform, multiprocess_paper_scale_s,
)

WINDOWS = windows_at_paper_scale()  # 1e6 windows = 1000 ms at 1 us


def _measure(scenario, scaled_duration_ms, lp_counts):
    """Scaled run -> everything the projection needs."""
    topo = scenario.topology
    ood = OodAccessModel(topo.num_nodes, topo.num_interfaces, topo.num_hosts)
    sim = OodSimulator(scenario)
    sim.bus.ops = ood
    serial = sim.run()
    cmr_ood = cost_cmr(measure_cmr(ood))

    dod = DodAccessModel(topo.num_nodes, topo.num_interfaces,
                         topo.num_hosts, len(scenario.flows))
    dons = run_dons_probed(scenario, dod)
    cmr_dod = cost_cmr(measure_cmr(dod), is_dod=True)

    wb = dons.window_breakdown
    totals = np.array([sum(w[1:5]) for w in wb], dtype=float)
    burst = float(np.percentile(totals, 95) / max(totals.mean(), 1e-9))
    shares = [sum(w[i] for w in wb) for i in range(1, 5)]

    lp_shares = {}
    for n in lp_counts:
        if n >= topo.num_nodes:
            continue
        psim = ParallelOodSimulator(scenario, contiguous_partition(topo, n))
        psim.run()
        total = max(sum(psim.stats.lp_events), 1)
        lp_shares[n] = max(psim.stats.lp_events) / total

    events_paper = int(serial.events.total * (1000.0 / scaled_duration_ms))
    return {
        "events": events_paper,
        "cmr_ood": cmr_ood,
        "cmr_dod": cmr_dod,
        "shares": shares,
        "burst": max(1.0, burst),
        "lp_shares": lp_shares,
        "serial": serial,
    }


def _speedups(m) -> Dict[str, float]:
    t1 = sequential_time_s(m["events"], m["cmr_ood"])
    out = {"ns-3 (1)": 1.0}
    for n, share in m["lp_shares"].items():
        tn = multiprocess_paper_scale_s(
            m["events"], WINDOWS, m["cmr_ood"], n, share, m["burst"],
        )
        out[f"ns-3 ({n})"] = t1 / tn
    if m["lp_shares"]:
        n = max(m["lp_shares"])
        # OMNeT++: same OOD architecture, leaner sync kernel (modeled at
        # half the per-window exchange cost; see DESIGN.md).
        to = multiprocess_paper_scale_s(
            m["events"], WINDOWS, m["cmr_ood"], n, m["lp_shares"][n],
            m["burst"], sync_scale=0.5,
        )
        out["OMNeT++"] = t1 / to
    td = dons_time_uniform(m["events"], WINDOWS, m["shares"], m["cmr_dod"],
                           XEON_SERVER, XEON_SERVER.cores)
    out["DONS"] = t1 / td.total_s
    return out


def test_fig11_fattree_and_wan_speedups(benchmark):
    cases = {
        "FatTree4": (dcn_scenario(4, duration_ms=0.5, max_flows=300, seed=5),
                     0.5, (2, 32)),
        "FatTree8": (dcn_scenario(8, duration_ms=0.5, max_flows=600, seed=5),
                     0.5, (2, 32)),
        "FatTree16": (dcn_scenario(16, duration_ms=0.3, max_flows=1200, seed=5),
                      0.3, (2, 32)),
        "Abilene": (wan_scenario("abilene", duration_ms=1.0, max_flows=300),
                    1.0, (2,)),
        "GEANT": (wan_scenario("geant", duration_ms=1.0, max_flows=400),
                  1.0, (2,)),
    }

    def experiment():
        return {
            name: _measure(sc, dur, lps)
            for name, (sc, dur, lps) in cases.items()
        }

    measured = once(benchmark, experiment)

    all_speedups = {name: _speedups(m) for name, m in measured.items()}
    rows = []
    for name, sp in all_speedups.items():
        rows.append((
            name,
            f"{sp.get('ns-3 (2)', float('nan')):.2f}x",
            f"{sp.get('ns-3 (32)', float('nan')):.2f}x",
            f"{sp.get('OMNeT++', float('nan')):.2f}x",
            f"{sp['DONS']:.1f}x",
        ))

    # FatTree32 projected from FatTree16 measured ratios.
    m16 = measured["FatTree16"]
    ratios = EventRatios.measure(m16["serial"])
    e32 = fattree_full_events(32, ratios)
    t1_32 = sequential_time_s(e32, m16["cmr_ood"])
    td_32 = dons_time_uniform(e32, WINDOWS, m16["shares"], m16["cmr_dod"],
                              XEON_SERVER, XEON_SERVER.cores)
    sp32 = t1_32 / td_32.total_s
    rows.append(("FatTree32 (projected)", "OOM", "OOM", "-", f"{sp32:.1f}x"))

    emit("fig11_speedup", format_table(
        "Fig 11: speedup vs single-process ns-3 (projected to the paper's "
        "1000 ms horizon from measured scaled runs)",
        ["topology", "ns-3(2)", "ns-3(32)", "OMNeT++", "DONS"],
        rows,
        note="paper: DONS 3x (FatTree4) -> 22x (FatTree32); "
             "Abilene ~4x, GEANT ~7x; ns-3(2) < 1x; ns-3 OOMs at FatTree32",
    ))

    # --- shape assertions -----------------------------------------------
    for name in ("FatTree4", "FatTree8", "FatTree16"):
        sp = all_speedups[name]
        assert sp["ns-3 (2)"] < 1.0, f"{name}: 2-proc should be slower"
        assert sp["DONS"] > sp.get("ns-3 (32)", 0), f"{name}: DONS must win"
        assert sp.get("ns-3 (32)", 99) < 4.0, f"{name}: 32-proc too fast"
    d4 = all_speedups["FatTree4"]["DONS"]
    d8 = all_speedups["FatTree8"]["DONS"]
    d16 = all_speedups["FatTree16"]["DONS"]
    assert d4 < d8 <= d16 <= sp32 * 1.05, (d4, d8, d16, sp32)
    assert 2.0 <= d4 <= 9.0, f"FatTree4 speedup out of band: {d4:.1f}"
    assert 12.0 <= sp32 <= 35.0, f"FatTree32 speedup out of band: {sp32:.1f}"
    # WANs: modest speedups, larger WAN parallelizes better.
    assert 1.5 <= all_speedups["Abilene"]["DONS"] <= 15.0
    assert all_speedups["Abilene"]["DONS"] < all_speedups["GEANT"]["DONS"]
