"""Table 1 — FatTree64 (65,536 servers) on a 4/8-machine cluster.

Paper rows (time, speedup vs OMNeT++, w1 of the RTT distribution):

    4 machines: OMNeT++ 9d14h24m (baseline) | DQN 2h56m, 78.5x, 0.43
                | DONS 5h27m, 42.2x, 0
    8 machines: OMNeT++ 7d19h8m (baseline)  | DQN 1h48m, 104.1x, 0.46
                | DONS 2h53m, 65.0x, 0

Method: event counts extrapolated from a measured FatTree16 run (the
per-packet event/byte ratios are scale-free); machine loads split by the
pod-symmetric partition both partitioners find; RPC traffic from the
cross-machine flow fraction; wall-clocks from the cluster cost model.
The w1 columns are *measured*: the APA is trained on small DES runs and
scored against a congested DES ground truth; the DES engines' w1 is 0
by trace equality.
"""

from __future__ import annotations

import pytest

from conftest import once
from repro.bench import (
    EventRatios, emit, format_table, full_mesh_packets, measure_cmr,
    windows_at_paper_scale,
)
from repro.bench.scenarios import dcn_scenario, run_dons_probed
from repro.apa import DeepQueueNetLike
from repro.cluster import RPC_RECORD_BYTES
from repro.des.simulator import OodSimulator, run_baseline
from repro.machine import (
    OodAccessModel, DodAccessModel, apa_time_s, cluster_time_s,
    format_duration, omnet_cluster_time_s,
)
from repro.machine.cost import cost_cmr
from repro.metrics import normalized_w1
from repro.topology import fattree_counts

WINDOWS = windows_at_paper_scale()
HOSTS64 = fattree_counts(64)["hosts"]


def _measure_ratios_and_w1():
    """Scaled FatTree16 run for ratios + APA w1 measurement."""
    scenario = dcn_scenario(16, duration_ms=0.3, max_flows=1200, seed=5)
    topo = scenario.topology
    ood = OodAccessModel(topo.num_nodes, topo.num_interfaces, topo.num_hosts)
    sim = OodSimulator(scenario)
    sim.bus.subscribe_ops(ood)
    serial = sim.run()
    cmr_ood = cost_cmr(measure_cmr(ood))
    dod = DodAccessModel(topo.num_nodes, topo.num_interfaces,
                         topo.num_hosts, len(scenario.flows))
    run_dons_probed(scenario, dod)
    cmr_dod = cost_cmr(measure_cmr(dod), is_dod=True)

    # APA trained on small runs, scored out of distribution — a bigger
    # topology, heavier load and a different size mix, mirroring the gap
    # between DQN's training regime and the FatTree64 target that drives
    # the paper's w1 of 0.43-0.46.
    from repro.traffic import FB_CACHE
    train = []
    for seed in (1, 2, 3):
        sc = dcn_scenario(8, duration_ms=1.0, load=0.3, max_flows=250,
                          seed=seed)
        train.append((sc, run_baseline(sc)))
    apa = DeepQueueNetLike().fit(train)
    test = dcn_scenario(16, duration_ms=0.5, load=0.8, max_flows=900,
                        seed=77, sizes=FB_CACHE)
    truth = run_baseline(test)
    pred = apa.predict(test)
    w1 = normalized_w1(pred.rtt_samples_ps,
                       [r for _t, r, _f in truth.rtt_samples])
    return EventRatios.measure(serial), cmr_ood, cmr_dod, w1


def test_table1_fattree64_cluster(benchmark):
    ratios, cmr_ood, cmr_dod, w1_dqn = once(benchmark, _measure_ratios_and_w1)

    packets = full_mesh_packets(HOSTS64)
    events = int(packets * ratios.events_per_packet)

    rows = []
    speedups = {}
    for machines in (4, 8):
        # FatTree pods split evenly; uniform endpoints put (1 - 1/m) of
        # flows across machines; transit adds ~50% more egress records.
        part_events = [events // machines] * machines
        cross = packets * (1.0 - 1.0 / machines) * 1.5 / machines
        part_egress = [int(cross * RPC_RECORD_BYTES)] * machines

        t_omnet = omnet_cluster_time_s(part_events, part_egress, WINDOWS,
                                       cmr_percent=cmr_ood)
        t_dqn = apa_time_s(packets, gpus=machines)
        t_dons = cluster_time_s(part_events, part_egress, WINDOWS,
                                cmr_percent=cmr_dod)
        speedups[machines] = {
            "dqn": t_omnet / t_dqn,
            "dons": t_omnet / t_dons,
        }
        rows += [
            (machines, "OMNeT++", 0, format_duration(t_omnet), "baseline", "-"),
            (machines, "DQN", machines, format_duration(t_dqn),
             f"{t_omnet / t_dqn:.1f}x", f"{w1_dqn:.2f}"),
            (machines, "DONS", 0, format_duration(t_dons),
             f"{t_omnet / t_dons:.1f}x", "0"),
        ]

    emit("table1_fattree64", format_table(
        "Table 1: FatTree64 (65,536 servers) simulation time",
        ["#machines", "simulator", "#GPUs", "time", "speedup", "w1"],
        rows,
        note="paper: OMNeT++ 9d14h/7d19h; DQN 78.5x/104.1x w1>0.4; "
             "DONS 42.2x/65.0x w1=0",
    ))

    # --- shape assertions -------------------------------------------------
    for m in (4, 8):
        sp = speedups[m]
        assert sp["dons"] > 15, f"{m} machines: DONS speedup {sp['dons']:.0f}"
        assert sp["dqn"] > sp["dons"], "DQN should be fastest (accuracy traded)"
        assert sp["dqn"] / sp["dons"] < 10, "DQN lead should stay moderate"
    # Near-linear DONS scaling 4 -> 8 machines vs OMNeT++'s ~1.2x
    # (paper: DONS 42.2x -> 65x while OMNeT++ barely improves).
    ratio = speedups[8]["dons"] / speedups[4]["dons"]
    assert 1.2 < ratio < 2.6, f"scaling ratio {ratio:.2f}"
    # DONS 8-machine speedup: tens of x (paper 65x; see EXPERIMENTS.md).
    assert 25 <= speedups[8]["dons"] <= 110
    # DQN pays measurable accuracy (paper w1 >= 0.43).
    assert w1_dqn > 0.25, f"DQN w1 too good: {w1_dqn:.2f}"
