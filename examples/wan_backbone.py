#!/usr/bin/env python
"""WAN backbone study: full-mesh traffic over Abilene (paper Fig. 11e).

Simulates dynamic full-mesh flows between the POP servers of the
Abilene backbone, then reports per-flow statistics and the utilization
of every backbone link — the flow-level view the paper's NetVision
front-end visualizes.

    python examples/wan_backbone.py
"""

from collections import defaultdict

from repro import abilene, full_mesh_dynamic, make_scenario, run_dons
from repro.metrics import TraceLevel
from repro.traffic import TINY
from repro.units import GBPS, ms, ps_to_us


def main() -> None:
    topo = abilene(backbone_rate_bps=10 * GBPS)
    print(f"topology: {topo}")

    flows = full_mesh_dynamic(
        topo.hosts, duration_ps=ms(1), load=0.35,
        host_rate_bps=10 * GBPS, sizes=TINY, seed=42, max_flows=150,
    )
    print(f"traffic: {len(flows)} flows over 1 ms")

    scenario = make_scenario(topo, flows, name="abilene-mesh")
    res = run_dons(scenario)

    fcts = sorted(res.fcts_ps())
    print(f"\ncompleted {res.completed()}/{len(flows)} flows")
    print(f"FCT p10/p50/p90 (us): {ps_to_us(fcts[len(fcts)//10]):.1f} / "
          f"{ps_to_us(fcts[len(fcts)//2]):.1f} / "
          f"{ps_to_us(fcts[9*len(fcts)//10]):.1f}")

    # Per-backbone-link utilization from the load estimator's view.
    from repro.partition import estimate_scenario_loads
    loads = estimate_scenario_loads(scenario)
    per_link = []
    for link in topo.links:
        a, b = topo.nodes[link.node_a], topo.nodes[link.node_b]
        if a.is_host or b.is_host:
            continue  # access links
        cap_bytes = link.rate_bps / 8 * 1e-3  # 1 ms horizon
        util = loads.link_load[link.link_id] / cap_bytes
        per_link.append((util, f"{a.name:>14} - {b.name}"))
    print("\nbusiest backbone links (offered load / capacity):")
    for util, name in sorted(per_link, reverse=True)[:8]:
        bar = "#" * int(min(util, 1.5) * 40)
        print(f"  {name:<32} {util:6.2f}  {bar}")


if __name__ == "__main__":
    main()
