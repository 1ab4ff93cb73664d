#!/usr/bin/env python
"""Distributed simulation end to end (paper §3.1, §4).

Plans a FatTree8 full-mesh scenario for a 4-machine cluster — the
Manager's job: the Load Estimator profiles the traffic and the
Partitioner runs Algorithm 1 against the time-cost model — then builds
one Agent per part; the Agents execute their sub-graphs in lockstep
lookahead windows with FINISH-signal sync, and the merged result is
bit-identical to a single-machine run.

    python examples/distributed_fattree.py
"""

from repro import fattree, full_mesh_dynamic, make_scenario, run_dons
from repro.cluster import AgentSpec, ClusterEngine
from repro.core import EngineRunner
from repro.des.partition_types import random_partition
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec, plan_scenario
from repro.traffic import TINY
from repro.units import GBPS, ms, us


def run_cluster(scenario, partition) -> ClusterEngine:
    """One agent per part, in-process; returns the finished engine."""
    engine = ClusterEngine([AgentSpec(a, scenario, partition, TraceLevel.FULL)
                            for a in range(partition.num_parts)])
    EngineRunner(engine).run()
    return engine


def main() -> None:
    topo = fattree(8, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(
        topo.hosts, duration_ps=ms(0.5), load=0.3,
        host_rate_bps=10 * GBPS, sizes=TINY, seed=11, max_flows=200,
    )
    scenario = make_scenario(topo, flows, name="fattree8-distributed")
    print(f"scenario: {topo}, {len(flows)} flows")

    # Ground truth: one machine.
    single = run_dons(scenario, TraceLevel.FULL)

    # Plan for 4 machines, then run one agent per part.
    plan = plan_scenario(scenario, ClusterSpec.homogeneous(4))
    planned = run_cluster(scenario, plan.partition)
    print(f"\nPartitioner: {plan.bisections} bisections, "
          f"{plan.planning_time_s * 1000:.1f} ms planning, "
          f"estimated T = {plan.estimated_time_s:.4f} load-units")
    print(f"machine loads (events): "
          f"{[r.events.total for r in planned.per_agent]}")
    print(f"windows: {planned.stats.windows}   "
          f"RPCs: {planned.stats.rpc_messages}   "
          f"RPC bytes: {planned.stats.rpc_bytes}   "
          f"FINISH signals: {planned.stats.finish_signals}")

    # Same scenario under a random partition: same results, more traffic.
    rand = run_cluster(scenario, random_partition(topo, 4, seed=3))
    print(f"\nrandom partition RPC bytes: {rand.stats.rpc_bytes} "
          f"({rand.stats.rpc_bytes / max(planned.stats.rpc_bytes, 1):.1f}x "
          f"the planned partition)")

    assert single.trace.digest() == planned.results.trace.digest()
    assert single.trace.digest() == rand.results.trace.digest()
    print("\nall three executions produced identical event traces:")
    print(f"  {single.trace.digest()}")


if __name__ == "__main__":
    main()
