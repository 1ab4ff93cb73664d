"""Table 3 — planning time vs execution time per partitioning method.

Paper (same ISP WAN, 8 servers): balanced cut plans in 15 s, CFP in
42 s, DONS Partitioner in 1 m 46 s — but the Partitioner's plan cuts
execution from ~12 h to ~4 h 17 m, so planning cost is negligible
against its payoff.

Planning wall-clocks are *real measurements* on a paper-scale (~12k
router) instance of the ISP generator; the DONS Partitioner's figure
includes the Load Estimator pass over the flow set, which is what the
paper's "planning" covers ("Using Load Estimator and Partitioner with
the time-cost model for planning takes ~2 minutes").  Execution
estimates come from the Manager's own Eq. (1)-(2) model, normalized so
the balanced-cut baseline matches the paper's 12 h scale.
"""

from __future__ import annotations

import time

import pytest

from conftest import once
from repro.bench import emit, format_table
from repro.bench.scenarios import isp_scenario
from repro.machine import format_duration
from repro.partition import (
    ClusterSpec, balanced_cut_plan, cfp_plan, dons_partition, estimate_loads,
)
from repro.routing import build_fib

MACHINES = 8
#: Load-estimator input: the paper's planner sweeps the full flow set.
PLANNING_FLOWS = 20_000


def _plan_all():
    topo, flows = isp_scenario(scale="paper", duration_ms=2.0,
                               max_flows=PLANNING_FLOWS)
    fib = build_fib(topo)
    cluster = ClusterSpec.homogeneous(MACHINES)

    # The DONS Manager's planning = Load Estimator + Partitioner.
    t0 = time.perf_counter()
    loads = estimate_loads(topo, fib, flows)
    estimator_s = time.perf_counter() - t0
    dons = dons_partition(topo, loads, cluster)

    plans = {
        "balanced-cut": balanced_cut_plan(topo, MACHINES, loads, cluster),
        "cfp": cfp_plan(topo, MACHINES, loads, cluster),
        "dons-partitioner": dons,
    }
    planning = {
        "balanced-cut": plans["balanced-cut"].planning_time_s,
        "cfp": plans["cfp"].planning_time_s,
        "dons-partitioner": dons.planning_time_s + estimator_s,
    }
    return topo, plans, planning, len(flows)


def test_table3_planning_vs_execution(benchmark):
    topo, plans, planning, n_flows = once(benchmark, _plan_all)

    # Normalize execution so the balanced-cut baseline sits at the
    # paper's ~12 h (relative values are the measured Eq. 2 estimates).
    paper_baseline_s = 12 * 3600.0
    exec_scale = paper_baseline_s / plans["balanced-cut"].estimated_time_s
    exec_s = {
        name: plan.estimated_time_s * exec_scale
        for name, plan in plans.items()
    }

    rows = [
        (name, f"{planning[name]:.2f} s", format_duration(exec_s[name]))
        for name in ("balanced-cut", "cfp", "dons-partitioner")
    ]
    emit("table3_planning", format_table(
        f"Table 3: planning vs estimated execution on the paper-scale "
        f"ISP WAN ({topo.num_nodes} nodes, {topo.num_links} links, "
        f"{n_flows} flows)",
        ["method", "planning time (measured)", "estimated execution"],
        rows,
        note="paper: 15 s / 42 s / 1 m 46 s planning; "
             "12 h / 9 h / 4.3 h execution (balanced-cut anchored)",
    ))

    # Paper-scale topology actually built and planned.
    assert topo.num_nodes > 10_000, topo.num_nodes
    # Planning cost ordering: balanced cheapest, the Partitioner (with
    # its Load Estimator pass) the most expensive.
    assert planning["balanced-cut"] < planning["cfp"]
    assert planning["balanced-cut"] < planning["dons-partitioner"]
    assert planning["dons-partitioner"] > 0.5 * planning["cfp"]
    # Execution payoff ordering is the reverse.
    assert exec_s["dons-partitioner"] < exec_s["cfp"]
    assert exec_s["dons-partitioner"] < exec_s["balanced-cut"]
    assert exec_s["dons-partitioner"] < 0.75 * exec_s["balanced-cut"]
    # The paper's headline: planning is negligible against its payoff.
    saved = exec_s["cfp"] - exec_s["dons-partitioner"]
    assert planning["dons-partitioner"] < saved
