"""Workload-family acceptance: the DiffServ WAN twin and the storage
replica-pipeline twin are byte-identical across serial, fast-forwarded
and cluster-local-2 execution — and the columnar traffic path
never materializes more than one batch of Flow facades."""

import gc

import pytest

from repro.bench.workloads import (
    storage_scenario, wan_twin_scenario, wan_twin_smoke,
)
from repro.conformance.oracles import run_cluster, run_dod, run_ood
from repro.traffic import Flow
from repro.traffic.arrivals import DEFAULT_BATCH

#: (label, runner) — every execution of the matrix.
MATRIX = [
    ("ood", run_ood),
    ("serial", lambda sc: run_dod(sc, name="serial")),
    ("ffwd", lambda sc: run_dod(sc, name="ffwd", ffwd=True)),
    ("cluster2", lambda sc: run_cluster(sc, "local", 2, "cluster2")),
]


def _scenarios():
    return [
        ("wan-twin-sp", wan_twin_scenario(
            classes=3, max_flows=80, duration_ms=0.15, scheduler="sp",
            seed=41)),
        ("wan-twin-drr", wan_twin_scenario(
            which="geant", classes=2, max_flows=50, duration_ms=0.1,
            scheduler="drr", arrival="poisson", seed=42)),
        ("storage", storage_scenario(
            datanodes=6, blocks=16, duration_ms=0.25, seed=43)),
    ]


@pytest.mark.parametrize("name,scenario", _scenarios(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_workload_trace_identity_across_matrix(name, scenario):
    reference = None
    for label, runner in MATRIX:
        run = runner(scenario)
        assert run.n_entries > 0, label
        if reference is None:
            reference = run.trace
        else:
            assert run.trace == reference, f"{name}: {label} diverged"


def test_smoke_scenario_bounds_flow_materialization():
    """The 100k-flow smoke build must stream flows through the columnar
    path: at no point may more than one batch of Flow facades be alive
    (plus the handful other tests may have pinned elsewhere)."""
    gc.collect()
    ambient = sum(1 for o in gc.get_objects() if isinstance(o, Flow))
    sc = wan_twin_smoke(100_000)
    assert len(sc.flows) >= 100_000
    from repro.core.engine import DodEngine
    engine = DodEngine(sc)
    del engine
    gc.collect()
    peak = sum(1 for o in gc.get_objects() if isinstance(o, Flow))
    assert peak - ambient <= DEFAULT_BATCH + 16, (
        f"{peak - ambient} Flow objects survive a 100k-flow build; "
        "the columnar path must not materialize the flow set")
