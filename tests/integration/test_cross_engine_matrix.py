"""The full engine matrix on one scenario: sequential OOD, parallel OOD,
single-machine DONS, distributed DONS on in-process and on process
agents — five executions, one trace."""

from repro.cluster import DonsManager
from repro.core.engine import run_dons
from repro.des import ParallelOodSimulator, random_partition, run_baseline
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import full_mesh_dynamic, TINY
from repro.units import GBPS, ms, us


def test_five_engines_one_trace():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.4), load=0.5,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=31, max_flows=50)
    sc = make_scenario(topo, flows, buffer_bytes=60_000)

    traces = {}
    traces["ood"] = run_baseline(sc, TraceLevel.FULL).trace
    psim = ParallelOodSimulator(sc, random_partition(topo, 3, 4),
                                TraceLevel.FULL)
    traces["ood-parallel"] = psim.run().trace
    traces["dons"] = run_dons(sc, TraceLevel.FULL).trace
    traces["dons-cluster"] = DonsManager(
        sc, ClusterSpec.homogeneous(3), TraceLevel.FULL
    ).run().results.trace
    traces["dons-cluster-shm"] = DonsManager(
        sc, ClusterSpec.homogeneous(2), TraceLevel.FULL, transport="shm"
    ).run().results.trace

    reference = sorted(traces["ood"].entries)
    assert len(reference) > 1000
    for name, trace in traces.items():
        assert sorted(trace.entries) == reference, f"{name} diverged"
    digests = {t.digest() for t in traces.values()}
    assert len(digests) == 1
