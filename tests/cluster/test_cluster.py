"""Distributed runtime: agents, planned runs, FINISH accounting."""

import pytest

from repro.cluster import AgentSpec, ClusterEngine, merge_results
from repro.core import EngineRunner
from repro.des.partition_types import Partition, random_partition
from repro.errors import ClusterError
from repro.metrics import SimResults
from repro.metrics.results import FlowResult
from repro.partition import ClusterSpec, plan_scenario
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import Flow
from repro.units import GBPS, us


def _run(scenario, partition):
    engine = ClusterEngine([AgentSpec(a, scenario, partition)
                            for a in range(partition.num_parts)])
    EngineRunner(engine).run()
    return engine


class TestDistributedRun:
    def _scenario(self):
        topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[15 - i], 40_000, i * us(1))
                 for i in range(6)]
        return make_scenario(topo, flows, buffer_bytes=40_000)

    def test_manager_plans_and_runs(self):
        sc = self._scenario()
        plan = plan_scenario(sc, ClusterSpec.homogeneous(4))
        run = _run(sc, plan.partition)
        assert run.results.completed() == 6
        assert run.stats.windows > 0
        n = run.partition.num_parts
        assert run.stats.finish_signals == run.stats.windows * n * (n - 1)

    def test_explicit_partition_used(self):
        sc = self._scenario()
        part = random_partition(sc.topology, 3, 5)
        assert _run(sc, part).partition is part

    def test_partition_mismatch_rejected(self):
        sc = self._scenario()
        bad = Partition((0, 1), 2)
        with pytest.raises(ClusterError, match="partition assigns 2 nodes"):
            ClusterEngine([AgentSpec(a, sc, bad) for a in range(2)])

    def test_egress_accounting_per_machine(self):
        sc = self._scenario()
        run = _run(sc, plan_scenario(sc, ClusterSpec.homogeneous(4)).partition)
        assert len(run.stats.egress_bytes) == 4
        assert sum(run.stats.egress_bytes) == run.stats.rpc_bytes
        assert run.stats.rpc_records > 0


class TestMergeResults:
    def test_flow_records_unite_in_flow_id_order(self):
        """Each flow's record lives in one part (its destination's
        owner); the merge is their union, keyed in flow-id order."""
        a = SimResults("agent", "s", 10)
        a.flows[2] = FlowResult(2, 0, 700, 100)
        a.flows[0] = FlowResult(0, 0, None, 100)
        b = SimResults("agent", "s", 20)
        b.flows[1] = FlowResult(1, 0, 500, 100)
        from repro.metrics import TraceRecorder
        a.trace = TraceRecorder(0)
        b.trace = TraceRecorder(0)
        merged = merge_results([a, b], "s")
        assert list(merged.flows) == [0, 1, 2]
        assert merged.flows[1] is b.flows[1]
        assert merged.completed() == 2
        assert merged.end_time_ps == 20
