"""Library extensions: leaf-spine, queue occupancy."""

import pytest

from repro.core.engine import DodEngine, run_dons
from repro.des import run_baseline
from repro.errors import TopologyError
from repro.metrics import TraceKind, TraceLevel
from repro.routing import build_fib
from repro.scenario import make_scenario
from repro.topology import leaf_spine
from repro.traffic import Flow
from repro.units import GBPS


class TestLeafSpine:
    def test_shape(self):
        topo = leaf_spine(4, 2, hosts_per_leaf=8)
        assert topo.num_hosts == 32
        assert len(topo.switches) == 6
        # links: 32 access + 4*2 fabric
        assert topo.num_links == 40

    def test_every_leaf_reaches_every_spine(self):
        topo = leaf_spine(3, 2, hosts_per_leaf=1)
        fib = build_fib(topo)
        hosts = topo.hosts
        path = fib.path(hosts[0], hosts[-1], flow_id=1)
        # host-leaf-spine-leaf-host
        assert len(path) == 5

    def test_ecmp_over_spines(self):
        topo = leaf_spine(2, 4, hosts_per_leaf=1)
        fib = build_fib(topo)
        hosts = topo.hosts
        spines = set()
        for fid in range(32):
            spines.add(fib.path(hosts[0], hosts[1], fid)[2])
        assert len(spines) >= 2

    def test_engines_agree_on_leaf_spine(self):
        from repro.core.engine import run_dons
        from repro.des import run_baseline
        from repro.metrics import TraceLevel
        topo = leaf_spine(2, 2, hosts_per_leaf=4,
                          host_rate_bps=10 * GBPS,
                          fabric_rate_bps=10 * GBPS)
        hosts = topo.hosts
        flows = [Flow(i, hosts[i], hosts[7 - i], 60_000, 0)
                 for i in range(4)]
        sc = make_scenario(topo, flows)
        a = run_baseline(sc, TraceLevel.FULL)
        b = run_dons(sc, TraceLevel.FULL)
        assert a.trace.digest() == b.trace.digest()

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            leaf_spine(0, 2, 2)


class TestQueueSampling:
    """Queue occupancy stays visible two ways, neither an engine mode of
    its own: a FULL trace's ENQ records and telemetry's
    ``port.queue_depth_bytes`` histogram."""

    def test_samples_identical_across_engines(self, dumbbell_scenario):
        """Every enqueue — where and when a packet joined a queue — is
        recorded alike by both engines."""
        def enqueues(results):
            return sorted(e for e in results.trace.entries
                          if e[1] == TraceKind.ENQ)
        ood = enqueues(run_baseline(dumbbell_scenario, TraceLevel.FULL))
        assert ood
        assert enqueues(run_dons(dumbbell_scenario, TraceLevel.FULL)) == ood

    def test_samples_track_occupancy(self, dumbbell_scenario):
        """The histogram samples the busy ports' queues each window, and
        no sample exceeds the deepest queue the run reached."""
        engine = DodEngine(dumbbell_scenario, telemetry=True)
        engine.run()
        depth = engine.bus.metrics.histograms["port.queue_depth_bytes"]
        deepest = max(engine.world.egress_cols.max_queue_bytes)
        assert depth.count > 0 and 0 < depth.sum <= depth.count * deepest

    def test_disabled_by_default(self, dumbbell_scenario):
        engine = DodEngine(dumbbell_scenario)
        engine.run()
        assert "port.queue_depth_bytes" not in engine.bus.metrics.histograms
