"""Library extensions: leaf-spine, queue sampling."""

import pytest

from repro.core.engine import DodEngine
from repro.des.simulator import OodSimulator
from repro.errors import TopologyError
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
    def test_samples_identical_across_engines(self, dumbbell_scenario):
        a = OodSimulator(dumbbell_scenario, sample_queues=True)
        a.run()
        b = DodEngine(dumbbell_scenario, sample_queues=True)
        b.run()
        assert any(port.stats.queue_samples for port in a.ports)
        for port in a.ports:
            assert (b.port_stats(port.iface.iface_id).queue_samples
                    == port.stats.queue_samples)

    def test_samples_track_occupancy(self, dumbbell_scenario):
        sim = OodSimulator(dumbbell_scenario, sample_queues=True)
        sim.run()
        bottleneck = [p for p in sim.ports
                      if p.stats.max_queue_bytes > 0]
        assert bottleneck, "nothing queued anywhere?"
        port = max(bottleneck, key=lambda p: p.stats.max_queue_bytes)
        times = [t for t, _q in port.stats.queue_samples]
        assert times == sorted(times)
        assert max(q for _t, q in port.stats.queue_samples) \
            == port.stats.max_queue_bytes

    def test_disabled_by_default(self, dumbbell_scenario):
        sim = OodSimulator(dumbbell_scenario)
        sim.run()
        assert all(not p.stats.queue_samples for p in sim.ports)
