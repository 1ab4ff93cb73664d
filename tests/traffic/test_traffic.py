"""Traffic: flow checks, size distributions, workload generators."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rng import make_rng
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import (
    FB_CACHE, Flow, TINY, Transport, WEB_SEARCH, fixed_flows,
    FlowColumns, full_mesh_dynamic, incast, permutation,
)
from repro.traffic.distributions import EmpiricalSize
from repro.traffic.generators import zipf_weights
from repro.units import GBPS, ms


class TestFlow:
    def test_rejects_self_flow(self):
        with pytest.raises(ConfigError):
            Flow(0, 1, 1, 100, 0)

    def test_rejects_bad_size_and_time(self):
        with pytest.raises(ConfigError):
            Flow(0, 1, 2, 0, 0)
        with pytest.raises(ConfigError):
            Flow(0, 1, 2, 100, -5)

    def test_make_scenario_checks_ids_and_hosts(self):
        """A ``Flow`` list becomes the scenario's flow table once, at
        ``make_scenario``: ids must be dense (both engines index flows
        by position) and every endpoint must be a host."""
        topo = dumbbell(2)
        a, b = topo.hosts[0], topo.hosts[-1]
        flows = [Flow(0, a, b, 100, 0), Flow(1, b, a, 100, 0, Transport.UDP)]
        sc = make_scenario(topo, flows)
        assert isinstance(sc.flows, FlowColumns)
        assert list(sc.flows) == flows
        with pytest.raises(ConfigError, match="dense flow ids"):  # sparse
            make_scenario(topo, [Flow(0, a, b, 100, 0),
                                 Flow(7, b, a, 100, 0, Transport.UDP)])
        with pytest.raises(ConfigError, match="dense flow ids"):  # duplicate
            make_scenario(topo, [Flow(0, a, b, 100, 0),
                                 Flow(0, b, a, 100, 0)])
        switch = topo.switches[0]
        with pytest.raises(ConfigError, match="non-host endpoints"):
            make_scenario(topo, [Flow(0, a, switch, 100, 0)])


class TestDistributions:
    @pytest.mark.parametrize("dist", [WEB_SEARCH, FB_CACHE, TINY])
    def test_samples_within_support(self, dist):
        rng = make_rng(1)
        s = dist.sample(rng, 2000)
        assert s.min() >= 1
        assert s.max() <= dist._sizes[-1]

    def test_sample_mean_close_to_analytic(self):
        rng = make_rng(2)
        s = WEB_SEARCH.sample(rng, 60_000)
        assert abs(s.mean() - WEB_SEARCH.mean()) / WEB_SEARCH.mean() < 0.10

    def test_web_search_heavier_than_fb(self):
        assert WEB_SEARCH.mean() > 10 * FB_CACHE.mean()

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(ConfigError):
            EmpiricalSize("bad", [])
        with pytest.raises(ConfigError):
            EmpiricalSize("bad", [(10, 0.5), (5, 1.0)])
        with pytest.raises(ConfigError):
            EmpiricalSize("bad", [(10, 0.5), (20, 0.4)])
        with pytest.raises(ConfigError):
            EmpiricalSize("bad", [(10, 0.5)])


class TestGenerators:
    HOSTS = list(range(8))

    def test_full_mesh_deterministic(self):
        a = full_mesh_dynamic(self.HOSTS, ms(1), load=0.3,
                              host_rate_bps=10 * GBPS, sizes=TINY, seed=4)
        b = full_mesh_dynamic(self.HOSTS, ms(1), load=0.3,
                              host_rate_bps=10 * GBPS, sizes=TINY, seed=4)
        assert a == b

    def test_full_mesh_load_scales_arrivals(self):
        low = full_mesh_dynamic(self.HOSTS, ms(1), load=0.1,
                                host_rate_bps=10 * GBPS, sizes=TINY, seed=4)
        high = full_mesh_dynamic(self.HOSTS, ms(1), load=0.6,
                                 host_rate_bps=10 * GBPS, sizes=TINY, seed=4)
        assert len(high) > 3 * len(low)

    def test_full_mesh_endpoints_valid(self):
        flows = full_mesh_dynamic(self.HOSTS, ms(1), load=0.5,
                                  host_rate_bps=10 * GBPS, sizes=TINY, seed=4)
        assert flows, "no flows generated"
        for f in flows:
            assert f.src in self.HOSTS and f.dst in self.HOSTS
            assert f.src != f.dst
            assert 0 <= f.start_ps < ms(1)

    def test_full_mesh_max_flows_cap(self):
        flows = full_mesh_dynamic(self.HOSTS, ms(5), load=1.0,
                                  host_rate_bps=10 * GBPS, sizes=TINY,
                                  seed=4, max_flows=17)
        assert len(flows) == 17

    def test_full_mesh_skew(self):
        w = zipf_weights(len(self.HOSTS), alpha=1.5)
        flows = full_mesh_dynamic(self.HOSTS, ms(5), load=1.0,
                                  host_rate_bps=10 * GBPS, sizes=TINY,
                                  seed=4, max_flows=800, host_weights=w)
        counts = np.zeros(len(self.HOSTS))
        for f in flows:
            counts[f.src] += 1
            counts[f.dst] += 1
        assert counts[0] > 3 * counts[-1], counts

    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_fixed_flows(self):
        flows = fixed_flows(self.HOSTS, 64, 1_500_000, seed=1)
        assert len(flows) == 64
        assert all(f.size_bytes == 1_500_000 for f in flows)

    def test_permutation_is_permutation(self):
        flows = permutation(self.HOSTS, 10_000, seed=9)
        assert sorted(f.src for f in flows) == self.HOSTS
        assert sorted(f.dst for f in flows) == self.HOSTS
        assert all(f.src != f.dst for f in flows)

    def test_incast(self):
        flows = incast(7, [0, 1, 2, 3], 50_000, stagger_ps=10)
        assert all(f.dst == 7 for f in flows)
        assert [f.start_ps for f in flows] == [0, 10, 20, 30]
        with pytest.raises(ConfigError):
            incast(3, [1, 2, 3], 100)


class TestGeneratorCanonicalOrder:
    """Generators must depend on the host *set*, not container order —
    and their exact output is pinned so an accidental reordering (or a
    silent RNG-consumption change) shows up as a digest mismatch, not
    as a mystery divergence three layers up in the conformance suite."""

    HOSTS = list(range(10, 22))

    @staticmethod
    def _digest(flows):
        import hashlib
        blob = repr([(f.flow_id, f.src, f.dst, f.size_bytes, f.start_ps,
                      int(f.transport), f.priority) for f in flows]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def _mesh(self, hosts, weights=None):
        return full_mesh_dynamic(hosts, duration_ps=200_000_000, load=0.4,
                                 host_rate_bps=10 * GBPS, sizes=TINY,
                                 seed=7, max_flows=40, host_weights=weights)

    def test_full_mesh_digest_pinned(self):
        flows = self._mesh(self.HOSTS)
        assert len(flows) == 40
        assert self._digest(flows) == "99da2a3569ee2608"

    def test_full_mesh_weighted_digest_pinned(self):
        w = zipf_weights(len(self.HOSTS), 1.1)
        assert self._digest(self._mesh(self.HOSTS, w)) == "53a22e11a9ccb4f4"

    def test_incast_digest_pinned(self):
        flows = incast(5, list(range(6, 14)), size_bytes=30_000,
                       stagger_ps=1_000_000)
        assert self._digest(flows) == "7cddef0f946d3c72"

    def test_full_mesh_ignores_container_order(self):
        ref = self._digest(self._mesh(self.HOSTS))
        assert self._digest(self._mesh(list(reversed(self.HOSTS)))) == ref
        assert self._digest(self._mesh(tuple(self.HOSTS))) == ref

    def test_full_mesh_weights_stay_paired_with_hosts(self):
        w = zipf_weights(len(self.HOSTS), 1.1)
        ref = self._digest(self._mesh(self.HOSTS, w))
        # Reversing hosts AND weights together is the same host->weight
        # mapping, so the output must be identical.
        assert self._digest(
            self._mesh(list(reversed(self.HOSTS)), w[::-1])) == ref
        # Reversing only the hosts changes the mapping — and the flows.
        assert self._digest(
            self._mesh(list(reversed(self.HOSTS)), w)) != ref

    def test_incast_ignores_container_order(self):
        ref = self._digest(incast(5, list(range(6, 14)), size_bytes=30_000,
                                  stagger_ps=1_000_000))
        assert self._digest(incast(5, set(range(6, 14)), size_bytes=30_000,
                                   stagger_ps=1_000_000)) == ref
        assert self._digest(incast(5, list(range(13, 5, -1)),
                                   size_bytes=30_000,
                                   stagger_ps=1_000_000)) == ref
