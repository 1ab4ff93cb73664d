"""Routing: FIB semantics and the BFS builder."""

import pytest

from repro.errors import RoutingError
from repro.routing import Fib, build_fib
from repro.topology import Topology, dumbbell, fattree
from repro.units import GBPS, us


class TestFib:
    def test_install_and_lookup(self, small_dumbbell):
        fib = Fib(small_dumbbell)
        fib.install(8, 0, [2, 0, 1])
        assert fib.ports(8, 0) == (0, 1, 2)  # sorted
        with pytest.raises(RoutingError):
            fib.ports(8, 3)
        with pytest.raises(RoutingError):
            fib.install(8, 1, [])

    def test_resolve_single_port_skips_hash(self, small_dumbbell):
        fib = Fib(small_dumbbell)
        fib.install(8, 0, [5])
        assert fib.resolve_port(8, 0, flow_id=123) == 5

    def test_resolve_is_flow_stable(self, fattree4):
        fib = build_fib(fattree4)
        host = fattree4.hosts[-1]
        core_facing = fattree4.switches[10]
        p1 = fib.resolve_port(core_facing, host, flow_id=9)
        p2 = fib.resolve_port(core_facing, host, flow_id=9)
        assert p1 == p2

    def test_path_raises_on_same_endpoints(self, fattree4):
        fib = build_fib(fattree4)
        with pytest.raises(RoutingError):
            fib.path(0, 0, 1)

    def test_entry_count(self, small_dumbbell):
        fib = build_fib(small_dumbbell)
        # every node except the dest itself has an entry per host
        expected = (small_dumbbell.num_nodes - 1) * small_dumbbell.num_hosts
        assert fib.entry_count() == expected


class TestBuilder:
    def test_paths_are_shortest(self, fattree4):
        fib = build_fib(fattree4)
        hosts = fattree4.hosts
        # same edge switch: 2 hops
        assert len(fib.path(hosts[0], hosts[1], 1)) == 3
        # same pod, different edge: 4 hops
        assert len(fib.path(hosts[0], hosts[2], 1)) == 5
        # cross-pod: 6 hops
        assert len(fib.path(hosts[0], hosts[8], 1)) == 7

    def test_subset_of_destinations(self, fattree4):
        hosts = fattree4.hosts
        fib = build_fib(fattree4, dests=hosts[:2])
        assert fib.path(hosts[5], hosts[0], 1)[-1] == hosts[0]
        with pytest.raises(RoutingError):
            fib.path(hosts[0], hosts[5], 1)  # not installed

    def test_ecmp_sets_on_upward_paths(self, fattree4):
        fib = build_fib(fattree4)
        hosts = fattree4.hosts
        # An edge switch has 2 uplinks; cross-pod destinations should
        # expose both as ECMP candidates.
        edge = fib.path(hosts[0], hosts[8], 1)[1]
        assert len(fib.ports(edge, hosts[8])) == 2

    def test_routes_on_wan_with_asymmetric_delays(self):
        topo = Topology("asym")
        h0, h1 = topo.add_host(), topo.add_host()
        s = [topo.add_switch() for _ in range(3)]
        topo.add_link(h0, s[0], 10 * GBPS, us(1))
        topo.add_link(h1, s[2], 10 * GBPS, us(1))
        topo.add_link(s[0], s[1], 10 * GBPS, us(5))
        topo.add_link(s[1], s[2], 10 * GBPS, us(5))
        topo.add_link(s[0], s[2], 10 * GBPS, us(50))  # direct but 1 hop
        topo.freeze()
        fib = build_fib(topo)
        # hop-count routing prefers the direct link regardless of delay
        assert fib.path(h0, h1, 1) == [h0, s[0], s[2], h1]
