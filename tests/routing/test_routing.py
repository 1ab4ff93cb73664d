"""Routing: FIB semantics and the BFS builder."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.routing import Fib, build_fib
from repro.topology import (
    Topology, abilene, dumbbell, fattree, geant, isp_wan, leaf_spine,
)
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

    def test_unfrozen_topology_rejected(self):
        topo = Topology("loose")
        h0, h1 = topo.add_host(), topo.add_host()
        topo.add_link(h0, h1)
        with pytest.raises(RoutingError, match="loose"):
            build_fib(topo)

    def test_switch_destination_rejected(self, fattree4):
        switch = fattree4.switches[0]
        with pytest.raises(RoutingError, match=f"destination {switch} "):
            build_fib(fattree4, dests=[fattree4.hosts[0], switch])

    def test_hosts_on_one_switch_share_route_tuples(self, fattree4):
        fib = build_fib(fattree4)
        h1, h2 = fattree4.hosts[:2]
        assert fattree4.iface(h1, 0).peer_node == fattree4.iface(h2, 0).peer_node
        for v in (fattree4.hosts[5], fattree4.switches[-1]):
            assert fib.ports(v, h1) is fib.ports(v, h2)


def reference_tables(topo, dests=None):
    """The per-destination BFS the builder replaced (the paper's
    Appendix C algorithm): one BFS from every destination host, then at
    every other node the ports toward a neighbour one hop closer."""
    tables = [{} for _ in range(topo.num_nodes)]
    for dest in topo.hosts if dests is None else dests:
        dist = [-1] * topo.num_nodes
        dist[dest] = 0
        queue = deque([dest])
        while queue:
            u = queue.popleft()
            for v, _link in topo.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for node in range(topo.num_nodes):
            if node == dest or dist[node] < 0:
                continue
            ports = [link.port_a if link.node_a == node else link.port_b
                     for v, link in topo.neighbors(node)
                     if dist[v] == dist[node] - 1]
            if ports:
                tables[node][dest] = tuple(sorted(ports))
    return tables


@st.composite
def switched_topologies(draw):
    """A connected switch graph with parallel links, an optional
    disconnected switch island, and hosts hung on random switches; node
    ids interleave hosts and switches."""
    n_main = draw(st.integers(1, 8))
    n_island = draw(st.integers(0, 3))
    n_hosts = draw(st.integers(1, 8))
    kinds = draw(st.permutations([0] * n_hosts + [1] * (n_main + n_island)))
    topo = Topology("random")
    nodes = [topo.add_host() if kind == 0 else topo.add_switch()
             for kind in kinds]
    hosts = [n for n, kind in zip(nodes, kinds) if kind == 0]
    switches = [n for n, kind in zip(nodes, kinds) if kind == 1]
    main, island = switches[:n_main], switches[n_main:]
    for group in (main, island):
        for i in range(1, len(group)):  # spanning tree, then chords
            topo.add_link(group[i], group[draw(st.integers(0, i - 1))])
        for _ in range(draw(st.integers(0, 2 * len(group)))):
            a, b = draw(st.sampled_from(group)), draw(st.sampled_from(group))
            if a != b:  # repeats make parallel links
                topo.add_link(a, b)
    for host in hosts:
        topo.add_link(host, draw(st.sampled_from(switches)))
    return topo.freeze()


def _two_hosts():
    topo = Topology("pair")
    h0, h1 = topo.add_host(), topo.add_host()
    topo.add_link(h0, h1)
    return topo.freeze()


@st.composite
def topologies_and_dests(draw):
    topo = draw(st.one_of(switched_topologies(), st.just(_two_hosts())))
    dests = draw(st.none() | st.lists(st.sampled_from(topo.hosts),
                                      unique=True))
    return topo, dests


def assert_lookups_match(topo, dests=None):
    """Every (node, dest) lookup equals the per-destination reference:
    the same ports, and ``RoutingError`` exactly where it has no route;
    ``entry_count()`` counts the routes the reference stores."""
    fib = build_fib(topo, dests)
    reference = reference_tables(topo, dests)
    for node in range(topo.num_nodes):
        for dest in range(topo.num_nodes):
            want = reference[node].get(dest)
            if want is None:
                with pytest.raises(RoutingError):
                    fib.ports(node, dest)
            else:
                assert fib.ports(node, dest) == want, (node, dest)
    assert fib.entry_count() == sum(len(t) for t in reference)


@given(topologies_and_dests())
@settings(max_examples=150, deadline=None)
def test_builder_matches_per_destination_bfs(case):
    assert_lookups_match(*case)


GENERATORS = {
    "fattree4": lambda: fattree(4), "fattree8": lambda: fattree(8),
    "dumbbell": lambda: dumbbell(4), "abilene": abilene, "geant": geant,
    "isp_wan": isp_wan, "leaf_spine": lambda: leaf_spine(4, 3, 5),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_builder_matches_per_destination_bfs_on_generators(name):
    topo = GENERATORS[name]()
    assert_lookups_match(topo)
    assert_lookups_match(topo, topo.hosts[::3])


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_storage_is_per_attachment_class(name):
    """No host holds a table; a switch holds at most one route per
    attachment class plus one per host attached to it."""
    topo = GENERATORS[name]()
    fib = build_fib(topo)
    classes = set(fib.class_of.values())
    for node in topo.hosts:
        assert fib.tables[node] == {}, node
    for node in topo.switches:
        attached = {h for h, key in fib.class_of.items() if key == ~node}
        assert set(fib.tables[node]) <= classes - {~node} | attached, node
