"""FIB construction via one BFS per attachment switch (Appendix C of the paper).

Routing is hop-count shortest path with all ties kept (the ECMP set).
The paper's Simulation Builder runs one BFS per destination host —
O(#host x (#node + #link)) — and stores one route per (node, host).
``Topology.freeze()`` guarantees that a host ``h`` has exactly one
link, to its attachment node ``a``, so every path toward ``h`` ends
with the hop ``a -> h``, and no host lies on a path between two
switches: at every switch other than ``a`` the ECMP set toward ``h``
is the set toward ``a`` over the switch graph; at ``a`` it is the one
port to ``h``; at a host it is the host's one port.  :func:`build_fib`
therefore runs one BFS per attachment switch over the switch graph
only, O(#attachment switches x (#switch + #switch link)), and stores
what the :class:`~repro.routing.fib.Fib` module doc describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fib import Fib
from ..errors import RoutingError
from ..topology import Topology


def build_fib(topo: Topology, dests: Optional[List[int]] = None) -> Fib:
    """Build the FIB for all (or the given) destination hosts.

    One BFS from each attachment switch serves all of its destination
    hosts, which share one interned route tuple per switch (the module
    doc says why this is exact).  The paper runs its BFS on worker
    threads; in pure Python under the GIL a thread pool would run them
    one at a time and buy no wall-clock (DESIGN.md, "Reproduction
    strategy and substitutions").

    Args:
        topo: A frozen topology.
        dests: Destination host ids; defaults to every host.

    Returns:
        A fully populated :class:`Fib`.

    Raises:
        RoutingError: ``topo`` is unfrozen, or a destination is no host.
    """
    if not topo.frozen:
        raise RoutingError(f"topology {topo.name!r} is not frozen")
    if dests is None:
        dests = topo.hosts
    nodes = topo.nodes
    fib = Fib(topo)
    tables, class_of = fib.tables, fib.class_of
    for dest in dests:
        if not (0 <= dest < topo.num_nodes and nodes[dest].is_host):
            raise RoutingError(f"destination {dest} is not a host")
        nic = topo.iface(dest, 0)
        class_of[dest] = ~nic.peer_node
        if not nodes[nic.peer_node].is_host:  # two linked hosts: no table
            tables[nic.peer_node][dest] = (nic.peer_port,)
    # switch -> [(local port, neighbour switch)] in port order.
    adj = [[] if node.is_host else sorted(
        (link.port_a if link.node_a == u else link.port_b, link.other(u))
        for link in topo.links_of(u) if not nodes[link.other(u)].is_host)
        for u, node in enumerate(nodes)]
    interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for key in dict.fromkeys(class_of.values()):
        source = ~key
        if nodes[source].is_host:
            continue
        dist = [-1] * topo.num_nodes
        dist[source] = 0
        order = [source]
        for u in order:  # BFS: ``order`` grows while it is walked
            for _port, v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
        for v in order[1:]:
            up = dist[v] - 1
            route = tuple([port for port, w in adj[v] if dist[w] == up])
            tables[v][key] = interned.setdefault(route, route)
    return fib
