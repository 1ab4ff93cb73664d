"""FIB construction via one BFS per attachment node (Appendix C of the paper).

Routing is hop-count shortest path with all ties kept (the ECMP set).
The paper's Simulation Builder runs one BFS per destination host —
O(#host x (#node + #link)).  ``Topology.freeze()`` guarantees that a
host ``h`` has exactly one link, to its attachment node ``a``, so every
path toward ``h`` ends with the hop ``a -> h``: at every node other than
``a`` and ``h`` the distance to ``h`` is one more than the distance to
``a``, so the ECMP set toward ``h`` is the set toward ``a``; at ``a`` it
is the one port to ``h``.  :func:`build_fib` therefore runs one BFS per
attachment node, O(#attachment nodes x (#node + #link)).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .fib import Fib
from ..errors import RoutingError
from ..topology import Topology


def build_fib(topo: Topology, dests: Optional[List[int]] = None) -> Fib:
    """Build the FIB for all (or the given) destination hosts.

    One BFS from each attachment node serves all of its destination
    hosts, which share one route tuple per node (the module doc says
    why this is exact).  The paper runs its BFS on worker threads; in
    pure Python under the GIL a thread pool would run them one at a
    time and buy no wall-clock (DESIGN.md, "Reproduction strategy and
    substitutions").

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
    # node -> [(local port, neighbour)] in port order, read once per build.
    adj = [sorted((link.port_a if link.node_a == u else link.port_b, link.other(u))
                  for link in topo.links_of(u)) for u in range(topo.num_nodes)]
    classes: Dict[int, List[int]] = {}
    for dest in dests:
        if not (0 <= dest < topo.num_nodes and topo.nodes[dest].is_host):
            raise RoutingError(f"destination {dest} is not a host")
        classes.setdefault(topo.iface(dest, 0).peer_node, []).append(dest)
    fib = Fib(topo)
    tables = fib.tables
    for attach, hosts in classes.items():
        dist = [-1] * topo.num_nodes
        dist[attach] = 0
        order = [attach]
        for u in order:  # BFS: ``order`` grows while it is walked
            for _port, v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
        for v in order[1:]:
            up = dist[v] - 1
            tables[v].update(dict.fromkeys(
                hosts, tuple([port for port, w in adj[v] if dist[w] == up])))
        for host in hosts:
            tables[host].pop(host, None)  # the BFS routed it to itself
            tables[attach][host] = (topo.iface(host, 0).peer_port,)
    return fib
